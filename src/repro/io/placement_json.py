"""Placement and report JSON serialisation.

Placements are the artefact an installer would actually consume, so they are
serialisable to a small, self-describing JSON document: module anchors,
orientation, footprint, topology, and free-form metadata.  Experiment
reports (Table-I style rows) share the same mechanism.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..core.placement import ModuleFootprint, ModulePlacement, Placement
from ..errors import IOFormatError
from ..pv.array import SeriesParallelTopology

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def placement_to_dict(placement: Placement) -> dict:
    """Convert a placement to a JSON-serialisable dictionary."""
    return {
        "format_version": _FORMAT_VERSION,
        "label": placement.label,
        "grid_pitch_m": placement.grid_pitch,
        "footprint": {
            "cells_w": placement.footprint.cells_w,
            "cells_h": placement.footprint.cells_h,
        },
        "topology": {
            "n_series": placement.topology.n_series,
            "n_parallel": placement.topology.n_parallel,
        },
        "modules": [
            {
                "module_index": module.module_index,
                "row": module.row,
                "col": module.col,
                "rotated": module.rotated,
            }
            for module in placement
        ],
        "metadata": dict(placement.metadata),
    }


def placement_from_dict(data: dict) -> Placement:
    """Rebuild a placement from its dictionary form.

    Raises
    ------
    IOFormatError
        If mandatory keys are missing or the format version is unsupported.
    """
    try:
        version = data["format_version"]
        if version != _FORMAT_VERSION:
            raise IOFormatError(f"unsupported placement format version {version}")
        footprint = ModuleFootprint(
            cells_w=int(data["footprint"]["cells_w"]),
            cells_h=int(data["footprint"]["cells_h"]),
        )
        topology = SeriesParallelTopology(
            n_series=int(data["topology"]["n_series"]),
            n_parallel=int(data["topology"]["n_parallel"]),
        )
        modules = tuple(
            ModulePlacement(
                module_index=int(entry["module_index"]),
                row=int(entry["row"]),
                col=int(entry["col"]),
                rotated=bool(entry.get("rotated", False)),
            )
            for entry in data["modules"]
        )
        return Placement(
            modules=modules,
            footprint=footprint,
            topology=topology,
            grid_pitch=float(data["grid_pitch_m"]),
            label=str(data.get("label", "loaded")),
            metadata=dict(data.get("metadata", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFormatError(f"malformed placement document: {exc}") from exc


def save_placement(placement: Placement, path: PathLike) -> None:
    """Write a placement to a JSON file."""
    Path(path).write_text(
        json.dumps(placement_to_dict(placement), indent=2, sort_keys=True),
        encoding="ascii",
    )
