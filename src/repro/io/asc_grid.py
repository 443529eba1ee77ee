"""ESRI ASCII grid (.asc) writer.

The de-facto interchange format for small DSM tiles.  Only the subset needed
for DSM exchange is supported: square cells, ``xllcorner``/``yllcorner``
georeferencing, optional ``nodata_value``.  Rows in the file run north to
south (the first data row is the northernmost), so the library's south-up
raster rows are written in reverse.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..gis.dsm import DigitalSurfaceModel

PathLike = Union[str, Path]


def write_asc(dsm: DigitalSurfaceModel, path: PathLike, nodata: float = -9999.0) -> None:
    """Write a DSM to an ESRI ASCII grid file."""
    spec = dsm.raster.spec
    lines = [
        f"ncols {spec.n_cols}",
        f"nrows {spec.n_rows}",
        f"xllcorner {spec.origin_x:.6f}",
        f"yllcorner {spec.origin_y:.6f}",
        f"cellsize {spec.pitch:.6f}",
        f"nodata_value {nodata:.6f}",
    ]
    # File rows go north to south: flip the south-up array.
    for row in dsm.data[::-1]:
        lines.append(" ".join(f"{value:.4f}" for value in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
