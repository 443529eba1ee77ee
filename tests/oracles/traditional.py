"""Per-row oracle of :func:`repro.core.traditional.traditional_floorplan`.

The compact baseline's flow with its two fallbacks written directly.  Every
string row recomputes the sliding-window suitability score of its width,
although that score depends on nothing the earlier rows change; the
baseline computes it once.  The per-module packing
rebuilds the feasible-anchor mask and the distances to its seed for every
module; the baseline computes the distances once and clears each placed
module's overlap window.  Both must return the same placement and the same
strategy.
"""

from __future__ import annotations

import numpy as np

from repro.core.constraints import anchor_center, feasible_anchor_mask, mark_occupied
from repro.core.placement import ModuleFootprint, ModulePlacement
from repro.core.problem import FloorplanProblem
from repro.core.suitability import SuitabilityMap
from repro.core.traditional import _try_full_block, _window_score
from repro.geometry import Point2D


def traditional_floorplan_reference(
    problem: FloorplanProblem, suitability: SuitabilityMap
) -> tuple[list[ModulePlacement] | None, str | None]:
    """``(modules, strategy)`` of the compact baseline, ``(None, None)``
    when no strategy fits."""
    footprint = problem.footprint
    modules = _try_full_block(problem, suitability, footprint)
    if modules is not None:
        return modules, "full-block"
    modules = _try_string_rows_reference(problem, suitability, footprint)
    if modules is not None:
        return modules, "string-rows"
    modules = pack_modules_individually_reference(problem, suitability, footprint)
    if modules is not None:
        return modules, "packed-modules"
    return None, None


def pack_modules_individually_reference(
    problem: FloorplanProblem, suitability: SuitabilityMap, footprint: ModuleFootprint
) -> list[ModulePlacement] | None:
    """Each module at the free anchor nearest the seed, every mask rebuilt."""
    occupied = np.zeros(problem.grid.shape, dtype=bool)
    modules: list[ModulePlacement] = []

    seed_scores = _window_score(suitability.values, footprint.cells_h, footprint.cells_w)
    feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, footprint)
    seed_scores = np.where(feasible, seed_scores, -np.inf)
    if not np.any(np.isfinite(seed_scores)):
        return None
    seed_row, seed_col = np.unravel_index(int(np.argmax(seed_scores)), seed_scores.shape)
    seed_center = anchor_center(int(seed_row), int(seed_col), footprint, problem.grid.pitch)

    for module_index in range(problem.n_modules):
        feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, footprint)
        rows, cols = np.nonzero(feasible)
        if rows.size == 0:
            return None
        centers_u = (cols + footprint.cells_w / 2.0) * problem.grid.pitch
        centers_v = (rows + footprint.cells_h / 2.0) * problem.grid.pitch
        distances = np.hypot(centers_u - seed_center.x, centers_v - seed_center.y)
        pick = int(np.argmin(distances))
        row, col = int(rows[pick]), int(cols[pick])
        modules.append(
            ModulePlacement(module_index=module_index, row=row, col=col, rotated=False)
        )
        mark_occupied(occupied, row, col, footprint)
    return modules


def _try_string_rows_reference(
    problem: FloorplanProblem, suitability: SuitabilityMap, footprint: ModuleFootprint
):
    """Each string as a contiguous row, its window score recomputed per row."""
    n_series = problem.topology.n_series
    row_h = footprint.cells_h
    row_w = n_series * footprint.cells_w
    occupied = np.zeros(problem.grid.shape, dtype=bool)
    modules: list[ModulePlacement] = []
    placed_centers: list[Point2D] = []

    for _ in range(problem.topology.n_parallel):
        row_footprint = ModuleFootprint(cells_w=row_w, cells_h=row_h)
        feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, row_footprint)
        if not np.any(feasible):
            return None
        scores = _window_score(suitability.values, row_h, row_w)
        scores = np.where(feasible, scores, -np.inf)
        rows, cols = np.nonzero(np.isfinite(scores))
        if rows.size == 0:
            return None
        if not placed_centers:
            pick = int(np.argmax(scores[rows, cols]))
        else:
            centroid = Point2D(
                float(np.mean([p.x for p in placed_centers])),
                float(np.mean([p.y for p in placed_centers])),
            )
            centers_u = (cols + row_w / 2.0) * problem.grid.pitch
            centers_v = (rows + row_h / 2.0) * problem.grid.pitch
            distances = np.hypot(centers_u - centroid.x, centers_v - centroid.y)
            pick = int(np.argmin(distances))
        anchor_row, anchor_col = int(rows[pick]), int(cols[pick])

        for k in range(n_series):
            col = anchor_col + k * footprint.cells_w
            modules.append(
                ModulePlacement(module_index=len(modules), row=anchor_row, col=col, rotated=False)
            )
            placed_centers.append(
                anchor_center(anchor_row, col, footprint, problem.grid.pitch)
            )
            mark_occupied(occupied, anchor_row, col, footprint)
    return modules
