"""Traditional (compact) placement baseline.

The paper compares its sparse floorplans against the conventional practice:
the N modules are packed tightly together, and the whole block is put on the
most irradiated part of the roof ("notice that these placements are
determined using accurate spatio-temporal irradiance information that are
not normally available to installators.  Therefore, we are comparing our
solution to a particularly good reference").

The baseline implemented here follows that description:

1. the N modules are arranged as a compact block of ``n_parallel`` rows
   (one per string) of ``n_series`` touching modules each;
2. the block is anchored at the feasible position maximising the total
   suitability of the covered cells (i.e. the most irradiated area);
3. when obstacles prevent the full block from fitting anywhere, the block
   degrades gracefully: first string-rows are placed as contiguous units
   packed as close to each other as possible, and as a last resort modules
   are packed one by one around the best seed position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasiblePlacementError
from ..geometry import Point2D
from .constraints import (
    anchor_center,
    feasible_anchor_mask,
    mark_occupied,
    sliding_window_sum,
)
from .placement import ModuleFootprint, ModulePlacement, Placement
from .problem import FloorplanProblem
from .suitability import SuitabilityMap, problem_suitability


@dataclass(frozen=True)
class TraditionalResult:
    """Outcome of the compact-baseline placement."""

    placement: Placement
    suitability: SuitabilityMap
    runtime_s: float
    strategy: str


def _window_score(values: np.ndarray, cells_h: int, cells_w: int) -> np.ndarray:
    """Sliding-window sum of suitability (NaN cells poison the window)."""
    n_rows, n_cols = values.shape
    scores = np.full((n_rows, n_cols), -np.inf)
    if cells_h > n_rows or cells_w > n_cols:
        return scores
    finite = np.nan_to_num(values, nan=0.0)
    invalid = np.isnan(values).astype(float)

    sums = sliding_window_sum(finite, cells_h, cells_w)
    bad = sliding_window_sum(invalid, cells_h, cells_w) > 0.5
    scores[: n_rows - cells_h + 1, : n_cols - cells_w + 1] = np.where(bad, -np.inf, sums)
    return scores


def traditional_floorplan(
    problem: FloorplanProblem,
    suitability: SuitabilityMap | None = None,
) -> TraditionalResult:
    """Place the modules as a compact block on the most irradiated area.

    Each row of the block holds one series string, and the modules touch.
    """
    start = time.perf_counter()

    if suitability is None:
        suitability = problem_suitability(problem)

    footprint = problem.footprint
    placement_modules = _try_full_block(problem, suitability, footprint)
    strategy = "full-block"
    if placement_modules is None:
        placement_modules = _try_string_rows(problem, suitability, footprint)
        strategy = "string-rows"
    if placement_modules is None:
        placement_modules = _pack_modules_individually(problem, suitability, footprint)
        strategy = "packed-modules"
    if placement_modules is None:
        raise InfeasiblePlacementError(
            "the compact baseline could not fit the requested modules on the roof"
        )

    runtime = time.perf_counter() - start
    placement = Placement(
        modules=tuple(placement_modules),
        footprint=footprint,
        topology=problem.topology,
        grid_pitch=problem.grid.pitch,
        label="traditional",
        metadata={"algorithm": "traditional", "strategy": strategy, "runtime_s": runtime},
    )
    return TraditionalResult(
        placement=placement, suitability=suitability, runtime_s=runtime, strategy=strategy
    )


def _try_full_block(
    problem: FloorplanProblem, suitability: SuitabilityMap, footprint: ModuleFootprint
):
    """Attempt to place the whole compact block at its best-scoring anchor.

    The block has one row per string, ``n_series`` modules wide.
    """
    n_series = problem.topology.n_series
    block_h = problem.topology.n_parallel * footprint.cells_h
    block_w = n_series * footprint.cells_w
    block_footprint = ModuleFootprint(cells_w=block_w, cells_h=block_h)

    feasible = feasible_anchor_mask(
        problem.grid.valid_mask, np.zeros(problem.grid.shape, dtype=bool), block_footprint
    )
    if not np.any(feasible):
        return None
    scores = _window_score(suitability.values, block_h, block_w)
    scores = np.where(feasible, scores, -np.inf)
    if not np.any(np.isfinite(scores)):
        return None
    anchor_row, anchor_col = np.unravel_index(int(np.argmax(scores)), scores.shape)

    return [
        ModulePlacement(
            module_index=i,
            row=int(anchor_row) + i // n_series * footprint.cells_h,
            col=int(anchor_col) + i % n_series * footprint.cells_w,
            rotated=False,
        )
        for i in range(problem.n_modules)
    ]


def _try_string_rows(
    problem: FloorplanProblem, suitability: SuitabilityMap, footprint: ModuleFootprint
):
    """Place each string as a contiguous row, packing rows as close as possible.

    Every row is one string wide, so the suitability score of a row is
    computed once; feasibility changes as rows are placed and is recomputed
    per row.
    """
    n_series = problem.topology.n_series
    row_h = footprint.cells_h
    row_w = n_series * footprint.cells_w
    row_footprint = ModuleFootprint(cells_w=row_w, cells_h=row_h)
    window_scores = _window_score(suitability.values, row_h, row_w)

    occupied = np.zeros(problem.grid.shape, dtype=bool)
    modules: list[ModulePlacement] = []
    placed_centers: list[Point2D] = []

    for _ in range(problem.topology.n_parallel):
        feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, row_footprint)
        if not np.any(feasible):
            return None
        scores = np.where(feasible, window_scores, -np.inf)
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


def _pack_modules_individually(
    problem: FloorplanProblem, suitability: SuitabilityMap, footprint: ModuleFootprint
):
    """Last-resort compact packing: modules hug the best seed position.

    Each module takes the free anchor nearest the seed, the first in
    row-major order on ties.  The distances to the seed never change, so
    they are computed once; a placed module only rules out the anchors
    whose footprint overlaps its own, and that window of the map is cleared.
    """
    n_rows, n_cols = problem.grid.shape
    feasible = feasible_anchor_mask(
        problem.grid.valid_mask, np.zeros((n_rows, n_cols), dtype=bool), footprint
    )
    seed_scores = _window_score(suitability.values, footprint.cells_h, footprint.cells_w)
    seed_scores = np.where(feasible, seed_scores, -np.inf)
    if not np.any(np.isfinite(seed_scores)):
        return None
    seed_row, seed_col = np.unravel_index(int(np.argmax(seed_scores)), seed_scores.shape)
    seed_center = anchor_center(int(seed_row), int(seed_col), footprint, problem.grid.pitch)

    centers_u = (np.arange(n_cols) + footprint.cells_w / 2.0) * problem.grid.pitch
    centers_v = (np.arange(n_rows) + footprint.cells_h / 2.0) * problem.grid.pitch
    distances = np.hypot(centers_u - seed_center.x, centers_v[:, None] - seed_center.y)
    distances[~feasible] = np.inf
    kh, kw = footprint.cells_h, footprint.cells_w
    modules: list[ModulePlacement] = []
    for module_index in range(problem.n_modules):
        row, col = divmod(int(np.argmin(distances)), n_cols)
        if distances[row, col] == np.inf:
            return None
        modules.append(
            ModulePlacement(module_index=module_index, row=row, col=col, rotated=False)
        )
        distances[max(row - kh + 1, 0) : row + kh, max(col - kw + 1, 0) : col + kw] = np.inf
    return modules
