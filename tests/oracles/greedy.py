"""Full-rebuild oracle of :func:`repro.core.greedy.greedy_floorplan`.

The paper's greedy flow written directly: every module rebuilds the
full-grid feasible-anchor mask of each orientation and rescans it for the
best candidate.  The incremental placer must return placements identical
to it, module for module.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.constraints import (
    DistanceThreshold,
    anchor_center,
    feasible_anchor_mask,
    mark_occupied,
)
from repro.core.greedy import GreedyConfig, GreedyResult, _footprint_score_map
from repro.core.placement import ModulePlacement, Placement
from repro.core.problem import FloorplanProblem
from repro.core.suitability import SuitabilityConfig, SuitabilityMap, compute_suitability
from repro.errors import InfeasiblePlacementError
from repro.geometry import Point2D


def greedy_floorplan_reference(
    problem: FloorplanProblem,
    suitability: SuitabilityMap | None = None,
    config: GreedyConfig | None = None,
) -> GreedyResult:
    """Original greedy flow rebuilding full-grid masks per module.

    Ground truth for the incremental :func:`greedy_floorplan`: the two must
    return identical placements module for module (the equivalence test
    checks this on the scenario catalog).
    """
    cfg = config if config is not None else GreedyConfig()
    start = time.perf_counter()

    if suitability is None:
        suitability = compute_suitability(
            problem.solar,
            SuitabilityConfig(percentile=problem.suitability_percentile),
            problem.module_model,
        )

    footprint = problem.footprint
    orientations = [(footprint, False)]
    if problem.allow_rotation and footprint.cells_w != footprint.cells_h:
        orientations.append((footprint.rotated(), True))

    score_maps = {
        rotated: _footprint_score_map(
            suitability, fp.cells_h, fp.cells_w, cfg.footprint_aggregate
        )
        for fp, rotated in orientations
    }

    occupied = np.zeros(problem.grid.shape, dtype=bool)
    module_diagonal = problem.grid.pitch * float(
        np.hypot(footprint.cells_w, footprint.cells_h)
    )
    threshold = DistanceThreshold(
        factor=problem.distance_threshold_factor,
        min_radius_m=max(5.0 * module_diagonal, 6.0),
    )
    placed: list[ModulePlacement] = []
    placed_centers: list[Point2D] = []
    relaxed = 0

    for module_index in range(problem.n_modules):
        best = _select_candidate_reference(
            problem, cfg, orientations, score_maps, occupied, placed_centers, threshold
        )
        if best is None:
            relaxed += 1
            best = _select_candidate_reference(
                problem, cfg, orientations, score_maps, occupied, placed_centers, None
            )
        if best is None:
            raise InfeasiblePlacementError(
                f"could not place module {module_index}: no feasible anchor remains"
            )
        row, col, rotated, fp = best
        placed.append(
            ModulePlacement(module_index=module_index, row=row, col=col, rotated=rotated)
        )
        placed_centers.append(anchor_center(row, col, fp, problem.grid.pitch))
        mark_occupied(occupied, row, col, fp)

    runtime = time.perf_counter() - start
    placement = Placement(
        modules=tuple(placed),
        footprint=footprint,
        topology=problem.topology,
        grid_pitch=problem.grid.pitch,
        label="greedy",
        metadata={
            "algorithm": "greedy",
            "runtime_s": runtime,
            "suitability_percentile": suitability.config.percentile,
            "relaxed_threshold_count": relaxed,
        },
    )
    return GreedyResult(
        placement=placement,
        suitability=suitability,
        runtime_s=runtime,
        relaxed_threshold_count=relaxed,
    )


def _select_candidate_reference(
    problem: FloorplanProblem,
    cfg: GreedyConfig,
    orientations,
    score_maps,
    occupied: np.ndarray,
    placed_centers: list[Point2D],
    threshold: DistanceThreshold | None,
):
    """Full-rebuild candidate selection of the reference greedy flow."""
    best_tuple = None
    best_score = -np.inf
    best_distance = np.inf

    apply_threshold = (
        threshold is not None and cfg.respect_distance_threshold and placed_centers
    )

    if placed_centers:
        centroid = Point2D(
            float(np.mean([p.x for p in placed_centers])),
            float(np.mean([p.y for p in placed_centers])),
        )
        limit = threshold.threshold_for(placed_centers) if apply_threshold else np.inf
    else:
        centroid = None
        limit = np.inf

    for fp, rotated in orientations:
        feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, fp)
        scores = score_maps[rotated]
        candidate_scores = np.where(feasible, scores, -np.inf)
        if not np.any(np.isfinite(candidate_scores)):
            continue

        rows, cols = np.nonzero(np.isfinite(candidate_scores))
        values = candidate_scores[rows, cols]

        if centroid is not None:
            centers_u = (cols + fp.cells_w / 2.0) * problem.grid.pitch
            centers_v = (rows + fp.cells_h / 2.0) * problem.grid.pitch
            distances = np.hypot(centers_u - centroid.x, centers_v - centroid.y)
        else:
            distances = np.zeros_like(values)

        if apply_threshold and np.isfinite(limit):
            within = distances <= limit
            if not np.any(within):
                continue
            rows, cols, values, distances = (
                rows[within],
                cols[within],
                values[within],
                distances[within],
            )

        top = float(np.max(values))
        near_top = values >= top - cfg.tie_tolerance * max(abs(top), 1.0)
        tie_rows, tie_cols = rows[near_top], cols[near_top]
        tie_distances = distances[near_top]
        pick = int(np.argmin(tie_distances))
        score = top
        distance = float(tie_distances[pick])

        better = score > best_score + 1e-15 or (
            abs(score - best_score) <= cfg.tie_tolerance * max(abs(score), 1.0)
            and distance < best_distance
        )
        if better:
            best_score = score
            best_distance = distance
            best_tuple = (int(tie_rows[pick]), int(tie_cols[pick]), rotated, fp)

    return best_tuple
