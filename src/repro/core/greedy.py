"""The paper's greedy PV floorplanning algorithm (Section III-C, Figure 5).

Exhaustively enumerating placements is hopeless (O(Ng^N) candidate sets), so
the paper allocates modules greedily in decreasing order of a per-cell
*suitability* metric:

1. compute the suitability matrix S from the G/T traces (75th percentile of
   G with a temperature correction factor);
2. rank candidate grid positions by non-increasing suitability, breaking
   ties in favour of positions closer to the modules already placed;
3. iterate over the N modules *series-first* (all modules of a string are
   placed before moving to the next string) and assign each the best-ranked
   position that (a) still fits -- a module covers k1 x k2 cells, which are
   then removed from the candidate list -- and (b) does not exceed the
   dispersion threshold (twice the average distance of the already placed
   modules).

The implementation mirrors that structure; the only liberty taken is that a
candidate violating the distance threshold is skipped (the scan moves to the
next candidate) rather than dropping the module altogether, and the
threshold is relaxed if no candidate at all satisfies it -- both required
for the algorithm to always place exactly N modules.

Candidate maintenance is *incremental*: the feasible-anchor set and the
per-anchor scores/centres are materialised once, and placing a module only
removes the candidates whose window intersects the new footprint (a
``(k1+k2-1)``-sized neighbourhood) instead of rebuilding full-grid masks per
module.  The tests hold the original rebuild-everything flow as an oracle,
and the two must produce *identical* placements module for module.

Warm starts exploit the algorithm's *prefix property*: the choice at step
``i`` depends only on the modules placed at steps ``0..i-1`` (``n_modules``
merely bounds the loop), so the solution for ``n`` modules is literally the
first ``n`` rows of the solution for any larger instance of the same roof.
When a caller passes a ``warm_start`` whose ``exact_prefix`` flag promises
the hint came from the same problem with a smaller ``n_modules``, the
placer validates the hinted prefix (bounds, validity, overlap -- a lying
hint falls back to a cold solve) and resumes selection at module ``k``,
skipping the per-module argmax scans for the replayed prefix entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner -> core)
    from ..runner.solvers import WarmStart

from ..errors import InfeasiblePlacementError
from ..geometry import Point2D
from ..telemetry import trace_event, tracing_enabled
from .constraints import (
    DistanceThreshold,
    anchor_center,
    anchors_overlapping_placement,
    feasible_anchor_mask,
    mark_occupied,
    sliding_window_sum,
)
from .placement import ModuleFootprint, ModulePlacement, Placement
from .problem import FloorplanProblem
from .suitability import SuitabilityConfig, SuitabilityMap, compute_suitability


@dataclass(frozen=True)
class GreedyConfig:
    """Tunables of the greedy floorplanner.

    ``tie_tolerance`` is the relative suitability band within which two
    candidates are considered "identical" so the distance tie-breaker of the
    paper's ranking kicks in (1 % by default): it is what keeps the sparse
    placement *local* -- among near-equivalent cells the one closest to the
    modules already placed wins, so the wiring overhead stays in the tens of
    metres the paper reports instead of spreading across the whole roof.
    """

    footprint_aggregate: str = "mean"
    tie_tolerance: float = 0.01
    respect_distance_threshold: bool = True

    def __post_init__(self) -> None:
        if self.footprint_aggregate not in ("mean", "min", "anchor"):
            raise InfeasiblePlacementError(
                f"unknown footprint aggregate {self.footprint_aggregate!r}"
            )
        if self.tie_tolerance < 0:
            raise InfeasiblePlacementError("tie_tolerance must be non-negative")


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy floorplanning run.

    ``warm_modules`` counts the modules replayed from a validated
    warm-start prefix (0 = cold solve or rejected hint).
    """

    placement: Placement
    suitability: SuitabilityMap
    runtime_s: float
    relaxed_threshold_count: int
    warm_modules: int = 0


def _footprint_score_map(
    suitability: SuitabilityMap, cells_h: int, cells_w: int, aggregate: str
) -> np.ndarray:
    """Score of every anchor = aggregate suitability over the module footprint.

    Anchors whose footprint exits the grid or touches an invalid cell get
    ``-inf``.  Vectorised with a sliding-window sum over the value map.
    """
    values = suitability.values
    n_rows, n_cols = values.shape
    scores = np.full((n_rows, n_cols), -np.inf)
    if cells_h > n_rows or cells_w > n_cols:
        return scores

    finite = np.nan_to_num(values, nan=0.0)
    invalid = np.isnan(values).astype(np.int64)

    sums = sliding_window_sum(finite, cells_h, cells_w)
    bad = sliding_window_sum(invalid.astype(float), cells_h, cells_w) > 0.5
    n_cells = cells_h * cells_w

    if aggregate == "mean":
        window_scores = sums / n_cells
    elif aggregate == "anchor":
        window_scores = values[: n_rows - cells_h + 1, : n_cols - cells_w + 1].copy()
        window_scores = np.nan_to_num(window_scores, nan=-np.inf)
    else:  # "min": fall back to an explicit window minimum (rarely used)
        window_scores = np.full((n_rows - cells_h + 1, n_cols - cells_w + 1), np.inf)
        for dr in range(cells_h):
            for dc in range(cells_w):
                window_scores = np.minimum(
                    window_scores,
                    np.nan_to_num(
                        values[dr : dr + n_rows - cells_h + 1, dc : dc + n_cols - cells_w + 1],
                        nan=-np.inf,
                    ),
                )
    window_scores = np.where(bad, -np.inf, window_scores)
    scores[: n_rows - cells_h + 1, : n_cols - cells_w + 1] = window_scores
    return scores


class _CandidateSet:
    """Feasible anchors of one orientation, maintained incrementally.

    The arrays stay in the row-major order ``np.nonzero`` produced them in,
    and placing a module only *filters* them (boolean keep-mask), so every
    argmax/argmin tie is broken exactly like the full-rebuild reference --
    the two implementations yield identical placements module for module.
    """

    def __init__(self, problem: FloorplanProblem, fp: ModuleFootprint, rotated: bool,
                 score_map: np.ndarray, occupied: np.ndarray | None = None):
        self.fp = fp
        self.rotated = rotated
        if occupied is None:
            occupied = np.zeros(problem.grid.shape, dtype=bool)
        feasible = feasible_anchor_mask(problem.grid.valid_mask, occupied, fp)
        candidates = feasible & np.isfinite(score_map)
        rows, cols = np.nonzero(candidates)
        self.rows = rows
        self.cols = cols
        self.values = score_map[rows, cols]
        pitch = problem.grid.pitch
        self.centers_u = (cols + fp.cells_w / 2.0) * pitch
        self.centers_v = (rows + fp.cells_h / 2.0) * pitch

    def remove_overlapping(self, row: int, col: int, placed_fp: ModuleFootprint) -> None:
        """Drop the anchors whose window intersects a just-placed module."""
        drop = anchors_overlapping_placement(
            self.rows, self.cols, self.fp, row, col, placed_fp
        )
        if not np.any(drop):
            return
        keep = ~drop
        self.rows = self.rows[keep]
        self.cols = self.cols[keep]
        self.values = self.values[keep]
        self.centers_u = self.centers_u[keep]
        self.centers_v = self.centers_v[keep]


def greedy_floorplan(
    problem: FloorplanProblem,
    suitability: SuitabilityMap | None = None,
    config: GreedyConfig | None = None,
    warm_start: "WarmStart | None" = None,
) -> GreedyResult:
    """Run the paper's greedy placement algorithm on a problem instance.

    ``warm_start`` resumes placement after a validated prefix replay (see
    the module docstring); a hint without ``exact_prefix`` or one that
    fails validation is ignored and the solve runs cold, so passing a
    stale or foreign hint can never change the answer -- only the time it
    takes to reach it.
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

    warm = (
        _validated_warm_prefix(problem, warm_start, score_maps, orientations)
        if warm_start is not None
        else None
    )
    if warm is not None:
        placed, placed_centers, occupied, relaxed = warm
    else:
        placed, placed_centers, occupied, relaxed = [], [], None, 0
    warm_modules = len(placed)

    # Rebuilding the candidate sets against the prefix's occupied mask gives
    # exactly the state the incremental removals would have left behind (same
    # feasibility criterion, same row-major order), at one sliding-window
    # pass instead of one removal scan per replayed module.
    candidate_sets = [
        _CandidateSet(problem, fp, rotated, score_maps[rotated], occupied=occupied)
        for fp, rotated in orientations
    ]

    module_diagonal = problem.grid.pitch * float(
        np.hypot(footprint.cells_w, footprint.cells_h)
    )
    threshold = DistanceThreshold(
        factor=problem.distance_threshold_factor,
        min_radius_m=max(5.0 * module_diagonal, 6.0),
    )
    traced = tracing_enabled()
    if traced and warm_modules:
        trace_event(
            "greedy.warm_start",
            modules=warm_modules,
            source=getattr(warm_start, "source", None),
        )

    for module_index in range(warm_modules, problem.n_modules):
        relaxed_before = relaxed
        best = _select_candidate(cfg, candidate_sets, placed_centers, threshold)
        if best is None:
            # No candidate satisfies the dispersion filter: relax it once.
            relaxed += 1
            best = _select_candidate(cfg, candidate_sets, placed_centers, None)
        if best is None:
            raise InfeasiblePlacementError(
                f"could not place module {module_index}: no feasible anchor remains"
            )
        row, col, rotated, fp = best
        placed.append(
            ModulePlacement(module_index=module_index, row=row, col=col, rotated=rotated)
        )
        placed_centers.append(anchor_center(row, col, fp, problem.grid.pitch))
        for candidate_set in candidate_sets:
            candidate_set.remove_overlapping(row, col, fp)
        if traced:
            # Per-placement accounting: how fast the candidate sets shrink
            # and whether the dispersion threshold had to be relaxed.
            trace_event(
                "greedy.step",
                module=module_index,
                row=row,
                col=col,
                candidates_left=int(sum(cs.rows.size for cs in candidate_sets)),
                relaxed=relaxed > relaxed_before,
            )

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
        warm_modules=warm_modules,
    )


def _validated_warm_prefix(
    problem: FloorplanProblem,
    warm_start: "WarmStart",
    score_maps: dict,
    orientations,
):
    """Validate a warm-start hint as this problem's own greedy prefix.

    Returns ``(placed, placed_centers, occupied, relaxed)`` when the hint is
    usable, ``None`` otherwise.  The checks are deliberately cheap -- O(k)
    in the prefix length, never touching the candidate arrays: a finite
    score at the hinted anchor already proves the footprint is in bounds and
    clear of invalid cells, so only mutual overlap needs tracking.
    """
    hint = getattr(warm_start, "placement", None)
    if hint is None or not getattr(warm_start, "exact_prefix", False):
        return None
    if not hint.modules or len(hint.modules) > problem.n_modules:
        return None
    if hint.metadata.get("algorithm") != "greedy":
        return None
    footprint = problem.footprint
    if (hint.footprint.cells_w, hint.footprint.cells_h) != (
        footprint.cells_w,
        footprint.cells_h,
    ):
        return None
    if abs(hint.grid_pitch - problem.grid.pitch) > 1e-9:
        return None

    footprint_by_rotation = {rotated: fp for fp, rotated in orientations}
    occupied = np.zeros(problem.grid.shape, dtype=bool)
    placed: list[ModulePlacement] = []
    placed_centers: list[Point2D] = []
    for expected_index, module in enumerate(hint.modules):
        if module.module_index != expected_index:
            return None
        fp = footprint_by_rotation.get(module.rotated)
        if fp is None:
            return None
        score_map = score_maps[module.rotated]
        row, col = module.row, module.col
        if not (0 <= row < score_map.shape[0] and 0 <= col < score_map.shape[1]):
            return None
        if not np.isfinite(score_map[row, col]):
            return None
        if occupied[row : row + fp.cells_h, col : col + fp.cells_w].any():
            return None
        placed.append(
            ModulePlacement(
                module_index=expected_index, row=row, col=col, rotated=module.rotated
            )
        )
        placed_centers.append(anchor_center(row, col, fp, problem.grid.pitch))
        mark_occupied(occupied, row, col, fp)

    # The hint's own relax tally *is* the cold solve's tally over the same
    # prefix: identical algorithm, identical decisions.
    relaxed = int(hint.metadata.get("relaxed_threshold_count", 0))
    return placed, placed_centers, occupied, relaxed


def _select_candidate(
    cfg: GreedyConfig,
    candidate_sets: list[_CandidateSet],
    placed_centers: list[Point2D],
    threshold: DistanceThreshold | None,
):
    """Pick the best feasible anchor across the allowed orientations.

    Returns ``(row, col, rotated, footprint)`` or ``None`` when nothing fits.
    """
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

    for candidate_set in candidate_sets:
        if candidate_set.rows.size == 0:
            continue
        rows = candidate_set.rows
        cols = candidate_set.cols
        values = candidate_set.values

        if centroid is not None:
            distances = np.hypot(
                candidate_set.centers_u - centroid.x,
                candidate_set.centers_v - centroid.y,
            )
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
            best_tuple = (
                int(tie_rows[pick]),
                int(tie_cols[pick]),
                candidate_set.rotated,
                candidate_set.fp,
            )

    return best_tuple
