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
threshold is relaxed if no candidate at all satisfies it.  Relaxing the
threshold does not make the greedy complete: it never backtracks, so
geometry can still defeat it.  On a window only a little wider than two
modules, for example, the best-ranked cell may put the first module in
the middle and leave no room for the second; the greedy then raises
:class:`~repro.errors.InfeasiblePlacementError` where the ILP places every
module.

Candidate maintenance is *incremental*: the feasible anchors of each
orientation and their scores/centres are materialised once, in row-major
order, and never move.  Placing a module clears the ``alive`` flag of the
anchors whose window intersects the new footprint -- found through a
grid-shaped anchor-index map, so only the ``(k1+k2-1)``-sized neighbourhood
is touched -- instead of rebuilding full-grid masks or compacting arrays per
module.  Selection reduces over the live anchors with masked reductions
whose ties fall on the first row-major anchor, as before.  The tests hold
the original rebuild-everything flow as an oracle, and the two must produce
*identical* placements module for module.

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
from ..telemetry import trace_event, tracing_enabled
from .constraints import (
    DistanceThreshold,
    anchor_center,
    feasible_anchor_mask,
    mark_occupied,
    sliding_window_sum,
)
from .placement import ModuleFootprint, ModulePlacement, Placement
from .problem import FloorplanProblem
from .suitability import SuitabilityMap, problem_suitability


#: Relative suitability band within which two candidates are considered
#: "identical", so the distance tie-breaker of the paper's ranking kicks in.
#: It is what keeps the sparse placement *local*: among near-equivalent
#: cells the one closest to the modules already placed wins, so the wiring
#: overhead stays in the tens of metres the paper reports instead of
#: spreading across the whole roof.
TIE_TOLERANCE = 0.01


@dataclass(frozen=True)
class GreedyConfig:
    """Tunables of the greedy floorplanner.

    An anchor scores the mean suitability over the module footprint, and
    candidates within :data:`TIE_TOLERANCE` of the best are ranked by their
    distance to the placed modules.  ``respect_distance_threshold=False``
    drops the paper's dispersion threshold (an ablation).
    """

    respect_distance_threshold: bool = True


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


def _footprint_score_map(suitability: SuitabilityMap, cells_h: int, cells_w: int) -> np.ndarray:
    """Score of every anchor = mean suitability over the module footprint.

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
    window_scores = np.where(bad, -np.inf, sums / (cells_h * cells_w))
    scores[: n_rows - cells_h + 1, : n_cols - cells_w + 1] = window_scores
    return scores


class _CandidateSet:
    """Feasible anchors of one orientation, kept in place.

    The arrays hold the anchors in the row-major order ``np.nonzero``
    produced them in and never change; placing a module only clears the
    ``alive`` flag of the anchors it overlaps.  ``index`` maps a grid cell
    to its anchor's position in the arrays (``-1``: no live anchor there),
    so a removal reads the overlap window of the index map instead of
    scanning every anchor.  Selection reduces over the live anchors in
    array order, so every argmax/argmin tie is broken exactly like the
    full-rebuild reference -- the two implementations yield identical
    placements module for module.
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
        self.alive = np.ones(rows.size, dtype=bool)
        self.n_alive = rows.size
        self.index = np.full(problem.grid.shape, -1, dtype=np.intp)
        self.index[rows, cols] = np.arange(rows.size)

    def remove_overlapping(self, row: int, col: int, placed_fp: ModuleFootprint) -> None:
        """Drop the anchors whose window intersects a just-placed module.

        An anchor at ``(r, c)`` spanning ``kh x kw`` cells intersects the
        placed footprint ``[row, row+ph) x [col, col+pw)`` exactly when
        ``row - kh < r < row + ph`` and ``col - kw < c < col + pw``: the only
        region whose feasibility a placement changes.
        """
        window = self.index[
            max(row - self.fp.cells_h + 1, 0) : row + placed_fp.cells_h,
            max(col - self.fp.cells_w + 1, 0) : col + placed_fp.cells_w,
        ]
        hit = window[window >= 0]
        if hit.size:
            self.alive[hit] = False
            self.n_alive -= hit.size
            window[...] = -1


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
        suitability = problem_suitability(problem)

    footprint = problem.footprint
    orientations = [(footprint, False)]
    if problem.allow_rotation and footprint.cells_w != footprint.cells_h:
        orientations.append((footprint.rotated(), True))

    score_maps = {
        rotated: _footprint_score_map(suitability, fp.cells_h, fp.cells_w)
        for fp, rotated in orientations
    }

    # Centres of the placed modules, in placement order: the centroid and
    # the dispersion threshold read the first ``len(placed)`` entries.
    centers_x = np.empty(problem.n_modules)
    centers_y = np.empty(problem.n_modules)
    warm = (
        _validated_warm_prefix(
            problem, warm_start, score_maps, orientations, centers_x, centers_y
        )
        if warm_start is not None
        else None
    )
    if warm is not None:
        placed, occupied, relaxed = warm
    else:
        placed, occupied, relaxed = [], None, 0
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
        if module_index:
            xs = centers_x[:module_index]
            ys = centers_y[:module_index]
            centroid = (float(np.mean(xs)), float(np.mean(ys)))
            limit = (
                threshold.threshold_around(centroid, xs, ys)
                if cfg.respect_distance_threshold
                else np.inf
            )
        else:
            centroid, limit = None, np.inf
        best = _select_candidate(candidate_sets, centroid, limit)
        if best is None:
            # No candidate satisfies the dispersion filter: relax it once.
            relaxed += 1
            best = _select_candidate(candidate_sets, centroid, np.inf)
        if best is None:
            raise InfeasiblePlacementError(
                f"could not place module {module_index}: no feasible anchor remains"
            )
        row, col, rotated, fp = best
        placed.append(
            ModulePlacement(module_index=module_index, row=row, col=col, rotated=rotated)
        )
        center = anchor_center(row, col, fp, problem.grid.pitch)
        centers_x[module_index], centers_y[module_index] = center.x, center.y
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
                candidates_left=sum(cs.n_alive for cs in candidate_sets),
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
    centers_x: np.ndarray,
    centers_y: np.ndarray,
):
    """Validate a warm-start hint as this problem's own greedy prefix.

    Returns ``(placed, occupied, relaxed)`` when the hint is usable, with
    the prefix's module centres written to ``centers_x``/``centers_y``, and
    ``None`` otherwise.  The checks are deliberately cheap -- O(k)
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
        center = anchor_center(row, col, fp, problem.grid.pitch)
        centers_x[expected_index], centers_y[expected_index] = center.x, center.y
        mark_occupied(occupied, row, col, fp)

    # The hint's own relax tally *is* the cold solve's tally over the same
    # prefix: identical algorithm, identical decisions.
    relaxed = int(hint.metadata.get("relaxed_threshold_count", 0))
    return placed, occupied, relaxed


def _select_candidate(
    candidate_sets: list[_CandidateSet],
    centroid: tuple[float, float] | None,
    limit: float,
):
    """Pick the best live anchor across the allowed orientations.

    ``centroid`` is that of the placed modules (``None`` before the first
    one) and ``limit`` the dispersion threshold (``inf``: not applied).
    Returns ``(row, col, rotated, footprint)`` or ``None`` when nothing fits.
    """
    best_tuple = None
    best_score = -np.inf
    best_distance = np.inf

    for candidate_set in candidate_sets:
        if candidate_set.n_alive == 0:
            continue
        values = candidate_set.values
        if centroid is not None:
            distances = np.hypot(
                candidate_set.centers_u - centroid[0],
                candidate_set.centers_v - centroid[1],
            )
        else:
            distances = np.zeros_like(values)

        mask = candidate_set.alive
        if np.isfinite(limit):
            mask = mask & (distances <= limit)
            if not np.any(mask):
                continue

        top = float(np.max(values, where=mask, initial=-np.inf))
        near_top = mask & (values >= top - TIE_TOLERANCE * max(abs(top), 1.0))
        # The first row-major minimum among the near-top anchors.
        pick = int(np.argmin(np.where(near_top, distances, np.inf)))
        score = top
        distance = float(distances[pick])

        better = score > best_score + 1e-15 or (
            abs(score - best_score) <= TIE_TOLERANCE * max(abs(score), 1.0)
            and distance < best_distance
        )
        if better:
            best_score = score
            best_distance = distance
            best_tuple = (
                int(candidate_set.rows[pick]),
                int(candidate_set.cols[pick]),
                candidate_set.rotated,
                candidate_set.fp,
            )

    return best_tuple
