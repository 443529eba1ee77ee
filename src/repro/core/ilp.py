"""Exact placement by integer linear programming.

The paper argues that an exhaustive search is infeasible and therefore only
evaluates its greedy heuristic.  To quantify how far the heuristic is from
an optimum, this module formulates the placement as a 0/1 ILP solved with
SciPy's HiGHS backend:

* one binary variable per feasible anchor position (and orientation),
* the objective maximises the summed footprint suitability of the selected
  anchors (the same surrogate signal the greedy algorithm ranks by -- the
  true yearly energy is not linear in the selection because of the
  series/parallel aggregation, so it cannot be an ILP objective),
* exactly N anchors are selected,
* no two selected anchors may cover the same grid cell.

For small instances the ILP optimum provides an upper bound on what any
suitability-driven placer can achieve, which the ablation benchmark (E10)
compares against the greedy result and, where tractable, against the true
energy-optimal placement found by :mod:`repro.core.exhaustive`.

Every solve starts cold: SciPy's :func:`~scipy.optimize.milp` has no
MIP-start parameter, so a neighbouring instance's placement has nothing to
seed.  When the ``time_limit_s`` budget expires before HiGHS finds a
solution, :class:`~repro.errors.InfeasiblePlacementError` is raised and a
solver chain's fallback entry (``"fallback": ["greedy"]``) answers instead.

SciPy is imported inside :func:`ilp_floorplan`, not at module level: the
ILP is the only user of SciPy, so a process that never solves one (every
greedy ``repro run``, the service, most workers) never pays the import.
The import runs before the solve clock starts, so the first solve in a
process reports the same ``runtime_s`` and gets the same ``time_limit_s``
as every later one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasiblePlacementError, PlacementError
from ..telemetry import span
from .constraints import feasible_anchor_mask
from .greedy import _footprint_score_map
from .placement import ModulePlacement, Placement
from .problem import FloorplanProblem
from .suitability import SuitabilityMap, problem_suitability


#: Largest number of anchor variables the ILP accepts; bigger instances
#: are refused with a pointer to the greedy placer.
MAX_ANCHORS = 30000

#: Relative MIP gap at which HiGHS stops.
MIP_GAP = 1e-4


@dataclass(frozen=True)
class ILPConfig:
    """Options of the ILP placement.

    The objective scores each anchor by the mean footprint suitability, the
    greedy placer's ranking signal.
    """

    time_limit_s: float = 60.0

    def __post_init__(self) -> None:
        if self.time_limit_s <= 0:
            raise PlacementError("time_limit_s must be positive")


@dataclass(frozen=True)
class ILPResult:
    """Outcome of the ILP placement.

    ``gap`` is the relative optimality gap (0.0 = proven optimal, ``None``
    = the solver reported none).
    """

    placement: Placement
    suitability: SuitabilityMap
    objective_value: float
    runtime_s: float
    solver_status: str
    gap: float | None = None


def ilp_floorplan(
    problem: FloorplanProblem,
    suitability: SuitabilityMap | None = None,
    config: ILPConfig | None = None,
) -> ILPResult:
    """Solve the suitability-maximising placement ILP for a problem instance."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    cfg = config if config is not None else ILPConfig()
    start = time.perf_counter()

    if suitability is None:
        suitability = problem_suitability(problem)

    footprint = problem.footprint
    orientations = [(footprint, False)]
    if problem.allow_rotation and footprint.cells_w != footprint.cells_h:
        orientations.append((footprint.rotated(), True))

    # Enumerate anchors and assemble the 0/1 program; the build/solve span
    # split is what lets a trace tell formulation cost from HiGHS cost.
    with span("ilp.build") as build_span:
        anchors: list[tuple[int, int, bool]] = []
        scores: list[float] = []
        empty_occupancy = np.zeros(problem.grid.shape, dtype=bool)
        for fp, rotated in orientations:
            feasible = feasible_anchor_mask(problem.grid.valid_mask, empty_occupancy, fp)
            score_map = _footprint_score_map(suitability, fp.cells_h, fp.cells_w)
            rows, cols = np.nonzero(feasible & np.isfinite(score_map))
            for row, col in zip(rows.tolist(), cols.tolist()):
                anchors.append((row, col, rotated))
                scores.append(float(score_map[row, col]))

        n_anchors = len(anchors)
        if n_anchors < problem.n_modules:
            raise InfeasiblePlacementError(
                f"only {n_anchors} feasible anchors exist for {problem.n_modules} modules"
            )
        if n_anchors > MAX_ANCHORS:
            raise InfeasiblePlacementError(
                f"the instance has {n_anchors} anchors, above the configured ILP limit "
                f"of {MAX_ANCHORS}; use the greedy placer or coarsen the grid"
            )

        # Build the cell-coverage constraint matrix (cells x anchors).
        n_rows, n_cols = problem.grid.shape
        cell_index = lambda r, c: r * n_cols + c  # noqa: E731 - tiny local helper
        row_indices: list[int] = []
        col_indices: list[int] = []
        for anchor_id, (row, col, rotated) in enumerate(anchors):
            fp = footprint.rotated() if rotated else footprint
            for dr in range(fp.cells_h):
                for dc in range(fp.cells_w):
                    row_indices.append(cell_index(row + dr, col + dc))
                    col_indices.append(anchor_id)
        coverage = sparse.csr_matrix(
            (np.ones(len(row_indices)), (row_indices, col_indices)),
            shape=(n_rows * n_cols, n_anchors),
        )
        # Keep only cells that can actually be covered (smaller constraint set).
        covered_cells = np.asarray(coverage.sum(axis=1)).ravel() > 0
        coverage = coverage[covered_cells]

        objective = -np.asarray(scores)
        constraints = [
            LinearConstraint(np.ones((1, n_anchors)), problem.n_modules, problem.n_modules),
            LinearConstraint(coverage, -np.inf, 1.0),
        ]
        build_span.set(n_anchors=n_anchors, n_covered_cells=int(covered_cells.sum()))

    with span("ilp.solve", n_anchors=n_anchors) as solve_span:
        result = milp(
            c=objective,
            constraints=constraints,
            integrality=np.ones(n_anchors),
            bounds=Bounds(0, 1),
            options={"time_limit": cfg.time_limit_s, "mip_rel_gap": MIP_GAP},
        )
        solve_span.set(status=str(result.message), success=bool(result.success))

    gap: float | None = None
    raw_gap = getattr(result, "mip_gap", None)
    if raw_gap is not None and np.isfinite(raw_gap):
        gap = float(raw_gap)

    chosen = None if result.x is None else np.nonzero(np.round(result.x) > 0.5)[0]
    if chosen is None:
        raise InfeasiblePlacementError(
            f"the ILP solver failed to find a feasible placement: {result.message}"
        )
    if chosen.size != problem.n_modules:
        raise InfeasiblePlacementError(
            f"the ILP returned {chosen.size} anchors instead of {problem.n_modules}"
        )
    objective_value = float(-result.fun)
    status = str(result.message)

    # Assign module indices to anchors in decreasing-score order so that the
    # series-first string structure matches the greedy convention.
    chosen_sorted = sorted(chosen.tolist(), key=lambda a: -scores[a])
    modules = [
        ModulePlacement(
            module_index=i,
            row=anchors[a][0],
            col=anchors[a][1],
            rotated=anchors[a][2],
        )
        for i, a in enumerate(chosen_sorted)
    ]
    runtime = time.perf_counter() - start
    metadata = {
        "algorithm": "ilp",
        "runtime_s": runtime,
        "objective": objective_value,
        "status": status,
    }
    if gap is not None:
        metadata["gap"] = gap
    placement = Placement(
        modules=tuple(modules),
        footprint=footprint,
        topology=problem.topology,
        grid_pitch=problem.grid.pitch,
        label="ilp",
        metadata=metadata,
    )
    return ILPResult(
        placement=placement,
        suitability=suitability,
        objective_value=objective_value,
        runtime_s=runtime,
        solver_status=status,
        gap=gap,
    )

