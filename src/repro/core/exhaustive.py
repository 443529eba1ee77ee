"""Exhaustive placement search for tiny instances.

The paper notes that the solution space is O(Ng^N) and therefore never
compares against an exhaustive optimum.  For *very* small instances the
optimum over the true yearly-energy objective is still computable, and the
test suite uses it to check that the greedy heuristic and the ILP surrogate
stay close to it.  The search enumerates all combinations of feasible,
non-overlapping anchors and evaluates each through the full series/parallel
energy model.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from ..errors import InfeasiblePlacementError, PlacementError
from ..telemetry import span
from .constraints import feasible_anchor_mask
from .evaluation import PlacementEvaluator
from .placement import ModulePlacement, Placement
from .problem import FloorplanProblem


@dataclass(frozen=True)
class ExhaustiveConfig:
    """Safety limits of the exhaustive search."""

    max_combinations: int = 200000


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of the exhaustive search."""

    placement: Placement
    best_energy_wh: float
    n_combinations_evaluated: int
    runtime_s: float


def _anchors_overlap(
    a: tuple[int, int], b: tuple[int, int], cells_h: int, cells_w: int
) -> bool:
    """True when two module footprints anchored at ``a`` and ``b`` overlap."""
    return not (
        a[0] + cells_h <= b[0]
        or b[0] + cells_h <= a[0]
        or a[1] + cells_w <= b[1]
        or b[1] + cells_w <= a[1]
    )


def exhaustive_floorplan(
    problem: FloorplanProblem, config: ExhaustiveConfig | None = None
) -> ExhaustiveResult:
    """Find the true energy-optimal placement by brute force.

    Raises
    ------
    InfeasiblePlacementError
        If the number of anchor combinations exceeds the configured safety
        limit (the search is meant for unit-test-sized instances only).
    """
    cfg = config if config is not None else ExhaustiveConfig()
    start = time.perf_counter()

    footprint = problem.footprint
    feasible = feasible_anchor_mask(
        problem.grid.valid_mask, np.zeros(problem.grid.shape, dtype=bool), footprint
    )
    rows, cols = np.nonzero(feasible)
    anchors = list(zip(rows.tolist(), cols.tolist()))
    n_anchors = len(anchors)
    if n_anchors < problem.n_modules:
        raise InfeasiblePlacementError(
            f"only {n_anchors} anchors available for {problem.n_modules} modules"
        )
    n_combinations = comb(n_anchors, problem.n_modules)
    if n_combinations > cfg.max_combinations:
        raise InfeasiblePlacementError(
            f"{n_combinations} anchor combinations exceed the exhaustive-search "
            f"limit of {cfg.max_combinations}"
        )

    best_energy = -np.inf
    best_placement: Placement | None = None
    evaluated = 0

    # One evaluation context amortises the problem-level precomputation
    # (cell lookup, substring grouping, temperature factors) over every
    # candidate combination -- the search scores hundreds of placements.
    evaluator = PlacementEvaluator(problem)

    with span(
        "exhaustive.search", n_anchors=n_anchors, n_combinations=n_combinations
    ) as search_span:
        for combination in itertools.combinations(range(n_anchors), problem.n_modules):
            selected = [anchors[i] for i in combination]
            if _any_overlap(selected, footprint.cells_h, footprint.cells_w):
                continue
            modules = tuple(
                ModulePlacement(module_index=i, row=r, col=c, rotated=False)
                for i, (r, c) in enumerate(selected)
            )
            placement = Placement(
                modules=modules,
                footprint=footprint,
                topology=problem.topology,
                grid_pitch=problem.grid.pitch,
                label="exhaustive-candidate",
            )
            evaluation = evaluator.evaluate(placement)
            evaluated += 1
            if evaluation.annual_energy_wh > best_energy:
                best_energy = evaluation.annual_energy_wh
                best_placement = placement
        search_span.set(candidates_evaluated=evaluated)

    if best_placement is None:
        raise PlacementError("no overlap-free combination of anchors exists")

    runtime = time.perf_counter() - start
    final = Placement(
        modules=best_placement.modules,
        footprint=best_placement.footprint,
        topology=best_placement.topology,
        grid_pitch=best_placement.grid_pitch,
        label="exhaustive",
        metadata={
            "algorithm": "exhaustive",
            "runtime_s": runtime,
            "n_combinations_evaluated": evaluated,
        },
    )
    return ExhaustiveResult(
        placement=final,
        best_energy_wh=float(best_energy),
        n_combinations_evaluated=evaluated,
        runtime_s=runtime,
    )


def _any_overlap(selected, cells_h: int, cells_w: int) -> bool:
    """True when any pair of the selected anchors overlaps."""
    for first, second in itertools.combinations(selected, 2):
        if _anchors_overlap(first, second, cells_h, cells_w):
            return True
    return False
