"""Speedup benchmarks of the vectorised evaluation engine (PR 2).

Three fast paths are measured against their kept-for-test reference
implementations, on the same paper-roof data the other benches use:

* ``compute_horizon_map`` -- preallocated scratch buffers, deduplicated
  radial steps and the tangent-space ``arctan2`` deferral must deliver at
  least 2x over the per-(sector, distance) shifted-copy reference, with
  bit-identical output; the roof-window call the solar stage makes must equal the whole-tile map's
  slice (its time is printed beside the whole tile's);
* ``PlacementEvaluator`` -- scoring a stream of overlapping placements
  (the exhaustive/ablation workload) through one shared context must be at
  least 3x faster than the per-module-loop reference evaluation;
* ``exhaustive_floorplan`` -- the search routed through the shared
  evaluator must halve the wall time of the pre-evaluator flow.

Each test prints the measured timings so the scheduled CI bench job archives
them as an artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    ExhaustiveConfig,
    FloorplanProblem,
    PlacementEvaluator,
    build_problem,
    default_topology,
    exhaustive_floorplan,
)
from repro.core.exhaustive import _any_overlap
from repro.core.constraints import feasible_anchor_mask
from repro.core.placement import ModulePlacement, Placement
from repro.pv.datasheet import PV_MF165EB3
from repro.solar.shading import cells_window, compute_horizon_map

from oracles.evaluation import evaluate_placement_reference
from oracles.horizon import compute_horizon_map_reference


def _best_of(fn, repeats: int) -> float:
    """Smallest wall time of ``repeats`` runs (robust on noisy CI boxes)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_horizon_kernel_speedup(case_studies):
    """Fast horizon kernel: >= 2x over the reference, bit-identical output.

    The kernel marches sectors serially; the bit-exactness insurance for
    tied obstruction ratios costs part of the tangent-space saving.
    """
    dsm = case_studies["roof2"].scene.dsm.raster

    reference = compute_horizon_map_reference(dsm)
    fast = compute_horizon_map(dsm)
    assert np.array_equal(reference.horizon_deg, fast.horizon_deg)

    reference_s = _best_of(lambda: compute_horizon_map_reference(dsm), 2)
    fast_s = _best_of(lambda: compute_horizon_map(dsm), 3)
    speedup = reference_s / fast_s
    floor = 2.0
    print(
        f"\n[horizon kernel] DSM {dsm.shape}: "
        f"reference {reference_s * 1e3:.1f} ms, fast {fast_s * 1e3:.1f} ms "
        f"-> {speedup:.1f}x (floor {floor:.0f}x)"
    )
    assert speedup >= floor


def test_bench_horizon_roof_window(case_studies):
    """Roof-window horizon: the solar stage's call, equal to the whole-tile slice."""
    study = case_studies["roof2"]
    dsm = study.scene.dsm.raster
    dsm_rows, dsm_cols = study.grid.dsm_indices(study.scene.dsm)
    valid = study.grid.valid_mask
    window = cells_window(dsm_rows[valid], dsm_cols[valid])
    (row_lo, row_hi), (col_lo, col_hi) = window

    whole = compute_horizon_map(dsm)
    windowed = compute_horizon_map(dsm, window=window)
    assert np.array_equal(windowed.horizon_deg, whole.horizon_deg[:, row_lo:row_hi, col_lo:col_hi])

    whole_s = _best_of(lambda: compute_horizon_map(dsm), 3)
    window_s = _best_of(lambda: compute_horizon_map(dsm, window=window), 3)
    print(
        f"\n[horizon window] DSM {dsm.shape}, window rows {row_lo}:{row_hi} "
        f"cols {col_lo}:{col_hi} ({windowed.shape[0] * windowed.shape[1]} of "
        f"{dsm.data.size} cells): whole tile {whole_s * 1e3:.1f} ms, "
        f"window {window_s * 1e3:.1f} ms -> {whole_s / window_s:.1f}x"
    )


def _placement_stream(problem, count: int, pool_size: int = 48):
    """Distinct placements drawn from a shared anchor pool.

    This is the shape of the exhaustive/ablation workloads the evaluator
    context targets: hundreds of candidate floorplans recombining the same
    feasible anchors, so the per-anchor precomputation amortises.
    """
    footprint = problem.footprint
    feasible = feasible_anchor_mask(
        problem.grid.valid_mask, np.zeros(problem.grid.shape, dtype=bool), footprint
    )
    rows, cols = np.nonzero(feasible)
    anchors = list(zip(rows.tolist(), cols.tolist()))
    stride = max(1, len(anchors) // pool_size)
    pool = anchors[::stride][:pool_size]
    placements = []
    for shift in range(count):
        chosen: list = []
        for offset in range(len(pool)):
            candidate = pool[(shift + offset * max(1, shift % 5)) % len(pool)]
            if len(chosen) == problem.n_modules:
                break
            if candidate not in chosen and not _any_overlap(
                chosen + [candidate], footprint.cells_h, footprint.cells_w
            ):
                chosen.append(candidate)
        if len(chosen) < problem.n_modules:
            continue
        placements.append(
            Placement(
                modules=tuple(
                    ModulePlacement(module_index=i, row=r, col=c)
                    for i, (r, c) in enumerate(chosen)
                ),
                footprint=footprint,
                topology=problem.topology,
                grid_pitch=problem.grid.pitch,
                label=f"stream-{shift}",
            )
        )
    return placements


def test_bench_evaluator_speedup(case_studies, table1_config):
    """Shared-context placement evaluation: >= 3x over the per-module loop."""
    problem = build_problem(case_studies["roof2"].solar, 16, table1_config.series_length)
    placements = _placement_stream(problem, 100)
    assert len(placements) >= 40

    evaluator = PlacementEvaluator(problem)
    for placement in placements[:2]:
        reference_value = evaluate_placement_reference(problem, placement).annual_energy_wh
        fast_value = evaluator.evaluate(placement).annual_energy_wh
        assert abs(fast_value - reference_value) <= 1e-9 * abs(reference_value)

    def run_reference():
        for placement in placements:
            evaluate_placement_reference(problem, placement)

    def run_fast():
        shared = PlacementEvaluator(problem)
        for placement in placements:
            shared.evaluate(placement)

    reference_s = _best_of(run_reference, 2)
    fast_s = _best_of(run_fast, 3)
    speedup = reference_s / fast_s
    print(
        f"\n[evaluator] roof2 N=16, n_time={problem.solar.n_time}, "
        f"{len(placements)} placements: reference {reference_s * 1e3:.1f} ms, "
        f"fast {fast_s * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 3.0


def _mini_exhaustive_problem(case_studies) -> FloorplanProblem:
    """A 2-module instance small enough for the brute-force search."""
    study = case_studies["roof1"]
    grid = study.grid
    mask = np.zeros_like(grid.valid_mask)
    mask[4:12, 4:28] = grid.valid_mask[4:12, 4:28]
    restricted = grid.with_mask(mask)
    solar = study.solar.restricted_to(restricted)
    return FloorplanProblem(
        grid=restricted,
        solar=solar,
        n_modules=2,
        topology=default_topology(2, n_series=2),
        datasheet=PV_MF165EB3,
        label="exhaustive-bench",
    )


def _reference_exhaustive(problem: FloorplanProblem) -> float:
    """The pre-evaluator search: one full evaluation context per candidate."""
    import itertools

    footprint = problem.footprint
    feasible = feasible_anchor_mask(
        problem.grid.valid_mask, np.zeros(problem.grid.shape, dtype=bool), footprint
    )
    rows, cols = np.nonzero(feasible)
    anchors = list(zip(rows.tolist(), cols.tolist()))
    best_energy = -np.inf
    for combination in itertools.combinations(range(len(anchors)), problem.n_modules):
        selected = [anchors[i] for i in combination]
        if _any_overlap(selected, footprint.cells_h, footprint.cells_w):
            continue
        placement = Placement(
            modules=tuple(
                ModulePlacement(module_index=i, row=r, col=c)
                for i, (r, c) in enumerate(selected)
            ),
            footprint=footprint,
            topology=problem.topology,
            grid_pitch=problem.grid.pitch,
            label="exhaustive-candidate",
        )
        energy = evaluate_placement_reference(problem, placement).annual_energy_wh
        best_energy = max(best_energy, energy)
    return best_energy


def test_bench_exhaustive_speedup(case_studies):
    """Exhaustive search through the shared evaluator: >= 2x wall time."""
    problem = _mini_exhaustive_problem(case_studies)
    config = ExhaustiveConfig(max_combinations=500_000)

    result = exhaustive_floorplan(problem, config)
    reference_best = _reference_exhaustive(problem)
    assert abs(result.best_energy_wh - reference_best) <= 1e-9 * abs(reference_best)

    reference_s = _best_of(lambda: _reference_exhaustive(problem), 1)
    fast_s = _best_of(lambda: exhaustive_floorplan(problem, config), 2)
    speedup = reference_s / fast_s
    print(
        f"\n[exhaustive] {result.n_combinations_evaluated} candidates: "
        f"reference {reference_s:.2f} s, fast {fast_s:.2f} s -> {speedup:.1f}x"
    )
    assert speedup >= 2.0
