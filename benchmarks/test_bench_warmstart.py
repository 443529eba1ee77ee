"""Warm-start bench: anytime ladders must actually be faster.

The warm-start PR's headline claim is that solving an ``n_modules``
ladder warm -- each rung resuming from the previous rung's placement --
is materially cheaper than solving every rung cold, while producing
*identical* results.  This bench pins both halves of the claim for the
greedy placer, the one solver that takes a warm start: a median
warm-vs-cold speedup of at least 1.5x across the ladder, with every warm
placement module-for-module equal to its cold twin.

The roof is synthetic (no dependency on the paper case studies) so the
bench isolates the placer: the solar field and suitability map are
prepared once and shared by every solve.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core import (
    FloorplanProblem,
    compute_suitability,
    default_topology,
    greedy_floorplan,
)
from repro.gis import (
    RoofSpec,
    build_roof_scene,
    chimney,
    make_roof_grid,
    suitable_grid_for_scene,
)
from repro.pv.datasheet import PV_MF165EB3
from repro.runner import WarmStart
from repro.solar import SolarSimulationConfig, TimeGrid, compute_roof_solar_field
from repro.weather import SyntheticWeatherConfig, generate_weather

LADDER = (8, 16, 24, 32)
#: Timed cold/warm solve pairs per step of the greedy ladder.
REPEATS = 15


@pytest.fixture(scope="module")
def warm_bench_instance():
    """A mid-size synthetic roof with its solar field and suitability."""
    roof = RoofSpec(
        name="warm-bench-roof",
        width_m=24.0,
        depth_m=10.0,
        tilt_deg=28.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.2,
        obstacles=(chimney(6.0, 7.0, side_m=0.9, height_m=1.5),),
    )
    scene = build_roof_scene(roof, dsm_pitch=0.4)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.1))
    weather = generate_weather(
        TimeGrid(step_minutes=240.0, day_stride=45), SyntheticWeatherConfig(seed=3)
    )
    solar = compute_roof_solar_field(
        scene,
        grid,
        weather,
        SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0),
    )
    return grid, solar, compute_suitability(solar)


def _problem(grid, solar, n_modules: int) -> FloorplanProblem:
    return FloorplanProblem(
        grid=grid,
        solar=solar,
        n_modules=n_modules,
        topology=default_topology(n_modules, n_series=4),
        datasheet=PV_MF165EB3,
        label=f"warm-bench-n{n_modules}",
    )


def _interleaved_best_of(cold_fn, warm_fn):
    """``(cold s, cold result, warm s, warm result)``: the minimum wall-clock
    and last result of each, over :data:`REPEATS` cold/warm pairs run in turn,
    so a slow spell of the machine hits both sides instead of one."""
    cold_s = warm_s = float("inf")
    cold = warm = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        cold = cold_fn()
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        warm = warm_fn()
        warm_s = min(warm_s, time.perf_counter() - start)
    return cold_s, cold, warm_s, warm


def test_bench_greedy_warm_ladder_speedup(warm_bench_instance):
    """Median warm speedup >= 1.5x on the n_modules ladder, results equal."""
    grid, solar, suitability = warm_bench_instance
    previous = greedy_floorplan(_problem(grid, solar, LADDER[0]), suitability=suitability)
    speedups = []
    print("\n[warm-start] greedy n_modules ladder (best of", REPEATS, "interleaved runs):")
    for prev, n in zip(LADDER, LADDER[1:]):
        problem = _problem(grid, solar, n)
        hint = WarmStart(placement=previous.placement, exact_prefix=True)
        cold_s, cold_result, warm_s, warm = _interleaved_best_of(
            lambda: greedy_floorplan(problem, suitability=suitability),
            lambda: greedy_floorplan(problem, suitability=suitability, warm_start=hint),
        )
        previous = cold_result
        # Identity first: a fast wrong answer is no speedup at all.
        assert warm.warm_modules == prev
        assert warm.placement.modules == cold_result.placement.modules
        assert warm.relaxed_threshold_count == cold_result.relaxed_threshold_count
        speedups.append(cold_s / warm_s)
        print(
            f"    n={prev:2d}->{n:2d}: cold {cold_s * 1e3:7.2f} ms, "
            f"warm {warm_s * 1e3:7.2f} ms, speedup {cold_s / warm_s:5.2f}x"
        )
    median = statistics.median(speedups)
    print(f"    median speedup: {median:.2f}x (floor: 1.50x)")
    assert median >= 1.5

