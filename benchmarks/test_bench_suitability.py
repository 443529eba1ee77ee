"""Cold-plan kernels against their oracles on the paper-industrial roof.

A 57 m x 10 m industrial facet (the size of the paper's Roof 1) at the
benchmark's cold-plan resolution: 20 cm placement grid, 0.4 m DSM, hourly
samples of every 7th day.  Two kernels of a cold plan are timed against the
straightforward forms kept in ``tests/oracles``:

* **suitability** -- :func:`repro.core.suitability.compute_suitability`
  selects its p75 order statistics from the stored daylight rows of each
  column block, copied out of the time-major field in row tiles: one
  single-``kth`` ``np.partition`` per statistic places the lower order
  statistic and a row minimum reads the next one, and the module
  temperatures are written in place into one reused buffer.  The oracle
  expands every cell block to the dense float64 axis and calls
  ``np.percentile``.  The kernel must be at least 1.3x faster.
* **rasterisation** -- every ``Polygon.rasterize`` call the scene build and
  the suitable-area step make, replayed through the array kernel and the
  per-cell ``contains_point`` oracle (timing printed, no floor).

Both kernels must reproduce their oracle bit for bit.
"""

from __future__ import annotations

import time

import numpy as np
from oracles.rasterize import rasterize_reference
from oracles.suitability import compute_suitability_reference

from repro.core.suitability import compute_suitability
from repro.geometry import Polygon
from repro.gis import (
    AdjacentStructure,
    RoofSpec,
    build_roof_scene,
    hvac_unit,
    make_roof_grid,
    pipe_rack,
    scattered_vents,
    skylight_row,
    suitable_grid_for_scene,
)
from repro.pv import paper_module_model
from repro.solar import SolarSimulationConfig, TimeGrid, compute_roof_solar_field
from repro.weather import SyntheticWeatherConfig, generate_weather


def _paper_industrial_roof() -> RoofSpec:
    width, depth = 57.0, 10.0
    return RoofSpec(
        name="paper-industrial",
        width_m=width,
        depth_m=depth,
        tilt_deg=10.0,
        azimuth_deg=0.0,
        eave_height_m=8.0,
        edge_setback_m=0.4,
        obstacles=(
            hvac_unit(9.0, 6.5, side_m=2.0, height_m=1.5),
            hvac_unit(37.0, 7.0, side_m=2.0, height_m=1.7),
            skylight_row(3.0, 2.0, length_m=7.0, width_m=1.2),
            skylight_row(31.0, 2.5, length_m=7.0, width_m=1.2),
            pipe_rack(8.0, 4.2, length_m=20.0, width_m=1.0, height_m=1.0),
        )
        + scattered_vents(width, depth, n_vents=14, seed=11),
        adjacent_structures=(
            AdjacentStructure(
                name="south-neighbour",
                polygon=Polygon.rectangle(15.0, -7.0, 38.0, -4.0),
                height_m=3.5,
            ),
        ),
        surface_roughness_m=0.05,
        roughness_correlation_m=1.0,
        roughness_seed=21,
    )


def _best_of(fn, repeats: int):
    """Smallest wall time of ``repeats`` runs and the last result."""
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_cold_plan_kernels(monkeypatch):
    """Suitability >= 1.3x its oracle; both kernels bit-identical to their oracles."""
    calls = []
    rasterize = Polygon.rasterize

    def record(self, *args, **kwargs):
        calls.append((self, args, kwargs))
        return rasterize(self, *args, **kwargs)

    roof = _paper_industrial_roof()
    monkeypatch.setattr(Polygon, "rasterize", record)
    scene = build_roof_scene(roof, dsm_pitch=0.4)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.2))
    monkeypatch.undo()

    time_grid = TimeGrid(step_minutes=60.0, day_stride=7)
    weather = generate_weather(time_grid, SyntheticWeatherConfig(seed=5))
    solar = compute_roof_solar_field(scene, grid, weather, SolarSimulationConfig())
    model = paper_module_model()

    kernel_s, kernel = _best_of(lambda: compute_suitability(solar, module_model=model), 3)
    oracle_s, oracle = _best_of(lambda: compute_suitability_reference(solar, module_model=model), 3)
    for name in ("values", "irradiance_statistic", "temperature_factor"):
        np.testing.assert_array_equal(
            getattr(kernel, name).view(np.uint64), getattr(oracle, name).view(np.uint64)
        )

    def replay(fn):
        return [fn(polygon, *args, **kwargs) for polygon, args, kwargs in calls]

    raster_s, masks = _best_of(lambda: replay(rasterize), 3)
    raster_oracle_s, oracle_masks = _best_of(lambda: replay(rasterize_reference), 1)
    for mask, oracle_mask in zip(masks, oracle_masks):
        np.testing.assert_array_equal(mask, oracle_mask)

    speedup = oracle_s / kernel_s
    print(
        f"\n[suitability] Ng={solar.n_cells}, n_time={solar.n_time}, "
        f"n_daylight={solar.n_daylight}: oracle {oracle_s * 1e3:.0f} ms, "
        f"kernel {kernel_s * 1e3:.0f} ms -> {speedup:.2f}x"
        f"\n[rasterize] {len(calls)} calls: oracle {raster_oracle_s * 1e3:.0f} ms, "
        f"kernel {raster_s * 1e3:.0f} ms -> {raster_oracle_s / raster_s:.1f}x"
    )
    assert speedup >= 1.3
