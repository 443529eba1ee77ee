"""Experiment E8: placement runtime scaling.

The paper reports that "the execution time of the placement algorithm is
proportional to the number of valid grid elements and to the number of
panels to be placed, and required less than 120 s under all configurations".
This driver measures the greedy placer's runtime across a sweep of grid
sizes and module counts on synthetic roofs so the scaling claim can be
checked on the reproduction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from ..core import build_problem
from ..errors import ConfigurationError
from ..gis import simple_residential_roof
from ..runner.cache import StageCache
from ..runner.solvers import solve
from ..runner.stages import STAGE_SOLAR, PipelineSources, run_pipeline
from ..solar import SolarSimulationConfig, TimeGrid
from ..weather import SyntheticWeatherConfig, generate_weather


@dataclass(frozen=True)
class RuntimeSample:
    """One point of the runtime sweep."""

    roof_width_m: float
    n_valid_cells: int
    n_modules: int
    placement_runtime_s: float
    pipeline_runtime_s: float


def runtime_sweep(
    roof_widths_m: tuple = (12.0, 20.0, 32.0),
    module_counts: tuple = (8, 16),
    grid_pitch: float = 0.2,
    time_step_minutes: float = 120.0,
    day_stride: int = 30,
    seed: int = 3,
    solver: str = "greedy",
) -> List[RuntimeSample]:
    """Measure placement runtime over roof sizes and module counts.

    Small time grids are used on purpose: the sweep measures the *placement*
    cost (which depends on Ng and N), not the solar simulation cost.  The
    ``solver`` name selects any registered placement algorithm; the default
    reproduces the paper's greedy sweep.
    """
    if not roof_widths_m or not module_counts:
        raise ConfigurationError("at least one roof width and module count are required")

    samples: List[RuntimeSample] = []
    time_grid = TimeGrid(step_minutes=time_step_minutes, day_stride=day_stride)
    weather = generate_weather(time_grid, SyntheticWeatherConfig(seed=seed))
    solar_config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=30.0)

    for width in roof_widths_m:
        spec = simple_residential_roof(
            name=f"sweep-{width:.0f}",
            width_m=float(width),
            depth_m=max(6.0, width / 3.0),
            tilt_deg=26.0,
            azimuth_deg=10.0,
            n_obstacles=3,
            seed=seed,
        )
        pipeline_start = time.perf_counter()
        sources = PipelineSources.from_objects(
            spec, weather, solar_config, dsm_pitch=0.4, grid_pitch=grid_pitch
        )
        solar = run_pipeline(sources, STAGE_SOLAR, StageCache(enabled=False), {}, {})[STAGE_SOLAR]
        pipeline_runtime = time.perf_counter() - pipeline_start

        for n_modules in module_counts:
            problem = build_problem(solar, n_modules, label=f"runtime-{width:.0f}-{n_modules}")
            result = solve(problem, solver)
            samples.append(
                RuntimeSample(
                    roof_width_m=float(width),
                    n_valid_cells=solar.grid.n_valid,
                    n_modules=n_modules,
                    placement_runtime_s=result.runtime_s,
                    pipeline_runtime_s=pipeline_runtime,
                )
            )
    return samples


def summarize_runtime(samples: List[RuntimeSample]) -> dict:
    """Aggregate figures of a runtime sweep (max/mean placement time)."""
    if not samples:
        raise ConfigurationError("cannot summarise an empty runtime sweep")
    runtimes = [sample.placement_runtime_s for sample in samples]
    return {
        "n_samples": len(samples),
        "max_placement_runtime_s": max(runtimes),
        "mean_placement_runtime_s": sum(runtimes) / len(runtimes),
        "max_n_valid": max(sample.n_valid_cells for sample in samples),
        "paper_budget_s": 120.0,
    }
