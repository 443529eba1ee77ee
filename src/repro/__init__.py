"""repro: GIS-based optimal PV panel floorplanning (DATE 2018 reproduction).

The package reproduces the system described in

    S. Vinco, L. Bottaccioli, E. Patti, A. Acquaviva, E. Macii, M. Poncino,
    "GIS-Based Optimal Photovoltaic Panel Floorplanning for Residential
    Installations", DATE 2018.

High-level usage (see also ``examples/quickstart.py``)::

    from repro import plan_roof
    from repro.gis import simple_residential_roof

    result = plan_roof(simple_residential_roof(), n_modules=8)
    print(result.report())

Scenario fleets run through the batch runner (or ``python -m repro batch``)::

    from repro.runner import run_batch
    from repro.scenario import builtin_scenarios

    batch = run_batch(list(builtin_scenarios().values()), jobs=4)

Sub-packages
------------
``repro.geometry``    points, polygons, rasters, roof-plane frames
``repro.gis``         DSM handling, synthetic scenes, suitable-area extraction
``repro.solar``       sun position, clear-sky / decomposition / transposition
                      models, DSM shading, roof irradiance fields
``repro.weather``     synthetic weather (clearness, temperature) generation
``repro.pv``          cell/module/array electrical models, MPPT, wiring
``repro.core``        the floorplanning algorithms (greedy, traditional, ILP,
                      exhaustive) and the energy evaluator
``repro.analysis``    reports, maps, structural placement metrics
``repro.io``          DSM (.asc), weather CSV, placement JSON
``repro.scenario``    declarative, JSON-round-trippable scenario specs and
                      the built-in scenario catalog
``repro.runner``      content-hash stage cache, solver registry, cached
                      staged pipeline, parallel batch runner (JSONL store)
``repro.sweep``       declarative sweep engine (axis grids over scenarios),
                      aggregation and deterministic report presets
``repro.experiments`` the paper's case studies and per-table/figure drivers
``repro.cli``         the ``repro`` / ``python -m repro`` command line
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from .constants import DEFAULT_GRID_PITCH
from .core import (
    FloorplanProblem,
    GreedyResult,
    PlacementComparison,
    TraditionalResult,
    compare_placements,
    default_topology,
    greedy_floorplan,
    traditional_floorplan,
)
from .errors import ReproError
from .gis import RoofSpec
from .pv.datasheet import PV_MF165EB3, ModuleDatasheet
from .runner.cache import StageCache
from .runner.solvers import SolverOutcome, available_solvers, solve
from .runner.stages import prepare_problem
from .solar import SolarSimulationConfig, TimeGrid
from .weather import WeatherSeries

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "RoofPlanResult",
    "plan_roof",
    "available_solvers",
    "FloorplanProblem",
    "default_topology",
    "greedy_floorplan",
    "traditional_floorplan",
    "compare_placements",
]


@dataclass
class RoofPlanResult:
    """Outcome of the end-to-end :func:`plan_roof` pipeline."""

    problem: FloorplanProblem
    proposed: SolverOutcome
    baseline: SolverOutcome
    comparison: PlacementComparison
    solver_name: str = "greedy"
    stage_cached: Dict[str, bool] = field(default_factory=dict)

    @property
    def greedy(self) -> SolverOutcome:
        """The proposed-solver outcome (kept for backward compatibility)."""
        return self.proposed

    @property
    def traditional(self) -> SolverOutcome:
        """The compact-baseline outcome (kept for backward compatibility)."""
        return self.baseline

    @property
    def improvement_percent(self) -> float:
        """Energy gain of the proposed placement over the compact baseline."""
        return self.comparison.improvement_percent

    def report(self) -> str:
        """Short human-readable summary of the run."""
        baseline = self.comparison.baseline
        candidate = self.comparison.candidate
        return (
            f"{self.problem.label}: N={self.problem.n_modules} "
            f"({self.problem.topology.n_series}s x {self.problem.topology.n_parallel}p)\n"
            f"  traditional : {baseline.annual_energy_mwh:8.3f} MWh/year\n"
            f"  proposed    : {candidate.annual_energy_mwh:8.3f} MWh/year "
            f"({self.improvement_percent:+.2f} %, solver={self.solver_name})\n"
            f"  extra cable : {candidate.wiring_extra_length_m:6.1f} m "
            f"({candidate.wiring_loss_fraction * 100:.3f} % energy loss)"
        )


def plan_roof(
    spec: RoofSpec,
    n_modules: int,
    n_series: int = 8,
    datasheet: ModuleDatasheet = PV_MF165EB3,
    grid_pitch: float = DEFAULT_GRID_PITCH,
    time_grid: Optional[TimeGrid] = None,
    weather: Optional[WeatherSeries] = None,
    weather_seed: int = 0,
    solar_config: Optional[SolarSimulationConfig] = None,
    solver: str = "greedy",
    solver_options: Optional[Mapping[str, Any]] = None,
    cache: Optional[StageCache] = None,
) -> RoofPlanResult:
    """End-to-end pipeline: roof description -> optimal placement and report.

    Builds the synthetic scene, extracts the suitable area, simulates the
    spatio-temporal irradiance (optionally through the stage cache), runs
    the compact baseline and the selected solver, and returns their
    comparison.

    Parameters
    ----------
    spec:
        The roof (size, tilt, azimuth, obstacles, neighbours).
    n_modules:
        Number of identical modules to place.
    n_series:
        Modules per series string; defaults to 8 (or to ``n_modules`` when
        fewer than 8 modules are requested).
    datasheet:
        Module to install (the paper's PV-MF165EB3 by default).
    grid_pitch:
        Virtual-grid pitch ``s`` in metres.
    time_grid:
        Temporal sampling; defaults to an hourly simulation of every 7th
        day (fast, unbiased yearly estimate).
    weather:
        A weather series to reuse; synthesised from ``weather_seed`` when
        omitted.
    solar_config:
        Options of the irradiance simulation.
    solver:
        Name of the placement solver in the :mod:`repro.runner.solvers`
        registry (``greedy``, ``traditional``, ``ilp``, ``exhaustive``).
    solver_options:
        Options forwarded to the solver's config dataclass.
    cache:
        Optional :class:`~repro.runner.StageCache`; when given, the scene,
        grid and solar-field stages are memoised on disk and reused across
        calls that share a roof/weather/time base.

    Example
    -------
    A coarse two-module plan of a small bare roof (coarser sampling keeps
    the example fast; drop the overrides for production resolution):

    >>> from repro import TimeGrid, plan_roof
    >>> from repro.gis import RoofSpec
    >>> roof = RoofSpec(name="doc-roof", width_m=6.0, depth_m=4.0,
    ...                 tilt_deg=30.0, azimuth_deg=0.0)
    >>> result = plan_roof(roof, n_modules=2, grid_pitch=0.4,
    ...                    time_grid=TimeGrid(step_minutes=240.0, day_stride=45))
    >>> result.problem.n_modules
    2
    >>> result.comparison.candidate.annual_energy_mwh > 0
    True
    >>> result.solver_name
    'greedy'
    """
    problem, stage_cached, _ = prepare_problem(
        spec,
        n_modules,
        n_series=n_series,
        datasheet=datasheet,
        grid_pitch=grid_pitch,
        time_grid=time_grid,
        weather=weather,
        weather_seed=weather_seed,
        solar_config=solar_config,
        cache=cache,
        label=spec.name,
    )
    baseline = solve(problem, "traditional")
    proposed = solve(problem, solver, solver_options, suitability=baseline.suitability)
    comparison = compare_placements(problem, baseline.placement, proposed.placement)
    return RoofPlanResult(
        problem=problem,
        proposed=proposed,
        baseline=baseline,
        comparison=comparison,
        solver_name=solver,
        stage_cached=stage_cached,
    )
