"""The end-to-end planner of one roof: :func:`plan_roof` and its result.

:func:`plan_roof` describes its arguments as a
:class:`~repro.scenario.ScenarioSpec` and runs it through the staged
pipeline (:func:`repro.runner.stages.execute_scenario`), so a scenario of
the same roof and inputs shares every cached stage with it.  The package
re-exports both names as ``repro.plan_roof`` and ``repro.RoofPlanResult``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from .constants import DEFAULT_GRID_PITCH
from .core import FloorplanProblem, PlacementComparison
from .gis import RoofSpec
from .pv.datasheet import PV_MF165EB3, ModuleDatasheet
from .runner.cache import StageCache
from .runner.solvers import SolverOutcome
from .runner.stages import execute_scenario
from .scenario.spec import ScenarioSpec, SolarSpec, SolverSpec, TimeSpec, WeatherSpec
from .solar import TimeGrid


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
    weather_seed: int = 0,
    solar: Optional[SolarSpec] = None,
    solver: str = "greedy",
    solver_options: Optional[Mapping[str, Any]] = None,
    cache: Optional[StageCache] = None,
) -> RoofPlanResult:
    """End-to-end pipeline: roof description -> optimal placement and report.

    Describes the run as a :class:`~repro.scenario.ScenarioSpec` and runs
    it like ``repro run`` does: the synthetic scene, the suitable area, the
    spatio-temporal irradiance and the suitability map (optionally through
    the stage cache), then the selected solver against the compact
    baseline, and returns their comparison.  A scenario of the same roof
    and inputs shares every cached stage with this call.

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
    weather_seed:
        Seed of the synthetic Turin weather trace.
    solar:
        Options of the irradiance simulation (the defaults of
        :class:`~repro.scenario.SolarSpec` when omitted).
    solver:
        Name of the placement solver in the :mod:`repro.runner.solvers`
        registry (``greedy``, ``traditional``, ``ilp``, ``exhaustive``).
    solver_options:
        Options forwarded to the solver's config dataclass.
    cache:
        Optional :class:`~repro.runner.StageCache`; when given, the scene,
        grid, solar-field and suitability stages are memoised on disk and
        reused across calls and scenarios that share a roof/weather/time
        base.  Without one the run is uncached.

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
    sampling = TimeSpec()
    if time_grid is not None:
        sampling = TimeSpec(step_minutes=time_grid.step_minutes, day_stride=time_grid.day_stride)
    scenario = ScenarioSpec(
        name=spec.name,
        roof=spec,
        n_modules=n_modules,
        n_series=n_series,
        module=dataclasses.asdict(datasheet),
        grid_pitch=grid_pitch,
        time=sampling,
        weather=WeatherSpec(seed=weather_seed),
        solar=solar if solar is not None else SolarSpec(),
        solver=SolverSpec(name=solver, options=dict(solver_options or {})),
    )
    run = execute_scenario(scenario, cache)
    return RoofPlanResult(
        problem=run.problem,
        proposed=run.chain.outcome,
        baseline=run.baseline,
        comparison=run.comparison,
        solver_name=solver,
        stage_cached=run.stage_cached,
    )
