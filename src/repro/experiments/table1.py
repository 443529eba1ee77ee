"""Experiment E7: reproduction of the paper's Table I.

For each of the three case-study roofs and for N in {16, 32} modules
(strings of 8 in series), the traditional compact placement and the proposed
greedy placement are generated and evaluated over the simulated year; the
report lists the yearly production of both and the relative improvement,
exactly like Table I of the paper.

:func:`run_table1_sweep` produces the table: the roof x N grid is expressed
as a declarative :class:`~repro.sweep.SweepPlan` and executed through the
cached batch runner, so repeated reproductions reuse every expensive stage
from the disk cache (``repro report --preset table1`` on the command line).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..analysis.report import Table1Report, Table1Row
from ..errors import ConfigurationError
from ..pv.datasheet import PV_MF165EB3, ModuleDatasheet
from ..scenario.spec import (
    ScenarioSpec,
    SolarSpec,
    SolverSpec,
    TimeSpec,
    WeatherSpec,
    roof_spec_to_dict,
)
from ..solar.irradiance_map import SolarSimulationConfig
from ..sweep.aggregate import SweepResult
from ..sweep.grid import SweepAxis, SweepPlan
from .roofs import CaseStudyConfig, case_study_specs


@dataclass(frozen=True)
class Table1Config:
    """Configuration of the Table I experiment.

    ``solver`` selects the proposed placement algorithm by name in the
    :mod:`repro.runner.solvers` registry (the paper's greedy by default);
    the baseline is always the traditional compact placement.
    """

    module_counts: tuple = (16, 32)
    series_length: int = 8
    datasheet: ModuleDatasheet = PV_MF165EB3
    case_study: CaseStudyConfig = field(default_factory=CaseStudyConfig)
    solver: str = "greedy"

    def __post_init__(self) -> None:
        if not self.module_counts:
            raise ConfigurationError("at least one module count is required")
        for count in self.module_counts:
            if count < 1:
                raise ConfigurationError("module counts must be positive")


def _solar_spec_from_config(config: SolarSimulationConfig) -> SolarSpec:
    """Express a materialised solar configuration as a declarative SolarSpec."""
    if config.store_dtype != "float32":
        raise ConfigurationError(
            "the declarative scenario path stores solar fields as float32; "
            f"cannot express store_dtype={config.store_dtype!r}"
        )
    return SolarSpec(
        sky_model=config.sky_model,
        decomposition_model=config.decomposition_model,
        albedo=config.albedo,
        n_horizon_sectors=config.n_horizon_sectors,
        horizon_max_distance_m=config.horizon_max_distance_m,
        linke_turbidity=tuple(config.linke_turbidity.monthly_values),
    )


def table1_sweep_plan(
    config: Table1Config | None = None,
    roofs: Optional[Iterable[str]] = None,
) -> SweepPlan:
    """The Table I experiment as a declarative roof x N sweep plan.

    The base scenario carries the configuration (roofs, weather seed, time
    base, irradiance options, datasheet and solver), and the two axes -- the
    roof and the module count -- expand in the table's row order (roofs
    outer, module counts inner).  Running the plan through
    :func:`repro.sweep.run_sweep` reuses every cached stage.
    """
    cfg = config if config is not None else Table1Config()
    case_cfg = cfg.case_study
    roof_specs = case_study_specs(case_cfg.scale)
    selected = list(roofs) if roofs is not None else list(roof_specs)
    if not selected:
        raise ConfigurationError("at least one roof is required")
    unknown = [name for name in selected if name not in roof_specs]
    if unknown:
        raise ConfigurationError(f"unknown case-study roofs: {unknown}")

    base = ScenarioSpec(
        name="table1",
        roof=roof_specs[selected[0]],
        n_modules=cfg.module_counts[0],
        n_series=cfg.series_length,
        module=dataclasses.asdict(cfg.datasheet),
        grid_pitch=case_cfg.grid_pitch,
        dsm_pitch=case_cfg.dsm_pitch,
        time=TimeSpec(
            step_minutes=case_cfg.time_step_minutes, day_stride=case_cfg.day_stride
        ),
        weather=WeatherSpec(seed=case_cfg.weather_seed),
        solar=_solar_spec_from_config(case_cfg.solar),
        solver=SolverSpec(name=cfg.solver),
        description="Paper Table I reproduction (sweep-engine path)",
        tags=("table1",),
    )
    axes = (
        SweepAxis(
            "roof",
            tuple(roof_spec_to_dict(roof_specs[name]) for name in selected),
            labels=tuple(selected),
        ),
        SweepAxis("n_modules", tuple(cfg.module_counts)),
    )
    return SweepPlan(
        name="table1",
        base=base,
        axes=axes,
        mode="grid",
        description="Paper Table I: roof x module-count grid",
    )


@dataclass
class Table1SweepResults:
    """Outcome of the sweep-driven Table I reproduction."""

    sweep: SweepResult
    report: Table1Report


def run_table1_sweep(
    config: Table1Config | None = None,
    roofs: Optional[Iterable[str]] = None,
    cache: object = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    parallel: bool = True,
) -> Table1SweepResults:
    """Reproduce Table I through the declarative sweep engine.

    Expands :func:`table1_sweep_plan` and streams it through the cached
    batch runner; warm re-runs serve every expensive stage from the cache.
    """
    from ..sweep import run_sweep

    plan = table1_sweep_plan(config, roofs)
    sweep = run_sweep(
        plan,
        cache=cache,
        jobs=jobs,
        use_cache=use_cache,
        parallel=parallel,
    )
    report = Table1Report()
    for point in sweep.points:
        result = point.result
        report.add_row(
            Table1Row(
                roof=point.labels["roof"],
                grid_w=result.grid_cols,
                grid_h=result.grid_rows,
                n_valid=result.n_valid_cells,
                n_modules=result.n_modules,
                traditional_mwh=result.baseline_energy_mwh,
                proposed_mwh=result.annual_energy_mwh,
            )
        )
    return Table1SweepResults(sweep=sweep, report=report)


#: The values printed in the paper's Table I, used by EXPERIMENTS.md and by
#: the benchmarks to report paper-vs-measured side by side.
PAPER_TABLE1 = (
    {
        "roof": "roof1",
        "WxL": "287x51",
        "Ng": 9416,
        "N": 16,
        "traditional_mwh": 3.430,
        "proposed_mwh": 4.094,
        "improvement_percent": 19.37,
    },
    {
        "roof": "roof1",
        "WxL": "287x51",
        "Ng": 9416,
        "N": 32,
        "traditional_mwh": 6.729,
        "proposed_mwh": 7.499,
        "improvement_percent": 11.44,
    },
    {
        "roof": "roof2",
        "WxL": "298x51",
        "Ng": 11892,
        "N": 16,
        "traditional_mwh": 2.971,
        "proposed_mwh": 3.619,
        "improvement_percent": 21.85,
    },
    {
        "roof": "roof2",
        "WxL": "298x51",
        "Ng": 11892,
        "N": 32,
        "traditional_mwh": 5.941,
        "proposed_mwh": 7.404,
        "improvement_percent": 23.63,
    },
    {
        "roof": "roof3",
        "WxL": "298x52",
        "Ng": 11672,
        "N": 16,
        "traditional_mwh": 2.957,
        "proposed_mwh": 3.642,
        "improvement_percent": 23.16,
    },
    {
        "roof": "roof3",
        "WxL": "298x52",
        "Ng": 11672,
        "N": 32,
        "traditional_mwh": 5.746,
        "proposed_mwh": 7.405,
        "improvement_percent": 28.86,
    },
)
