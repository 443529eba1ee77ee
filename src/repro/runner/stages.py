"""Staged, cache-aware execution of the end-to-end pipeline.

The pipeline is the paper's chain of stages --

    scene (DSM rasterisation)
      -> grid (virtual grid + suitable area)
      -> weather (the station's time series)
      -> horizon (per-sector horizon angles of the roof's DSM cells)
      -> solar field (spatio-temporal irradiance; the dominant cost)
      -> suitability (per-cell placement metric)
      -> placement (solver registry)
      -> evaluation (series/parallel energy model + baseline comparison)

-- declared once, as the :data:`NODES` table, and run by one executor,
:func:`run_pipeline`.  Scenarios, :func:`repro.plan_roof` and the
case-study drivers only describe their inputs (:class:`PipelineSources`)
and name the node they need.  The expensive nodes are memoised in a
:class:`~repro.runner.cache.StageCache` keyed by content hashes of the
declarative inputs, so scenario variants that share a roof/weather/time
base skip straight to the placement stage, and a warm run never builds the
weather or the horizon at all.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_SUITABILITY_PERCENTILE
from ..core.problem import FloorplanProblem, build_problem
from ..core.evaluation import PlacementComparison, PlacementEvaluator
from ..core.suitability import SuitabilityConfig, SuitabilityMap, compute_suitability
from ..errors import ConfigurationError
from ..gis.gridding import RoofGrid, make_roof_grid
from ..gis.suitable_area import suitable_grid_for_scene
from ..gis.synthetic import RoofScene, RoofSpec, build_roof_scene
from ..io.placement_json import placement_to_dict
from ..pv.datasheet import ModuleDatasheet
from ..pv.module import EmpiricalModuleModel
from ..scenario.spec import ScenarioSpec, grid_content_payload, scene_content_payload
from ..solar.irradiance_map import (
    RoofSolarField,
    SolarSimulationConfig,
    compute_roof_solar_field,
    roof_horizon_map,
)
from ..solar.shading import HorizonMap
from ..solar.time_series import TimeGrid
from ..telemetry import span
from ..weather.records import WeatherSeries
from .cache import CACHE_FORMAT_VERSION, StageCache, content_digest, resolve_cache
from .solvers import SolverOutcome, WarmStart, solve, solve_with_fallback

#: Stage names: the keys of ``stage_times_s``, and for the cached nodes also
#: their cache sub-directories and the keys of ``stage_cached``.
STAGE_SCENE = "scene"
STAGE_GRID = "grid"
STAGE_WEATHER = "weather"
STAGE_HORIZON = "horizon"
STAGE_SOLAR = "solar"
STAGE_SUITABILITY = "suitability"
STAGE_SOLVE = "solve"
STAGE_EVALUATE = "evaluate"


# ---------------------------------------------------------------------------
# Content payloads for non-declarative inputs
# ---------------------------------------------------------------------------


def scenario_content_digest(spec: ScenarioSpec) -> str:
    """Content digest identifying one scenario as a campaign point.

    The digest covers the scenario's full declarative dictionary under the
    same canonical-JSON hashing (and format version) the stage cache uses
    for its entries, so a campaign point's identity changes exactly when any
    input that could change its result changes.  The durable result store
    (:mod:`repro.runner.store`) keys its rows on this digest.
    """
    return content_digest({"format": CACHE_FORMAT_VERSION, "scenario": spec.to_dict()})


def solar_config_payload(config: SolarSimulationConfig) -> dict:
    """Content payload of a materialised :class:`SolarSimulationConfig`."""
    return {
        "sky_model": config.sky_model,
        "decomposition_model": config.decomposition_model,
        "albedo": config.albedo,
        "linke_turbidity": list(config.linke_turbidity.monthly_values),
        "n_horizon_sectors": config.n_horizon_sectors,
        "horizon_max_distance_m": config.horizon_max_distance_m,
        "store_dtype": config.store_dtype,
    }


def weather_content_key(weather: WeatherSeries) -> str:
    """Content digest of a materialised weather series.

    Declarative scenarios hash their :class:`WeatherSpec`; entry points that
    accept an arbitrary :class:`WeatherSeries` (``plan_roof``, the case-study
    drivers) hash the actual arrays instead, so caching stays correct no
    matter where the weather came from.
    """
    digest = hashlib.sha256()
    grid = weather.time_grid
    digest.update(f"{grid.step_minutes}:{grid.day_stride}".encode())
    station = weather.station
    digest.update(
        f"{station.name}:{station.latitude_deg}:{station.longitude_deg}:"
        f"{station.altitude_m}".encode()
    )
    for name in ("ghi", "temperature", "dni", "dhi"):
        array = getattr(weather, name)
        digest.update(name.encode())
        if array is not None:
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The pipeline as one table of nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSources:
    """Everything the pipeline's nodes read that is not another node.

    The cached nodes' content keys are computed up front; the two thunks
    build the weather and the solar configuration, and are called only when
    a node that needs them misses the cache.  There are two key sources:
    :meth:`from_scenario` takes the :class:`ScenarioSpec` payloads, which
    name the weather and the solar options by their declarative specs, and
    :meth:`from_objects` (``plan_roof``, the case studies) names them by a
    digest of the weather arrays and the materialised configuration.
    """

    roof: RoofSpec
    dsm_pitch: float
    grid_pitch: float
    scene_key: dict
    grid_key: dict
    solar_key: dict
    weather: Callable[[], WeatherSeries]
    solar_config: Callable[[], SolarSimulationConfig]
    #: Module of the suitability metric (scenarios only).
    datasheet: Optional[ModuleDatasheet] = None

    @classmethod
    def from_scenario(cls, spec: ScenarioSpec) -> "PipelineSources":
        return cls(
            roof=spec.roof,
            dsm_pitch=spec.dsm_pitch,
            grid_pitch=spec.grid_pitch,
            scene_key=spec.scene_payload(),
            grid_key=spec.grid_payload(),
            solar_key=spec.solar_payload(),
            weather=lambda: spec.weather.build(spec.time.build()),
            solar_config=spec.solar.build,
            datasheet=spec.datasheet(),
        )

    @classmethod
    def from_objects(
        cls,
        roof: RoofSpec,
        weather: WeatherSeries,
        config: SolarSimulationConfig,
        dsm_pitch: float,
        grid_pitch: float,
    ) -> "PipelineSources":
        grid_key = grid_content_payload(roof, dsm_pitch, grid_pitch)
        return cls(
            roof=roof,
            dsm_pitch=dsm_pitch,
            grid_pitch=grid_pitch,
            scene_key=scene_content_payload(roof, dsm_pitch),
            grid_key=grid_key,
            solar_key={
                "stage": STAGE_SOLAR,
                "grid": grid_key,
                "weather": weather_content_key(weather),
                "solar": solar_config_payload(config),
            },
            weather=lambda: weather,
            solar_config=lambda: config,
        )


def _suitability_key(src: PipelineSources) -> dict:
    # The full datasheet participates in the key (not just the module name):
    # the metric's temperature correction depends on the module's electrical
    # parameters, and inline scenario modules may share a name.
    return {
        "stage": STAGE_SUITABILITY,
        "solar": src.solar_key,
        "module": dataclasses.asdict(src.datasheet),
        "percentile": DEFAULT_SUITABILITY_PERCENTILE,
    }


# Compute functions of the nodes: each takes the sources and then its
# inputs' values, in the order the node lists them.


def _build_scene(src: PipelineSources) -> RoofScene:
    return build_roof_scene(src.roof, dsm_pitch=src.dsm_pitch)


def _build_grid(src: PipelineSources, scene: RoofScene) -> RoofGrid:
    return suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=src.grid_pitch))


def _build_weather(src: PipelineSources) -> WeatherSeries:
    return src.weather()


def _build_horizon(src: PipelineSources, scene: RoofScene, grid: RoofGrid) -> HorizonMap:
    return roof_horizon_map(scene, grid, src.solar_config())


def _build_solar(
    src: PipelineSources,
    scene: RoofScene,
    grid: RoofGrid,
    weather: WeatherSeries,
    horizon: HorizonMap,
) -> RoofSolarField:
    # ``compute_roof_solar_field`` is looked up at call time, so tests can
    # swap the dense oracle in for it.
    return compute_roof_solar_field(scene, grid, weather, src.solar_config(), horizon)


def _build_suitability(src: PipelineSources, solar: RoofSolarField) -> SuitabilityMap:
    return compute_suitability(
        solar,
        SuitabilityConfig(percentile=DEFAULT_SUITABILITY_PERCENTILE),
        EmpiricalModuleModel(datasheet=src.datasheet),
    )


@dataclass(frozen=True)
class Node:
    """One pipeline stage, cached when it has a ``key`` function."""

    name: str
    inputs: Tuple[str, ...]
    compute: Callable[..., Any]
    key: Optional[Callable[[PipelineSources], Any]] = None


#: The data-extraction stages, in execution order.
NODES: Tuple[Node, ...] = (
    Node(STAGE_SCENE, (), _build_scene, lambda src: src.scene_key),
    Node(STAGE_GRID, (STAGE_SCENE,), _build_grid, lambda src: src.grid_key),
    Node(STAGE_WEATHER, (), _build_weather),
    Node(STAGE_HORIZON, (STAGE_SCENE, STAGE_GRID), _build_horizon),
    Node(
        STAGE_SOLAR,
        (STAGE_SCENE, STAGE_GRID, STAGE_WEATHER, STAGE_HORIZON),
        _build_solar,
        lambda src: src.solar_key,
    ),
    Node(STAGE_SUITABILITY, (STAGE_SOLAR,), _build_suitability, _suitability_key),
)

#: Every stage of one scenario run, in execution order: the nodes, then
#: placement and evaluation.  The keys of
#: :attr:`ScenarioResult.stage_times_s` and the campaign metrics table.
PIPELINE_STAGES = tuple(node.name for node in NODES) + (STAGE_SOLVE, STAGE_EVALUATE)

#: The uncached nodes (weather, horizon).  They run only when a cached node
#: that needs them misses, so their seconds are recompute time.
UNCACHED_STAGES = tuple(node.name for node in NODES if node.key is None)


@contextlib.contextmanager
def _stage(name: str, stage_times: Dict[str, float]) -> Iterator[Any]:
    """Span + exclusive wall time of one pipeline stage.

    The time is *always* measured (the campaign metrics table needs
    per-stage seconds even when tracing is off); the span is the usual
    no-op unless a tracer is active.  Time spent in stages run inside this
    one (a missed node building its inputs) is booked to them, not here,
    so the entries of ``stage_times`` never overlap.
    """
    with span(name) as stage_span:
        nested_before = sum(stage_times.values())
        started = time.perf_counter()
        try:
            yield stage_span
        finally:
            elapsed = time.perf_counter() - started
            nested = sum(stage_times.values()) - nested_before
            stage_times[name] = stage_times.get(name, 0.0) + elapsed - nested


def run_pipeline(
    sources: PipelineSources,
    target: str,
    cache: StageCache,
    stage_cached: Dict[str, bool],
    stage_times: Dict[str, float],
) -> Dict[str, Any]:
    """Run the nodes ``target`` depends on; return their values by name.

    Every cached node among them is looked up, in table order, and its hit
    recorded in ``stage_cached``.  A node's inputs are built only when the
    node misses, so on a warm run the uncached nodes (weather, horizon)
    never run.  Each node that runs gets one span and one exclusive
    ``stage_times`` entry.
    """
    by_name = {node.name: node for node in NODES}
    needed = {target}
    for node in reversed(NODES):
        if node.name in needed:
            needed.update(node.inputs)
    values: Dict[str, Any] = {}

    def resolve(node: Node) -> Any:
        if node.name in values:
            return values[node.name]
        with _stage(node.name, stage_times) as stage_span:
            hit = False
            if node.key is not None:
                payload = node.key(sources)
                value, hit = cache.get(node.name, payload)
                stage_cached[node.name] = hit
                stage_span.set(cached=hit)
            if not hit:
                value = node.compute(sources, *(resolve(by_name[name]) for name in node.inputs))
                if node.key is not None:
                    cache.put(node.name, payload, value)
        values[node.name] = value
        return value

    for node in NODES:
        if node.name in needed and node.key is not None:
            resolve(node)
    return values


# ---------------------------------------------------------------------------
# Problem preparation for plan_roof
# ---------------------------------------------------------------------------


def prepare_problem(
    roof: RoofSpec,
    n_modules: int,
    n_series: int = 8,
    datasheet: Optional[ModuleDatasheet] = None,
    grid_pitch: float = 0.2,
    dsm_pitch: float = 0.4,
    time_grid: Optional[TimeGrid] = None,
    weather: Optional[WeatherSeries] = None,
    weather_seed: int = 0,
    solar_config: Optional[SolarSimulationConfig] = None,
    cache: Optional[StageCache] = None,
    allow_rotation: bool = False,
    label: Optional[str] = None,
) -> Tuple[FloorplanProblem, Dict[str, bool], WeatherSeries]:
    """Run the pipeline up to the solar field and assemble a floorplanning problem.

    Returns ``(problem, stage_cached, weather)`` where ``stage_cached`` maps
    stage names to whether the disk cache supplied them.  The solar key
    hashes the weather arrays, so weather is generated (from
    ``weather_seed``) even when the field is then a cache hit.
    """
    from ..pv.datasheet import PV_MF165EB3
    from ..weather.synthetic import SyntheticWeatherConfig, generate_weather

    sheet = datasheet if datasheet is not None else PV_MF165EB3
    solar_cfg = solar_config if solar_config is not None else SolarSimulationConfig()
    stage_cache = resolve_cache(cache) if cache is not None else StageCache(enabled=False)

    if weather is not None:
        # The weather series carries its own sampling; an explicitly passed
        # time grid must agree with it.
        if time_grid is not None and time_grid.n_samples != weather.time_grid.n_samples:
            raise ConfigurationError(
                "the provided weather series and time grid disagree on sample count"
            )
        series = weather
    else:
        grid_time = (
            time_grid if time_grid is not None else TimeGrid(step_minutes=60.0, day_stride=7)
        )
        series = generate_weather(grid_time, SyntheticWeatherConfig(seed=weather_seed))

    stage_cached: Dict[str, bool] = {}
    sources = PipelineSources.from_objects(roof, series, solar_cfg, dsm_pitch, grid_pitch)
    solar = run_pipeline(sources, STAGE_SOLAR, stage_cache, stage_cached, {})[STAGE_SOLAR]

    problem = build_problem(
        solar,
        n_modules,
        n_series,
        sheet,
        allow_rotation=allow_rotation,
        label=label if label is not None else roof.name,
    )
    return problem, stage_cached, series


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Flat, JSONL-serialisable outcome of one scenario run."""

    scenario: str
    solver: str
    n_modules: int
    n_valid_cells: int
    grid_cols: int
    grid_rows: int
    annual_energy_mwh: float
    baseline_energy_mwh: float
    improvement_percent: float
    wiring_extra_length_m: float
    capacity_factor: float
    runtime_s: float
    stage_cached: Dict[str, bool] = field(default_factory=dict)
    #: Exclusive wall-clock seconds per stage that ran (keys of
    #: :data:`PIPELINE_STAGES`): a cold run has all eight, a warm one skips
    #: ``weather`` and ``horizon``, which only a missed solar field builds.
    #: The entries never overlap, so their sum is at most ``runtime_s``.
    #: Like ``runtime_s`` this is provenance, not part of the fingerprint.
    stage_times_s: Dict[str, float] = field(default_factory=dict)
    solver_info: Dict[str, Any] = field(default_factory=dict)
    placement: Dict[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()
    #: Degradation provenance: True when the configured solver failed (or
    #: blew its budget) and ``fallback_solver`` produced this best-effort
    #: answer instead; ``degradation_reason`` records why, one line per
    #: abandoned chain entry.  ``solver`` always names the *configured*
    #: solver so report joins stay stable.
    degraded: bool = False
    fallback_solver: Optional[str] = None
    degradation_reason: Optional[str] = None
    #: Warm-start provenance: True when a neighbour's placement actually
    #: contributed to the solve.  Like ``runtime_s`` this is provenance,
    #: not part of the fingerprint -- warm and cold runs of the same
    #: scenario are interchangeable by construction.
    warm_started: bool = False
    #: Solver-reported relative optimality gap (None = not reported).
    gap: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-serialisable record (one JSONL line)."""
        return {
            "scenario": self.scenario,
            "solver": self.solver,
            "n_modules": self.n_modules,
            "n_valid_cells": self.n_valid_cells,
            "grid_cols": self.grid_cols,
            "grid_rows": self.grid_rows,
            "annual_energy_mwh": self.annual_energy_mwh,
            "baseline_energy_mwh": self.baseline_energy_mwh,
            "improvement_percent": self.improvement_percent,
            "wiring_extra_length_m": self.wiring_extra_length_m,
            "capacity_factor": self.capacity_factor,
            "runtime_s": self.runtime_s,
            "stage_cached": dict(self.stage_cached),
            "stage_times_s": dict(self.stage_times_s),
            "solver_info": dict(self.solver_info),
            "placement": dict(self.placement),
            "tags": list(self.tags),
            "degraded": self.degraded,
            "fallback_solver": self.fallback_solver,
            "degradation_reason": self.degradation_reason,
            "warm_started": self.warm_started,
            "gap": self.gap,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            scenario=str(data["scenario"]),
            solver=str(data["solver"]),
            n_modules=int(data["n_modules"]),
            n_valid_cells=int(data["n_valid_cells"]),
            grid_cols=int(data.get("grid_cols", 0)),
            grid_rows=int(data.get("grid_rows", 0)),
            annual_energy_mwh=float(data["annual_energy_mwh"]),
            baseline_energy_mwh=float(data["baseline_energy_mwh"]),
            improvement_percent=float(data["improvement_percent"]),
            wiring_extra_length_m=float(data["wiring_extra_length_m"]),
            capacity_factor=float(data["capacity_factor"]),
            runtime_s=float(data["runtime_s"]),
            stage_cached=dict(data.get("stage_cached", {})),
            stage_times_s={
                str(name): float(seconds)
                for name, seconds in dict(data.get("stage_times_s", {})).items()
            },
            solver_info=dict(data.get("solver_info", {})),
            placement=dict(data.get("placement", {})),
            tags=tuple(data.get("tags", [])),
            degraded=bool(data.get("degraded", False)),
            fallback_solver=data.get("fallback_solver"),
            degradation_reason=data.get("degradation_reason"),
            warm_started=bool(data.get("warm_started", False)),
            gap=None if data.get("gap") is None else float(data["gap"]),
        )

    def fingerprint(self) -> dict:
        """Deterministic subset of the result (no runtimes, no cache state).

        Two runs of the same scenario -- serial or parallel, cold or warm
        cache -- must produce identical fingerprints; the determinism tests
        and the batch runner's integrity checks rely on this.
        """
        placement = dict(self.placement)
        placement.pop("metadata", None)
        return {
            "scenario": self.scenario,
            "solver": self.solver,
            "n_modules": self.n_modules,
            "n_valid_cells": self.n_valid_cells,
            "annual_energy_mwh": self.annual_energy_mwh,
            "baseline_energy_mwh": self.baseline_energy_mwh,
            "improvement_percent": self.improvement_percent,
            "wiring_extra_length_m": self.wiring_extra_length_m,
            "placement": placement,
        }

    def report(self) -> str:
        """Short human-readable summary line."""
        cached = [name for name, hit in self.stage_cached.items() if hit]
        cache_note = f" [cached: {', '.join(cached)}]" if cached else ""
        degraded_note = (
            f" [degraded -> {self.fallback_solver}]" if self.degraded else ""
        )
        return (
            f"{self.scenario}: solver={self.solver}{degraded_note} N={self.n_modules} "
            f"Ng={self.n_valid_cells} energy={self.annual_energy_mwh:.3f} MWh/y "
            f"(baseline {self.baseline_energy_mwh:.3f}, "
            f"{self.improvement_percent:+.2f} %) in {self.runtime_s:.2f}s{cache_note}"
        )


def run_scenario(
    spec: ScenarioSpec,
    cache: Optional[StageCache] = None,
    use_cache: bool = True,
    warm_start: Optional[WarmStart] = None,
) -> ScenarioResult:
    """Execute one scenario through the staged pipeline.

    Parameters
    ----------
    spec:
        The declarative scenario.
    cache:
        Stage cache handle (or None for the default location).
    use_cache:
        Set False to force recomputation of every stage (the handle's own
        ``enabled`` flag also applies when a :class:`StageCache` is passed).
    warm_start:
        Optional neighbour placement hint forwarded to warm-start-capable
        solvers.  Hints travel out-of-band -- they are never part of the
        spec, so a scenario's content digest (and therefore its identity in
        caches and stores) is the same warm or cold.
    """
    start = time.perf_counter()
    stage_cache = resolve_cache(cache, enabled=use_cache)
    stage_cached: Dict[str, bool] = {}
    stage_times: Dict[str, float] = {}

    with span(
        "scenario",
        scenario=spec.name,
        solver=spec.solver.name,
        n_modules=spec.n_modules,
    ) as scenario_span:
        sources = PipelineSources.from_scenario(spec)
        values = run_pipeline(
            sources, STAGE_SUITABILITY, stage_cache, stage_cached, stage_times
        )
        solar = values[STAGE_SOLAR]
        suitability = values[STAGE_SUITABILITY]
        problem = build_problem(
            solar,
            spec.n_modules,
            spec.series_length(),
            sources.datasheet,
            allow_rotation=spec.allow_rotation,
            label=spec.name,
        )

        with _stage(STAGE_SOLVE, stage_times):
            chain = solve_with_fallback(
                problem,
                spec.solver.name,
                spec.solver.options,
                suitability,
                fallback=spec.solver.fallback,
                budget_s=spec.solver.budget_s,
                warm_start=warm_start if spec.solver.warm_start else None,
            )
            outcome = chain.outcome
            if (
                spec.solver.name == "traditional"
                and not spec.solver.options
                and not chain.degraded
            ):
                baseline: SolverOutcome = outcome
            else:
                baseline = solve(problem, "traditional", {}, suitability)

        with _stage(STAGE_EVALUATE, stage_times):
            # One evaluation context scores both the proposed and the baseline
            # placement, sharing the per-problem precomputation.
            evaluator = PlacementEvaluator(problem)
            comparison: PlacementComparison = evaluator.compare(
                baseline.placement, outcome.placement
            )

        runtime = time.perf_counter() - start
        scenario_span.set(
            runtime_s=round(runtime, 6),
            cached_stages=sum(1 for hit in stage_cached.values() if hit),
        )
    return ScenarioResult(
        scenario=spec.name,
        solver=spec.solver.name,
        n_modules=spec.n_modules,
        n_valid_cells=problem.grid.n_valid,
        grid_cols=problem.grid.n_cols,
        grid_rows=problem.grid.n_rows,
        annual_energy_mwh=comparison.candidate.annual_energy_mwh,
        baseline_energy_mwh=comparison.baseline.annual_energy_mwh,
        improvement_percent=comparison.improvement_percent,
        wiring_extra_length_m=comparison.candidate.wiring_extra_length_m,
        capacity_factor=comparison.candidate.capacity_factor,
        runtime_s=runtime,
        stage_cached=stage_cached,
        stage_times_s={name: round(seconds, 9) for name, seconds in stage_times.items()},
        solver_info=dict(outcome.info),
        placement=placement_to_dict(outcome.placement),
        tags=spec.tags,
        degraded=chain.degraded,
        fallback_solver=chain.fallback_solver,
        degradation_reason="; ".join(chain.failures) if chain.failures else None,
        warm_started=outcome.warm_started,
        gap=outcome.gap,
    )
