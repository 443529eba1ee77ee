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
:func:`run_pipeline`.  Every run is described one way, by a
:class:`~repro.scenario.ScenarioSpec`: scenarios and sweeps are specs, and
:func:`repro.plan_roof`, the case-study drivers and the runtime sweep build
one from their arguments.  :func:`execute_scenario` is the one copy of the
sequence after the field (suitability, solve with baseline, compare) that
both :func:`run_scenario` and :func:`repro.plan_roof` run.  The expensive
nodes are memoised in a :class:`~repro.runner.cache.StageCache` under keys
from the table alone (:func:`node_keys`), so every entry point that
describes the same roof/weather/time base shares the cached stages,
variants skip straight to the placement stage, and a warm run never builds
the weather or the horizon at all.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..constants import DEFAULT_SUITABILITY_PERCENTILE
from ..core.problem import FloorplanProblem, build_problem
from ..core.evaluation import PlacementComparison, PlacementEvaluator
from ..core.suitability import SuitabilityConfig, SuitabilityMap, compute_suitability
from ..gis.gridding import RoofGrid, make_roof_grid
from ..gis.suitable_area import suitable_grid_for_scene
from ..gis.synthetic import RoofScene, build_roof_scene
from ..io.placement_json import placement_to_dict
from ..pv.module import EmpiricalModuleModel
from ..scenario.spec import ScenarioSpec
from ..solar.irradiance_map import RoofSolarField, compute_roof_solar_field, roof_horizon_map
from ..solar.shading import HorizonMap
from ..telemetry import span
from ..weather.records import WeatherSeries
from .cache import StageCache, content_digest, resolve_cache
from .result import CACHED_STAGES, ScenarioResult
from .result import POINT_DIGEST_VERSION, scenario_content_digest  # noqa: F401 - re-exported
from .solvers import (
    FallbackOutcome,
    SolverOutcome,
    WarmStart,
    check_solvable,
    solve,
    solve_with_fallback,
)

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
# The pipeline as one table of nodes
# ---------------------------------------------------------------------------


# Compute functions of the nodes: each takes the spec, of which it reads only
# its node's ``reads``, and then its inputs' values in the node's order.


def _build_scene(spec: ScenarioSpec) -> RoofScene:
    return build_roof_scene(spec.roof, dsm_pitch=spec.dsm_pitch)


def _build_grid(spec: ScenarioSpec, scene: RoofScene) -> RoofGrid:
    return suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=spec.grid_pitch))


def _build_weather(spec: ScenarioSpec) -> WeatherSeries:
    return spec.weather.build(spec.time.build())


def _build_horizon(spec: ScenarioSpec, scene: RoofScene, grid: RoofGrid) -> HorizonMap:
    return roof_horizon_map(scene, grid, spec.solar.build())


def _build_solar(
    spec: ScenarioSpec,
    scene: RoofScene,
    grid: RoofGrid,
    weather: WeatherSeries,
    horizon: HorizonMap,
) -> RoofSolarField:
    # ``compute_roof_solar_field`` is looked up at call time, so tests can
    # swap the dense oracle in for it.
    return compute_roof_solar_field(scene, grid, weather, spec.solar.build(), horizon)


def _build_suitability(spec: ScenarioSpec, solar: RoofSolarField) -> SuitabilityMap:
    return compute_suitability(
        solar,
        SuitabilityConfig(percentile=DEFAULT_SUITABILITY_PERCENTILE),
        EmpiricalModuleModel(datasheet=spec.datasheet()),
    )


@dataclass(frozen=True)
class Node:
    """One pipeline stage: the document paths it ``reads`` (``module`` is the
    resolved datasheet) and its ``inputs``."""

    name: str
    reads: Tuple[str, ...]
    inputs: Tuple[str, ...]
    compute: Callable[..., Any]

    @property
    def cached(self) -> bool:
        """Whether the stage cache keeps the node (:data:`CACHED_STAGES`)."""
        return self.name in CACHED_STAGES


#: The data-extraction stages, in execution order.
NODES: Tuple[Node, ...] = (
    Node(STAGE_SCENE, ("roof", "dsm_pitch"), (), _build_scene),
    Node(STAGE_GRID, ("grid_pitch",), (STAGE_SCENE,), _build_grid),
    Node(STAGE_WEATHER, ("time", "weather"), (), _build_weather),
    Node(
        STAGE_HORIZON,
        ("solar.n_horizon_sectors", "solar.horizon_max_distance_m"),
        (STAGE_SCENE, STAGE_GRID),
        _build_horizon,
    ),
    Node(
        STAGE_SOLAR,
        ("solar.albedo",),
        (STAGE_SCENE, STAGE_GRID, STAGE_WEATHER, STAGE_HORIZON),
        _build_solar,
    ),
    Node(STAGE_SUITABILITY, ("module.gamma_p_per_k",), (STAGE_SOLAR,), _build_suitability),
)


def node_keys(spec: ScenarioSpec) -> Dict[str, str]:
    """Each node's cache key: the digest of its name, the values at its
    ``reads`` and its inputs' keys, so only what is upstream changes it.
    A ``module.<field>`` read is that attribute of the resolved datasheet."""
    document = spec.to_dict()
    datasheet = spec.datasheet()
    keys: Dict[str, str] = {}
    for node in NODES:
        reads = {}
        for path in node.reads:
            head, _, rest = path.partition(".")
            if head == "module":
                reads[path] = getattr(datasheet, rest)
                continue
            value = document
            for part in path.split("."):
                value = value[part]
            reads[path] = value
        keys[node.name] = content_digest(
            {"node": node.name, "reads": reads, "inputs": [keys[name] for name in node.inputs]}
        )
    return keys


#: Every stage of one scenario run, in execution order: the nodes, then
#: placement and evaluation.  The keys of
#: :attr:`ScenarioResult.stage_times_s` and the campaign metrics table.
PIPELINE_STAGES = tuple(node.name for node in NODES) + (STAGE_SOLVE, STAGE_EVALUATE)

#: The uncached nodes (weather, horizon).  They run only when a cached node
#: that needs them misses, so their seconds are recompute time.
UNCACHED_STAGES = tuple(node.name for node in NODES if not node.cached)


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
    spec: ScenarioSpec,
    target: str,
    cache: Optional[StageCache],
    stage_cached: Dict[str, bool],
    stage_times: Dict[str, float],
) -> Dict[str, Any]:
    """Run the nodes ``target`` depends on; return their values by name.

    Every cached node among them is looked up under its :func:`node_keys`
    key, in table order, and its hit recorded in ``stage_cached``.  A
    node's inputs are built only when the node misses, so on a warm run the
    uncached nodes (weather, horizon) never run.  Each node that runs gets
    one span and one exclusive ``stage_times`` entry.  With ``cache=None``
    the run is uncached: every node is computed and every cached node
    records a miss.
    """
    by_name = {node.name: node for node in NODES}
    needed = {target}
    for node in reversed(NODES):
        if node.name in needed:
            needed.update(node.inputs)
    keys = node_keys(spec) if cache is not None else {}
    values: Dict[str, Any] = {}

    def resolve(node: Node) -> Any:
        if node.name in values:
            return values[node.name]
        with _stage(node.name, stage_times) as stage_span:
            hit = False
            stored = node.cached and cache is not None
            if stored:
                value, hit = cache.get(node.name, keys[node.name])
            if node.cached:
                stage_cached[node.name] = hit
                stage_span.set(cached=hit)
            if not hit:
                value = node.compute(spec, *(resolve(by_name[name]) for name in node.inputs))
                if stored:
                    cache.put(node.name, keys[node.name], value)
        values[node.name] = value
        return value

    for node in NODES:
        if node.name in needed and node.cached:
            resolve(node)
    return values


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """The objects one run of a scenario produced.

    :func:`run_scenario` flattens them into a :class:`ScenarioResult`;
    :func:`repro.plan_roof` hands them out as a ``RoofPlanResult``.
    ``baseline`` is the traditional compact placement the solver chain's
    answer is compared against.
    """

    problem: FloorplanProblem
    chain: FallbackOutcome
    baseline: SolverOutcome
    comparison: PlacementComparison
    stage_cached: Dict[str, bool]
    stage_times: Dict[str, float]
    runtime_s: float


def execute_scenario(
    spec: ScenarioSpec,
    cache: Optional[StageCache],
    warm_start: Optional[WarmStart] = None,
) -> ScenarioRun:
    """Run one scenario: the nodes up to suitability, the solvers, the evaluator.

    ``cache=None`` runs uncached.  ``warm_start`` is forwarded to the
    solver chain unless the spec opts out.  The baseline is the solver
    chain's own answer when that is the plain traditional placement, and a
    separate traditional solve otherwise; one evaluator scores both.  A
    document whose solve can only fail raises
    :class:`~repro.errors.ConfigurationError` before any node runs
    (:func:`~repro.runner.solvers.check_solvable`).
    """
    check_solvable(spec)
    start = time.perf_counter()
    stage_cached: Dict[str, bool] = {}
    stage_times: Dict[str, float] = {}

    with span(
        "scenario",
        scenario=spec.name,
        solver=spec.solver.name,
        n_modules=spec.n_modules,
    ) as scenario_span:
        values = run_pipeline(spec, STAGE_SUITABILITY, cache, stage_cached, stage_times)
        suitability = values[STAGE_SUITABILITY]
        problem = build_problem(
            values[STAGE_SOLAR],
            spec.n_modules,
            spec.series_length(),
            spec.datasheet(),
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
            if (
                spec.solver.name == "traditional"
                and not spec.solver.options
                and not chain.degraded
            ):
                baseline = chain.outcome
            else:
                baseline = solve(problem, "traditional", {}, suitability)

        with _stage(STAGE_EVALUATE, stage_times):
            comparison = PlacementEvaluator(problem).compare(
                baseline.placement, chain.outcome.placement
            )

        runtime = time.perf_counter() - start
        scenario_span.set(
            runtime_s=round(runtime, 6),
            cached_stages=sum(1 for hit in stage_cached.values() if hit),
        )
    return ScenarioRun(
        problem=problem,
        chain=chain,
        baseline=baseline,
        comparison=comparison,
        stage_cached=stage_cached,
        stage_times=stage_times,
        runtime_s=runtime,
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
        Set False to run uncached: every stage is recomputed and nothing is
        written, whatever ``cache`` is.
    warm_start:
        Optional neighbour placement hint forwarded to warm-start-capable
        solvers.  Hints travel out-of-band -- they are never part of the
        spec, so a scenario's content digest (and therefore its identity in
        caches and stores) is the same warm or cold.
    """
    run = execute_scenario(spec, resolve_cache(cache, use_cache), warm_start)
    outcome = run.chain.outcome
    candidate = run.comparison.candidate
    return ScenarioResult(
        scenario=spec.name,
        solver=spec.solver.name,
        n_modules=spec.n_modules,
        n_valid_cells=run.problem.grid.n_valid,
        grid_cols=run.problem.grid.n_cols,
        grid_rows=run.problem.grid.n_rows,
        annual_energy_mwh=candidate.annual_energy_mwh,
        baseline_energy_mwh=run.comparison.baseline.annual_energy_mwh,
        improvement_percent=run.comparison.improvement_percent,
        wiring_extra_length_m=candidate.wiring_extra_length_m,
        capacity_factor=candidate.capacity_factor,
        runtime_s=run.runtime_s,
        stage_cached=run.stage_cached,
        stage_times_s={name: round(seconds, 9) for name, seconds in run.stage_times.items()},
        solver_info=dict(outcome.info),
        placement=placement_to_dict(outcome.placement),
        tags=spec.tags,
        degraded=run.chain.degraded,
        fallback_solver=run.chain.fallback_solver,
        degradation_reason="; ".join(run.chain.failures) if run.chain.failures else None,
        warm_started=outcome.warm_started,
        gap=outcome.gap,
    )
