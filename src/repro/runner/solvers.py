"""Solver registry: every floorplanning algorithm selectable by name.

The seed code base hardcoded the greedy-vs-traditional pair in
:func:`repro.plan_roof` and in the experiment drivers.  The registry makes
all four placement algorithms (and any future one registered through
:func:`register_solver`) addressable by a plain string, which is what the
scenario specifications, the batch runner, the CLI and the experiment
drivers use to select a solver.

Fallback chains
---------------
:func:`solve_with_fallback` runs a declarative degradation chain (e.g.
``ilp -> greedy``): when a solver raises -- an infeasible ILP, a solver
library crash, an injected transient fault -- or the chain's wall-clock
budget runs out before an entry starts, the next (cheaper) solver in the
chain is tried.  The result carries explicit provenance (``degraded``,
``fallback_solver``, the abandoned attempts' errors) so reports and
``campaign status`` always distinguish an exact answer from a best-effort
one.  A remaining budget is threaded into any chain entry that *declares*
budget support (its registration names the config option receiving the
seconds -- ``time_limit_s`` for the ILP), so an anytime solver degrades by
*stopping*, not by being killed.

Warm starts
-----------
:func:`solve` accepts an optional :class:`WarmStart` -- a neighbouring
instance's placement plus provenance flags -- and forwards it to solvers
whose registration declares ``supports_warm_start``.  Only the greedy
placer does: it resumes from the hint when it is its own solution prefix
(the sweep layer wires a point only to the point one ``n_modules`` step
below it).  Solvers without warm-start support never see the hint, so
passing one is always safe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from .. import faults
from ..core.exhaustive import ExhaustiveConfig, exhaustive_floorplan
from ..core.greedy import GreedyConfig, greedy_floorplan
from ..core.ilp import ILPConfig, ilp_floorplan
from ..core.placement import Placement
from ..core.problem import FloorplanProblem, default_topology
from ..core.suitability import SuitabilityMap
from ..core.traditional import traditional_floorplan
from ..errors import ConfigurationError, ReproError, TopologyError
from ..telemetry import span, trace_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class WarmStart:
    """A neighbouring instance's solution offered as a solver starting point.

    ``placement`` is the neighbour's full placement.  ``exact_prefix`` is a
    promise by the *caller* that the hint is this very problem's own optimal
    greedy prefix -- the hinted instance differed only by a smaller
    ``n_modules`` -- which is what allows the greedy placer to replay it
    verbatim and still match a cold solve module for module.  A hint without
    the flag is ignored.  ``source`` carries provenance (the neighbour
    point's name or digest) into traces.
    """

    placement: Placement
    exact_prefix: bool = False
    source: Optional[str] = None


@dataclass(frozen=True)
class SolverOutcome:
    """Normalised result of any registered solver.

    Solver-specific figures (``strategy``, ``relaxed_threshold_count``,
    ``objective_value``, ...) live in :attr:`info`.

    ``gap`` is the solver-reported relative optimality gap (0.0 = proven
    optimal under the solver's own objective, ``None`` = the solver does
    not report one -- heuristics never do).  ``warm_started`` records
    whether a :class:`WarmStart` hint actually contributed to this answer
    (a hint that failed validation leaves it False).
    """

    solver: str
    placement: Placement
    suitability: Optional[SuitabilityMap]
    runtime_s: float
    info: Dict[str, Any]
    gap: Optional[float] = None
    warm_started: bool = False


#: A solver adapter: problem + options (+ an optional precomputed
#: suitability map to share across solvers) -> normalised outcome.
#: Adapters registered with ``supports_warm_start=True`` take a fourth
#: positional argument, the optional :class:`WarmStart` hint; plain
#: three-argument adapters keep working unchanged.
SolverFn = Callable[..., SolverOutcome]


@dataclass(frozen=True)
class SolverEntry:
    """One registry entry: the adapter plus its declared capabilities.

    ``supports_warm_start`` gates whether :func:`solve` forwards a
    :class:`WarmStart` hint to the adapter.  ``budget_option`` names the
    solver-config option that receives a remaining wall-clock budget in
    seconds (``None`` = the solver is not anytime); :func:`solve` and
    :func:`solve_with_fallback` thread budgets through it generically, so
    a new anytime solver only has to declare the option name.
    """

    name: str
    fn: SolverFn
    supports_warm_start: bool = False
    budget_option: Optional[str] = None

    @property
    def supports_budget(self) -> bool:
        """Whether the solver accepts a wall-clock budget."""
        return self.budget_option is not None


_REGISTRY: Dict[str, SolverEntry] = {}

#: Bumped by every :func:`register_solver` call.  A batch worker pool forked
#: before a registration lacks that solver, so the batch runner keys its idle
#: pool on this number (:func:`registry_generation`).
_GENERATION = 0


def register_solver(
    name: str,
    solver: SolverFn,
    overwrite: bool = False,
    supports_warm_start: bool = False,
    budget_option: Optional[str] = None,
) -> None:
    """Register a solver adapter under ``name`` (lower-cased).

    ``supports_warm_start`` and ``budget_option`` declare the adapter's
    capabilities (see :class:`SolverEntry`); leaving them unset registers a
    plain cold-start solver, which is always safe.
    """
    global _GENERATION
    key = name.lower()
    if not key:
        raise ConfigurationError("solver name must be non-empty")
    if key in _REGISTRY and not overwrite:
        raise ConfigurationError(f"solver {name!r} is already registered")
    _REGISTRY[key] = SolverEntry(
        name=key,
        fn=solver,
        supports_warm_start=supports_warm_start,
        budget_option=budget_option,
    )
    _GENERATION += 1


def registry_generation() -> int:
    """How many registrations this process has made (see :data:`_GENERATION`)."""
    return _GENERATION


def get_solver_entry(name: str) -> SolverEntry:
    """Look up a registered solver entry (adapter + capabilities)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown solver {name!r}; known: {known}") from exc


def available_solvers() -> list:
    """Names of the registered solvers, sorted."""
    return sorted(_REGISTRY)


def solve(
    problem: FloorplanProblem,
    solver: str = "greedy",
    options: Optional[Mapping[str, Any]] = None,
    suitability: Optional[SuitabilityMap] = None,
    warm_start: Optional[WarmStart] = None,
    budget_s: Optional[float] = None,
) -> SolverOutcome:
    """Run the named solver on a problem instance.

    ``warm_start`` is forwarded only to solvers that declare warm-start
    support; ``budget_s`` is threaded into the solver's declared budget
    option (e.g. the ILP's ``time_limit_s``) and silently dropped for
    solvers without one -- heuristics that always terminate fast need no
    budget plumbing.  An explicit option set by the caller wins over the
    threaded budget.
    """
    entry = get_solver_entry(solver)
    opts = dict(options or {})
    if budget_s is not None and entry.supports_budget:
        opts.setdefault(entry.budget_option, max(float(budget_s), 0.1))
    hint = warm_start if entry.supports_warm_start else None
    with span(f"solver.{entry.name}", n_modules=problem.n_modules) as solver_span:
        # Chaos hook: an armed ``solver.error`` injector raises here, inside
        # the solver span, exactly where a real solver-library crash would.
        faults.fire("solver.error", f"{problem.label}:{entry.name}")
        # The hint argument is part of the warm-start capability contract:
        # only declared-capable adapters receive it, so pre-existing
        # three-argument solvers keep working unchanged.
        if entry.supports_warm_start:
            outcome = entry.fn(problem, opts, suitability, hint)
        else:
            outcome = entry.fn(problem, opts, suitability)
        if solver_span.active:
            solver_span.set(
                runtime_s=round(outcome.runtime_s, 6),
                warm_started=outcome.warm_started,
                **{
                    key: value
                    for key, value in outcome.info.items()
                    if isinstance(value, (bool, int, float, str))
                },
            )
            if outcome.gap is not None:
                solver_span.set(gap=round(outcome.gap, 9))
        return outcome


@dataclass(frozen=True)
class FallbackOutcome:
    """A solver-chain result with explicit degradation provenance.

    ``degraded`` is True when the answer came from a fallback entry rather
    than the configured solver; ``fallback_solver`` then names it, and
    ``failures`` records why each abandoned entry was given up on (one
    human-readable line per attempt), so a best-effort point can never
    masquerade as an exact one.
    """

    outcome: SolverOutcome
    degraded: bool = False
    fallback_solver: Optional[str] = None
    failures: Tuple[str, ...] = ()


def solve_with_fallback(
    problem: FloorplanProblem,
    solver: str = "greedy",
    options: Optional[Mapping[str, Any]] = None,
    suitability: Optional[SuitabilityMap] = None,
    fallback: Sequence[str] = (),
    budget_s: Optional[float] = None,
    warm_start: Optional[WarmStart] = None,
) -> FallbackOutcome:
    """Run a solver chain, degrading to cheaper entries on error or budget.

    Parameters
    ----------
    solver / options:
        The configured (primary) solver and its options.  Fallback entries
        run with empty options -- their configuration cannot be implied
        from the primary's.
    fallback:
        Solver names tried in order after the primary fails.
    budget_s:
        Wall-clock budget over the whole chain.  An entry whose turn comes
        after the budget is exhausted is skipped (the *last* entry always
        runs -- graceful degradation must produce an answer), and the
        remaining budget is threaded into the declared budget option of
        any entry that supports one (the ILP's ``time_limit_s``), so an
        anytime solve stops at the boundary instead of overshooting it.
    warm_start:
        Optional placement hint forwarded to every chain entry; entries
        without declared warm-start support never see it.

    Raises the last entry's error when every entry fails; a
    :class:`~repro.errors.ConfigurationError` (unknown solver, bad
    options) always propagates immediately -- a typo must fail loudly,
    not silently degrade.
    """
    chain = [solver, *fallback]
    failures: list = []
    start = time.perf_counter()
    for position, name in enumerate(chain):
        get_solver_entry(name)  # unknown names fail loudly even mid-chain
        last = position == len(chain) - 1
        opts = dict(options or {}) if position == 0 else {}
        remaining_s: Optional[float] = None
        if budget_s is not None:
            remaining = budget_s - (time.perf_counter() - start)
            if remaining <= 0 and not last:
                failures.append(
                    f"{name}: skipped (chain budget {budget_s:g}s exhausted)"
                )
                continue
            if remaining > 0:
                remaining_s = remaining
        try:
            outcome = solve(
                problem,
                name,
                opts,
                suitability,
                warm_start=warm_start,
                budget_s=remaining_s,
            )
        except ConfigurationError:
            raise
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            if last:
                raise
            trace_event(
                "solver.fallback",
                solver=name,
                next=chain[position + 1],
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        return FallbackOutcome(
            outcome=outcome,
            degraded=position > 0,
            fallback_solver=name if position > 0 else None,
            failures=tuple(failures),
        )
    raise ConfigurationError(
        f"solver chain {chain!r} produced no outcome"
    )  # pragma: no cover - unreachable: the last entry returns or raises


def _build_config(config_cls, options: Mapping[str, Any], solver: str):
    """The solver's config built from ``options`` (``config_cls=None``: it takes none)."""
    if config_cls is None:
        if options:
            raise ConfigurationError(
                f"invalid options for solver {solver!r}: it takes none, got {sorted(options)}"
            )
        return None
    try:
        return config_cls(**dict(options))
    except (TypeError, ReproError) as exc:
        raise ConfigurationError(f"invalid options for solver {solver!r}: {exc}") from exc


def _greedy(
    problem: FloorplanProblem,
    options: Mapping[str, Any],
    suitability: Optional[SuitabilityMap],
    warm_start: Optional[WarmStart] = None,
) -> SolverOutcome:
    config = _build_config(GreedyConfig, options, "greedy")
    result = greedy_floorplan(
        problem, suitability=suitability, config=config, warm_start=warm_start
    )
    return SolverOutcome(
        solver="greedy",
        placement=result.placement,
        suitability=result.suitability,
        runtime_s=result.runtime_s,
        info={
            "relaxed_threshold_count": result.relaxed_threshold_count,
            "warm_modules": result.warm_modules,
        },
        warm_started=result.warm_modules > 0,
    )


def _traditional(
    problem: FloorplanProblem,
    options: Mapping[str, Any],
    suitability: Optional[SuitabilityMap],
) -> SolverOutcome:
    _build_config(None, options, "traditional")
    result = traditional_floorplan(problem, suitability=suitability)
    return SolverOutcome(
        solver="traditional",
        placement=result.placement,
        suitability=result.suitability,
        runtime_s=result.runtime_s,
        info={"strategy": result.strategy},
    )


def _ilp(
    problem: FloorplanProblem,
    options: Mapping[str, Any],
    suitability: Optional[SuitabilityMap],
) -> SolverOutcome:
    config = _build_config(ILPConfig, options, "ilp")
    result = ilp_floorplan(problem, suitability=suitability, config=config)
    return SolverOutcome(
        solver="ilp",
        placement=result.placement,
        suitability=result.suitability,
        runtime_s=result.runtime_s,
        info={
            "objective_value": result.objective_value,
            "solver_status": result.solver_status,
        },
        gap=result.gap,
    )


def _exhaustive(
    problem: FloorplanProblem,
    options: Mapping[str, Any],
    suitability: Optional[SuitabilityMap],
) -> SolverOutcome:
    config = _build_config(ExhaustiveConfig, options, "exhaustive")
    result = exhaustive_floorplan(problem, config=config)
    return SolverOutcome(
        solver="exhaustive",
        placement=result.placement,
        suitability=suitability,
        runtime_s=result.runtime_s,
        info={
            "best_energy_wh": result.best_energy_wh,
            "n_combinations_evaluated": result.n_combinations_evaluated,
        },
        gap=0.0,
    )


#: The config each built-in adapter builds from its options (None: it takes
#: none).  A solver registered with another adapter parses its own.
_OPTION_CONFIGS = {
    _greedy: GreedyConfig,
    _traditional: None,
    _ilp: ILPConfig,
    _exhaustive: ExhaustiveConfig,
}


def check_solvable(spec: "ScenarioSpec") -> None:
    """Raise :class:`ConfigurationError` for a document whose solve can only fail.

    Resolves the solver and every fallback name, builds the solver's config
    from ``solver.options`` (fallback entries run without options) and the
    string topology of ``n_modules`` -- no stage needed, so a service
    admission, an enrollment or a run rejects such a document before any
    work is queued or done.
    """
    entry = get_solver_entry(spec.solver.name)
    for name in spec.solver.fallback:
        get_solver_entry(name)
    if entry.fn in _OPTION_CONFIGS:
        _build_config(_OPTION_CONFIGS[entry.fn], spec.solver.options, entry.name)
    try:
        default_topology(spec.n_modules, spec.series_length())
    except TopologyError as exc:
        raise ConfigurationError(f"invalid string topology: {exc}") from exc


register_solver("greedy", _greedy, supports_warm_start=True)
register_solver("traditional", _traditional)
register_solver("ilp", _ilp, budget_option="time_limit_s")
register_solver("exhaustive", _exhaustive)
