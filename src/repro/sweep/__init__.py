"""Declarative sweep engine: expand axis grids, run them cached, aggregate.

The sweep subsystem turns "reproduce the paper's artifacts at scale" into a
three-line workflow::

    from repro.scenario import builtin_scenarios
    from repro.sweep import SweepAxis, SweepPlan, run_sweep

    plan = SweepPlan(
        name="modules-x-solver",
        base=builtin_scenarios()["residential-south"],
        axes=(
            SweepAxis("n_modules", (4, 6, 8)),
            SweepAxis("solver.name", ("greedy", "traditional")),
        ),
    )
    sweep = run_sweep(plan, cache="~/.cache/repro")
    print(sweep.pivot("n_modules", "name", "annual_energy_mwh"))

Expansion (:mod:`repro.sweep.grid`) is pure specification surgery, execution
streams the expanded specs through the cached parallel batch runner
(:func:`repro.runner.run_batch`), and aggregation
(:mod:`repro.sweep.aggregate`) joins each point's axis coordinates with its
result plus per-stage cache-reuse accounting.  Because consecutive sweep
points usually differ by one parameter, the stage cache collapses the
expensive stages across the grid: an ``n_modules`` x ``solver`` sweep
computes its solar field *once*, and a warm re-run recomputes nothing.

:mod:`repro.sweep.report` renders sweep outcomes (and the paper-artifact
presets ``table1`` and ``catalog``) as deterministic Markdown/CSV.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import ScenarioExecutionError
from ..runner.batch import run_batch
from ..runner.cache import PathLike, StageCache
from ..runner.store import ResultStore
from ..telemetry import span
from .aggregate import (
    DEFAULT_METRICS,
    PivotTable,
    SweepPointResult,
    SweepResult,
    aggregate_batch,
)
from .grid import SWEEP_FORMAT_VERSION, SweepAxis, SweepPlan, SweepPoint

__all__ = [
    "DEFAULT_METRICS",
    "PivotTable",
    "SWEEP_FORMAT_VERSION",
    "SweepAxis",
    "SweepPlan",
    "SweepPoint",
    "SweepPointResult",
    "SweepResult",
    "aggregate_batch",
    "run_sweep",
]


def run_sweep(
    plan: SweepPlan,
    cache: Union[StageCache, PathLike, None] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    store: Union[ResultStore, PathLike, None] = None,
    campaign: Optional[str] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    warm_start: Optional[bool] = None,
) -> SweepResult:
    """Expand a sweep plan and execute every point through the batch runner.

    Parameters
    ----------
    plan:
        The declarative sweep (base scenario + axes).
    cache:
        Stage cache handle or directory shared by every point; points that
        share expensive-stage content keys (same roof/weather/time base)
        compute them once, within this run and across runs.
    jobs, use_cache:
        Forwarded to :func:`repro.runner.run_batch` (``jobs=1`` runs
        in-process).
    store:
        A durable :class:`~repro.runner.store.ResultStore` (or database
        path) routing the sweep through a resumable campaign: points already
        completed in an earlier run are skipped, failed points are retried
        up to ``retries`` times, and a re-run of an unchanged sweep is a
        no-op.  ``None`` (or ``"none"``) persists nothing.
    campaign:
        Campaign name within the store; defaults to
        :attr:`SweepPlan.campaign_name` (``sweep:<plan name>``).
    retries:
        Per-point retry budget for store-backed sweeps.
    timeout_s:
        Per-point wall-clock budget forwarded to the batch runner's
        watchdog; ``None`` falls back to the plan's own ``timeout_s``.
    retry_backoff_s:
        Base delay between retry attempts of one point (exponential with
        deterministic jitter); ``0`` retries immediately.
    warm_start:
        When True the sweep executes its points in axis-ascending order and
        offers every point the placement of the point one ``n_modules`` step
        below it, which the greedy placer replays as its exact prefix
        (:meth:`SweepPlan.warm_execution`); ``None`` falls back to the
        plan's own ``warm_start`` flag.  Warm starts are best-effort hints
        carried out-of-band: point digests, cache keys and the aggregated
        table (which stays in plan-point order) are identical to a cold run
        -- only runtimes and the ``warm_started`` provenance field change.

    Returns
    -------
    SweepResult
        Per-point results joined with their axis coordinates, plus
        cache-reuse accounting (:meth:`SweepResult.stage_recompute_counts`)
        and -- for store-backed sweeps -- the campaign summary.

    Raises
    ------
    ScenarioExecutionError
        For store-backed sweeps whose points still fail after retries (the
        failures stay recorded in the store, so fixing the cause and
        re-running resumes exactly the missing points).  Store-less sweeps
        raise for the first failed point once every point has run, like
        :func:`repro.runner.run_batch`.
    """
    points = plan.points()
    effective_timeout = timeout_s if timeout_s is not None else plan.timeout_s
    effective_warm = plan.warm_start if warm_start is None else warm_start
    if effective_warm:
        ordered_points, warm_hints = plan.warm_execution()
    else:
        ordered_points, warm_hints = points, None
    with span("sweep", plan=plan.name, n_points=len(points), warm=effective_warm):
        batch = run_batch(
            [point.spec for point in ordered_points],
            cache=cache,
            jobs=jobs,
            use_cache=use_cache,
            store=store,
            campaign=campaign if campaign else plan.campaign_name,
            retries=retries,
            timeout_s=effective_timeout,
            retry_backoff_s=retry_backoff_s,
            warm_hints=warm_hints,
        )
    summary = batch.campaign
    if summary is not None and (summary.failed or summary.timed_out):
        missing = [
            point.name
            for point in points
            if point.name not in {result.scenario for result in batch.results}
        ]
        counts = f"{summary.failed} point(s) failed"
        if summary.timed_out:
            counts += f", {summary.timed_out} timed out"
        raise ScenarioExecutionError(
            f"sweep {plan.name!r}: {counts} "
            f"({', '.join(missing[:5])}{', ...' if len(missing) > 5 else ''}); "
            "the store keeps their failure rows -- fix the cause and re-run "
            "to resume exactly the missing points"
        )
    return aggregate_batch(
        plan_name=plan.name,
        axis_keys=[axis.key for axis in plan.axes],
        points=[
            {"name": p.name, "overrides": p.overrides, "labels": p.labels}
            for p in points
        ],
        batch=batch,
    )
