"""Batch execution of scenario fleets through one store claim loop.

Every point runs through :func:`run_claim_loop`, the single execution
engine: it claims leases from a :class:`~repro.runner.store.ResultStore`,
runs each point in-process or in a
:class:`~concurrent.futures.ProcessPoolExecutor`, heartbeats what it holds
and writes lease-fenced terminal marks.  :func:`run_batch` is enroll +
loop + summary; the fleet daemon (:func:`~repro.runner.worker.run_worker`)
is the same loop over a whole campaign.

Worker pool
-----------
A process keeps at most one idle worker pool and lends it to one claim
loop at a time, so consecutive pooled batches (the points of a design
sweep, say) skip the fork and run in warm workers.  A loop borrows the idle
pool when its size and the solver registry generation
(:func:`~repro.runner.solvers.registry_generation`) match, and otherwise
shuts it down and forks a new one.  A loop that ends cleanly hands its pool
back; one that tore its pool down (watchdog eviction, a dead worker, a stop
signal) or raised shuts its pool down instead.  An idle pool one of whose
workers died between loops is not lent, and a pool handed back while
another already idles is shut down, so loops in concurrent threads never
share workers.  The idle pool's workers end with the interpreter
(the standard library's exit hook joins them; each worker also exits when
its parent process dies), and :func:`discard_idle_pool` ends them earlier.

The worker transport is zero-copy by construction: each submission
carries only the scenario's declarative dictionary, the cache *location*
(a directory path -- the content keys are recomputed inside the worker),
the warm-start hint and the loop's trace and fault context, never a
pickled irradiance array or any other bulk simulation object; workers
attach to the shared on-disk stage cache, whose bulk arrays they
memory-map read-only (see :mod:`repro.runner.cache`).  The
first scenario that needs a given solar field computes and publishes it,
all later scenarios -- in this run or the next -- hit the cache.  Results
come back in input order regardless of completion order, and all scenario
inputs are seeded, so a parallel batch is bit-for-bit identical to a
serial one.

Campaigns
---------
Passing ``store=`` turns the batch into a *campaign*: every point is first
enrolled (keyed by its scenario content digest), points already ``done``
from a previous run are skipped, failures are recorded per-point -- a
worker exception or even a worker *death* fails only its own point, never
the whole run -- and failed points are retried up to ``retries`` times.
The returned :class:`BatchResult` then carries a
:class:`~repro.runner.store.CampaignSummary` with done/computed/skipped/
failed/retried accounting plus the per-stage cache provenance of the
points computed by this invocation.  Without a store the batch runs the
same way against a throwaway store, then raises a
:class:`~repro.errors.ScenarioExecutionError` naming the first failed
point in input order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import signal
import tempfile
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import faults
from ..constants import DEFAULT_HEARTBEAT_S, DEFAULT_STALE_AFTER_S
from ..errors import ConfigurationError, ScenarioExecutionError
from ..io.placement_json import placement_from_dict
from ..scenario.spec import ScenarioSpec
from ..telemetry import (
    TRACE_ENV,
    MetricStats,
    current_span_id,
    merge_active_trace,
    span,
    trace_event,
    trace_to,
    under_span,
)
from .cache import PathLike, StageCache, resolve_cache
from .solvers import WarmStart, registry_generation
from .stages import UNCACHED_STAGES, ScenarioResult, run_scenario
from .store import (
    METRIC_KIND_COUNTER,
    METRIC_KIND_POINT_TIME,
    METRIC_KIND_STAGE_HIT_TIME,
    METRIC_KIND_STAGE_RECOMPUTE_TIME,
    METRIC_KIND_STAGE_TIME,
    STATUS_DONE,
    STATUS_TIMED_OUT,
    CampaignSummary,
    PointRecord,
    ResultStore,
    new_lease_owner,
    resolve_store,
)

#: Leases a pooled batch holds per worker process: enough to keep every
#: worker busy while results stream back, small enough that a 10k-scenario
#: fleet does not materialise 10k pending futures up front.
INFLIGHT_PER_WORKER = 2

#: Campaign name used when ``run_batch`` gets a store but no explicit name.
DEFAULT_CAMPAIGN = "batch"

#: How long the claim loop blocks in ``wait`` per tick.  Bounded so
#: deadlines, heartbeats, retry backoffs and stop signals are all checked
#: at this cadence even while every worker is busy.
WAIT_TICK_S = 0.25


def retry_backoff_delay(base_s: float, attempt: int, key: str) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base_s * 2**attempt``, jittered into ``[0.5x, 1.5x)`` by a hash of
    ``(key, attempt)`` -- deterministic for reproducible tests, yet
    decorrelated across points so a fleet of failing points does not
    retry in lockstep (the usual thundering-herd jitter rationale).
    """
    if base_s <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:4], "big") / 2**32
    return base_s * (2**attempt) * (0.5 + unit)


class _StopRequested(BaseException):
    """Internal: a SIGTERM/SIGINT asked the claim loop to wind down cleanly.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so no
    worker-error handler can swallow it; the loop catches it, kills the
    pool, settles its held points and reports the signal to its caller.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


def _worker_init() -> None:
    """Worker-process initializer: default signal dispositions, exit with the parent.

    Forked workers inherit the parent's stop handlers, which must not run
    in a worker: a worker has to die promptly on ``terminate()`` (SIGTERM)
    and leave Ctrl-C -- SIGINT, delivered to the whole process group -- to
    the parent's claim loop, which settles held points and shuts down cleanly.

    A lent pool idles between claim loops, and a parent killed outright
    (no exit hooks) would leave its workers blocked on the task queue for
    good, so a daemon thread ends the worker once its parent is gone.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """Poll the parent pid once a second; exit the worker once it changed."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _new_pool(size: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=size, initializer=_worker_init)


#: The idle worker pool with its key ``(size, solver registry generation)``,
#: or ``None``: at most one per process (see "Worker pool" above).
_IDLE: Optional[Tuple[Tuple[int, int], ProcessPoolExecutor]] = None
_IDLE_LOCK = threading.Lock()


def _pool_intact(pool: ProcessPoolExecutor) -> bool:
    """Whether every worker of ``pool`` still runs and the pool is not broken.

    An idle pool's workers can die between loops (the OOM killer, a stray
    ``kill``); the pool then breaks, or is about to once its management
    thread notices, and would refuse the next submission.
    """
    processes = pool._processes or {}
    return not pool._broken and all(process.is_alive() for process in processes.values())


def _borrow_pool(size: int) -> Tuple[Tuple[int, int], ProcessPoolExecutor]:
    """The idle pool if it fits ``size`` and the solver registry, else a new one."""
    global _IDLE
    key = (size, registry_generation())
    with _IDLE_LOCK:
        if _IDLE is not None and _IDLE[0] == key and _pool_intact(_IDLE[1]):
            idle, _IDLE = _IDLE, None
            return idle
    discard_idle_pool()
    return key, _new_pool(size)


def _hand_back(key: Tuple[int, int], pool: ProcessPoolExecutor) -> None:
    """Make ``pool`` the idle pool, or shut it down if another one idles already."""
    global _IDLE
    with _IDLE_LOCK:
        if _IDLE is None:
            _IDLE = (key, pool)
            return
    pool.shutdown()


def discard_idle_pool() -> None:
    """Shut the idle worker pool down, so the next pooled loop forks afresh."""
    global _IDLE
    with _IDLE_LOCK:
        idle, _IDLE = _IDLE, None
    if idle is not None:
        idle[1].shutdown()


def _terminate_worker_processes(executor: ProcessPoolExecutor) -> None:
    """Hard-terminate every worker process of a pool (watchdog/stop path).

    ``ProcessPoolExecutor`` has no per-task kill, so a hung worker is
    evicted by terminating the pool's processes and rebuilding.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def count_stage_flags(
    results: Sequence[ScenarioResult], cached: bool
) -> Dict[str, int]:
    """Tally per-stage cache provenance across scenario results.

    ``cached=True`` counts results whose stage was served from the cache,
    ``cached=False`` counts recomputations.  Every stage that appears in any
    result's provenance map gets an entry (possibly zero), so hit and miss
    tallies always cover the same stage set.  Shared by the batch- and
    sweep-level accounting so the two can never drift apart.
    """
    counts: Dict[str, int] = {}
    for result in results:
        for stage, hit in result.stage_cached.items():
            counts[stage] = counts.get(stage, 0) + (1 if hit == cached else 0)
    return counts


def _stage_provenance(result: ScenarioResult) -> Dict[str, bool]:
    """``stage_cached`` plus every uncached node that ran, as a recompute."""
    provenance = dict(result.stage_cached)
    for stage in UNCACHED_STAGES:
        if stage in result.stage_times_s:
            provenance[stage] = False
    return provenance


def sum_stage_times(
    results: Sequence[ScenarioResult], cached: bool
) -> Dict[str, float]:
    """Sum per-stage wall time across results, split by cache provenance.

    The wall-clock counterpart of :func:`count_stage_flags`: ``cached=True``
    totals the seconds spent *loading* cached stages, ``cached=False`` the
    seconds spent recomputing them.  Besides the cached stages, both totals
    are keyed over the uncached nodes (weather, horizon) that ran: those run
    only under a missed stage, so their seconds count as recompute time.
    """
    totals: Dict[str, float] = {}
    for result in results:
        for stage, hit in _stage_provenance(result).items():
            seconds = result.stage_times_s.get(stage, 0.0) if hit == cached else 0.0
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


@dataclass
class BatchResult:
    """Outcome of one batch run."""

    results: List[ScenarioResult]
    runtime_s: float
    jobs: int
    cache_dir: Optional[Path] = None
    campaign: Optional[CampaignSummary] = None

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios with results (computed or reloaded)."""
        return len(self.results)

    def by_name(self) -> Dict[str, ScenarioResult]:
        """Results keyed by scenario name."""
        return {result.scenario: result for result in self.results}

    def cache_hit_counts(self) -> Dict[str, int]:
        """Per-stage count of scenarios served from the cache."""
        return count_stage_flags(self.results, cached=True)

    def cache_miss_counts(self) -> Dict[str, int]:
        """Per-stage count of scenarios that *recomputed* the stage.

        The complement of :meth:`cache_hit_counts` over the same provenance
        records: ``misses[stage]`` scenarios had to recompute ``stage``
        because no cache entry existed (or the cache was disabled).  A warm
        re-run of an unchanged fleet must report zero misses for every
        expensive stage -- the sweep engine's reuse accounting asserts
        exactly that.
        """
        return count_stage_flags(self.results, cached=False)

    def summary(self) -> dict:
        """Aggregate figures for reports and the CLI."""
        return {
            "n_scenarios": self.n_scenarios,
            "jobs": self.jobs,
            "runtime_s": self.runtime_s,
            "total_energy_mwh": sum(r.annual_energy_mwh for r in self.results),
            "cache_hits_by_stage": self.cache_hit_counts(),
            "cache_misses_by_stage": self.cache_miss_counts(),
            "campaign": None if self.campaign is None else self.campaign.as_dict(),
        }


class _TaskContext(NamedTuple):
    """The claim loop's state a pool worker applies before each task.

    A lent pool outlives the loop that forked it, so a worker must not run
    on the environment, fault plan or open span it inherited at fork time.
    """

    #: ``$REPRO_TRACE`` (``None``: not tracing) and the loop's span, the
    #: parent of the worker's ``scenario`` spans.
    trace: Optional[str]
    trace_parent: Optional[str]
    #: ``$REPRO_FAULTS`` and ``$REPRO_FAULTS_STATE``.
    faults: Optional[str]
    faults_state: Optional[str]
    #: One number per claim loop.  A worker re-arms its fault plan when it
    #: changes, so each loop starts from fresh injector counts, as a newly
    #: forked worker would.
    arming: int
    #: The verification mode of the loop's stage cache (``None``: the
    #: :class:`~repro.runner.cache.StageCache` default).
    cache_verify: Optional[str]


_LOOP_NUMBERS = itertools.count(1)


def _task_context(stage_cache: Optional[StageCache] = None) -> _TaskContext:
    """The calling loop's :class:`_TaskContext`, numbered afresh."""
    return _TaskContext(
        trace=os.environ.get(TRACE_ENV) or None,
        trace_parent=current_span_id(),
        faults=os.environ.get(faults.FAULTS_ENV) or None,
        faults_state=os.environ.get(faults.FAULTS_STATE_ENV) or None,
        arming=next(_LOOP_NUMBERS),
        cache_verify=None if stage_cache is None else stage_cache.verify,
    )


def _worker_payload(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    cache_dir: Optional[str],
    warm_hint: Optional[dict],
    context: _TaskContext,
) -> Tuple[dict, Optional[str], Optional[dict], _TaskContext]:
    """The pickled work unit shipped to one worker process.

    Deliberately tiny: the declarative scenario dictionary, the cache
    *location* (``None`` runs the point uncached), an optional warm-start
    hint (a neighbour's placement dict -- module anchor tuples, not
    arrays), and the loop's :class:`_TaskContext` (trace path and parent
    span, fault plan, cache verification mode).
    Workers rederive every content key from the spec and pull bulk arrays
    from the shared cache (memory-mapped), so no irradiance matrix -- or
    any other numpy payload -- ever crosses the process boundary.  A test
    asserts the serialised size stays in the kilobytes.
    """
    spec_dict = spec.to_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
    return (spec_dict, cache_dir, warm_hint, context)


def _warm_start_from_hint(
    hint: Union[WarmStart, Mapping[str, Any], None],
) -> Optional[WarmStart]:
    """Deserialise a transported warm hint; a malformed one means cold.

    Hints are strictly an accelerant -- any parsing problem downgrades the
    solve to cold instead of failing the point.
    """
    if hint is None or isinstance(hint, WarmStart):
        return hint
    try:
        return WarmStart(
            placement=placement_from_dict(hint["placement"]),
            exact_prefix=bool(hint.get("exact_prefix", False)),
            source=hint.get("source"),
        )
    except Exception:
        return None


def execute_point(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    cache: Optional[StageCache],
    warm_hint: Union[WarmStart, Mapping[str, Any], None] = None,
) -> Tuple[str, dict]:
    """Run one campaign point and classify the outcome in-process.

    The per-point execution path of :func:`run_claim_loop`, in-process or
    inside a pool worker, so a point behaves identically no matter which
    process model executes it.

    Fires the ``worker.crash`` / ``worker.hang`` chaos sites (keyed by the
    scenario name) before touching the scenario, then returns
    ``("ok", result_record)`` on success or
    ``("error", {"error", "traceback"})`` when the scenario raises — an
    exception never escapes, so the caller can attribute the failure to
    its point instead of surfacing a bare traceback.  (Stop signals —
    ``BaseException`` — do escape, by design.)

    ``cache`` is the :class:`~repro.runner.cache.StageCache` handle the
    point reads and writes (its hit/miss counters stay with the caller);
    ``None`` runs the point uncached.

    ``warm_hint`` is a :class:`~repro.runner.solvers.WarmStart` or its
    transported dict form (``{"placement", "exact_prefix", "source"}``);
    it reaches warm-start-capable solvers only and never alters the
    point's identity (the spec digest is hint-free).
    """
    spec = spec if isinstance(spec, ScenarioSpec) else ScenarioSpec.from_dict(spec)
    faults.fire("worker.crash", spec.name)
    faults.fire("worker.hang", spec.name)
    try:
        result = run_scenario(
            spec,
            cache=cache,
            use_cache=cache is not None,
            warm_start=_warm_start_from_hint(warm_hint),
        )
        return ("ok", result.to_dict())
    except Exception as exc:
        return (
            "error",
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            },
        )


#: The ``arming`` number of the last task context this process applied.
_ARMED_FOR: Optional[int] = None


def _run_scenario_worker(args: tuple) -> Tuple[str, dict]:
    """Process-pool entry point: the task's context around :func:`execute_point`.

    Returns ``("ok", result_record)`` or ``("error", {"error",
    "traceback"})`` (see :func:`execute_point`), so an exception inside a
    worker never tears down the pool and the parent can attribute the
    failure to its point (name + digest) instead of surfacing a bare pool
    traceback.
    """
    global _ARMED_FOR
    spec_dict, cache_dir, warm_hint, context = args
    # Each worker writes its own trace shard; the parent merges at drain time.
    trace_to(context.trace)
    if context.arming != _ARMED_FOR:
        # Chaos hooks: ``worker.crash`` kills this process outright
        # (exercising pool-death recovery in the parent), ``worker.hang``
        # sleeps past any deadline (exercising the watchdog).  Both are
        # no-ops unless a fault plan is armed; they fire inside
        # ``execute_point``.
        faults.configure(context.faults, context.faults_state)
        _ARMED_FOR = context.arming
    cache = None
    if cache_dir is not None:
        cache = StageCache(root=Path(cache_dir))
        cache.verify = context.cache_verify or cache.verify
    with under_span(context.trace_parent):
        return execute_point(spec_dict, cache, warm_hint=warm_hint)


def _point_error_message(name: str, digest: str, error: str) -> str:
    """Failure text attributing a worker error to its campaign point."""
    return f"scenario {name!r} (digest {digest[:12]}) failed: {error}"


@contextmanager
def _stop_signals() -> Iterator[None]:
    """Turn SIGINT/SIGTERM into :class:`_StopRequested` while the loop runs.

    Signals can only be installed from the main thread; elsewhere (batches
    driven from threads) the process keeps its existing handlers.
    """
    installed: List[Tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():

        def handler(signum: int, frame: object) -> None:
            raise _StopRequested(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            installed.append((signum, signal.signal(signum, handler)))
    try:
        yield
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)


@dataclass
class LoopTally:
    """What one :func:`run_claim_loop` did; both callers report from it."""

    claimed: int = 0
    #: Claims that adopted a stale ``running`` row of a dead owner.
    adopted: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    #: Held points handed back to ``pending`` on a stop signal.
    released: int = 0
    #: Finished attempts discarded because another owner took the lease.
    lost_leases: int = 0
    stopped_by_signal: Optional[int] = None
    #: Result records of the points this loop marked ``done``, by digest.
    results: Dict[str, dict] = field(default_factory=dict)


@dataclass
class _Lease:
    """One held point: its row, warm hint, retry accounting and attempt."""

    point: PointRecord
    hint: Optional[dict]
    errors: int = 0
    passes: int = 0
    future: Optional[Future] = None
    deadline: float = math.inf
    not_before: float = 0.0


def run_claim_loop(
    store: ResultStore,
    campaign: str,
    stage_cache: Optional[StageCache],
    *,
    owner: str,
    pool_size: int,
    max_leases: int,
    retries: int,
    timeout_s: Optional[float],
    retry_backoff_s: float,
    heartbeat_s: float,
    stale_after_s: float,
    poll_s: float,
    digests: Optional[Sequence[str]] = None,
    max_points: Optional[int] = None,
    wait_for_stragglers: bool = True,
    warm_start: bool = True,
    release_on_stop: bool = False,
) -> LoopTally:
    """The execution engine behind :func:`run_batch` and ``run_worker``.

    Holds up to ``max_leases`` points, each taken with
    :meth:`~repro.runner.store.ResultStore.claim_next_pending` (only among
    ``digests`` when given), and runs them through :func:`execute_point`:
    in-process when ``pool_size`` is 0, else in a process pool of that
    size, borrowed and handed back as the module docstring describes;
    ``stage_cache=None`` runs them uncached.  Held points are
    heartbeated every ``heartbeat_s``, and every terminal mark is fenced on
    ``owner`` still holding the lease: a result that arrives after another
    owner adopted the point is dropped and counted in ``lost_leases``.
    Warm hints resolve at claim time through
    :meth:`~repro.runner.store.ResultStore.warm_hint`.

    The execution policy lives here and nowhere else:

    * A point whose code raised, or that overran ``timeout_s``, re-runs
      under its lease up to ``retries`` times, after
      :func:`retry_backoff_delay`; every re-run counts one more attempt.
    * Pooled points past ``timeout_s`` are killed by tearing the pool down
      (a hung worker cannot be cancelled any other way); in-process the
      check is necessarily post hoc.
    * Points in flight when a worker process died or was torn down re-run
      without charging ``retries``, at most ``retries + 1`` times, so a
      point that always kills its worker still ends ``failed``.
    * SIGINT/SIGTERM (from the main thread) kill the pool and either hand
      the held points back to ``pending`` (``release_on_stop``) or mark
      them ``failed ("interrupted: terminated by signal")``.

    With nothing claimable the loop returns once it holds no lease and no
    ``pending``/``running`` row is left in scope; while other owners still
    hold rows it sleeps ``poll_s`` between claims, ready to adopt them
    should their owners die (unless ``wait_for_stragglers`` is off).
    ``max_points`` caps the number of claims.
    """
    tally = LoopTally()
    held: Dict[str, _Lease] = {}
    cache_dir = None if stage_cache is None else str(stage_cache.root)
    timeout_text = "" if timeout_s is None else (
        f"timed out: exceeded wall-clock budget of {timeout_s:g}s (timeout_s)"
    )

    def settle(lease: _Lease, status: str, record: dict) -> None:
        """Apply one attempt's outcome: a fenced mark, or a retry under the lease."""
        digest = lease.point.digest
        if status == "interrupted" and lease.passes <= retries:
            lease.passes += 1
        elif status in ("error", "timeout") and lease.errors < retries:
            lease.errors += 1
        else:
            del held[digest]
            if status == "ok":
                runtime_s = float(record.get("runtime_s", 0.0))
                marked = store.mark_done(campaign, digest, record, runtime_s, require_owner=owner)
                if marked:
                    tally.results[digest] = record
            else:
                message = _point_error_message(lease.point.name, digest, record["error"])
                if record.get("traceback"):
                    message = f"{message}\n{record['traceback']}"
                mark = store.mark_timed_out if status == "timeout" else store.mark_failed
                marked = mark(campaign, digest, message, require_owner=owner)
                if marked and status == "timeout":
                    tally.timed_out += 1
                elif marked:
                    tally.failed += 1
            tally.lost_leases += not marked
            return
        tally.retried += 1
        lease.future = None
        attempt = lease.errors + lease.passes - 1
        lease.not_before = time.monotonic() + retry_backoff_delay(retry_backoff_s, attempt, digest)

    def launch(lease: _Lease) -> None:
        """Start one attempt of a held point; a re-run re-stamps ``attempts``."""
        if lease.errors or lease.passes:
            store.mark_running(campaign, lease.point.digest, lease_owner=owner)
        spec_dict = lease.point.spec_dict
        if pool is None:
            # The loop is the worker: the existing cache handle keeps
            # counting hits, and the worker.* chaos sites fire right here.
            start = time.perf_counter()
            status, record = execute_point(spec_dict, stage_cache, warm_hint=lease.hint)
            elapsed = time.perf_counter() - start
            if status == "ok" and timeout_s is not None and elapsed > timeout_s:
                status, record = "timeout", {"error": timeout_text}
            settle(lease, status, record)
            return
        payload = _worker_payload(spec_dict, cache_dir, lease.hint, context)
        try:
            lease.future = pool.submit(_run_scenario_worker, payload)
        except BrokenProcessPool as died:
            # A worker died while no attempt was in flight.
            rebuild_pool(f"worker process died: {died}")
            lease.future = pool.submit(_run_scenario_worker, payload)
        if timeout_s is not None:
            lease.deadline = time.monotonic() + timeout_s

    def harvest(lease: _Lease, reason: str = "", overdue: bool = False) -> None:
        """Settle a pooled attempt: its outcome, or a timeout or casualty verdict."""
        future = lease.future
        if (
            future.done()
            and not future.cancelled()
            and not isinstance(future.exception(), BrokenProcessPool)
        ):
            error = future.exception()
            if error is None:
                settle(lease, *future.result())
            else:  # transport failures (unpicklable, ...)
                settle(lease, "error", {"error": f"{type(error).__name__}: {error}"})
        elif overdue:
            settle(lease, "timeout", {"error": timeout_text})
        else:
            settle(lease, "interrupted", {"error": reason})

    def rebuild_pool(reason: str, overdue: Set[str] = frozenset()) -> None:
        """Kill the pool, start a fresh one, and settle every pooled attempt."""
        nonlocal pool, torn_down
        _terminate_worker_processes(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        pool = _new_pool(pool_size)
        torn_down = True
        for lease in [lease for lease in held.values() if lease.future is not None]:
            harvest(lease, reason, lease.point.digest in overdue)

    pool: Optional[ProcessPoolExecutor] = None
    if pool_size:
        context = _task_context(stage_cache)
        pool_key, pool = _borrow_pool(pool_size)
    torn_down = clean = False
    last_beat = time.monotonic()
    with _stop_signals():
        try:
            while True:
                while len(held) < max_leases and (
                    max_points is None or tally.claimed < max_points
                ):
                    claimed = store.claim_next_pending(
                        campaign, owner=owner, stale_after_s=stale_after_s, digests=digests
                    )
                    if claimed is None:
                        break
                    tally.claimed += 1
                    tally.adopted += claimed.adopted
                    point = claimed.point
                    hint = store.warm_hint(point) if warm_start else None
                    held[point.digest] = lease = _Lease(point, hint)
                    launch(lease)
                now = time.monotonic()
                for lease in [x for x in held.values() if x.future is None]:
                    if lease.not_before <= now:
                        launch(lease)
                if not held:
                    capped = max_points is not None and tally.claimed >= max_points
                    if capped or not wait_for_stragglers:
                        break
                    if not store.queue_depth(campaign, digests):
                        break
                    time.sleep(poll_s)
                    continue
                inflight = {x.future: x for x in held.values() if x.future is not None}
                if not inflight:
                    # Every held point is backing off before its retry.
                    wake = min(lease.not_before for lease in held.values())
                    time.sleep(min(WAIT_TICK_S, max(0.0, wake - time.monotonic())))
                else:
                    finished, _ = wait(inflight, timeout=WAIT_TICK_S, return_when=FIRST_COMPLETED)
                    died = [
                        future.exception()
                        for future in finished
                        if isinstance(future.exception(), BrokenProcessPool)
                    ]
                    if died:
                        # The culprit cannot be identified: every pooled
                        # attempt is settled (finished ones normally) and
                        # the rest re-run on a fresh pool.
                        rebuild_pool(f"worker process died: {died[0]}")
                    else:
                        for future in finished:
                            harvest(inflight[future])
                        now = time.monotonic()
                        overdue = [
                            lease
                            for lease in held.values()
                            if lease.future is not None
                            and not lease.future.done()
                            and lease.deadline <= now
                        ]
                        if overdue:
                            names = ", ".join(repr(lease.point.name) for lease in overdue)
                            trace_event("batch.watchdog", overdue=len(overdue), points=names)
                            rebuild_pool(
                                "worker evicted by watchdog "
                                f"(pool torn down to kill overdue point(s) {names})",
                                {lease.point.digest for lease in overdue},
                            )
                if held and time.monotonic() - last_beat >= heartbeat_s:
                    store.heartbeat(campaign, list(held))
                    last_beat = time.monotonic()
            clean = True
        except _StopRequested as stop:
            tally.stopped_by_signal = stop.signum
            if pool is not None:
                _terminate_worker_processes(pool)
            for digest, lease in held.items():
                if release_on_stop:
                    tally.released += store.release(campaign, digest, owner)
                else:
                    message = _point_error_message(
                        lease.point.name, digest, "interrupted: terminated by signal"
                    )
                    store.mark_failed(campaign, digest, message, require_owner=owner)
        finally:
            if pool is not None and clean and not torn_down:
                _hand_back(pool_key, pool)
            elif pool is not None:
                pool.shutdown(wait=clean, cancel_futures=not clean)
    return tally


def run_batch(
    specs: Sequence[ScenarioSpec],
    cache: Union[StageCache, PathLike, None] = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    store: Union[ResultStore, PathLike, None] = None,
    campaign: Optional[str] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    warm_hints: Optional[Mapping[str, str]] = None,
) -> BatchResult:
    """Execute a scenario fleet, in a process pool or in-process, and store results.

    Parameters
    ----------
    specs:
        The scenarios to run.  Names must be unique (they key the store).
    cache:
        Stage cache handle or directory shared by every worker.
    jobs:
        Worker-process count; defaults to ``min(len(specs), cpu_count)``.
        ``1`` runs serially in-process; below ``1`` is an error.  Above
        ``1`` the batch borrows the process's idle worker pool of that size
        (forking one on first use) and hands it back when it ends cleanly,
        so the next pooled batch starts on warm workers; see the module
        docstring for when a pool is discarded instead.
    use_cache:
        Set False to bypass the stage cache entirely.
    store:
        A :class:`~repro.runner.store.ResultStore` (or database path) that
        turns the batch into a durable, resumable *campaign*; ``None`` (or
        the string ``"none"``) runs it against a throwaway store and raises
        :class:`~repro.errors.ScenarioExecutionError` for the first failed
        point (in input order) once every point has run.
    campaign:
        Campaign name within the store (default ``"batch"``).
    retries:
        How often a failed point is re-attempted within this run.
    timeout_s:
        Per-point wall-clock budget.  In parallel runs a parent-side
        watchdog terminates workers whose point overruns it (status
        ``timed_out``); serial runs check post hoc.  ``None`` disables.
    retry_backoff_s:
        Base delay between retry attempts of one point; doubles per
        attempt with deterministic jitter (:func:`retry_backoff_delay`).
        ``0`` (default) retries immediately, preserving prior behaviour.
    heartbeat_s:
        Cadence for refreshing the heartbeats of this run's leases.
    stale_after_s:
        Heartbeat age beyond which another owner's ``running`` row of this
        fleet counts as abandoned and is adopted by this run.
    warm_hints:
        Optional warm-start wiring: maps a scenario name to its
        neighbour's name, a scenario that differs from it solely by a
        smaller ``n_modules`` (the greedy replay contract).  When the point
        starts, the neighbour's finished placement (from this run or from
        done store rows of earlier runs) is offered to the solver as an
        exact-prefix warm start.  Strictly best-effort and out-of-band:
        hints never enter spec digests and a missing neighbour means a cold
        solve.  The wiring is persisted on the enrolled rows, so detached
        fleet workers pick the same hints up.

    Example
    -------
    A one-scenario serial batch (parallel batches are bit-for-bit
    identical; ``use_cache=False`` keeps the example self-contained):

    >>> from repro.gis import RoofSpec
    >>> from repro.runner import run_batch
    >>> from repro.scenario import ScenarioSpec, TimeSpec
    >>> spec = ScenarioSpec(
    ...     name="doc-batch",
    ...     roof=RoofSpec(name="doc-roof", width_m=6.0, depth_m=4.0,
    ...                   tilt_deg=30.0, azimuth_deg=0.0),
    ...     n_modules=2, n_series=2, grid_pitch=0.4,
    ...     time=TimeSpec(step_minutes=240.0, day_stride=45),
    ... )
    >>> batch = run_batch([spec], jobs=1, use_cache=False)
    >>> batch.n_scenarios
    1
    >>> batch.results[0].annual_energy_mwh > 0
    True
    >>> sorted(batch.summary())  # doctest: +NORMALIZE_WHITESPACE
    ['cache_hits_by_stage', 'cache_misses_by_stage', 'campaign', 'jobs',
     'n_scenarios', 'runtime_s', 'total_energy_mwh']
    """
    specs = list(specs)
    if not specs:
        raise ConfigurationError("a batch needs at least one scenario")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError("scenario names within a batch must be unique")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be > 0 when set")
    if retry_backoff_s < 0:
        raise ConfigurationError("retry_backoff_s must be >= 0")
    if heartbeat_s <= 0 or stale_after_s <= 0:
        raise ConfigurationError("heartbeat_s and stale_after_s must be > 0")
    if jobs is None:
        jobs = min(len(specs), os.cpu_count() or 1)
    elif jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1 (got {jobs}); 1 runs in-process")

    # Arm fault injection from $REPRO_FAULTS in the parent as well (workers
    # arm themselves): parent-side sites (store.io, cache.corrupt on this
    # process's cache handle) fire here.  No-op without the env var.
    faults.configure_from_env()

    stage_cache = resolve_cache(cache, use_cache)

    name = campaign if campaign else DEFAULT_CAMPAIGN
    result_store = resolve_store(store)
    throwaway: Optional[tempfile.TemporaryDirectory] = None
    if result_store is None:
        throwaway = tempfile.TemporaryDirectory(prefix="repro-batch-")
        result_store = ResultStore(Path(throwaway.name) / "batch.sqlite")
    try:
        batch_attrs = {"n_scenarios": len(specs), "jobs": jobs}
        if throwaway is None:
            batch_attrs["campaign"] = name
        with span("batch", **batch_attrs):
            start = time.perf_counter()
            enrolled = result_store.enroll(name, specs, warm_hints=warm_hints)
            digests = [record.digest for record in enrolled]
            result_store.requeue(name, digests)
            tally = run_claim_loop(
                result_store,
                name,
                stage_cache,
                owner=new_lease_owner(),
                pool_size=0 if jobs == 1 else jobs,
                # Enough leases to keep every worker busy while the parent
                # writes to the store, few enough that a huge fleet does not
                # pile up thousands of pending futures.
                max_leases=1 if jobs == 1 else jobs * INFLIGHT_PER_WORKER,
                retries=retries,
                timeout_s=timeout_s,
                retry_backoff_s=retry_backoff_s,
                heartbeat_s=heartbeat_s,
                stale_after_s=stale_after_s,
                poll_s=WAIT_TICK_S,
                digests=digests,
                warm_start=bool(warm_hints),
            )
            if tally.stopped_by_signal is not None:
                # Surface as the interruption Python users expect; the CLI
                # maps it to exit code 130.
                raise KeyboardInterrupt(
                    f"batch interrupted by signal {tally.stopped_by_signal}; "
                    "in-flight points marked failed ('interrupted')"
                )
            results, summary, failures = _collect(result_store, enrolled, tally)
            runtime = time.perf_counter() - start
    finally:
        if not isinstance(store, ResultStore):
            result_store.close()
        if throwaway is not None:
            throwaway.cleanup()
        # Fold worker trace shards into the single merged trace; a no-op
        # while tracing is disabled.  A worker flushes its shard when a
        # task's top-level span closes, before the result comes back, so
        # every shard is complete although the pool may live on.
        merge_active_trace()

    if throwaway is not None and failures:
        first = failures[0]
        raise ScenarioExecutionError(first.error, scenario=first.name, digest=first.digest)

    return BatchResult(
        results=results,
        runtime_s=runtime,
        jobs=jobs,
        cache_dir=None if stage_cache is None else stage_cache.root,
        campaign=summary if throwaway is None else None,
    )


def _collect(
    store: ResultStore, enrolled: Sequence[PointRecord], tally: LoopTally
) -> Tuple[List[ScenarioResult], CampaignSummary, List[PointRecord]]:
    """A batch's results in input order, its summary, and its failed rows.

    Points this run computed come from the loop's tally, the rest from the
    store.  Counts cover *this fleet's* digests only (a campaign may hold
    further points; `repro campaign status` shows those).  ``degraded``
    counts done points answered by a fallback solver, computed or not.
    """
    campaign = enrolled[0].campaign
    computed = {
        record.digest: ScenarioResult.from_dict(tally.results[record.digest])
        for record in enrolled
        if record.digest in tally.results
    }
    computed_results = list(computed.values())
    summary = CampaignSummary(
        campaign=campaign,
        n_points=len(enrolled),
        computed=len(computed),
        skipped=sum(record.status == STATUS_DONE for record in enrolled),
        retried=tally.retried,
        reclaimed=tally.adopted,
        stage_hits=count_stage_flags(computed_results, cached=True),
        stage_recomputes=count_stage_flags(computed_results, cached=False),
        stage_hit_time_s={
            stage: round(seconds, 6)
            for stage, seconds in sum_stage_times(computed_results, cached=True).items()
        },
        stage_recompute_time_s={
            stage: round(seconds, 6)
            for stage, seconds in sum_stage_times(computed_results, cached=False).items()
        },
    )
    results: List[ScenarioResult] = []
    failures: List[PointRecord] = []
    for record in enrolled:
        result = computed.get(record.digest)
        if result is None:
            row = store.point(campaign, record.digest)
            if row.status != STATUS_DONE:
                failures.append(row)
                continue
            result = row.result()
        results.append(result)
    summary.done = len(results)
    summary.degraded = sum(1 for result in results if result.degraded)
    summary.timed_out = sum(1 for row in failures if row.status == STATUS_TIMED_OUT)
    summary.failed = len(failures) - summary.timed_out

    # Persist this run's latency rollups so `repro campaign status` can
    # render a per-stage p50/p90/p99 table long after the run finished.
    # Pure no-op resumes (computed == 0) record nothing: there are no new
    # samples, and the previous run's rows stay the latest.
    if computed_results:
        store.record_metrics(campaign, _campaign_metric_rows(computed_results, summary))
    return results, summary, failures


def _campaign_metric_rows(
    computed_results: Sequence[ScenarioResult], summary: CampaignSummary
) -> List[Tuple[str, MetricStats]]:
    """Roll one campaign run's computed points up into metric-table rows."""
    rows: List[Tuple[str, MetricStats]] = []

    stage_samples: Dict[str, List[float]] = {}
    hit_samples: Dict[str, List[float]] = {}
    recompute_samples: Dict[str, List[float]] = {}
    for result in computed_results:
        for stage, seconds in result.stage_times_s.items():
            stage_samples.setdefault(stage, []).append(seconds)
        for stage, hit in _stage_provenance(result).items():
            seconds = result.stage_times_s.get(stage)
            if seconds is None:
                continue
            bucket = hit_samples if hit else recompute_samples
            bucket.setdefault(stage, []).append(seconds)

    for kind, samples_by_stage in (
        (METRIC_KIND_STAGE_TIME, stage_samples),
        (METRIC_KIND_STAGE_HIT_TIME, hit_samples),
        (METRIC_KIND_STAGE_RECOMPUTE_TIME, recompute_samples),
    ):
        for stage in sorted(samples_by_stage):
            rows.append((kind, MetricStats.from_samples(stage, samples_by_stage[stage])))

    rows.append(
        (
            METRIC_KIND_POINT_TIME,
            MetricStats.from_samples(
                "point", [result.runtime_s for result in computed_results]
            ),
        )
    )
    for counter, value in (
        ("computed", summary.computed),
        ("skipped", summary.skipped),
        ("failed", summary.failed),
        ("retried", summary.retried),
        ("timed_out", summary.timed_out),
        ("degraded", summary.degraded),
        ("reclaimed", summary.reclaimed),
        ("cache_stage_hits", sum(summary.stage_hits.values())),
        ("cache_stage_recomputes", sum(summary.stage_recomputes.values())),
    ):
        rows.append((METRIC_KIND_COUNTER, MetricStats.from_count(counter, value)))
    return rows
