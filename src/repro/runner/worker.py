"""The campaign worker daemon: one member of a cooperative fleet.

``repro campaign worker <name>`` (or :func:`run_worker`) turns a process
into a fleet member that pulls points from a shared campaign store until
the queue drains.  N workers — across processes or hosts sharing the
store file — cooperate with no coordinator: the store *is* the queue, and
:meth:`~repro.runner.store.ResultStore.claim_next_pending` hands each
point to exactly one owner per attempt.

A worker is :func:`~repro.runner.batch.run_claim_loop` -- the same engine
:func:`~repro.runner.batch.run_batch` drives -- over the whole campaign
with one lease:

* **claim** — one atomic transaction takes the oldest ``pending`` row
  (``interactive``-priority rows — points enqueued by ``repro serve`` for
  a waiting caller — ahead of ``batch`` ones), or *adopts* a ``running``
  row whose heartbeat went stale (a sibling died mid-point).
* **run** — by default in a single-process pool, so the daemon can
  refresh its heartbeat mid-point and watchdog-kill a hung child
  (``timeout_s``); ``serial=True`` runs in-process, where the timeout is
  necessarily post hoc and no mid-point heartbeats are possible (keep
  ``stale_after_s`` comfortably above the longest point).
* **mark** — terminal writes are *fenced* on the worker still holding the
  lease.  If a sibling adopted the point while we ran it — always possible
  after a stall — our late result is discarded and counted in
  ``lost_leases``.  Execution is therefore at-least-once, but
  completion-marking is at-most-once: no point ever reaches ``done``
  twice, and the merged results are identical to a serial run.

Failures honour the same per-point policy as :func:`run_batch`: retries
with backoff, per-attempt timeouts, and free passes after a crashed
child.  On SIGTERM/SIGINT the worker releases its in-flight claim back to
``pending`` — a sibling picks it up immediately — and returns its summary
with ``stopped_by_signal`` set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from .. import faults
from ..constants import DEFAULT_HEARTBEAT_S, DEFAULT_POLL_S, DEFAULT_STALE_AFTER_S
from ..errors import ConfigurationError
from ..telemetry import configure_from_env, merge_active_trace, span
from .batch import run_claim_loop
from .cache import PathLike, StageCache, resolve_cache
from .store import (
    ResultStore,
    default_store_path,
    new_lease_owner,
    resolve_store,
)


@dataclass
class WorkerSummary:
    """Accounting of one worker's participation in a campaign."""

    campaign: str
    worker_id: str
    claimed: int = 0
    #: Claims that adopted a stale sibling lease rather than a pending row.
    adopted: int = 0
    done: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    #: In-flight points handed back to the queue on SIGTERM/SIGINT.
    released: int = 0
    #: Finished attempts discarded because a sibling adopted the lease
    #: mid-run -- the at-most-once fence in action.
    lost_leases: int = 0
    runtime_s: float = 0.0
    #: Signal number that stopped the worker, or ``None`` on drain/limit.
    stopped_by_signal: Optional[int] = None
    stage_hits: Dict[str, int] = field(default_factory=dict)
    stage_recomputes: Dict[str, int] = field(default_factory=dict)

    def report(self) -> str:
        """One-line human summary, ``repro campaign worker``'s last output."""
        text = (
            f"worker {self.worker_id!r}: claimed {self.claimed}, "
            f"done {self.done}, failed {self.failed}, "
            f"timed_out {self.timed_out}, retried {self.retried}"
        )
        extras = []
        if self.adopted:
            extras.append(f"adopted {self.adopted}")
        if self.released:
            extras.append(f"released {self.released}")
        if self.lost_leases:
            extras.append(f"lost_leases {self.lost_leases}")
        if self.stopped_by_signal is not None:
            extras.append(f"stopped by signal {self.stopped_by_signal}")
        if extras:
            text += " (" + ", ".join(extras) + ")"
        return text

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "adopted": self.adopted,
            "done": self.done,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "retried": self.retried,
            "released": self.released,
            "lost_leases": self.lost_leases,
            "runtime_s": self.runtime_s,
            "stopped_by_signal": self.stopped_by_signal,
            "stage_hits": dict(self.stage_hits),
            "stage_recomputes": dict(self.stage_recomputes),
        }


def run_worker(
    campaign: str,
    store: Union[ResultStore, PathLike, None] = None,
    worker_id: Optional[str] = None,
    cache: Union[StageCache, PathLike, None] = None,
    use_cache: bool = True,
    serial: bool = False,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    poll_s: float = DEFAULT_POLL_S,
    max_points: Optional[int] = None,
    wait_for_stragglers: bool = True,
    warm_start: bool = True,
) -> WorkerSummary:
    """Join a campaign as one worker of a cooperative fleet.

    Loops claim → run → heartbeat → mark against the campaign's store
    until the queue drains (no ``pending`` or ``running`` rows remain),
    ``max_points`` claims have been made, or a stop signal lands.  See the
    module docstring for the exactly-once semantics.  Unlike
    :func:`~repro.runner.batch.run_batch` the worker never enrolls points
    (use ``repro campaign enroll`` / :meth:`ResultStore.enroll` first) and
    never requeues ``failed`` rows; it takes whatever is claimable in the
    whole campaign, so a late worker can join a running campaign (or a
    running batch) without disturbing the other owners.

    Parameters mirror ``run_batch`` where they overlap; the new ones:

    worker_id:
        Lease identity written into claimed rows (default ``host:pid#n``,
        unique per loop).  Must be unique across live fleet members.
    serial:
        Run points in-process instead of a single-process pool.  Cheaper,
        but no mid-point heartbeats and only post-hoc timeouts: a serial
        worker stalled in a long point *will* look stale after
        ``stale_after_s``.  The lease fence turns the consequence into a
        discarded duplicate result rather than a double-done.
    poll_s:
        Sleep between claim attempts while waiting on siblings' rows.
    max_points:
        Stop after this many claims (useful for tests and canaries).
    wait_for_stragglers:
        When ``False``, exit as soon as no row is claimable instead of
        waiting to adopt siblings' leases should they die.
    warm_start:
        When ``True`` (default), claimed points with warm-start wiring
        (``warm_hint_digest`` written at enrollment) pick their neighbour's
        done placement up from the store and offer it to the solver; set
        ``False`` to force every point cold.
    """
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be > 0 when set")
    if retry_backoff_s < 0:
        raise ConfigurationError("retry_backoff_s must be >= 0")
    if heartbeat_s <= 0 or stale_after_s <= 0:
        raise ConfigurationError("heartbeat_s and stale_after_s must be > 0")
    if poll_s <= 0:
        raise ConfigurationError("poll_s must be > 0")
    if max_points is not None and max_points <= 0:
        raise ConfigurationError("max_points must be > 0 when set")

    # A fleet worker is typically its own ``repro`` process: it arms
    # telemetry and chaos from its environment, and its claim loop hands
    # them on to its pool workers with every task.
    configure_from_env()
    faults.configure_from_env()

    result_store = resolve_store(store if store is not None else default_store_path())
    if result_store is None:
        raise ConfigurationError("a worker needs a store (got store='none')")
    stage_cache = resolve_cache(cache, use_cache)
    worker_id = worker_id if worker_id is not None else new_lease_owner()
    start = time.perf_counter()
    try:
        with span("worker", campaign=campaign, worker_id=worker_id):
            tally = run_claim_loop(
                result_store,
                campaign,
                stage_cache,
                owner=worker_id,
                pool_size=0 if serial else 1,
                max_leases=1,
                retries=retries,
                timeout_s=timeout_s,
                retry_backoff_s=retry_backoff_s,
                heartbeat_s=heartbeat_s,
                stale_after_s=stale_after_s,
                poll_s=poll_s,
                max_points=max_points,
                wait_for_stragglers=wait_for_stragglers,
                warm_start=warm_start,
                release_on_stop=True,
            )
    finally:
        if not isinstance(store, ResultStore):
            result_store.close()
        # Fold this worker's pool-child trace shards into the merged trace
        # (no-op while tracing is disabled).
        merge_active_trace()

    summary = WorkerSummary(
        campaign=campaign,
        worker_id=worker_id,
        claimed=tally.claimed,
        adopted=tally.adopted,
        done=len(tally.results),
        failed=tally.failed,
        timed_out=tally.timed_out,
        retried=tally.retried,
        released=tally.released,
        lost_leases=tally.lost_leases,
        runtime_s=time.perf_counter() - start,
        stopped_by_signal=tally.stopped_by_signal,
    )
    for record in tally.results.values():
        for stage, hit in dict(record.get("stage_cached", {})).items():
            bucket = summary.stage_hits if hit else summary.stage_recomputes
            bucket[stage] = bucket.get(stage, 0) + 1
    return summary
