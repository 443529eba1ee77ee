"""Admission control for the planning service.

The service must answer *something* for every request, instantly: a memo
hit is served from the store, a miss is enqueued for the worker fleet --
but an unbounded queue would turn a traffic burst into unbounded latency
for everyone behind it.  The :class:`AdmissionController` enforces the
bound: beyond ``max_queue`` not-yet-terminal points, new work is refused
with ``429`` and a ``Retry-After`` hint, so clients back off instead of
piling up.  Refusals never apply to memo hits (a hit costs one indexed
read and enqueues nothing).

Two priority tiers modulate *drain order*, not admission: ``interactive``
points (a caller is polling for the answer) are claimed by the worker
fleet ahead of ``batch`` points (bulk backfill), via the ``priority``
column threaded through
:meth:`~repro.runner.store.ResultStore.claim_next_pending`.  The
controller keeps per-tier admission counters so ``/v1/stats`` can show
who is using the queue.

Everything here is in-memory per service process and guarded by one lock;
the durable queue itself is the campaign store.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from ..constants import DEFAULT_MAX_QUEUE
from ..errors import ReproError
from ..runner.store import PRIORITIES, PRIORITY_INTERACTIVE

#: Default ``Retry-After`` hint (seconds) sent with a 429 refusal.
DEFAULT_RETRY_AFTER_S = 2.0


class BadRequestError(ReproError):
    """A client-side request problem, mapped to HTTP 400 -- never a 500."""


def normalize_priority(value: Any) -> str:
    """Validate a client-supplied priority tier (default ``interactive``).

    A service caller is by definition waiting for an answer, so the absent
    value means ``interactive``; bulk backfill must opt into ``batch``.
    Unknown tiers are a client error (400), listed explicitly.
    """
    if value is None:
        return PRIORITY_INTERACTIVE
    if not isinstance(value, str) or value not in PRIORITIES:
        raise BadRequestError(
            f"unknown priority {value!r}; expected one of {', '.join(PRIORITIES)}"
        )
    return value


class AdmissionDecision:
    """Outcome of one admission check (admitted, or refused with a hint)."""

    __slots__ = ("admitted", "reason", "retry_after_s")

    def __init__(
        self, admitted: bool, reason: str = "", retry_after_s: Optional[float] = None
    ) -> None:
        self.admitted = admitted
        self.reason = reason
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Queue-depth gate plus per-tier request accounting.

    ``max_queue`` bounds the number of not-yet-terminal points the serve
    campaign may hold; the *caller* supplies the current depth (a store
    query) so the controller itself stays storage-agnostic and trivially
    testable.  All counter updates are lock-guarded: the HTTP front-end
    calls in from one thread per request.
    """

    def __init__(
        self,
        max_queue: int = DEFAULT_MAX_QUEUE,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    ) -> None:
        if max_queue < 1:
            raise ReproError("max_queue must be >= 1")
        if retry_after_s <= 0:
            raise ReproError("retry_after_s must be > 0")
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._hits = 0
        self._admitted: Dict[str, int] = {tier: 0 for tier in PRIORITIES}
        self._rejected: Dict[str, int] = {tier: 0 for tier in PRIORITIES}
        self._bad_requests = 0

    # -- decisions ----------------------------------------------------------------

    def admit(self, queue_depth: int, priority: str) -> AdmissionDecision:
        """Decide whether a cache-miss request may enqueue a new point."""
        with self._lock:
            if queue_depth >= self.max_queue:
                self._rejected[priority] = self._rejected.get(priority, 0) + 1
                return AdmissionDecision(
                    admitted=False,
                    reason=(
                        f"queue is full ({queue_depth}/{self.max_queue} points "
                        "in flight)"
                    ),
                    retry_after_s=self.retry_after_s,
                )
            self._admitted[priority] = self._admitted.get(priority, 0) + 1
            return AdmissionDecision(admitted=True)

    # -- accounting ---------------------------------------------------------------

    def record_hit(self) -> None:
        """Count one memo hit (no admission decision needed)."""
        with self._lock:
            self._hits += 1

    def record_bad_request(self) -> None:
        """Count one malformed request (mapped to 400)."""
        with self._lock:
            self._bad_requests += 1

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for ``/v1/stats``."""
        with self._lock:
            admitted = dict(self._admitted)
            rejected = dict(self._rejected)
            hits = self._hits
            bad = self._bad_requests
        misses = sum(admitted.values())
        answered = hits + misses
        return {
            "max_queue": self.max_queue,
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / answered) if answered else None,
            "admitted_by_priority": admitted,
            "rejected_by_priority": rejected,
            "rejected": sum(rejected.values()),
            "bad_requests": bad,
        }
