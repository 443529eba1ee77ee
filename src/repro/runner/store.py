"""Durable, resumable campaign state: a SQLite-backed result store.

A *campaign* is a named set of scenario points whose execution state must
survive crashes, OOM kills and CTRL-C.  The :class:`ResultStore` keeps one
row per point in a SQLite database (WAL mode, so a reader -- ``repro
campaign status`` -- never blocks the writer), keyed by the campaign name
plus the scenario's stage-cache content digest
(:func:`~repro.runner.stages.scenario_content_digest`).  Each row records:

``status``
    ``pending`` (enrolled, not started), ``running`` (claimed by the
    current run), ``done`` (payload holds the full
    :class:`~repro.runner.stages.ScenarioResult` record), ``failed``
    (``error`` holds the wrapped worker traceback) or ``timed_out`` (the
    point exceeded its wall-clock budget and the watchdog reclaimed it).
``attempts`` / ``wall_time_s`` / ``error``
    Per-point accounting: how often the point was started, how long the
    successful run took, and the last failure text.
``lease_owner`` / ``heartbeat_ts``
    Liveness of ``running`` rows: which claim loop (``host:pid#n``) holds
    the point and when that loop last proved it was still alive.  A row
    whose heartbeat goes stale is *adopted* by the next
    :meth:`ResultStore.claim_next_pending` (``campaign doctor`` can also
    demote it to ``failed``).
``degraded`` / ``fallback_solver``
    Result provenance mirrored out of the ``done`` payload: whether the
    point's configured solver failed and a fallback chain produced a
    best-effort answer instead, queryable without parsing result JSON.
``spec``
    The point's full declarative :class:`~repro.scenario.ScenarioSpec`
    dictionary, so ``repro campaign run NAME`` with no scenario arguments
    can rebuild the work list from the store alone -- no original command
    line or plan file needed.

Within one claim loop, the store is written only by the loop's own
process; worker *pool* processes never touch it, so a dying worker cannot
corrupt campaign state.  Across loops the store is the shared work queue:
every write runs in its own ``BEGIN IMMEDIATE`` transaction (the write
lock is taken up front, so a read-modify-write like
:meth:`ResultStore.claim_next_pending`, which also adopts stale leases,
can never interleave with a competing driver's), every connection sets
``PRAGMA busy_timeout``, and contended writes additionally retry with
exponential backoff on transient ``sqlite3.OperationalError``
(``SQLITE_BUSY``, a flaky network filesystem); ``repro campaign doctor``
audits/repairs a store that was hit by crashes anyway.  ``export`` writes
the ``done`` rows as JSONL, one sorted-key ``ScenarioResult`` record per
line.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import socket
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union
from urllib.parse import unquote, urlsplit

from .. import faults
from ..constants import DEFAULT_STALE_AFTER_S
from ..errors import ConfigurationError
from ..scenario.spec import ScenarioSpec
from ..telemetry import MetricStats, span
from .cache import PathLike, default_cache_dir
from .stages import ScenarioResult, scenario_content_digest

#: Environment variable overriding the default store location.
STORE_PATH_ENV = "REPRO_STORE_PATH"

#: Bump when the table layout changes.  Version 2 (lease/heartbeat +
#: degradation provenance columns), version 3 (the ``priority`` tier
#: column used by the ``repro serve`` admission layer) and version 4 (the
#: warm-start wiring columns ``warm_hint_digest``/``warm_exact_prefix``)
#: migrate older stores in place; anything newer than the build is
#: rejected.
STORE_SCHEMA_VERSION = 4

#: Row lifecycle states.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_TIMED_OUT = "timed_out"

_STATUSES = (STATUS_PENDING, STATUS_RUNNING, STATUS_DONE, STATUS_FAILED, STATUS_TIMED_OUT)

#: Admission-priority tiers.  ``interactive`` rows (enqueued by the
#: ``repro serve`` front-end on behalf of a waiting caller) are claimed
#: ahead of ``batch`` rows (bulk enrollments) by
#: :meth:`ResultStore.claim_next_pending`; within a tier the pre-priority
#: enrollment ordering (``position``) is preserved unchanged.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"

PRIORITIES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH)

#: Transient-write retry policy: attempts and first backoff (doubled per try).
WRITE_RETRIES = 5
WRITE_RETRY_BACKOFF_S = 0.05

#: How long SQLite itself blocks on a contended write lock before surfacing
#: ``SQLITE_BUSY`` (which then enters the retry loop above).  Contended
#: claims from a worker fleet degrade to waiting, never to errors.
BUSY_TIMEOUT_MS = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    campaign TEXT NOT NULL,
    digest TEXT NOT NULL,
    name TEXT NOT NULL,
    position INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    wall_time_s REAL,
    error TEXT,
    spec TEXT NOT NULL,
    result TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    lease_owner TEXT,
    heartbeat_ts REAL,
    degraded INTEGER NOT NULL DEFAULT 0,
    fallback_solver TEXT,
    priority TEXT NOT NULL DEFAULT 'batch',
    warm_hint_digest TEXT,
    warm_exact_prefix INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign, digest)
);
CREATE INDEX IF NOT EXISTS idx_points_status ON points (campaign, status);
CREATE INDEX IF NOT EXISTS idx_points_digest ON points (digest, status);
CREATE TABLE IF NOT EXISTS metrics (
    campaign TEXT NOT NULL,
    run_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    count INTEGER NOT NULL,
    total REAL NOT NULL,
    minimum REAL NOT NULL,
    maximum REAL NOT NULL,
    p50 REAL NOT NULL,
    p90 REAL NOT NULL,
    p99 REAL NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (campaign, run_id, kind, name)
);
"""

#: The content-digest memo lookup behind :meth:`ResultStore.find_done`,
#: served by ``idx_points_digest`` rather than a table scan.
_FIND_DONE_SQL = """
SELECT * FROM points
WHERE digest=? AND status='done'
ORDER BY updated_at DESC
LIMIT 1
"""

#: Metric row kinds persisted by the campaign runner.  ``stage_time`` rows
#: hold per-stage wall-time distributions over the run's computed points;
#: ``stage_hit_time`` / ``stage_recompute_time`` split the cacheable stages
#: by cache outcome (so cache savings are visible in seconds, not counts);
#: ``point_time`` is the whole-point distribution and ``counter`` plain
#: counts (computed/skipped/failed/retried, cache hit totals, ...).
METRIC_KIND_STAGE_TIME = "stage_time"
METRIC_KIND_STAGE_HIT_TIME = "stage_hit_time"
METRIC_KIND_STAGE_RECOMPUTE_TIME = "stage_recompute_time"
METRIC_KIND_POINT_TIME = "point_time"
METRIC_KIND_COUNTER = "counter"


# A store URL looks like "scheme://...", where the scheme follows the
# RFC 3986 grammar (letter, then letters/digits/+/-/.).  Plain filesystem
# paths never match, so _store_file can tell the two apart unambiguously.
_URL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://")


def _store_file(store: Union[PathLike, None]) -> Optional[Path]:
    """The database file a store spelling names; ``None`` means the default.

    A spelling is a filesystem path (``str`` or ``Path``) or a
    ``sqlite:///path`` URL; ``None`` and a bare ``sqlite://`` name the
    default store.  SQLite has no remote host, so ``sqlite://host/db`` is
    rejected, and so is every other scheme.
    """
    if store is None:
        return None
    text = str(store)
    if not _URL_RE.match(text):
        return Path(text)
    parts = urlsplit(text)
    if parts.scheme.lower() != "sqlite":
        raise ConfigurationError(
            f"unsupported store URL {text!r}: the one supported form is "
            "sqlite:///path/to/store.sqlite (or a plain path)"
        )
    if parts.netloc:
        raise ConfigurationError(
            f"sqlite store URLs take no host; write sqlite:///{parts.netloc}"
            f"{parts.path} (got {text!r})"
        )
    path = unquote(parts.path)
    return Path(path) if path not in ("", "/") else None


def default_store_path() -> Path:
    """Store location: ``$REPRO_STORE_PATH`` or ``<cache dir>/campaigns.sqlite``.

    The variable takes the same spellings as ``--store``: a path or a
    ``sqlite:///path`` URL.
    """
    env = os.environ.get(STORE_PATH_ENV)
    path = _store_file(env) if env else None
    return path or default_cache_dir() / "campaigns.sqlite"


def default_lease_owner() -> str:
    """This process's bare ``host:pid`` identity (no claim loop leases under it)."""
    return f"{socket.gethostname()}:{os.getpid()}"


_LOOP_IDS = itertools.count(1)


def new_lease_owner() -> str:
    """A lease owner unique to one claim loop: ``host:pid#n``.

    Two loops in one process (say, batches run from two threads) must not
    share an owner, or the lease fence could not tell their marks apart.
    """
    return f"{default_lease_owner()}#{next(_LOOP_IDS)}"


def _digest_scope(digests: Optional[Sequence[str]]) -> Tuple[str, Tuple[str, ...]]:
    """SQL restricting a ``points`` query to ``digests`` (``None``: no filter).

    The digests travel as one JSON parameter read through ``json_each``, so
    a large sweep never hits SQLite's bound-parameter limit.
    """
    if digests is None:
        return "", ()
    return " AND digest IN (SELECT value FROM json_each(?))", (json.dumps(list(digests)),)


@dataclass(frozen=True)
class PointRecord:
    """One campaign point as stored (immutable snapshot of a row)."""

    campaign: str
    digest: str
    name: str
    position: int
    status: str
    attempts: int
    wall_time_s: Optional[float]
    error: Optional[str]
    spec_dict: Mapping[str, Any]
    result_dict: Optional[Mapping[str, Any]]
    created_at: float
    updated_at: float
    lease_owner: Optional[str] = None
    heartbeat_ts: Optional[float] = None
    degraded: bool = False
    fallback_solver: Optional[str] = None
    priority: str = PRIORITY_BATCH
    #: Warm-start wiring written at enrollment: the content digest of the
    #: neighbour whose done placement should seed this point's solver, and
    #: whether that neighbour differs only by a smaller ``n_modules`` (the
    #: greedy exact-replay contract).  :meth:`ResultStore.enroll` always
    #: writes the flag set; a row without it (written by an older build)
    #: solves cold.  ``None`` = solve cold.
    warm_hint_digest: Optional[str] = None
    warm_exact_prefix: bool = False

    def spec(self) -> ScenarioSpec:
        """Rebuild the point's declarative scenario."""
        return ScenarioSpec.from_dict(self.spec_dict)

    def result(self) -> ScenarioResult:
        """Rebuild the stored result (``done`` rows only)."""
        if self.result_dict is None:
            raise ConfigurationError(
                f"campaign point {self.name!r} has no stored result (status {self.status})"
            )
        return ScenarioResult.from_dict(self.result_dict)


@dataclass(frozen=True)
class ClaimedPoint:
    """One point atomically claimed from the shared work queue.

    ``point`` is the row's post-claim snapshot (status ``running``, lease
    stamped, attempts already incremented).  ``adopted`` is True when the
    claim took over a stale ``running`` row abandoned by a dead worker
    rather than a fresh ``pending`` one.
    """

    point: PointRecord
    adopted: bool


@dataclass
class CampaignSummary:
    """Outcome accounting of one campaign run (or resume).

    ``done`` counts every completed point in the campaign after the run;
    ``computed`` the points executed by *this* invocation, ``skipped`` the
    points whose stored result was reused, ``failed`` the points still
    failed after retries, and ``retried`` the number of retry attempts this
    invocation performed.  ``timed_out`` counts points whose wall-clock
    budget expired (terminal state after retries), ``degraded`` the done
    points whose answer came from a fallback solver rather than the
    configured one, and ``reclaimed`` the stale running rows this run took
    over from a dead driver.  ``stage_hits`` / ``stage_recomputes`` aggregate
    the stage-cache provenance of the computed points only, so a resume
    proves it recomputed exactly the missing work; ``stage_hit_time_s`` /
    ``stage_recompute_time_s`` carry the same split in wall-clock seconds,
    so cache savings are reported as time, not just counts; the uncached
    weather and horizon nodes run only under a missed stage, so their
    seconds are recompute time.
    """

    campaign: str
    n_points: int = 0
    done: int = 0
    computed: int = 0
    skipped: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    degraded: int = 0
    reclaimed: int = 0
    stage_hits: Dict[str, int] = field(default_factory=dict)
    stage_recomputes: Dict[str, int] = field(default_factory=dict)
    stage_hit_time_s: Dict[str, float] = field(default_factory=dict)
    stage_recompute_time_s: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "n_points": self.n_points,
            "done": self.done,
            "computed": self.computed,
            "skipped": self.skipped,
            "failed": self.failed,
            "retried": self.retried,
            "timed_out": self.timed_out,
            "degraded": self.degraded,
            "reclaimed": self.reclaimed,
            "stage_hits": dict(self.stage_hits),
            "stage_recomputes": dict(self.stage_recomputes),
            "stage_hit_time_s": dict(self.stage_hit_time_s),
            "stage_recompute_time_s": dict(self.stage_recompute_time_s),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSummary":
        try:
            return cls(
                campaign=str(data["campaign"]),
                n_points=int(data.get("n_points", 0)),
                done=int(data.get("done", 0)),
                computed=int(data.get("computed", 0)),
                skipped=int(data.get("skipped", 0)),
                failed=int(data.get("failed", 0)),
                retried=int(data.get("retried", 0)),
                timed_out=int(data.get("timed_out", 0)),
                degraded=int(data.get("degraded", 0)),
                reclaimed=int(data.get("reclaimed", 0)),
                stage_hits={str(k): int(v) for k, v in data.get("stage_hits", {}).items()},
                stage_recomputes={
                    str(k): int(v) for k, v in data.get("stage_recomputes", {}).items()
                },
                stage_hit_time_s={
                    str(k): float(v) for k, v in data.get("stage_hit_time_s", {}).items()
                },
                stage_recompute_time_s={
                    str(k): float(v)
                    for k, v in data.get("stage_recompute_time_s", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed campaign summary: {exc}") from exc

    def report(self) -> str:
        """One-line human-readable summary.

        The ``computed/skipped/failed/retried`` prefix is stable (CI greps
        it); the robustness counters are appended only when nonzero.
        """
        extras = "".join(
            f", {label} {value}"
            for label, value in (
                ("timed_out", self.timed_out),
                ("degraded", self.degraded),
                ("reclaimed", self.reclaimed),
            )
            if value
        )
        return (
            f"campaign {self.campaign!r}: {self.done}/{self.n_points} done "
            f"(computed {self.computed}, skipped {self.skipped}, "
            f"failed {self.failed}, retried {self.retried}{extras})"
        )


class ResultStore:
    """SQLite-backed durable store of campaign points.

    Parameters
    ----------
    path:
        Database file (created on first use, parent directories included).
        Defaults to :func:`default_store_path`.

    Many processes may open one store at once: a fleet of workers, a
    campaign run and ``repro serve`` all write it concurrently, each write
    in its own ``BEGIN IMMEDIATE`` transaction, while readers never block
    (WAL mode).  Use as a context manager or call :meth:`close` to release
    the connection.

    Example
    -------
    >>> import tempfile, os
    >>> from repro.runner.store import ResultStore
    >>> from repro.scenario import builtin_scenarios
    >>> tmp = tempfile.TemporaryDirectory()
    >>> store = ResultStore(os.path.join(tmp.name, "campaigns.sqlite"))
    >>> points = store.enroll("demo", [builtin_scenarios()["residential-south"]])
    >>> [p.status for p in points]
    ['pending']
    >>> store.status_counts("demo")["pending"]
    1
    >>> store.close(); tmp.cleanup()
    """

    def __init__(
        self, path: Union[PathLike, None] = None, cross_thread: bool = False
    ) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # ``cross_thread=True`` lets a caller that serialises its own access
        # (the ``repro serve`` front-end, whose HTTP threads share one store
        # behind a lock) use the connection from threads other than the one
        # that opened it; plain drivers keep sqlite's same-thread check.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=not cross_thread
        )
        self._conn.row_factory = sqlite3.Row
        # Every connection blocks (rather than erroring) on a contended
        # write lock: a fleet of workers claiming from one store must wait
        # its turn, not surface SQLITE_BUSY to the caller.
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._enable_wal()
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            # Schema and version row in one write transaction: drivers that
            # open a fresh store at the same moment take turns, so only the
            # first inserts the version row and the others read it.
            self._conn.execute("BEGIN IMMEDIATE")
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    self._conn.execute(statement)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) < STORE_SCHEMA_VERSION:
                # In-place stepwise migration: every bump so far is purely
                # additive (v2: lease/heartbeat liveness + degradation
                # provenance, v3: the admission-priority tier, v4: the
                # warm-start wiring), so existing campaign state survives
                # verbatim.  Old rows take the column defaults -- notably
                # ``priority='batch'``, keeping the pre-priority claim
                # ordering for legacy campaigns, and a NULL
                # ``warm_hint_digest``, meaning legacy points solve cold.
                columns = []
                if int(row["value"]) < 2:
                    columns += [
                        "lease_owner TEXT",
                        "heartbeat_ts REAL",
                        "degraded INTEGER NOT NULL DEFAULT 0",
                        "fallback_solver TEXT",
                    ]
                if int(row["value"]) < 3:
                    columns += ["priority TEXT NOT NULL DEFAULT 'batch'"]
                if int(row["value"]) < 4:
                    columns += [
                        "warm_hint_digest TEXT",
                        "warm_exact_prefix INTEGER NOT NULL DEFAULT 0",
                    ]
                for column in columns:
                    try:
                        self._conn.execute(f"ALTER TABLE points ADD COLUMN {column}")
                    except sqlite3.OperationalError:
                        pass  # column already present (interrupted migration)
                self._conn.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) != STORE_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"result store {self.path} has schema version {row['value']}, "
                    f"this build expects {STORE_SCHEMA_VERSION}"
                )

    def _enable_wal(self) -> None:
        """Switch the database to WAL, waiting out a concurrent opener.

        The first switch of a new database can report "database is locked"
        without consulting the busy handler, so it is retried here until
        ``BUSY_TIMEOUT_MS`` has passed.
        """
        deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
        delay = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- enrollment ---------------------------------------------------------------

    def enroll(
        self,
        campaign: str,
        specs: Sequence[ScenarioSpec],
        priority: str = PRIORITY_BATCH,
        warm_hints: Optional[Mapping[str, str]] = None,
    ) -> List[PointRecord]:
        """Register the campaign's points, keeping any existing state.

        Idempotent: a digest already enrolled keeps its row (status,
        attempts, result, priority) untouched, so enrolling the same fleet
        again is exactly the resume entry point.  ``priority`` stamps the
        admission tier of *newly created* rows: ``interactive`` points are
        claimed ahead of ``batch`` ones by :meth:`claim_next_pending`.
        ``warm_hints`` maps a spec name to the name of its exact-prefix
        neighbour (the same scenario with a smaller ``n_modules``), which
        must be in this enrollment.  Each hint is written as the
        neighbour's ``warm_hint_digest`` with ``warm_exact_prefix = 1``, so
        detached fleet workers resolve the same hints the driver would;
        unlike the lifecycle state the wiring IS refreshed on re-enrollment
        (wiring is routing, not identity).  Returns the stored records in
        ``specs`` order.
        """
        if not campaign:
            raise ConfigurationError("a campaign needs a non-empty name")
        if priority not in PRIORITIES:
            raise ConfigurationError(
                f"unknown priority {priority!r}; expected one of {', '.join(PRIORITIES)}"
            )
        digests = [scenario_content_digest(spec) for spec in specs]
        if len(set(digests)) != len(digests):
            raise ConfigurationError(
                f"campaign {campaign!r}: duplicate scenario content digests "
                "(identical specs enrolled twice)"
            )
        digest_by_name = {spec.name: digest for spec, digest in zip(specs, digests)}
        hint_columns: List[Tuple[Optional[str], int]] = []
        for spec in specs:
            neighbour_name = warm_hints.get(spec.name) if warm_hints else None
            if neighbour_name is None:
                hint_columns.append((None, 0))
                continue
            neighbour_digest = digest_by_name.get(neighbour_name)
            if neighbour_digest is None:
                raise ConfigurationError(
                    f"warm hint for {spec.name!r} references {neighbour_name!r}, "
                    "which is not part of this enrollment"
                )
            hint_columns.append((neighbour_digest, 1))
        now = time.time()

        def operate(conn: sqlite3.Connection) -> None:
            # One IMMEDIATE transaction: two drivers enrolling the same
            # fleet concurrently serialise here, so positions stay unique
            # and the second enrollment is a pure no-op.
            row = conn.execute(
                "SELECT COALESCE(MAX(position), -1) AS top FROM points WHERE campaign=?",
                (campaign,),
            ).fetchone()
            next_position = int(row["top"]) + 1
            for spec, digest, (hint_digest, hint_exact) in zip(
                specs, digests, hint_columns
            ):
                cursor = conn.execute(
                    """
                    INSERT OR IGNORE INTO points
                        (campaign, digest, name, position, status, attempts,
                         spec, created_at, updated_at, priority,
                         warm_hint_digest, warm_exact_prefix)
                    VALUES (?, ?, ?, ?, 'pending', 0, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        campaign,
                        digest,
                        spec.name,
                        next_position,
                        json.dumps(spec.to_dict(), sort_keys=True),
                        now,
                        now,
                        priority,
                        hint_digest,
                        hint_exact,
                    ),
                )
                if cursor.rowcount:
                    next_position += 1
                elif warm_hints is not None:
                    conn.execute(
                        """
                        UPDATE points SET warm_hint_digest=?, warm_exact_prefix=?
                        WHERE campaign=? AND digest=?
                        """,
                        (hint_digest, hint_exact, campaign, digest),
                    )

        with span("store.enroll", campaign=campaign, n_specs=len(specs)):
            self._write(operate, key=campaign)
        return [self.point(campaign, digest) for digest in digests]

    # -- state transitions --------------------------------------------------------

    def _write(self, operate: Callable[[sqlite3.Connection], Any], key: str = "") -> Any:
        """Run one ``BEGIN IMMEDIATE`` write transaction with bounded retries.

        The write lock is acquired *up front* (``BEGIN IMMEDIATE``), so a
        read-modify-write transaction -- select the next claimable row,
        stamp it -- can never interleave with a competing driver's: SQLite
        serialises the whole transaction, which is what makes
        :meth:`claim_next_pending` (stale-lease adoption included) atomic
        across processes and hosts.  A contended lock blocks for
        ``PRAGMA busy_timeout`` first; if it still surfaces as
        ``sqlite3.OperationalError`` (``SQLITE_BUSY``/"database is locked",
        a flaky network filesystem), the transaction retries with
        exponential backoff before giving up -- contended writes degrade to
        waiting, never to raw errors.  The ``store.io`` fault site injects
        exactly that error to prove the retries absorb it.
        """
        delay = WRITE_RETRY_BACKOFF_S
        last_error: Optional[BaseException] = None
        for attempt in range(WRITE_RETRIES):
            try:
                faults.fire("store.io", key)
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.OperationalError as exc:
                last_error = exc
                if attempt + 1 < WRITE_RETRIES:
                    time.sleep(delay)
                    delay *= 2
                continue
            try:
                value = operate(self._conn)
                self._conn.commit()
                return value
            except sqlite3.OperationalError as exc:
                self._conn.rollback()
                last_error = exc
                if attempt + 1 < WRITE_RETRIES:
                    time.sleep(delay)
                    delay *= 2
            except BaseException:
                self._conn.rollback()
                raise
        raise ConfigurationError(
            f"result store write failed after {WRITE_RETRIES} attempts: {last_error}"
        ) from last_error

    def _touch(
        self,
        campaign: str,
        digest: str,
        require_owner: Optional[str] = None,
        **updates: Any,
    ) -> bool:
        """Update one point row; optionally fenced on the caller's lease.

        With ``require_owner`` set the update only applies while the row is
        still ``running`` under that lease — the write is a no-op (returns
        ``False``) if a sibling worker adopted the lease in the meantime.
        This fencing is what keeps completion-marking at-most-once even
        though execution is at-least-once.  Without ``require_owner`` a
        missing row raises (a digest typo is a caller bug, not a race).
        """
        updates["updated_at"] = time.time()
        columns = ", ".join(f"{name}=?" for name in updates)
        where = "campaign=? AND digest=?"
        params: List[Any] = [*updates.values(), campaign, digest]
        if require_owner is not None:
            where += " AND status=? AND lease_owner=?"
            params.extend([STATUS_RUNNING, require_owner])
        cursor = self._write(
            lambda conn: conn.execute(
                f"UPDATE points SET {columns} WHERE {where}", params
            ),
            key=campaign,
        )
        if cursor.rowcount == 0:
            if require_owner is not None:
                return False
            raise ConfigurationError(
                f"campaign {campaign!r} has no point with digest {digest[:12]}..."
            )
        return True

    def mark_running(
        self, campaign: str, digest: str, lease_owner: Optional[str] = None
    ) -> None:
        """Stamp a point ``running`` for one more attempt (``attempts + 1``).

        Records the owner's identity and a fresh heartbeat so the row's
        liveness is observable (:meth:`heartbeat`); the claim loop re-stamps
        a point this way before each retry under its lease.
        """
        now = time.time()
        owner = lease_owner if lease_owner is not None else default_lease_owner()
        cursor = self._write(
            lambda conn: conn.execute(
                """
                UPDATE points
                SET status=?, attempts=attempts + 1, error=NULL,
                    lease_owner=?, heartbeat_ts=?, updated_at=?
                WHERE campaign=? AND digest=?
                """,
                (STATUS_RUNNING, owner, now, now, campaign, digest),
            ),
            key=campaign,
        )
        if cursor.rowcount == 0:
            raise ConfigurationError(
                f"campaign {campaign!r} has no point with digest {digest[:12]}..."
            )

    def claim_next_pending(
        self,
        campaign: str,
        owner: Optional[str] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
        digests: Optional[Sequence[str]] = None,
    ) -> Optional[ClaimedPoint]:
        """Atomically claim the next runnable point for ``owner``.

        One ``BEGIN IMMEDIATE`` transaction selects the oldest eligible row
        — ``pending``, or ``running`` with a heartbeat older than
        ``stale_after_s`` (a dead sibling's lease, adopted in place) — then
        stamps ``lease_owner``/``heartbeat_ts``, increments ``attempts``,
        and returns the refreshed record.  Because the transaction holds
        the store's write lock from the first statement, two workers
        claiming concurrently serialise: each gets a distinct point, or
        ``None`` once the queue is drained.  Contended claims wait on
        ``PRAGMA busy_timeout`` (and the retry loop in ``_write``) rather
        than erroring or double-claiming.

        Eligible rows are ordered by admission tier first — ``interactive``
        points (enqueued by ``repro serve`` for a waiting caller) ahead of
        ``batch`` ones — and by enrollment ``position`` within a tier, so a
        store whose rows all share one priority claims in exactly the
        pre-priority order.  ``digests`` restricts the claim to those
        points (a batch claims only its own; a fleet worker takes any).
        """
        now = time.time() if now is None else now
        owner = owner if owner is not None else default_lease_owner()
        cutoff = now - stale_after_s
        scope, scope_params = _digest_scope(digests)

        def operate(conn: sqlite3.Connection) -> Optional[ClaimedPoint]:
            row = conn.execute(
                f"""
                SELECT digest, status FROM points
                WHERE campaign=?
                  AND (status='pending'
                       OR (status='running'
                           AND COALESCE(heartbeat_ts, updated_at) < ?)){scope}
                ORDER BY (CASE priority WHEN 'interactive' THEN 0 ELSE 1 END),
                         position
                LIMIT 1
                """,
                (campaign, cutoff, *scope_params),
            ).fetchone()
            if row is None:
                return None
            adopted = row["status"] == STATUS_RUNNING
            conn.execute(
                """
                UPDATE points
                SET status=?, attempts=attempts + 1, error=NULL,
                    lease_owner=?, heartbeat_ts=?, updated_at=?
                WHERE campaign=? AND digest=?
                """,
                (STATUS_RUNNING, owner, now, now, campaign, row["digest"]),
            )
            fresh = conn.execute(
                "SELECT * FROM points WHERE campaign=? AND digest=?",
                (campaign, row["digest"]),
            ).fetchone()
            return ClaimedPoint(point=self._record(fresh), adopted=adopted)

        with span("store.claim", campaign=campaign, owner=owner):
            return self._write(operate, key=campaign)

    def requeue(self, campaign: str, digests: Sequence[str]) -> int:
        """Return ``digests``' unfinished rows to ``pending``; a run's resume step.

        ``failed`` and ``timed_out`` rows go back to the queue, and so do
        ``running`` rows leased under this process's bare
        :func:`default_lease_owner` identity: no claim loop leases under
        it, so such a row is an orphan.  Rows leased by anyone else are left
        alone -- a live owner finishes them, a dead one's lease goes stale
        and the next claim adopts it.  Returns the number of rows requeued.
        """
        scope, scope_params = _digest_scope(digests)
        cursor = self._write(
            lambda conn: conn.execute(
                f"""
                UPDATE points
                SET status='pending', lease_owner=NULL, heartbeat_ts=NULL, updated_at=?
                WHERE campaign=?{scope}
                  AND (status IN ('failed', 'timed_out')
                       OR (status='running' AND lease_owner=?))
                """,
                (time.time(), campaign, *scope_params, default_lease_owner()),
            ),
            key=campaign,
        )
        return cursor.rowcount

    def release(self, campaign: str, digest: str, owner: str) -> bool:
        """Hand an in-flight claim back to the queue (``running -> pending``).

        Used by a worker shutting down gracefully (SIGTERM) so a sibling
        can claim the point immediately instead of waiting for the lease
        to go stale.  Fenced on ``owner`` still holding the lease; returns
        ``False`` if the row moved on without us.
        """
        now = time.time()
        cursor = self._write(
            lambda conn: conn.execute(
                """
                UPDATE points
                SET status='pending', lease_owner=NULL, heartbeat_ts=NULL,
                    error=NULL, updated_at=?
                WHERE campaign=? AND digest=? AND status='running'
                  AND lease_owner=?
                """,
                (now, campaign, digest, owner),
            ),
            key=campaign,
        )
        return cursor.rowcount > 0

    def heartbeat(self, campaign: str, digests: Sequence[str]) -> int:
        """Refresh the heartbeat of a claim loop's ``running`` rows.

        Returns the number of rows touched.  Called periodically by the
        claim loop so its leases never look stale to another loop's claim.
        """
        digests = list(digests)
        if not digests:
            return 0
        now = time.time()
        placeholders = ",".join("?" for _ in digests)
        cursor = self._write(
            lambda conn: conn.execute(
                f"""
                UPDATE points
                SET heartbeat_ts=?
                WHERE campaign=? AND status='running' AND digest IN ({placeholders})
                """,
                (now, campaign, *digests),
            ),
            key=campaign,
        )
        return cursor.rowcount

    def mark_done(
        self,
        campaign: str,
        digest: str,
        result: Union[ScenarioResult, Mapping[str, Any]],
        wall_time_s: Optional[float] = None,
        require_owner: Optional[str] = None,
    ) -> bool:
        """Record a completed point with its full result payload.

        The result's degradation provenance (``degraded`` /
        ``fallback_solver``) is mirrored into dedicated columns so status
        queries need not parse result JSON.  With ``require_owner`` the
        write is fenced on the caller still holding the lease (see
        :meth:`_touch`); returns ``False`` when the lease was lost.
        """
        record = result.to_dict() if isinstance(result, ScenarioResult) else dict(result)
        with span("store.mark_done", campaign=campaign):
            return self._touch(
                campaign,
                digest,
                require_owner=require_owner,
                status=STATUS_DONE,
                result=json.dumps(record, sort_keys=True),
                wall_time_s=wall_time_s,
                error=None,
                lease_owner=None,
                heartbeat_ts=None,
                degraded=1 if record.get("degraded") else 0,
                fallback_solver=record.get("fallback_solver"),
            )

    def mark_failed(
        self,
        campaign: str,
        digest: str,
        error: str,
        require_owner: Optional[str] = None,
    ) -> bool:
        """Record a failed attempt with the wrapped worker error text."""
        with span("store.mark_failed", campaign=campaign):
            return self._touch(
                campaign,
                digest,
                require_owner=require_owner,
                status=STATUS_FAILED,
                error=str(error),
                lease_owner=None,
                heartbeat_ts=None,
            )

    def mark_timed_out(
        self,
        campaign: str,
        digest: str,
        error: str,
        require_owner: Optional[str] = None,
    ) -> bool:
        """Record a point whose wall-clock budget expired (watchdog kill)."""
        with span("store.mark_timed_out", campaign=campaign):
            return self._touch(
                campaign,
                digest,
                require_owner=require_owner,
                status=STATUS_TIMED_OUT,
                error=str(error),
                lease_owner=None,
                heartbeat_ts=None,
            )

    # -- queries ------------------------------------------------------------------

    @staticmethod
    def _record(row: sqlite3.Row) -> PointRecord:
        return PointRecord(
            campaign=row["campaign"],
            digest=row["digest"],
            name=row["name"],
            position=int(row["position"]),
            status=row["status"],
            attempts=int(row["attempts"]),
            wall_time_s=None if row["wall_time_s"] is None else float(row["wall_time_s"]),
            error=row["error"],
            spec_dict=json.loads(row["spec"]),
            result_dict=None if row["result"] is None else json.loads(row["result"]),
            created_at=float(row["created_at"]),
            updated_at=float(row["updated_at"]),
            lease_owner=row["lease_owner"],
            heartbeat_ts=(
                None if row["heartbeat_ts"] is None else float(row["heartbeat_ts"])
            ),
            degraded=bool(row["degraded"]),
            fallback_solver=row["fallback_solver"],
            priority=row["priority"] or PRIORITY_BATCH,
            warm_hint_digest=row["warm_hint_digest"],
            warm_exact_prefix=bool(row["warm_exact_prefix"]),
        )

    def point(self, campaign: str, digest: str) -> PointRecord:
        """The stored record of one point."""
        row = self._conn.execute(
            "SELECT * FROM points WHERE campaign=? AND digest=?", (campaign, digest)
        ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"campaign {campaign!r} has no point with digest {digest[:12]}..."
            )
        return self._record(row)

    def find_point(self, campaign: str, digest: str) -> Optional[PointRecord]:
        """Like :meth:`point` but returns ``None`` for an unknown digest.

        The non-raising lookup the ``repro serve`` status endpoint uses: an
        unknown request id is an expected client condition (404), not a
        caller bug.
        """
        row = self._conn.execute(
            "SELECT * FROM points WHERE campaign=? AND digest=?", (campaign, digest)
        ).fetchone()
        return None if row is None else self._record(row)

    def find_done(self, digest: str) -> Optional[PointRecord]:
        """The newest ``done`` row carrying this content digest, any campaign.

        The content-digest memo behind the ``repro serve`` hit path: because
        rows are keyed by :func:`~repro.runner.stages.scenario_content_digest`,
        *any* campaign that ever completed a semantically identical scenario
        can answer for it -- a pure read, the pipeline is never touched.
        """
        row = self._conn.execute(_FIND_DONE_SQL, (digest,)).fetchone()
        return None if row is None else self._record(row)

    def warm_hint(self, record: PointRecord) -> Optional[dict]:
        """Resolve a point's enrolled warm-start wiring into a hint dict.

        Returns the transportable ``{"placement", "exact_prefix", "source"}``
        form :func:`~repro.runner.batch.execute_point` accepts, or ``None``
        when the point has no wiring or its neighbour has not finished yet
        -- the caller then simply solves cold, so picking hints up is
        always safe.
        """
        if record.warm_hint_digest is None:
            return None
        neighbour = self.find_done(record.warm_hint_digest)
        if neighbour is None:
            return None
        try:
            placement = neighbour.result().placement
        except ConfigurationError:  # pragma: no cover - done row without result
            return None
        if not placement:
            return None
        return {
            "placement": dict(placement),
            "exact_prefix": record.warm_exact_prefix,
            "source": neighbour.name,
        }

    def queue_depth(self, campaign: str, digests: Optional[Sequence[str]] = None) -> int:
        """Number of not-yet-terminal rows (``pending`` + ``running``).

        The admission-control figure: ``repro serve`` rejects new work
        (``429``) while this exceeds its ``--max-queue``.  A claim loop
        with nothing left to claim waits while it is nonzero (``digests``
        restricts the count to a batch's own points).
        """
        scope, scope_params = _digest_scope(digests)
        row = self._conn.execute(
            f"""
            SELECT COUNT(*) AS n FROM points
            WHERE campaign=? AND status IN ('pending', 'running'){scope}
            """,
            (campaign, *scope_params),
        ).fetchone()
        return int(row["n"])

    def points(
        self, campaign: str, status: Optional[str] = None
    ) -> List[PointRecord]:
        """All points of a campaign in enrollment order (optionally filtered)."""
        if status is not None and status not in _STATUSES:
            raise ConfigurationError(
                f"unknown status {status!r}; expected one of {', '.join(_STATUSES)}"
            )
        if status is None:
            rows = self._conn.execute(
                "SELECT * FROM points WHERE campaign=? ORDER BY position", (campaign,)
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM points WHERE campaign=? AND status=? ORDER BY position",
                (campaign, status),
            ).fetchall()
        return [self._record(row) for row in rows]

    def status_counts(self, campaign: str) -> Dict[str, int]:
        """Point counts per status (every status key present, possibly 0)."""
        counts = {status: 0 for status in _STATUSES}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM points WHERE campaign=? GROUP BY status",
            (campaign,),
        ):
            counts[row["status"]] = int(row["n"])
        return counts

    def fleet(
        self, campaign: str, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Per-owner view of the campaign's in-flight ``running`` rows.

        Groups by ``lease_owner`` and reports how many points each worker
        holds plus the age of its oldest and newest heartbeats, so a fleet
        operator can spot a stalled worker before stale-lease reclamation
        kicks in.  Rows predating the heartbeat column fall back to
        ``updated_at``; a row with neither owner nor heartbeat is grouped
        under ``"(no owner)"``.
        """
        now = time.time() if now is None else now
        rows = self._conn.execute(
            """
            SELECT COALESCE(lease_owner, '(no owner)') AS owner,
                   COUNT(*) AS points,
                   MIN(COALESCE(heartbeat_ts, updated_at)) AS oldest_beat,
                   MAX(COALESCE(heartbeat_ts, updated_at)) AS newest_beat
            FROM points
            WHERE campaign=? AND status='running'
            GROUP BY COALESCE(lease_owner, '(no owner)')
            ORDER BY owner
            """,
            (campaign,),
        ).fetchall()
        return [
            {
                "owner": row["owner"],
                "points": int(row["points"]),
                "oldest_heartbeat_age_s": max(0.0, now - float(row["oldest_beat"])),
                "newest_heartbeat_age_s": max(0.0, now - float(row["newest_beat"])),
            }
            for row in rows
        ]

    def campaigns(self) -> List[Tuple[str, Dict[str, int]]]:
        """Every campaign in the store with its status counts."""
        names = [
            row["campaign"]
            for row in self._conn.execute(
                "SELECT DISTINCT campaign FROM points ORDER BY campaign"
            )
        ]
        return [(name, self.status_counts(name)) for name in names]

    def results(self, campaign: str) -> List[ScenarioResult]:
        """The ``done`` results of a campaign, in enrollment order."""
        return [record.result() for record in self.points(campaign, STATUS_DONE)]

    # -- doctor -------------------------------------------------------------------

    def integrity_report(
        self, campaign: Optional[str] = None, stale_after_s: float = 300.0
    ) -> Dict[str, Any]:
        """Audit the store for corruption and liveness anomalies.

        Checks, without modifying anything:

        * SQLite's own ``PRAGMA integrity_check``,
        * ``done`` rows whose result payload is missing or not valid JSON,
        * rows whose spec payload is not valid JSON,
        * ``running`` rows whose heartbeat is older than ``stale_after_s``
          (orphaned leases of dead drivers).

        Returns a report dict whose ``issues`` list is empty for a healthy
        store; :meth:`repair` fixes everything listed.
        """
        sqlite_ok = True
        try:
            rows = self._conn.execute("PRAGMA integrity_check").fetchall()
            sqlite_ok = len(rows) == 1 and rows[0][0] == "ok"
        except sqlite3.DatabaseError:
            sqlite_ok = False

        where = "" if campaign is None else " AND campaign=?"
        params: Tuple[Any, ...] = () if campaign is None else (campaign,)

        corrupt_results: List[Tuple[str, str]] = []
        corrupt_specs: List[Tuple[str, str]] = []
        for row in self._conn.execute(
            f"SELECT campaign, digest, name, status, spec, result FROM points "
            f"WHERE 1=1{where}",
            params,
        ):
            try:
                json.loads(row["spec"])
            except (TypeError, ValueError):
                corrupt_specs.append((row["campaign"], row["digest"]))
            if row["status"] == STATUS_DONE:
                try:
                    payload = json.loads(row["result"])
                    if not isinstance(payload, dict):
                        raise ValueError("result payload is not an object")
                except (TypeError, ValueError):
                    corrupt_results.append((row["campaign"], row["digest"]))

        cutoff = time.time() - stale_after_s
        stale_rows = self._conn.execute(
            f"""
            SELECT campaign, digest FROM points
            WHERE status='running' AND COALESCE(heartbeat_ts, updated_at) < ?{where}
            """,
            (cutoff, *params),
        ).fetchall()
        stale = [(row["campaign"], row["digest"]) for row in stale_rows]

        issues: List[str] = []
        if not sqlite_ok:
            issues.append("sqlite integrity_check failed")
        if corrupt_specs:
            issues.append(f"{len(corrupt_specs)} row(s) with corrupt spec JSON")
        if corrupt_results:
            issues.append(f"{len(corrupt_results)} done row(s) with corrupt result JSON")
        if stale:
            issues.append(f"{len(stale)} stale running row(s) (dead driver lease)")
        return {
            "path": str(self.path),
            "schema_version": STORE_SCHEMA_VERSION,
            "sqlite_ok": sqlite_ok,
            "corrupt_specs": corrupt_specs,
            "corrupt_results": corrupt_results,
            "stale_running": stale,
            "issues": issues,
        }

    def repair(
        self, campaign: Optional[str] = None, stale_after_s: float = 300.0
    ) -> Dict[str, int]:
        """Fix what :meth:`integrity_report` found; returns repair counts.

        ``done`` rows with corrupt result payloads and stale ``running``
        rows are demoted to ``failed`` with an auditable error text, so the
        normal resume machinery recomputes them; rows with corrupt *spec*
        payloads cannot be recomputed (the work definition itself is gone)
        and are deleted.
        """
        report = self.integrity_report(campaign, stale_after_s=stale_after_s)
        now = time.time()

        def operate(conn: sqlite3.Connection) -> None:
            for camp, digest in report["corrupt_results"]:
                conn.execute(
                    """
                    UPDATE points
                    SET status='failed', result=NULL,
                        error='doctor: corrupt result payload discarded',
                        lease_owner=NULL, heartbeat_ts=NULL,
                        degraded=0, fallback_solver=NULL, updated_at=?
                    WHERE campaign=? AND digest=?
                    """,
                    (now, camp, digest),
                )
            for camp, digest in report["stale_running"]:
                conn.execute(
                    """
                    UPDATE points
                    SET status='failed',
                        error='interrupted: stale lease reclaimed by doctor',
                        lease_owner=NULL, heartbeat_ts=NULL, updated_at=?
                    WHERE campaign=? AND digest=?
                    """,
                    (now, camp, digest),
                )
            for camp, digest in report["corrupt_specs"]:
                conn.execute(
                    "DELETE FROM points WHERE campaign=? AND digest=?", (camp, digest)
                )

        self._write(operate, key=campaign or "")
        return {
            "results_discarded": len(report["corrupt_results"]),
            "stale_reclaimed": len(report["stale_running"]),
            "specs_deleted": len(report["corrupt_specs"]),
        }

    # -- metrics ------------------------------------------------------------------

    def record_metrics(
        self,
        campaign: str,
        rows: Sequence[Tuple[str, MetricStats]],
        run_id: Optional[int] = None,
    ) -> int:
        """Persist one run's metric rollups as ``(kind, stats)`` rows.

        Each invocation of the campaign runner records under the campaign's
        next ``run_id`` (or an explicit one), so the latency history of a
        long-lived campaign stays queryable run by run.  Returns the run id
        used.
        """
        if run_id is None:
            latest = self.latest_metrics_run(campaign)
            run_id = 1 if latest is None else latest + 1
        now = time.time()

        def operate(conn: sqlite3.Connection) -> None:
            for kind, stats in rows:
                conn.execute(
                    """
                    INSERT OR REPLACE INTO metrics
                        (campaign, run_id, kind, name, count, total,
                         minimum, maximum, p50, p90, p99, created_at)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        campaign,
                        run_id,
                        kind,
                        stats.name,
                        stats.count,
                        stats.total,
                        stats.minimum,
                        stats.maximum,
                        stats.p50,
                        stats.p90,
                        stats.p99,
                        now,
                    ),
                )

        with span("store.record_metrics", campaign=campaign, n_rows=len(rows)):
            self._write(operate, key=campaign)
        return run_id

    def latest_metrics_run(self, campaign: str) -> Optional[int]:
        """The most recent metrics ``run_id`` of a campaign (None if none)."""
        row = self._conn.execute(
            "SELECT MAX(run_id) AS top FROM metrics WHERE campaign=?", (campaign,)
        ).fetchone()
        return None if row is None or row["top"] is None else int(row["top"])

    def metrics(
        self, campaign: str, run_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """One run's metric rows (latest run by default) as plain dicts."""
        if run_id is None:
            run_id = self.latest_metrics_run(campaign)
            if run_id is None:
                return []
        rows = self._conn.execute(
            "SELECT * FROM metrics WHERE campaign=? AND run_id=? ORDER BY kind, name",
            (campaign, run_id),
        ).fetchall()
        return [dict(row) for row in rows]

    # -- export -------------------------------------------------------------------

    def export(self, campaign: str, path: PathLike) -> int:
        """Write the campaign's completed results as JSONL.

        One line per done point in enrollment order: the point's
        :meth:`ScenarioResult.to_dict` as ``json.dumps(..., sort_keys=True)``.
        Missing parent directories are created.  Returns the number of
        records written.
        """
        results = self.results(campaign)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        return len(results)


def resolve_store(
    store: Union["ResultStore", PathLike, None]
) -> Optional[ResultStore]:
    """Normalise the ``store`` argument of the campaign entry points.

    ``None`` or the string ``"none"`` select no store (returns ``None``); a
    path or a ``sqlite:///path`` URL opens (or creates) a store there, and
    ``sqlite://`` opens the default store; an existing :class:`ResultStore`
    is passed through.
    """
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, str) and store.lower() == "none":
        return None
    return ResultStore(_store_file(store))
