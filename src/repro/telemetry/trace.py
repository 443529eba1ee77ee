"""Contextvar-based tracing: spans, instant events, JSONL trace shards.

The tracer is the measurement substrate of the whole pipeline: every stage
of :mod:`repro.runner.stages`, every cache and store operation, and the
solver inner loops emit *spans* (named, attributed intervals) and *events*
(instant points) into a JSONL trace.  Three properties shape the design:

**Disabled means free.**  Tracing is off unless ``REPRO_TRACE=<path>`` is
set (or :func:`configure` is called).  When off, :func:`span` returns a
shared :data:`NULL_SPAN` singleton whose ``__enter__``/``__exit__``/``set``
are empty slots-only methods -- no allocation, no branching beyond one
``is None`` check, no file ever touched.  The instrumented hot paths cost
a few hundred nanoseconds per call, benchmark-asserted to stay under 5 %
of a cached catalog run.

**One shard per process.**  Every traced process -- the campaign parent
and each batch worker alike -- appends its events to a private shard
``<path>.shard-<pid>.jsonl``, so no cross-process file locking is ever
needed and a dying worker can at most lose its own unflushed tail.
:func:`merge_trace` (called by the batch runner and the CLI at drain time)
folds all shards plus any previously merged file into one ordered trace at
``<path>``.  Worker processes created by ``fork`` inherit the parent's
tracer; an ``os.register_at_fork`` hook discards the inherited buffer and
re-keys the shard path to the child's pid so shards never interleave.

**Timestamps are monotonic, comparable across processes.**  Each event's
``ts`` is ``time.perf_counter()`` (monotonic within the process) anchored
once per tracer to the wall clock, so merged shards sort into one coherent
timeline good to the cross-process clock skew (microseconds on one host).

Event schema (one JSON object per line)::

    {"type": "span",  "name": "solar", "id": "1234-7", "parent": "1234-3",
     "pid": 1234, "ts": 1754650000.123456, "dur": 1.25, "attrs": {...}}
    {"type": "event", "name": "greedy.step", "id": "1234-9",
     "parent": "1234-8", "pid": 1234, "ts": ..., "attrs": {...}}

``id`` is ``<pid>-<sequence>`` (globally unique within a trace), ``parent``
links to the enclosing span (possibly opened in another process: a batch
pool worker hangs each task's ``scenario`` span off the claim loop's span,
see :func:`under_span`), ``dur`` is the span's duration in seconds, and
``attrs`` carries the instrumentation attributes (cache hit/miss, candidate
counts, solver figures, ...).
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import count
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: Environment variable enabling tracing (its value is the trace path).
TRACE_ENV = "REPRO_TRACE"

#: Buffered events are flushed to the shard at the latest after this many.
FLUSH_EVERY = 512

#: The enclosing span id of the calling context (None at top level).
_CURRENT: ContextVar[Optional[str]] = ContextVar("repro_trace_current", default=None)


class NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    A single shared instance (:data:`NULL_SPAN`) serves every call site;
    entering, exiting and :meth:`set` are empty methods on a slots-only
    class, so instrumentation left in hot paths costs almost nothing.
    """

    __slots__ = ()

    #: Discriminates the null span from a recording one, so call sites can
    #: gate *expensive* attribute collection (``stat()`` calls, array
    #: reductions) on ``sp.active`` while cheap attributes are set
    #: unconditionally.
    active = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


NULL_SPAN = NullSpan()


class Span:
    """A recording span: times an interval and links into the context tree."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start", "_token")

    active = True

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[str] = None
        self._start = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        self.parent_id = _CURRENT.get()
        self._token = _CURRENT.set(self.span_id)
        self._tracer._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record(self, elapsed)
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Per-process trace recorder writing one JSONL shard.

    Instances are normally managed through the module-level state
    (:func:`configure` / :func:`trace_to`); creating one directly is
    useful in tests.  Events are buffered in memory and flushed to the
    shard whenever the local span stack empties (one scenario's tree lands
    on disk as soon as it closes), every :data:`FLUSH_EVERY` events, and at
    interpreter exit.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.pid = os.getpid()
        # Wall-clock anchor: ts = _epoch + perf_counter() is monotonic
        # within the process and comparable across processes on one host.
        self._epoch = time.time() - time.perf_counter()
        self._sequence = count(1)
        self._events: List[dict] = []
        self._depth = 0

    # -- identity -----------------------------------------------------------------

    @property
    def shard_path(self) -> Path:
        """This process's private shard file."""
        return shard_path_for(self.path, self.pid)

    def _next_id(self) -> str:
        return f"{self.pid}-{next(self._sequence)}"

    def _now(self) -> float:
        return self._epoch + time.perf_counter()

    # -- recording ----------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new span (use as a context manager)."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event under the current span."""
        record: Dict[str, Any] = {
            "type": "event",
            "name": name,
            "id": self._next_id(),
            "parent": _CURRENT.get(),
            "pid": self.pid,
            "ts": self._now(),
        }
        if attrs:
            record["attrs"] = attrs
        self._events.append(record)
        if len(self._events) >= FLUSH_EVERY:
            self.flush()

    def _record(self, span: Span, elapsed: float) -> None:
        record: Dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "pid": self.pid,
            "ts": self._epoch + span._start,
            "dur": elapsed,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._events.append(record)
        self._depth -= 1
        if self._depth <= 0 or len(self._events) >= FLUSH_EVERY:
            self.flush()

    # -- persistence --------------------------------------------------------------

    def flush(self) -> None:
        """Append the buffered events to the shard file."""
        if not self._events:
            return
        shard = self.shard_path
        if shard.parent and not shard.parent.exists():
            shard.parent.mkdir(parents=True, exist_ok=True)
        with open(shard, "a", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._events.clear()


# ---------------------------------------------------------------------------
# Module-level state: the process-wide tracer
# ---------------------------------------------------------------------------


class _State:
    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None


_STATE = _State()


def configure(path: Optional[PathLike], set_env: bool = True) -> Optional[Tracer]:
    """Enable tracing to ``path`` (or disable it with ``None``).

    With ``set_env`` (the default) the :data:`TRACE_ENV` environment
    variable is kept in sync, so worker processes -- forked or spawned --
    inherit the setting and write their own shards next to ``path``.
    """
    previous = _STATE.tracer
    if previous is not None:
        previous.flush()
    if path is None:
        _STATE.tracer = None
        if set_env:
            os.environ.pop(TRACE_ENV, None)
        return None
    tracer = Tracer(path)
    _STATE.tracer = tracer
    if set_env:
        os.environ[TRACE_ENV] = str(tracer.path)
    return tracer


def configure_from_env() -> Optional[Tracer]:
    """Synchronise the tracer with ``$REPRO_TRACE`` (idempotent)."""
    return trace_to(os.environ.get(TRACE_ENV))


def trace_to(path: Optional[PathLike]) -> Optional[Tracer]:
    """Record to ``path`` (``None`` or empty: stop), leaving the environment alone.

    A tracer of this process already recording to ``path`` is kept, with
    its sequence and buffered events.  A batch pool worker calls this with
    each task's trace path, since the environment it inherited at fork time
    may be stale.
    """
    current = _STATE.tracer
    if not path:
        if current is not None:
            configure(None, set_env=False)
        return None
    if current is not None and current.path == Path(path) and current.pid == os.getpid():
        return current
    return configure(path, set_env=False)


def tracing_enabled() -> bool:
    """True when spans/events are being recorded."""
    return _STATE.tracer is not None


def span(name: str, **attrs: Any) -> Union[Span, NullSpan]:
    """Open a span under the active tracer (or the free null span)."""
    tracer = _STATE.tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def trace_event(name: str, **attrs: Any) -> None:
    """Record an instant event (no-op while tracing is disabled)."""
    tracer = _STATE.tracer
    if tracer is not None:
        tracer.event(name, **attrs)


def current_span_id() -> Optional[str]:
    """Id of the span enclosing the calling context (``None`` at top level)."""
    return _CURRENT.get()


@contextmanager
def under_span(span_id: Optional[str]) -> Iterator[None]:
    """Open the block's spans and events as children of ``span_id``.

    ``span_id`` may belong to another process: a batch pool worker hangs
    each task's spans off the claim loop's span this way, whatever span was
    open when the worker was forked.
    """
    token = _CURRENT.set(span_id)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def _flush_at_exit() -> None:
    tracer = _STATE.tracer
    if tracer is not None:
        tracer.flush()


atexit.register(_flush_at_exit)


def _reset_after_fork() -> None:
    """Re-key the inherited tracer to the child process.

    A forked child inherits the parent's tracer object *and* its buffered
    events; keeping either would duplicate the parent's history and write
    into the parent's shard.  Replace the tracer with a fresh one for the
    same trace path (new pid, new sequence, empty buffer).
    """
    parent_tracer = _STATE.tracer
    if parent_tracer is not None:
        _STATE.tracer = Tracer(parent_tracer.path)


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX always has it
    os.register_at_fork(after_in_child=_reset_after_fork)


# ---------------------------------------------------------------------------
# Shard aggregation
# ---------------------------------------------------------------------------


def shard_path_for(path: PathLike, pid: int) -> Path:
    """The shard file of process ``pid`` for the trace at ``path``."""
    target = Path(path)
    return target.with_name(f"{target.name}.shard-{pid}.jsonl")


def shard_paths(path: PathLike) -> List[Path]:
    """All shard files currently accompanying the trace at ``path``."""
    target = Path(path)
    if not target.parent.exists():
        return []
    return sorted(target.parent.glob(f"{target.name}.shard-*.jsonl"))


def read_trace(path: PathLike) -> List[dict]:
    """Read a JSONL trace (or shard), skipping malformed lines.

    A worker killed mid-write leaves at most one truncated trailing line;
    tolerating it keeps a crashed campaign's trace usable.
    """
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def merge_trace(path: PathLike, remove_shards: bool = True) -> Optional[Path]:
    """Fold all shards (plus any earlier merged file) into one ordered trace.

    Returns the merged path, or ``None`` when there is nothing to merge.
    The merge is idempotent and incremental: re-running it after another
    batch appended new shards extends the existing merged trace, and events
    are ordered by timestamp so the file reads as one coherent timeline.
    """
    target = Path(path)
    events: List[dict] = []
    if target.exists():
        events.extend(read_trace(target))
    shards = shard_paths(target)
    for shard in shards:
        events.extend(read_trace(shard))
    if not events:
        return None
    events.sort(key=lambda event: (event.get("ts", 0.0), event.get("id", "")))
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    os.replace(tmp, target)
    if remove_shards:
        for shard in shards:
            try:
                shard.unlink()
            except OSError:
                pass
    return target


def merge_active_trace() -> Optional[Path]:
    """Flush the active tracer and merge its shards (no-op when disabled).

    The batch runner calls this after its worker pool has drained, and the
    CLI calls it before exiting, so a traced run always ends with a single
    merged ``<path>`` regardless of how many processes participated.
    """
    tracer = _STATE.tracer
    if tracer is None:
        return None
    tracer.flush()
    return merge_trace(tracer.path)


# Honour a pre-existing REPRO_TRACE as soon as telemetry is imported, so
# spawned worker processes (which import the package fresh) start tracing
# without any explicit hand-off from the parent.
configure_from_env()
