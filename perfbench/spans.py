"""The benchmark's own spans and the statistics it reports.

Spans wrap the benchmark's calls into the program's public functions --
nothing is recorded inside ``src/``.  They are kept in memory and written
out as JSON lines when the run ends.  Each span has a name, start and end
(seconds since the tracer started), the id of the span that caused it, and
the id of the operation it belongs to.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None, **attrs: object) -> Iterator[dict]:
        """Record one span around the ``with`` body (parent = enclosing span)."""
        if not self.enabled:
            yield {}
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None else (None if parent is None else parent["op"]),
            **attrs,
        }
        stack.append(record)
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"record": header}, sort_keys=True) + "\n")
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None with fewer than ten samples beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) * (100.0 - q) / 100.0
    if beyond < 10:
        return None
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


class Checks:
    """Counts operations attempted and failed; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(reason)
        return ok

    def problem(self, reason: str) -> None:
        """A failed check that is not an operation (e.g. the generator)."""
        self.record(False, reason)


class Samples:
    """Timed samples, each tagged with the window of the run it fell in.

    A window is a slice of the run: one cycle over the size ladder, one
    round of sweeps, or a fixed stretch of wall time.  A latency is the
    median of the per-window medians, a rate the median of the per-window
    rates, so each window counts once however many operations fit in it.
    On a shared 2-CPU VM whose speed drifts by tens of percent within a
    minute, these medians spread less between runs than the quartiles of
    the same windows (hit latency: 0.04 against 0.08 of the median over six
    runs).
    """

    def __init__(self) -> None:
        self._data: Dict[str, List[Tuple[int, float, float]]] = {}
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float, window: int, work: float = 1.0) -> None:
        with self._lock:
            self._data.setdefault(name, []).append((window, seconds, work))

    def has(self, name: str) -> bool:
        return bool(self._data.get(name))

    def values(self, name: str) -> List[float]:
        return [seconds for _, seconds, _ in self._data.get(name, [])]

    def _windows(self, name: str) -> Dict[int, List[Tuple[float, float]]]:
        windows: Dict[int, List[Tuple[float, float]]] = {}
        for window, seconds, work in self._data[name]:
            windows.setdefault(window, []).append((seconds, work))
        return windows

    def latency(self, name: str) -> float:
        """Median over windows of each window's median duration."""
        return median([median([s for s, _ in rows]) for rows in self._windows(name).values()])

    def rate(self, name: str) -> float:
        """Median over windows of work per second of operation time."""
        return median([
            sum(w for _, w in rows) / sum(s for s, _ in rows)
            for rows in self._windows(name).values()
        ])

    def overall_rate(self, name: str) -> float:
        rows = self._data[name]
        return sum(w for _, _, w in rows) / sum(s for _, s, _ in rows)
