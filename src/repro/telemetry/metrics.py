"""Counters and wall-time distributions rolled up from spans.

The tracer (:mod:`repro.telemetry.trace`) records *individual* intervals;
this module turns populations of them into the aggregate figures the rest
of the system reports: per-stage latency distributions (p50/p90/p99) and
counters such as cache hits and retries.  Everything is stdlib-only and small-n
exact -- samples are kept and sorted, not sketched, because a campaign
over the built-in catalog produces at most a few thousand samples per
metric.

Two consumers drive the shape of :class:`MetricStats`:

* the campaign runner persists one row per (kind, name) into the result
  store's ``metrics`` table after each run, which is what
  ``repro campaign status`` renders as the per-stage latency table;
* ``repro trace summary`` takes the :func:`quantile` of each span name's
  durations for its timing tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Sequence


def quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending-sorted sample list."""
    if not sorted_samples:
        raise ValueError("quantile of an empty sample set")
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    position = q * (len(sorted_samples) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_samples) - 1)
    fraction = position - low
    return float(sorted_samples[low] * (1.0 - fraction) + sorted_samples[high] * fraction)


@dataclass(frozen=True)
class MetricStats:
    """Summary statistics of one metric: a counter or a sample distribution."""

    name: str
    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    @classmethod
    def from_samples(cls, name: str, samples: Iterable[float]) -> "MetricStats":
        """Distribution stats of a non-empty sample population."""
        ordered = sorted(float(sample) for sample in samples)
        if not ordered:
            raise ValueError(f"metric {name!r} has no samples")
        return cls(
            name=name,
            count=len(ordered),
            total=float(sum(ordered)),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=quantile(ordered, 0.50),
            p90=quantile(ordered, 0.90),
            p99=quantile(ordered, 0.99),
        )

    @classmethod
    def from_count(cls, name: str, value: float) -> "MetricStats":
        """A plain counter, stored with its value in every statistic slot."""
        number = float(value)
        return cls(
            name=name,
            count=int(number),
            total=number,
            minimum=number,
            maximum=number,
            p50=number,
            p90=number,
            p99=number,
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }
