"""Synthetic closed-loop traffic generator for the planning service.

Drives ``n_clients`` threads against a running ``repro serve`` endpoint,
each in a closed loop: issue ``POST /v1/plan``, wait for the answer,
immediately issue the next -- the classic closed-loop load model, where
offered load adapts to service latency instead of overrunning the server.
Each client cycles through the supplied scenario documents; against a warm
catalog every request is a memo hit, so the measured latency distribution
is the service's floor (parse + digest + one indexed read).

The result is a :class:`TrafficReport` carrying the latency distribution
(:class:`~repro.telemetry.MetricStats`: p50/p90/p99) plus per-status
counts; the bench suite publishes p50/p99 into the bench-timings artifact.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..telemetry import MetricStats
from .client import ServeClient


class TrafficReport:
    """Outcome of one traffic run: latencies, status mix, wall-clock."""

    def __init__(
        self,
        latencies_s: List[float],
        status_counts: Dict[int, int],
        wall_time_s: float,
        n_clients: int,
    ) -> None:
        self.latencies_s = latencies_s
        self.status_counts = status_counts
        self.wall_time_s = wall_time_s
        self.n_clients = n_clients

    @property
    def n_requests(self) -> int:
        return len(self.latencies_s)

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def latency_stats(self) -> MetricStats:
        """p50/p90/p99 (and friends) of the per-request latencies."""
        return MetricStats.from_samples("serve.request_latency_s", self.latencies_s)

    def as_dict(self) -> Dict[str, Any]:
        stats = self.latency_stats()
        return {
            "n_clients": self.n_clients,
            "n_requests": self.n_requests,
            "wall_time_s": self.wall_time_s,
            "throughput_rps": self.throughput_rps,
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "latency_s": stats.as_dict(),
        }


def run_traffic(
    base_url: str,
    scenarios: Sequence[Mapping[str, Any]],
    n_clients: int = 4,
    requests_per_client: int = 25,
    priority: Optional[str] = None,
    timeout_s: float = 30.0,
) -> TrafficReport:
    """Run a closed-loop traffic session and collect the latency distribution.

    Each of the ``n_clients`` threads issues ``requests_per_client`` plan
    requests back to back on its own client (one kept connection), cycling
    through ``scenarios`` (dict documents) starting at a per-client offset
    so concurrent clients spread across the catalog.  Transport errors
    propagate -- a refused connection should fail the benchmark, not vanish
    into the statistics.
    """
    if not scenarios:
        raise ConfigurationError("traffic needs at least one scenario document")
    if n_clients < 1 or requests_per_client < 1:
        raise ConfigurationError("n_clients and requests_per_client must be >= 1")

    documents = [dict(document) for document in scenarios]
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    statuses: List[List[int]] = [[] for _ in range(n_clients)]
    errors: List[BaseException] = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        client = ServeClient(base_url, timeout_s=timeout_s)
        try:
            for step in range(requests_per_client):
                document = documents[(index + step) % len(documents)]
                start = time.perf_counter()
                response = client.plan(document, priority=priority)
                latencies[index].append(time.perf_counter() - start)
                statuses[index].append(response.status)
        except BaseException as exc:  # noqa: BLE001 -- surfaced to the caller
            with lock:
                errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(n_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time_s = time.perf_counter() - started

    if errors:
        raise errors[0]

    status_counts: Dict[int, int] = {}
    for client_statuses in statuses:
        for status in client_statuses:
            status_counts[status] = status_counts.get(status, 0) + 1
    return TrafficReport(
        latencies_s=[sample for client in latencies for sample in client],
        status_counts=status_counts,
        wall_time_s=wall_time_s,
        n_clients=n_clients,
    )


__all__ = ["TrafficReport", "run_traffic"]
