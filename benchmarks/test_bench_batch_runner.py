"""Batch-runner throughput: cold vs warm stage cache over the catalog.

The scenario catalog is executed twice through the batch runner against the
same content-hash stage cache.  The cold pass computes every scene / grid /
solar-field / suitability stage and publishes them; the warm pass re-runs
the identical fleet and must be dominated by the (cheap) placement and
evaluation work.  The assertion demonstrates the acceptance criterion of
the scenario/runner subsystem: a warm re-run of the batch is measurably
faster than the cold run.
"""

from __future__ import annotations

import time

from repro.runner import run_batch
from repro.scenario import builtin_scenarios


def test_bench_batch_runner_cold_vs_warm(benchmark, tmp_path):
    """Cold-cache batch vs warm-cache batch over the full built-in catalog."""
    specs = list(builtin_scenarios().values())
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_batch(specs, cache=cache_dir, jobs=1)
    cold_s = time.perf_counter() - start

    warm = benchmark(lambda: run_batch(specs, cache=cache_dir, jobs=1))
    warm_s = float(benchmark.stats.stats.mean)

    hits = warm.cache_hit_counts()
    print(
        f"\n[batch runner] {len(specs)} scenarios: cold {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({cold_s / max(warm_s, 1e-9):.1f}x), "
        f"warm cache hits: {hits}"
    )
    # Warm results are bit-identical to cold ones ...
    assert [r.fingerprint() for r in warm.results] == [
        r.fingerprint() for r in cold.results
    ]
    # ... every expensive stage came from the cache ...
    for stage in ("scene", "grid", "solar", "suitability"):
        assert hits[stage] == len(specs)
    # ... and skipping them is what makes the warm run measurably faster.
    assert warm_s < 0.8 * cold_s


def test_bench_batch_runner_parallel_cold(benchmark, tmp_path):
    """Cold-cache parallel batch (2 workers) over the full catalog."""
    specs = list(builtin_scenarios().values())
    counter = iter(range(1_000_000))

    def cold_parallel():
        run_dir = tmp_path / f"run-{next(counter)}"
        return run_batch(specs, cache=run_dir / "cache", jobs=2)

    batch = benchmark.pedantic(cold_parallel, rounds=2, iterations=1)
    print(
        f"\n[batch runner] parallel cold: {len(specs)} scenarios with "
        f"{batch.jobs} workers in {batch.runtime_s:.2f}s"
    )
    assert batch.n_scenarios == len(specs)
