"""Fault-injection overhead: disabled chaos hooks must be ~free.

The switchboard's design contract mirrors telemetry's null span: with no
``REPRO_FAULTS`` plan armed, every :func:`repro.faults.fire` call site is
one module-attribute load plus a falsy check.  This bench pins that with
numbers, the same way ``test_bench_telemetry.py`` does for spans: a warm
cached scenario run is benchmarked with faults disabled, the identical
workload is then run under a never-firing counting plan to see how many
fault sites it actually crosses, and a generous multiple of that many
disabled calls, timed right after a warm run, must cost under 5 % of that
run (median over the pairs) -- the "zero overhead disabled" acceptance bar.
"""

from __future__ import annotations

import statistics
import time

from repro import faults
from repro.gis import RoofSpec
from repro.runner import run_scenario
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec

_PAIRS = 60


def _bench_spec() -> ScenarioSpec:
    """A seconds-scale scenario crossing every in-process fault site."""
    return ScenarioSpec(
        name="faults-bench",
        roof=RoofSpec(
            name="faults-bench-roof",
            width_m=8.0,
            depth_m=5.0,
            tilt_deg=30.0,
            azimuth_deg=0.0,
        ),
        n_modules=4,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name="greedy"),
    )


def test_bench_disabled_fire_overhead(benchmark, tmp_path):
    """Disabled fault injection: < 5 % overhead on a warm cached run."""
    faults.configure(None)
    assert not faults.faults_enabled()

    spec = _bench_spec()
    cache_dir = tmp_path / "cache"
    run_scenario(spec, cache=cache_dir)  # warm every cacheable stage

    result = benchmark(lambda: run_scenario(spec, cache=cache_dir))
    assert result.annual_energy_mwh > 0

    # Count the fault-site crossings of the identical warm workload with a
    # never-firing plan (``after`` pushed beyond reach): every ``fire``
    # call increments its clause's call counter without ever acting.
    plan = faults.configure(
        ";".join(f"{site}:after=1000000000" for site in sorted(faults.FAULT_SITES))
    )
    run_scenario(spec, cache=cache_dir)
    crossings = sum(clause._calls for clause in plan.specs)
    faults.configure(None)
    assert crossings >= 1  # at least the solver adapter's hook

    # Project against 100x the observed crossings: headroom for store-backed
    # campaign runs, whose per-write store.io hooks this workload lacks.
    calls = max(crossings * 100, 1000)

    # Time that many disabled fire() calls, made the way the call sites make
    # them, right after each of a series of warm runs and judge the median
    # share.  A slow phase of a shared host stretches both halves of a pair
    # alike; timing the run and the calls at different moments let one such
    # phase decide the share alone.
    run_times, call_times, shares = [], [], []
    for _ in range(_PAIRS):
        start = time.perf_counter()
        run_scenario(spec, cache=cache_dir)
        run_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            faults.fire("solver.error", "bench")
        calls_s = time.perf_counter() - start
        run_times.append(run_s)
        call_times.append(calls_s)
        shares.append(calls_s / run_s)
    share = statistics.median(shares)
    run_s, calls_s = statistics.median(run_times), statistics.median(call_times)
    print(
        f"\n[faults] warm disabled run {run_s * 1e3:.2f} ms, "
        f"{crossings} fault-site crossings x {calls_s / calls * 1e9:.0f} ns "
        f"= {calls_s * 1e6:.1f} us projected overhead at 100x margin "
        f"({100.0 * share:.3f} % of the run, median of {_PAIRS} pairs; budget 5 %)"
    )
    assert share < 0.05
