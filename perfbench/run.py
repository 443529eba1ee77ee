"""Benchmark entry point.

    python3 perfbench/run.py --workload cold-roofs --seed 1 --seconds 20 --trace 0

Runs one workload on inputs generated from ``--seed``, measures for about
``--seconds`` seconds, checks every output, and prints a human report
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the same loop runs with the
benchmark's spans on, followed by the per-layer probe, and the metrics are
the per-layer ones.  Spans are written to ``.perfbench/traces/``.  Exits
non-zero without a result line when the program cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import sandbox  # noqa: E402

BENCHMARK = sandbox.ROOT / "BENCHMARK.json"


def _units() -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def main(argv=None) -> int:
    units = _units()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=units["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sandbox.require_program()
    sandbox.compile_sources()
    # Everything from here on is set-up: the program's imports first.
    setup_started = time.perf_counter()
    from perfbench import scenarios, workloads
    from perfbench.spans import Tracer

    import_s = time.perf_counter() - setup_started
    tracer = Tracer(enabled=bool(args.trace))
    record = sandbox.run_record(args.seed, args.workload, bool(args.trace))
    record["inputs_sha256"] = scenarios.documents_digest(args.workload, args.seed)
    print("perfbench record " + json.dumps(record, sort_keys=True), flush=True)

    with sandbox.Sandbox(args.workload) as sb:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, sb)
        for problem in scenarios.self_check(args.workload, args.seed):
            workload.checks.problem(problem)
        with tracer.span("workload", op=0, workload=args.workload):
            setup_s, figures = workload.run()
        figures["setup_s"] = import_s + setup_s
        if args.trace:
            from perfbench.layers import probe_layers

            with tracer.span("probe", op=0):
                figures = probe_layers(workload, tracer, sb)
            names = units["per_layer"]
        else:
            names = units["end_to_end"]

    checks = workload.checks
    report = {
        "error_ratio": checks.failed / max(1, checks.attempted),
        **workload.report(),
    }
    print(f"perfbench {args.workload} " + json.dumps(report, sort_keys=True, default=str))
    for reason in checks.reasons:
        print(f"perfbench check failed: {reason}")
    if args.trace:
        path = sandbox.WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {**record, "layers": figures})
        print(f"perfbench trace: {len(tracer.spans)} spans written to {path}")

    missing = [name for name in names if name not in figures]
    if missing:
        raise sandbox.BenchError(f"no value measured for {', '.join(missing)}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(figures[name]), "unit": unit} for name, unit in names.items()
        },
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash seed for this process and every child, so dict
        # and set layouts do not differ from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    try:
        sys.exit(main())
    except sandbox.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
