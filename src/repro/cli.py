"""Command-line front-end: ``python -m repro`` / the ``repro`` console script.

Subcommands
-----------
``list-scenarios``
    Show the built-in scenario catalog (name, solver, size, description).
``run``
    Execute one scenario -- built-in by name or loaded from a JSON file --
    through the cached staged pipeline and print its report.  A document
    run before is answered from its stage-cache entry.
``compare``
    Run several solvers on the same scenario (sharing every cached stage)
    and print a side-by-side table.
``sweep``
    Expand a declarative sweep -- a plan file, or a base scenario plus
    ``--axis path=v1,v2,...`` flags -- through the cached batch runner and
    print/store the aggregated table.  Runs as a durable campaign by
    default (``--store none`` opts out).
``campaign``
    Fault-tolerant, resumable fleet execution backed by the SQLite result
    store: ``run`` enrolls + executes (with no scenario arguments it
    re-runs the missing points of a campaign already in the store, or the
    whole catalog for a new one), ``enroll`` enrolls without executing
    (feeding a worker fleet), ``worker`` joins a cooperative fleet pulling
    points from the shared store until the queue drains, ``status``
    inspects (per-owner lease view, per-stage latency table), ``export``
    writes the done points as JSONL, ``doctor`` audits the store for
    corruption and dead-driver leases (``--repair`` fixes what it finds).
    ``run``/``worker`` accept ``--timeout``
    (per-point wall-clock budget enforced by a watchdog) and
    ``--retry-backoff`` (delay between retry attempts); SIGINT/SIGTERM
    mark or release in-flight points and exit with code 130.  ``--store``
    everywhere takes a path or a ``sqlite:///path`` URL.
``serve``
    Planning-as-a-service: a threaded HTTP/JSON front-end over the
    campaign store.  ``POST /v1/plan`` answers memo hits instantly from
    the content-digest store and enqueues misses into a serve campaign
    (priority ``interactive`` by default) for a ``campaign worker`` fleet
    sharing the same ``--store``; ``GET /v1/requests/<id>`` polls status,
    ``/v1/healthz`` and ``/v1/stats`` expose queue depth, hit ratio and
    admission counters.  ``--max-queue`` bounds the queue (HTTP 429 +
    Retry-After beyond it); SIGTERM/SIGINT shut down cleanly with exit
    code 0.  Defaults honour ``$REPRO_SERVE_PORT`` and
    ``$REPRO_SERVE_MAX_QUEUE``.
``report``
    Generate a paper-artifact report preset (``table1``, ``catalog``) as
    deterministic Markdown or CSV.
``trace``
    Inspect recorded span traces: ``summary`` renders the aggregated
    timing tree (self/cumulative time, slowest spans), ``export`` converts
    to Chrome Trace Event JSON for ``chrome://tracing`` / Perfetto.

All pipeline-running subcommands share the stage-cache flags:
``--cache-dir`` points the content-addressed store somewhere explicit
(default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), ``--no-cache``
bypasses it.  Campaign state lives in ``--store`` (default:
``$REPRO_STORE_PATH`` or ``<cache dir>/campaigns.sqlite``).  They also
accept ``--trace PATH`` (or honour ``$REPRO_TRACE``) to record a JSONL
span trace of the run; worker shards are merged into one file on exit.
All output flows through a logging emitter honouring ``$REPRO_LOG_LEVEL``
(default ``INFO`` keeps stdout byte-identical to the historical ``print``
output; ``DEBUG`` adds trace/cache diagnostics on stderr).  See
``docs/cli.md`` and ``docs/observability.md`` for a full walkthrough.
"""

from __future__ import annotations

import argparse
import collections.abc
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

from . import telemetry
from .constants import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_HOST,
    DEFAULT_MAX_QUEUE,
    DEFAULT_POLL_S,
    DEFAULT_PORT,
    DEFAULT_SERVE_CAMPAIGN,
    DEFAULT_STALE_AFTER_S,
)
from .errors import ReproError
from .runner.cache import StageCache, default_cache_dir
from .runner.result import CACHED_STAGES, ScenarioResult, scenario_content_digest
from .scenario.catalog import builtin_scenarios
from .scenario.spec import ScenarioSpec
from .telemetry import emit_diagnostic, emit_err, emit_error, emit_out

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .runner.store import ResultStore
    from .sweep import SweepAxis, SweepPlan

# The handlers below import the subsystem they drive (the pipeline and its
# solvers, batch driver, result store, fleet worker, HTTP service, sweep
# engine) when they run, so a process pays only for the modules its command
# executes: a ``repro run`` answered from the stage cache imports no numpy.

#: Stage-cache sub-directory of the results ``repro run`` computed, keyed by
#: the scenario's point digest.
STAGE_RESULT = "result"


def _cache_from_args(args: argparse.Namespace) -> StageCache:
    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return StageCache(root=root)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the stage cache (recompute everything)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record a JSONL span trace of this run here "
            "(default: $REPRO_TRACE when set)"
        ),
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "campaign result-store database: a path, a URL such as "
            "sqlite:///path/to/store.sqlite, or 'none' for a throwaway temporary "
            "store that keeps no results "
            "(default: $REPRO_STORE_PATH or <cache dir>/campaigns.sqlite)"
        ),
    )


_JOBS_HELP = "worker processes (default: cpu count; 1 runs in-process)"


def _add_robustness_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget; overrunning points are killed by "
            "the watchdog and recorded as timed_out (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "base delay between retry attempts of one point, doubling per "
            "attempt with jitter (default: 0 = retry immediately)"
        ),
    )


def _store_from_args(args: argparse.Namespace) -> "Path | None":
    """Resolve ``--store`` to the store's database file, or ``None``."""
    if args.store is not None and args.store.lower() == "none":
        return None
    from .runner.store import _store_file, default_store_path

    return _store_file(args.store) or default_store_path()


def _print_campaign_summary(summary) -> None:
    emit_out(summary.report())
    recomputes = summary.stage_recomputes
    note = (
        ", ".join(f"{stage}={count}" for stage, count in sorted(recomputes.items()))
        if recomputes
        else "none"
    )
    emit_out(f"stage recomputations (this run): {note}")
    recompute_s = sum(summary.stage_recompute_time_s.values())
    hit_s = sum(summary.stage_hit_time_s.values())
    if recompute_s or hit_s:
        emit_out(
            f"stage wall time (this run): {recompute_s:.2f}s recomputing, "
            f"{hit_s:.2f}s serving cache hits"
        )


def _load_scenario(name_or_path: str) -> ScenarioSpec:
    """Resolve a scenario argument: catalog name first, then JSON file path."""
    catalog = builtin_scenarios()
    if name_or_path in catalog:
        return catalog[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return ScenarioSpec.load(path)
    known = ", ".join(catalog)
    raise ReproError(
        f"{name_or_path!r} is neither a built-in scenario nor a scenario file; "
        f"built-ins: {known}"
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from .runner.solvers import available_solvers

    catalog = builtin_scenarios()
    if args.json:
        records = [
            {
                "name": spec.name,
                "solver": spec.solver.name,
                "n_modules": spec.n_modules,
                "tags": list(spec.tags),
                "description": spec.description,
            }
            for spec in catalog.values()
        ]
        emit_out(json.dumps(records, indent=2))
        return 0
    width = max(len(name) for name in catalog)
    emit_out(f"{len(catalog)} built-in scenarios (solvers: {', '.join(available_solvers())})")
    for spec in catalog.values():
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        emit_out(
            f"  {spec.name:<{width}}  solver={spec.solver.name:<11} "
            f"N={spec.n_modules:<3} {spec.description}{tags}"
        )
    return 0


def _run_document(spec: ScenarioSpec, cache: StageCache, use_cache: bool) -> ScenarioResult:
    """The result of ``repro run``: from its stage-cache entry when known.

    The entry, ``result/<point digest>``, holds the JSON document that
    ``--output`` writes, so reading it imports no simulation code.  A hit
    reports the lookup's wall time, no stage times and every cached stage
    hit; a miss runs the pipeline and writes the entry.  Without
    ``use_cache`` the entry is neither read nor written.
    """
    if use_cache:
        key = scenario_content_digest(spec)
        started = time.perf_counter()
        document, hit = cache.get(STAGE_RESULT, key)
        if hit:
            result = ScenarioResult.from_dict(json.loads(document))
            result.runtime_s = time.perf_counter() - started
            result.stage_times_s = {}
            result.stage_cached = dict.fromkeys(CACHED_STAGES, True)
            return result
    from .runner.stages import run_scenario

    result = run_scenario(spec, cache=cache, use_cache=use_cache)
    if use_cache:
        cache.put(STAGE_RESULT, key, _result_json(result))
    return result


def _result_json(result: ScenarioResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_scenario(args.scenario)
    if args.solver:
        spec = spec.with_solver(args.solver)
    result = _run_document(spec, _cache_from_args(args), use_cache=not args.no_cache)
    emit_out(result.report())
    emit_diagnostic(
        "stage wall times: "
        + ", ".join(
            # Execution order: the keys are recorded as the stages run.
            f"{stage}={seconds:.3f}s" for stage, seconds in result.stage_times_s.items()
        )
    )
    if args.output:
        Path(args.output).write_text(_result_json(result), encoding="utf-8")
        emit_out(f"result written to {args.output}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .runner.batch import run_batch
    from .runner.store import resolve_store

    store_path = _store_from_args(args)
    if store_path is None:
        raise ReproError("campaign run needs a result store (--store cannot be 'none')")
    specs = [_load_scenario(name) for name in args.scenarios]
    cache = _cache_from_args(args)
    with resolve_store(store_path) as store:
        if not specs:
            # No scenario arguments: a stored campaign re-runs its own
            # points, a new one runs the whole built-in catalog.
            specs = [record.spec() for record in store.points(args.name)]
            specs = specs or list(builtin_scenarios().values())
        batch = run_batch(
            specs,
            cache=cache,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            store=store,
            campaign=args.name,
            retries=args.retries,
            timeout_s=args.timeout,
            retry_backoff_s=args.retry_backoff,
        )
    for result in batch.results:
        emit_out(result.report())
    _print_campaign_summary(batch.campaign)
    emit_out(f"store: {store_path}")
    return 1 if batch.campaign.failed or batch.campaign.timed_out else 0


def _cmd_campaign_enroll(args: argparse.Namespace) -> int:
    from .runner.solvers import check_solvable
    from .runner.store import resolve_store

    if args.scenarios:
        specs = [_load_scenario(name) for name in args.scenarios]
    else:
        specs = list(builtin_scenarios().values())
    for spec in specs:
        check_solvable(spec)
    store = _store_from_args(args)
    if store is None:
        raise ReproError("campaign enroll needs a result store (--store cannot be 'none')")
    with resolve_store(store) as result_store:
        records = result_store.enroll(args.name, specs)
        counts = result_store.status_counts(args.name)
    emit_out(
        f"campaign {args.name!r}: {len(records)} point(s) enrolled, "
        f"{counts['pending']} pending, {counts['done']} already done"
    )
    emit_out(f"store: {store}")
    emit_out(f"start workers with: repro campaign worker {args.name} --store {store}")
    return 0


def _cmd_campaign_worker(args: argparse.Namespace) -> int:
    from .runner.worker import run_worker

    store = _store_from_args(args)
    if store is None:
        raise ReproError("campaign worker needs a result store (--store cannot be 'none')")
    summary = run_worker(
        args.name,
        store=store,
        worker_id=args.id,
        cache=_cache_from_args(args),
        use_cache=not args.no_cache,
        serial=args.serial,
        retries=args.retries,
        timeout_s=args.timeout,
        retry_backoff_s=args.retry_backoff,
        heartbeat_s=args.heartbeat,
        stale_after_s=args.stale_after,
        poll_s=args.poll,
        max_points=args.max_points,
        wait_for_stragglers=not args.no_wait,
        warm_start=not args.no_warm_start,
    )
    emit_out(summary.report())
    if summary.stopped_by_signal is not None:
        return 130
    return 1 if summary.failed or summary.timed_out else 0


class _ServeStop(Exception):
    """Raised by the serve signal handlers to unwind ``serve_forever``.

    ``server.shutdown()`` must not be called from a signal handler running
    inside the ``serve_forever`` thread (it blocks until the loop exits --
    a deadlock); raising through the loop instead unwinds cleanly.
    """


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.app import (
        SERVE_MAX_QUEUE_ENV,
        SERVE_PORT_ENV,
        ServeApp,
        create_server,
        open_serve_store,
    )

    store_arg = _store_from_args(args)
    if store_arg is None:
        raise ReproError(
            "repro serve needs a durable result store (--store cannot be 'none')"
        )
    port = (
        args.port
        if args.port is not None
        else int(os.environ.get(SERVE_PORT_ENV, DEFAULT_PORT))
    )
    max_queue = (
        args.max_queue
        if args.max_queue is not None
        else int(os.environ.get(SERVE_MAX_QUEUE_ENV, DEFAULT_MAX_QUEUE))
    )
    store = open_serve_store(store_arg)
    app = ServeApp(store, campaign=args.campaign, max_queue=max_queue)
    server = create_server(app, host=args.host, port=port)
    bound_host, bound_port = server.server_address[:2]
    emit_out(f"repro serve listening on http://{bound_host}:{bound_port}")
    emit_out(
        f"store: {store.path} (campaign {args.campaign!r}, max queue {max_queue})"
    )
    emit_out(
        f"drain the queue with: repro campaign worker {args.campaign} "
        f"--store {store.path}"
    )

    def _stop(signum: int, frame: object) -> None:
        raise _ServeStop(signum)

    previous_term = signal.signal(signal.SIGTERM, _stop)
    previous_int = signal.signal(signal.SIGINT, _stop)
    try:
        server.serve_forever(poll_interval=0.2)
    except _ServeStop as stop:
        # SIGTERM/SIGINT is the *intended* way to stop a daemon: exit 0.
        emit_out(f"received signal {stop.args[0]}, shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        server.server_close()
        store.close()
    return 0


def _print_stage_latencies(store: ResultStore, campaign: str) -> None:
    """The per-stage latency table of the campaign's latest metrics run."""
    from .runner.stages import PIPELINE_STAGES
    from .runner.store import METRIC_KIND_STAGE_TIME

    rows = store.metrics(campaign)
    stage_rows = {
        row["name"]: row for row in rows if row["kind"] == METRIC_KIND_STAGE_TIME
    }
    if not stage_rows:
        return
    ordered = [stage for stage in PIPELINE_STAGES if stage in stage_rows]
    ordered += [stage for stage in sorted(stage_rows) if stage not in PIPELINE_STAGES]
    emit_out(f"stage latency (metrics run {rows[0]['run_id']}):")
    emit_out(
        f"  {'stage':<12} {'count':>6} {'p50 s':>9} {'p90 s':>9} "
        f"{'p99 s':>9} {'total s':>9}"
    )
    for stage in ordered:
        row = stage_rows[stage]
        emit_out(
            f"  {stage:<12} {row['count']:>6} {row['p50']:>9.3f} "
            f"{row['p90']:>9.3f} {row['p99']:>9.3f} {row['total']:>9.3f}"
        )


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .runner.store import resolve_store

    store_path = _store_from_args(args)
    if store_path is None:
        raise ReproError("campaign status needs a result store (--store cannot be 'none')")
    with resolve_store(store_path) as store:
        if not args.name:
            campaigns = store.campaigns()
            if args.json:
                emit_out(json.dumps(dict(campaigns), indent=2, sort_keys=True))
                return 0
            if not campaigns:
                emit_out(f"store {store.path} has no campaigns")
                return 0
            emit_out(f"{len(campaigns)} campaign(s) in {store.path}")
            for name, counts in campaigns:
                total = sum(counts.values())
                line = (
                    f"  {name}: {counts['done']}/{total} done, "
                    f"{counts['failed']} failed, {counts['pending']} pending"
                )
                if counts.get("timed_out"):
                    line += f", {counts['timed_out']} timed out"
                emit_out(line)
            return 0
        records = store.points(args.name)
        if not records:
            known = ", ".join(name for name, _ in store.campaigns()) or "none"
            raise ReproError(f"store has no campaign {args.name!r}; campaigns: {known}")
        if args.json:
            payload = [
                {
                    "name": record.name,
                    "digest": record.digest,
                    "status": record.status,
                    "attempts": record.attempts,
                    "wall_time_s": record.wall_time_s,
                    "error": record.error,
                    "degraded": record.degraded,
                    "fallback_solver": record.fallback_solver,
                    "lease_owner": record.lease_owner,
                    "heartbeat_ts": record.heartbeat_ts,
                }
                for record in records
            ]
            emit_out(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        counts = {
            status: 0
            for status in ("pending", "running", "done", "failed", "timed_out")
        }
        for record in records:
            counts[record.status] += 1
        degraded = sum(1 for record in records if record.degraded)
        line = (
            f"campaign {args.name!r}: {counts['done']}/{len(records)} done, "
            f"{counts['failed']} failed, {counts['pending']} pending, "
            f"{counts['running']} running"
        )
        if counts["timed_out"]:
            line += f", {counts['timed_out']} timed out"
        if degraded:
            line += f", {degraded} degraded"
        emit_out(line)
        fleet = store.fleet(args.name)
        if fleet:
            emit_out(
                f"running leases by owner (stale after {args.stale_after:g}s):"
            )
            for row in fleet:
                oldest = row["oldest_heartbeat_age_s"]
                stale = " STALE" if oldest > args.stale_after else ""
                emit_out(
                    f"  {row['owner']}: {row['points']} point(s), "
                    f"last heartbeat {row['newest_heartbeat_age_s']:.1f}s ago "
                    f"(oldest {oldest:.1f}s){stale}"
                )
        width = max(len(record.name) for record in records)
        for record in records:
            wall = "" if record.wall_time_s is None else f" {record.wall_time_s:.2f}s"
            flags = ""
            if record.degraded:
                flags += f" degraded->{record.fallback_solver or '?'}"
            if record.status == "running" and record.lease_owner:
                flags += f" lease={record.lease_owner}"
            emit_out(
                f"  {record.name:<{width}}  {record.status:<9} "
                f"attempts={record.attempts}{wall}{flags}"
            )
            if record.status in ("failed", "timed_out") and record.error:
                emit_out(f"    {record.error.splitlines()[0]}")
        _print_stage_latencies(store, args.name)
    return 0


def _cmd_campaign_doctor(args: argparse.Namespace) -> int:
    from .runner.store import resolve_store

    store_path = _store_from_args(args)
    if store_path is None:
        raise ReproError("campaign doctor needs a result store (--store cannot be 'none')")
    with resolve_store(store_path) as store:
        report = store.integrity_report(args.name, stale_after_s=args.stale_after)
        emit_out(f"store: {report['path']} (schema v{report['schema_version']})")
        emit_out(f"sqlite integrity: {'ok' if report['sqlite_ok'] else 'FAILED'}")
        if not report["issues"]:
            emit_out("no issues found")
            return 0
        for issue in report["issues"]:
            emit_out(f"issue: {issue}")
        for kind, rows in (
            ("corrupt spec", report["corrupt_specs"]),
            ("corrupt result", report["corrupt_results"]),
            ("stale running", report["stale_running"]),
        ):
            for campaign, digest in rows:
                emit_out(f"  {kind}: {campaign} {digest[:12]}")
        if not args.repair:
            emit_out("run again with --repair to fix the issues above")
            return 1
        counts = store.repair(args.name, stale_after_s=args.stale_after)
        emit_out(
            f"repaired: {counts['results_discarded']} corrupt result(s) discarded, "
            f"{counts['stale_reclaimed']} stale lease(s) reclaimed, "
            f"{counts['specs_deleted']} unrecoverable row(s) deleted"
        )
        emit_out(
            "re-run the affected campaign(s) with `repro campaign run NAME` "
            "to recompute the demoted points"
        )
    return 0


def _cmd_campaign_export(args: argparse.Namespace) -> int:
    from .runner.store import resolve_store

    store_path = _store_from_args(args)
    if store_path is None:
        raise ReproError("campaign export needs a result store (--store cannot be 'none')")
    with resolve_store(store_path) as store:
        counts = store.status_counts(args.name)
        if not sum(counts.values()):
            known = ", ".join(name for name, _ in store.campaigns()) or "none"
            raise ReproError(f"store has no campaign {args.name!r}; campaigns: {known}")
        written = store.export(args.name, args.results)
    remaining = sum(counts.values()) - counts["done"]
    emit_out(f"{written} result(s) exported to {args.results}")
    if remaining:
        emit_err(
            f"warning: {remaining} point(s) not done yet (re-run `repro "
            f"campaign run {args.name}` to complete them)"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .runner.stages import run_scenario

    spec = _load_scenario(args.scenario)
    solvers = [name.strip() for name in args.solvers.split(",") if name.strip()]
    if not solvers:
        raise ReproError("--solvers needs at least one solver name")
    cache = _cache_from_args(args)
    rows = []
    for solver in solvers:
        result = run_scenario(spec.with_solver(solver), cache=cache, use_cache=not args.no_cache)
        rows.append(result)
    best = max(row.annual_energy_mwh for row in rows)
    emit_out(f"{spec.name}: N={spec.n_modules} ({len(rows)} solvers)")
    emit_out(f"  {'solver':<12} {'energy MWh/y':>13} {'vs best':>9} {'wiring m':>9} {'time s':>7}")
    for row in rows:
        delta = (
            0.0 if best <= 0 else 100.0 * (row.annual_energy_mwh - best) / best
        )
        emit_out(
            f"  {row.solver:<12} {row.annual_energy_mwh:>13.3f} {delta:>8.2f}% "
            f"{row.wiring_extra_length_m:>9.1f} {row.runtime_s:>7.2f}"
        )
    return 0


def _parse_axis_argument(text: str) -> SweepAxis:
    """Parse one ``--axis path=v1,v2,...`` flag into a :class:`SweepAxis`.

    Each comma-separated token is parsed as JSON when possible (numbers,
    booleans, ``null``) and kept as a plain string otherwise, so
    ``--axis weather.seed=1,2,3`` yields integers while
    ``--axis solver.name=greedy,traditional`` yields strings.
    """
    from .sweep import SweepAxis

    path, sep, values_text = text.partition("=")
    if not sep or not path or not values_text:
        raise ReproError(f"malformed --axis {text!r}; expected path=v1,v2,...")
    values: List[Any] = []
    for token in values_text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    if not values:
        raise ReproError(f"--axis {text!r} has no values")
    return SweepAxis(path, tuple(values))


def _load_sweep_plan(args: argparse.Namespace) -> SweepPlan:
    """Build the sweep plan from a plan file or from --base/--axis flags."""
    from .sweep import SweepPlan

    if args.plan:
        if args.base or args.axis:
            raise ReproError("pass either a plan file or --base/--axis, not both")
        if args.zip or args.name:
            raise ReproError(
                "--zip/--name only apply to ad-hoc --base/--axis sweeps; "
                "set the mode and name inside the plan file instead"
            )
        path = Path(args.plan)
        if not path.exists():
            raise ReproError(f"sweep plan file {args.plan!r} does not exist")
        return SweepPlan.load(path)
    if not args.base or not args.axis:
        raise ReproError("a sweep needs a plan file, or --base plus at least one --axis")
    base = _load_scenario(args.base)
    axes = tuple(_parse_axis_argument(text) for text in args.axis)
    return SweepPlan(
        name=args.name if args.name else f"sweep-{base.name}",
        base=base,
        axes=axes,
        mode="zip" if args.zip else "grid",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import run_sweep
    from .sweep.report import sweep_report

    plan = _load_sweep_plan(args)
    if args.save_plan:
        plan.save(args.save_plan)
        emit_out(f"sweep plan written to {args.save_plan}")
    cache = _cache_from_args(args)
    sweep = run_sweep(
        plan,
        cache=cache,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        store=_store_from_args(args),
        retries=args.retries,
        timeout_s=args.timeout,
        retry_backoff_s=args.retry_backoff,
        warm_start=True if args.warm_start else None,
    )
    artifact = sweep_report(sweep)
    emit_out(artifact.text("csv" if args.format == "csv" else "markdown"), end="")
    summary = sweep.summary()
    recomputes = summary["cache_recomputes_by_stage"]
    note = (
        ", ".join(f"{stage}={count}" for stage, count in sorted(recomputes.items()))
        if recomputes
        else "none"
    )
    emit_err(
        f"\nsweep {plan.name!r}: {sweep.n_points} points with {sweep.jobs} "
        f"worker(s) in {sweep.runtime_s:.2f}s; stage recomputations: {note}"
    )
    if sweep.campaign is not None:
        emit_err(
            f"campaign {sweep.campaign.campaign!r}: computed "
            f"{sweep.campaign.computed}, skipped {sweep.campaign.skipped}, "
            f"retried {sweep.campaign.retried}"
        )
    if args.output:
        sweep.save(args.output)
        emit_err(f"sweep result written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .sweep.report import generate_report

    kwargs: dict = {}
    if args.preset == "table1":
        from .experiments import CaseStudyConfig, Table1Config

        module_counts = tuple(
            int(token) for token in args.modules.split(",") if token.strip()
        )
        if not module_counts:
            raise ReproError("--modules needs at least one module count")
        config = Table1Config(
            module_counts=module_counts,
            series_length=args.series_length,
            case_study=CaseStudyConfig(
                scale=args.scale,
                time_step_minutes=args.step_minutes,
                day_stride=args.day_stride,
            ),
            solver=args.solver,
        )
        kwargs = {
            "config": config,
            "roofs": (
                tuple(token for token in args.roofs.split(",") if token.strip())
                if args.roofs
                else None
            ),
            "cache": _cache_from_args(args),
            "jobs": args.jobs,
            "use_cache": not args.no_cache,
        }
    artifact = generate_report(args.preset, **kwargs)
    text = artifact.text(args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        emit_out(f"{args.preset} report written to {args.output}")
    else:
        emit_out(text, end="")
    return 0


def _load_trace_events(path_text: str) -> List[dict]:
    path = Path(path_text)
    if not path.exists():
        raise ReproError(f"trace file {path_text!r} does not exist")
    events = telemetry.read_trace(path)
    if not events:
        raise ReproError(f"trace file {path_text!r} contains no events")
    return events


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    events = _load_trace_events(args.trace_file)
    emit_out(telemetry.render_summary(events, slowest=args.slowest))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    events = _load_trace_events(args.trace_file)
    payload = telemetry.chrome_trace(events)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        emit_out(
            f"chrome trace with {len(payload['traceEvents'])} event(s) "
            f"written to {args.output}"
        )
    else:
        emit_out(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class _ChoicesOnUse(collections.abc.Sequence):
    """Option choices read from a registry on use, not when the parser is built.

    Building the parser must not import the sweep package that owns the
    report presets, nor the solver registry and the placement code behind
    it.  With an explicit ``metavar``, argparse reads ``choices`` only to
    check a value or to print help.
    """

    def __init__(self, names: Callable[[], List[str]]) -> None:
        self._names = names

    def __getitem__(self, index):
        return self._names()[index]

    def __len__(self) -> int:
        return len(self._names())


def _report_presets() -> List[str]:
    from .sweep.report import available_presets

    return available_presets()


def _solver_names() -> List[str]:
    from .runner.solvers import available_solvers

    return available_solvers()


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, built afresh by :func:`main` on every call."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GIS-based PV floorplanning: scenario runner and batch executor.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-scenarios", help="show the built-in scenario catalog"
    )
    list_parser.add_argument("--json", action="store_true", help="emit JSON")
    list_parser.set_defaults(func=_cmd_list_scenarios)

    run_parser = subparsers.add_parser(
        "run", help="run one scenario (built-in name or JSON file)"
    )
    run_parser.add_argument("scenario", help="built-in scenario name or path to a JSON spec")
    run_parser.add_argument(
        "--solver",
        default=None,
        choices=_ChoicesOnUse(_solver_names),
        metavar="SOLVER",
        help="override the scenario's solver (%(choices)s)",
    )
    run_parser.add_argument("--output", default=None, help="write the result JSON here")
    _add_cache_arguments(run_parser)
    _add_trace_argument(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="run several solvers on one scenario and compare"
    )
    compare_parser.add_argument("scenario", help="built-in scenario name or JSON file")
    compare_parser.add_argument(
        "--solvers",
        default="greedy,traditional",
        help="comma-separated solver names (default: greedy,traditional)",
    )
    _add_cache_arguments(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    sweep_parser = subparsers.add_parser(
        "sweep", help="expand and run a declarative sweep through the cached runner"
    )
    sweep_parser.add_argument(
        "plan", nargs="?", default=None, help="sweep plan JSON file (see docs/cli.md)"
    )
    sweep_parser.add_argument(
        "--base", default=None, help="base scenario (built-in name or JSON file)"
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="sweep axis as dotted override path plus values (repeatable)",
    )
    sweep_parser.add_argument(
        "--zip", action="store_true", help="pair axes element-wise instead of the grid"
    )
    sweep_parser.add_argument("--name", default=None, help="name of the ad-hoc sweep")
    sweep_parser.add_argument(
        "--save-plan", default=None, help="write the expanded plan JSON here"
    )
    sweep_parser.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    sweep_parser.add_argument(
        "--warm-start",
        action="store_true",
        help="solve points in axis-ascending order, resuming each greedy point "
        "from the one n_modules step below it (results identical to cold)",
    )
    sweep_parser.add_argument(
        "--output", default=None, help="write the aggregated sweep result JSON here"
    )
    sweep_parser.add_argument(
        "--format",
        default="markdown",
        choices=("markdown", "csv"),
        help="stdout table format",
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=0, help="per-point retry budget (store-backed only)"
    )
    _add_robustness_arguments(sweep_parser)
    _add_store_argument(sweep_parser)
    _add_cache_arguments(sweep_parser)
    _add_trace_argument(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="durable, resumable fleet execution backed by the SQLite result store",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="enroll scenarios in a campaign and execute the missing points"
    )
    campaign_run.add_argument("name", help="campaign name (keys the store rows)")
    campaign_run.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names / JSON files (default: the campaign's stored "
        "points, or the whole built-in catalog for a new campaign)",
    )
    campaign_run.add_argument("--jobs", type=int, default=None, help=_JOBS_HELP)
    campaign_run.add_argument(
        "--retries", type=int, default=0, help="per-point retry budget within this run"
    )
    _add_robustness_arguments(campaign_run)
    _add_store_argument(campaign_run)
    _add_cache_arguments(campaign_run)
    _add_trace_argument(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_enroll = campaign_sub.add_parser(
        "enroll",
        help="enroll scenarios as campaign points without executing them "
        "(feed a worker fleet)",
    )
    campaign_enroll.add_argument("name", help="campaign name (keys the store rows)")
    campaign_enroll.add_argument(
        "scenarios",
        nargs="*",
        help="scenario names / JSON files (default: the whole built-in catalog)",
    )
    _add_store_argument(campaign_enroll)
    campaign_enroll.set_defaults(func=_cmd_campaign_enroll)

    campaign_worker = campaign_sub.add_parser(
        "worker",
        help="join a campaign as one worker of a cooperative fleet "
        "(claim -> run -> heartbeat -> mark until the queue drains)",
    )
    campaign_worker.add_argument("name", help="campaign name to pull points from")
    campaign_worker.add_argument(
        "--id",
        default=None,
        metavar="WORKER_ID",
        help="lease identity written into claimed rows (default: host:pid#n)",
    )
    campaign_worker.add_argument(
        "--serial",
        action="store_true",
        help="run points in-process instead of a single-process pool "
        "(no mid-point heartbeats, post-hoc timeouts)",
    )
    campaign_worker.add_argument(
        "--retries", type=int, default=0, help="per-point retry budget"
    )
    campaign_worker.add_argument(
        "--no-warm-start",
        action="store_true",
        help="ignore warm-start wiring recorded at enrollment; every claimed "
        "point solves cold",
    )
    campaign_worker.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT_S,
        metavar="SECONDS",
        help=f"mid-point heartbeat cadence (default: {DEFAULT_HEARTBEAT_S:g})",
    )
    campaign_worker.add_argument(
        "--stale-after",
        type=float,
        default=DEFAULT_STALE_AFTER_S,
        metavar="SECONDS",
        help="heartbeat age beyond which a sibling's running row is adopted "
        f"(default: {DEFAULT_STALE_AFTER_S:g})",
    )
    campaign_worker.add_argument(
        "--poll",
        type=float,
        default=DEFAULT_POLL_S,
        metavar="SECONDS",
        help="sleep between claim attempts while waiting on siblings "
        f"(default: {DEFAULT_POLL_S:g})",
    )
    campaign_worker.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="stop after claiming N points (default: run until drained)",
    )
    campaign_worker.add_argument(
        "--no-wait",
        action="store_true",
        help="exit as soon as no row is claimable instead of waiting to "
        "adopt siblings' stale leases",
    )
    _add_robustness_arguments(campaign_worker)
    _add_store_argument(campaign_worker)
    _add_cache_arguments(campaign_worker)
    _add_trace_argument(campaign_worker)
    campaign_worker.set_defaults(func=_cmd_campaign_worker)

    campaign_status = campaign_sub.add_parser(
        "status", help="inspect campaign state (per-point when a name is given)"
    )
    campaign_status.add_argument(
        "name", nargs="?", default=None, help="campaign name (omit to list campaigns)"
    )
    campaign_status.add_argument("--json", action="store_true", help="emit JSON")
    campaign_status.add_argument(
        "--stale-after",
        type=float,
        default=DEFAULT_STALE_AFTER_S,
        metavar="SECONDS",
        help="heartbeat age beyond which a running lease is flagged STALE "
        f"in the fleet view (default: {DEFAULT_STALE_AFTER_S:g})",
    )
    _add_store_argument(campaign_status)
    campaign_status.set_defaults(func=_cmd_campaign_status)

    campaign_doctor = campaign_sub.add_parser(
        "doctor",
        help="audit the result store for corruption and dead-driver leases "
        "(--repair to fix)",
    )
    campaign_doctor.add_argument(
        "name", nargs="?", default=None, help="campaign name (omit to audit every campaign)"
    )
    campaign_doctor.add_argument(
        "--repair",
        action="store_true",
        help="fix the issues found: demote corrupt/stale rows so a re-run "
        "recomputes them, delete unrecoverable rows",
    )
    campaign_doctor.add_argument(
        "--stale-after",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="heartbeat age beyond which a running row counts as abandoned "
        "(default: 300)",
    )
    _add_store_argument(campaign_doctor)
    campaign_doctor.set_defaults(func=_cmd_campaign_doctor)

    campaign_export = campaign_sub.add_parser(
        "export",
        help="write the campaign's completed results as JSONL, one "
        "record per point in enrollment order",
    )
    campaign_export.add_argument("name", help="campaign name")
    campaign_export.add_argument(
        "--results", required=True, help="JSONL output path"
    )
    _add_store_argument(campaign_export)
    campaign_export.set_defaults(func=_cmd_campaign_export)

    serve_parser = subparsers.add_parser(
        "serve",
        help="HTTP planning service: memo hits answered from the store, "
        "misses enqueued for a worker fleet",
    )
    serve_parser.add_argument(
        "--host",
        default=DEFAULT_HOST,
        help=f"bind address (default: {DEFAULT_HOST})",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "bind port; 0 picks a free port "
            f"(default: $REPRO_SERVE_PORT or {DEFAULT_PORT})"
        ),
    )
    serve_parser.add_argument(
        "--campaign",
        default=DEFAULT_SERVE_CAMPAIGN,
        help=(
            "campaign cache misses are enrolled into "
            f"(default: {DEFAULT_SERVE_CAMPAIGN!r})"
        ),
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help=(
            "refuse new work (HTTP 429) beyond this many pending+running "
            f"points (default: $REPRO_SERVE_MAX_QUEUE or {DEFAULT_MAX_QUEUE})"
        ),
    )
    _add_store_argument(serve_parser)
    _add_trace_argument(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    report_parser = subparsers.add_parser(
        "report", help="generate a paper-artifact report preset"
    )
    report_parser.add_argument(
        "--preset",
        required=True,
        choices=_ChoicesOnUse(_report_presets),
        metavar="PRESET",
        help="which artifact to generate (%(choices)s)",
    )
    report_parser.add_argument(
        "--format",
        default="markdown",
        choices=("markdown", "csv"),
        help="artifact format",
    )
    report_parser.add_argument("--output", default=None, help="write the artifact here")
    report_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="[table1] case-study scale (1.0 = paper-sized roofs)",
    )
    report_parser.add_argument(
        "--modules",
        default="16,32",
        help="[table1] comma-separated module counts (default: 16,32)",
    )
    report_parser.add_argument(
        "--series-length",
        type=int,
        default=8,
        help="[table1] modules per series string (default: 8)",
    )
    report_parser.add_argument(
        "--roofs", default=None, help="[table1] comma-separated subset of roof names"
    )
    report_parser.add_argument(
        "--step-minutes",
        type=float,
        default=60.0,
        help="[table1] simulation time step (default: 60)",
    )
    report_parser.add_argument(
        "--day-stride",
        type=int,
        default=7,
        help="[table1] simulate every k-th day (default: 7)",
    )
    report_parser.add_argument(
        "--solver",
        default="greedy",
        choices=_ChoicesOnUse(_solver_names),
        metavar="SOLVER",
        help="[table1] proposed-placement solver (%(choices)s; default: greedy)",
    )
    report_parser.add_argument("--jobs", type=int, default=None, help=f"[table1] {_JOBS_HELP}")
    _add_cache_arguments(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect and convert recorded JSONL span traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="aggregated timing tree of a merged trace"
    )
    trace_summary.add_argument("trace_file", help="merged trace JSONL path")
    trace_summary.add_argument(
        "--slowest",
        type=int,
        default=5,
        help="how many slowest individual spans to list (default: 5)",
    )
    trace_summary.set_defaults(func=_cmd_trace_summary)

    trace_export = trace_sub.add_parser(
        "export", help="convert a trace for external viewers"
    )
    trace_export.add_argument("trace_file", help="merged trace JSONL path")
    trace_export.add_argument(
        "--format",
        default="chrome",
        choices=("chrome",),
        help="output format (Chrome Trace Event JSON for chrome://tracing)",
    )
    trace_export.add_argument(
        "--output", default=None, help="write the converted trace here (default: stdout)"
    )
    trace_export.set_defaults(func=_cmd_trace_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    telemetry.configure_cli_logging()
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    explicit_trace = bool(getattr(args, "trace", None))
    if explicit_trace:
        telemetry.configure(args.trace)
    else:
        # Honour $REPRO_TRACE changes between in-process invocations.
        telemetry.configure_from_env()
    try:
        return args.func(args)
    except ReproError as exc:
        emit_error(f"error: {exc}")
        return 2
    except KeyboardInterrupt as exc:
        # SIGINT/SIGTERM during a batch/campaign: in-flight points were
        # already marked failed ("interrupted") by the runner's handlers.
        emit_error(f"interrupted: {exc or 'stopped by signal'}")
        return 130
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro list-scenarios | head`) closed
        # the pipe; exit quietly with the conventional SIGPIPE status.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141
    finally:
        merged = telemetry.merge_active_trace()
        if merged is not None:
            emit_diagnostic(f"trace merged into {merged}")
        if explicit_trace:
            # Keep in-process invocations hermetic: an explicit --trace
            # applies to this command only, not to later main() calls.
            telemetry.configure(None)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
