"""The three workloads: what each sets up, times, and checks.

Each workload reports its end-to-end figures under the generic names of
``BENCHMARK.json`` (``op_s``, ``ops_per_s``, ``op2_s``, ``op3_s``; see
:class:`~perfbench.spans.Samples` for the windowed statistic) and, on its
report line, the plain whole-run medians under the names performance claims cite
(``cold_plan_s.p50``, ``hit_rps``, ...).  ``FIGURES`` maps one to the other.

In a traced run the same loop runs with the benchmark's spans switched on
for every other operation, so ``telemetry.overhead_s`` compares the two
halves on the same inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.runner.batch import run_batch
from repro.runner.cache import StageCache
from repro.runner.stages import ScenarioResult, run_scenario
from repro.scenario import ScenarioSpec
from repro.serve.client import ServeClient
from repro.sweep import run_sweep

from . import scenarios
from .sandbox import BenchError, Sandbox, nproc, read_line
from .spans import Checks, Samples, Tracer, median, percentile

#: Statistics of a sample list: windowed latency and rate (see
#: :class:`~perfbench.spans.Samples`).
LATENCY, RATE = "latency", "rate"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3

CACHEABLE_STAGES = ("scene", "grid", "solar", "suitability")


def fingerprint(result: ScenarioResult) -> str:
    return json.dumps(result.fingerprint(), sort_keys=True)


def glue_s(result: ScenarioResult) -> float:
    """``run_scenario`` wall time not covered by any recorded stage."""
    return result.runtime_s - sum(result.stage_times_s.values())


def status_layers(statuses: Counter) -> Dict[str, int]:
    """``serve.status_*`` counts: 200, 202 and 429 alone, other 4xx, 5xx."""
    counts = {f"serve.status_{code}": statuses[code] for code in (200, 202, 429)}
    counts["serve.status_4xx"] = sum(
        n for code, n in statuses.items() if 400 <= code < 500 and code != 429
    )
    counts["serve.status_5xx"] = sum(n for code, n in statuses.items() if code >= 500)
    return counts


def overhead_s(traced: Dict[str, List[float]], untraced: Dict[str, List[float]]) -> float:
    """Traced minus untraced median per operation kind, weighted by samples.

    The weighting lets thousands of millisecond hits outvote a handful of
    one-second processes, whose run-to-run noise dwarfs any span cost.
    """
    pairs = [(traced[key], untraced[key]) for key in traced if untraced.get(key)]
    weight = sum(len(t) + len(u) for t, u in pairs)
    if not weight:
        return 0.0
    return sum((median(t) - median(u)) * (len(t) + len(u)) for t, u in pairs) / weight


class Workload:
    """Shared run skeleton: repeated set-up, a timed loop, post-run checks."""

    name = ""
    #: Generic end-to-end metric -> (sample name, statistic, cited name).
    FIGURES: Dict[str, Tuple[str, str, str]] = {}

    def __init__(self, seed: int, seconds: float, tracer: Tracer, sandbox: Sandbox) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.sb = sandbox
        self.jobs = nproc()
        self.checks = Checks()
        self.samples = Samples()
        self.traced: Dict[str, List[float]] = {}
        self.untraced: Dict[str, List[float]] = {}
        #: Per-layer figures the loop itself measures (traced runs report them).
        self.loop_layers: Dict[str, float] = {}
        self._ops: Counter = Counter()
        self._lock = threading.Lock()

    # -- the run --------------------------------------------------------------

    def run(self) -> Tuple[float, Dict[str, float]]:
        """Set up ``SETUP_ROUNDS`` times, measure, check; ``(setup_s, metrics)``."""
        rounds = []
        for index in range(SETUP_ROUNDS):
            directory = self.sb.root / f"round{index}"
            directory.mkdir()
            started = time.perf_counter()
            self.setup(directory, last=index == SETUP_ROUNDS - 1)
            rounds.append(time.perf_counter() - started)
        try:
            self.measure()
        finally:
            self.teardown()
        self.verify()
        self.loop_layers["telemetry.overhead_s"] = overhead_s(self.traced, self.untraced)
        return median(rounds), self.metrics()

    def setup(self, directory: Path, last: bool) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def verify(self) -> None:
        pass

    def metrics(self) -> Dict[str, float]:
        figures = {}
        for metric, (sample, statistic, _) in self.FIGURES.items():
            if not self.samples.has(sample):
                raise BenchError(f"{self.name} measured no {sample} operations")
            if statistic == RATE:
                figures[metric] = self.samples.rate(sample)
            else:
                figures[metric] = self.samples.latency(sample)
        return figures

    def report(self) -> Dict[str, object]:
        """Whole-run medians, tails and rates under their cited names."""
        plain: Dict[str, object] = {}
        for sample, statistic, alias in self.FIGURES.values():
            values = self.samples.values(sample)
            if statistic == RATE:
                plain[alias] = self.samples.overall_rate(sample)
            else:
                plain[alias] = median(values)
            plain[f"n.{sample}"] = len(values)
        return plain

    # -- helpers --------------------------------------------------------------

    def next_op(self, key: str) -> Tuple[int, bool]:
        """A fresh operation id and whether its spans are recorded.

        A traced run records every other operation of each kind, so traced
        and untraced timings of the same inputs interleave in one run.
        """
        with self._lock:
            self._ops[key] += 1
            self._ops[""] += 1
            return self._ops[""], self.tracer.enabled and self._ops[key] % 2 == 0

    def timed_op(self, kind: str, key: str, fn: Callable[[], object]) -> Tuple[object, float]:
        op, traced = self.next_op(key)
        started = time.perf_counter()
        if traced:
            with self.tracer.span(kind, op=op, key=key):
                value = fn()
        else:
            value = fn()
        seconds = time.perf_counter() - started
        (self.traced if traced else self.untraced).setdefault(key, []).append(seconds)
        return value, seconds

    def layer_specs(self) -> List[ScenarioSpec]:
        """The distinct roofs the layer probe decomposes for this workload."""
        raise NotImplementedError

    def store_path(self) -> Optional[Path]:
        """The workload's result store at its final size (None: it has none)."""
        return None


class ColdRoofs(Workload):
    """The paper's task: plan seeded roofs from scratch, one at a time, in-process."""

    name = "cold-roofs"
    FIGURES = {
        "op_s": ("cold", LATENCY, "cold_plan_s.p50"),
        "ops_per_s": ("cold", RATE, "cold_plans_per_s"),
        "op2_s": ("residential", LATENCY, "residential_roof_plan_s.p50"),
        "op3_s": ("industrial", LATENCY, "industrial_roof_plan_s.p50"),
    }

    def setup(self, directory: Path, last: bool) -> None:
        self.specs = scenarios.cold_roofs(self.seed)
        self.directory = directory
        # First-call costs (lazy imports, allocator growth) belong to set-up.
        warmup = scenarios.make_spec(
            scenarios.COLD_SLOTS[0], self.seed, "warmup", 4, scenarios.GREEDY
        )
        run_scenario(warmup, cache=StageCache(root=directory / "warmup-cache"))
        shutil.rmtree(directory / "warmup-cache", ignore_errors=True)

    def measure(self) -> None:
        started = time.perf_counter()
        self.results: List[ScenarioResult] = []
        # Two residential and two industrial roofs: two samples per window.
        residential = {spec.name for spec in self.specs[:2]}
        industrial = {spec.name for spec in self.specs[-2:]}
        plan = cycle = 0
        # Whole cycles over the size ladder, so every window sees the same mix.
        while time.perf_counter() - started < self.seconds:
            cycle += 1
            for spec in self.specs:
                plan += 1
                cache = StageCache(root=self.directory / f"plan{plan}")
                try:
                    cold, cold_s = self.timed_op(
                        "cold_plan", spec.name, lambda: run_scenario(spec, cache=cache)
                    )
                    writes = cache.stats.writes
                    warm, warm_s = self.timed_op(
                        "warm_plan", "warm:" + spec.name, lambda: run_scenario(spec, cache=cache)
                    )
                except ReproError as exc:
                    self.checks.record(False, f"{spec.name}: {exc}")
                    continue
                finally:
                    shutil.rmtree(cache.root, ignore_errors=True)
                self.samples.add("cold", cold_s, cycle)
                self.samples.add("warm", warm_s, cycle)
                if spec.name in residential:
                    self.samples.add("residential", cold_s, cycle)
                if spec.name in industrial:
                    self.samples.add("industrial", cold_s, cycle)
                self.results.append(cold)
                self.checks.record(
                    writes == len(CACHEABLE_STAGES)
                    and not any(cold.stage_cached.values())
                    and cold.annual_energy_mwh > 0,
                    f"{spec.name}: cold plan wrote {writes} entries, energy "
                    f"{cold.annual_energy_mwh}",
                )
                self.checks.record(
                    fingerprint(warm) == fingerprint(cold)
                    and all(warm.stage_cached[s] for s in CACHEABLE_STAGES),
                    f"{spec.name}: warm re-run differs from the cold plan",
                )
        self.loop_layers["stages.glue_s"] = median([glue_s(r) for r in self.results])
        self.loop_layers["cache.recomputes"] = sum(
            1 for r in self.results for s in CACHEABLE_STAGES if not r.stage_cached[s]
        )

    def layer_specs(self) -> List[ScenarioSpec]:
        return self.specs


class WarmSweep(Workload):
    """Design iteration: store-backed warm-start sweeps over cached roofs."""

    name = "warm-sweep"
    FIGURES = {
        "op_s": ("ladder", LATENCY, "ladder_sweep_s.p50"),
        "ops_per_s": ("sweep", RATE, "sweep_points_per_s"),
        "op2_s": ("point", LATENCY, "point_runtime_s.p50"),
        "op3_s": ("ilp", LATENCY, "ilp_sweep_s.p50"),
    }

    def setup(self, directory: Path, last: bool) -> None:
        self.plans = scenarios.sweep_plans(self.seed)
        self.cache_dir = directory / "cache"
        self.store = directory / "store.sqlite"
        cache = StageCache(root=self.cache_dir)
        for plan in self.plans:
            result = run_scenario(plan.base, cache=cache)
            if result.annual_energy_mwh <= 0:
                raise BenchError(f"{plan.base.name}: cache fill produced no energy")

    def measure(self) -> None:
        started = time.perf_counter()
        self.point_fingerprints: List[Tuple[str, str]] = []
        glue: List[float] = []
        recomputes = 0
        iteration = 0
        while time.perf_counter() - started < self.seconds:
            iteration += 1
            warm_started = 0
            for plan in self.plans:
                campaign = f"bench-{iteration}:{plan.name}"
                try:
                    sweep, wall = self.timed_op(
                        "sweep",
                        plan.name,
                        lambda: run_sweep(
                            plan,
                            cache=StageCache(root=self.cache_dir),
                            jobs=self.jobs,
                            store=str(self.store),
                            campaign=campaign,
                            warm_start=True,
                        ),
                    )
                except ReproError as exc:
                    for _ in range(plan.n_points):
                        self.checks.record(False, f"{plan.name}: {exc}")
                    continue
                results = sweep.results()
                self.samples.add("ilp" if plan is self.plans[-1] else "ladder", wall, iteration)
                self.samples.add("sweep", wall, iteration, work=sweep.n_points)
                self.samples.add(
                    "batch_overhead",
                    (wall - sum(r.runtime_s for r in results) / self.jobs) / sweep.n_points,
                    iteration,
                )
                for result in results:
                    self.samples.add("point", result.runtime_s, iteration)
                    glue.append(glue_s(result))
                misses = sweep.stage_recompute_counts()
                recomputes += sum(misses.get(s, 0) for s in CACHEABLE_STAGES)
                warm_started += sweep.warm_started_count()
                summary = sweep.campaign
                complete = (
                    summary is not None
                    and summary.computed == plan.n_points == sweep.n_points
                    and summary.skipped == 0
                )
                for result in results:
                    self.point_fingerprints.append((result.scenario, fingerprint(result)))
                    self.checks.record(
                        complete
                        and all(result.stage_cached.get(s) for s in CACHEABLE_STAGES),
                        f"{result.scenario}: incomplete campaign or a cache miss ({misses})",
                    )
        self.loop_layers["stages.glue_s"] = median(glue)
        self.loop_layers["batch.driver_s_per_point"] = median(self.samples.values("batch_overhead"))
        self.loop_layers["cache.recomputes"] = recomputes
        self.loop_layers["core.warm_started"] = warm_started

    def verify(self) -> None:
        # Cold, cache-less references, computed once per point after the
        # timed loop so they cost the measurement nothing.
        references = {
            spec.name: fingerprint(run_scenario(spec, use_cache=False))
            for plan in self.plans
            for spec in plan.specs()
        }
        for name, observed in self.point_fingerprints:
            if observed != references.get(name):
                self.checks.problem(f"{name}: sweep result differs from its cold reference")

    def layer_specs(self) -> List[ScenarioSpec]:
        return [plan.base for plan in self.plans]

    def store_path(self) -> Optional[Path]:
        return self.store

    def report(self) -> Dict[str, object]:
        return {**super().report(), "jobs": self.jobs}


class Service(Workload):
    """``repro serve``: closed-loop hit phases taking turns with CLI runs and misses."""

    name = "service"
    FIGURES = {
        "op_s": ("hit", LATENCY, "hit_latency_s.p50"),
        "ops_per_s": ("hit", RATE, "hit_rps"),
        "op2_s": ("run", LATENCY, "run_process_s.p50"),
        "op3_s": ("miss", LATENCY, "miss_to_done_s.p50"),
    }
    #: Windows per run for the windowed statistics.
    WINDOWS = 8
    #: Seconds of back-to-back hits before each launched process.
    HIT_PHASE_S = 0.3
    #: Untimed hits before the loop, so first-request costs stay out of it.
    WARMUP_HITS = 50
    POLL_S = 0.02
    OP_TIMEOUT_S = 60.0

    def setup(self, directory: Path, last: bool) -> None:
        specs = scenarios.hit_set(self.seed)
        self.cache_dir = directory / "cache"
        self.store = directory / "store.sqlite"
        batch = run_batch(
            specs,
            cache=StageCache(root=self.cache_dir),
            jobs=self.jobs,
            store=str(self.store),
            campaign="bench-hits",
        )
        if batch.campaign is None or batch.campaign.done != len(specs):
            raise BenchError("service set-up could not complete the hit set")
        self.references = {r.scenario: fingerprint(r) for r in batch.results}
        self.hit_specs = specs
        self.run_files = []
        for spec in specs:
            path = directory / f"{spec.name}.json"
            spec.save(path)
            self.run_files.append((spec.name, path))
        self.bodies = [
            (spec.name, body) for spec in specs for body in scenarios.request_bodies(spec)
        ]
        self.server = self.sb.spawn(
            ["-m", "repro", "serve", "--port", "0", "--store", str(self.store)],
            stdout=subprocess.PIPE,
        )
        line = read_line(self.server, "repro serve listening on http://", 60.0)
        # The program's own client: one connection per request, like its users.
        self.client = ServeClient(line.rsplit(" ", 1)[-1], timeout_s=self.OP_TIMEOUT_S)
        health = self.client.healthz()
        if health.status != 200:
            raise BenchError(f"repro serve health check answered {health.status}")
        self.directory = directory
        if not last:
            self.sb.stop(self.server)

    def measure(self) -> None:
        self.statuses: Counter = Counter()
        self.run_results: List[ScenarioResult] = []
        self.misses: List[Tuple[ScenarioSpec, Optional[str]]] = []
        # Hits and launched processes take turns.  Run side by side on a
        # 2-CPU machine, the share of hits that waited behind an importing
        # interpreter or a worker's store writes changed from run to run, and
        # with it hit p99 and hit rate (26 % spread between runs of the same
        # code).  Hits run with the client and the server on one CPU; the
        # launched processes get the others (children inherit the affinity).
        cpus = set(os.sched_getaffinity(0))
        hit_cpus = {min(cpus)}
        launcher_cpus = cpus - hit_cpus or cpus
        os.sched_setaffinity(self.server.pid, hit_cpus)
        os.sched_setaffinity(0, hit_cpus)
        self._hits = 0
        try:
            self._hit_phase(self.WARMUP_HITS, None)
            self.started = time.perf_counter()
            deadline = self.started + self.seconds
            step = 0
            while time.perf_counter() < deadline:
                os.sched_setaffinity(0, hit_cpus)
                self._hit_phase(None, min(deadline, time.perf_counter() + self.HIT_PHASE_S))
                os.sched_setaffinity(0, launcher_cpus)
                if step % 2 == 0:
                    self._cli_run(step // 2)
                else:
                    self._miss(step // 2)
                step += 1
        finally:
            os.sched_setaffinity(0, cpus)
        self.loop_layers["stages.glue_s"] = median([glue_s(r) for r in self.run_results])
        self.loop_layers["cache.recomputes"] = sum(
            1 for r in self.run_results for s in CACHEABLE_STAGES if not r.stage_cached[s]
        )
        self.loop_layers["worker.spawn_to_exit_s"] = median(self.samples.values("worker"))
        self.loop_layers["worker.points"] = len(self.samples.values("worker"))
        self.loop_layers.update(status_layers(self.statuses))

    def _window(self) -> int:
        return int((time.perf_counter() - self.started) * self.WINDOWS / self.seconds)

    def _hit_phase(self, count: Optional[int], until: Optional[float]) -> None:
        """Post done scenarios back to back: ``count`` untimed ones, or timed until ``until``."""
        sent = 0
        while (sent < count) if until is None else (time.perf_counter() < until):
            name, body = self.bodies[self._hits % len(self.bodies)]
            self._hits += 1
            sent += 1
            try:
                response, seconds = self.timed_op(
                    "hit", "hit", lambda: self.client.plan_raw(body)
                )
            except OSError as exc:  # refused, reset or timed out
                self.checks.record(False, f"hit {name}: {exc}")
                continue
            if until is not None:
                self.samples.add("hit", seconds, self._window())
            self.statuses[response.status] += 1
            ok = response.status == 200 and response.payload.get("cached") is True
            if ok:
                result = ScenarioResult.from_dict(response.payload["result"])
                ok = fingerprint(result) == self.references[name]
            self.checks.record(ok, f"hit {name}: status {response.status}")

    def _cli_run(self, index: int) -> None:
        name, path = self.run_files[index % len(self.run_files)]
        output = self.directory / f"run{index}.json"
        args = ["-m", "repro", "run", str(path), "--cache-dir", str(self.cache_dir),
                "--output", str(output)]
        (code, process_s), _ = self.timed_op(
            "run_process", "run", lambda: self.sb.run(args, self.OP_TIMEOUT_S)
        )
        self.samples.add("run", process_s, self._window())
        ok = code == 0 and output.exists()
        if ok:
            result = ScenarioResult.from_dict(json.loads(output.read_text()))
            self.run_results.append(result)
            ok = fingerprint(result) == self.references[name]
        self.checks.record(ok, f"repro run {name}: exit {code}")

    def _miss(self, index: int) -> None:
        spec = scenarios.novel_scenario(self.seed, index)
        worker_args = ["-m", "repro", "campaign", "worker", "serve", "--store",
                       str(self.store), "--cache-dir", str(self.cache_dir)]

        def miss_to_done() -> Tuple[int, Optional[dict], float, float]:
            posted = time.perf_counter()
            response = self.client.plan(spec.to_dict())
            self.statuses[response.status] += 1
            if response.status != 202:
                return response.status, None, 0.0, 0.0
            spawned = time.perf_counter()
            worker = self.sb.spawn(worker_args)
            record = None
            while time.perf_counter() < spawned + self.OP_TIMEOUT_S:
                record = self.client.request_status(response.payload["request_id"]).payload
                if record.get("status") not in ("pending", "running"):
                    break
                time.sleep(self.POLL_S)
            reported = time.perf_counter()
            self.sb.reap(worker, self.OP_TIMEOUT_S)
            return response.status, record, reported - posted, time.perf_counter() - spawned

        try:
            (status, record, miss_s, worker_s), _ = self.timed_op("miss", "miss", miss_to_done)
        except OSError as exc:  # refused, reset or timed out
            self.checks.record(False, f"miss {spec.name}: {exc}")
            return
        done = record is not None and record.get("status") == "done"
        observed = None
        if done:
            self.samples.add("miss", miss_s, self._window())
            self.samples.add("worker", worker_s, self._window())
            observed = fingerprint(ScenarioResult.from_dict(record["result"]))
        self.misses.append((spec, observed))
        self.checks.record(done, f"miss {spec.name}: status {status}, record {record}")

    def teardown(self) -> None:
        self.sb.stop(self.server)

    def verify(self) -> None:
        for spec, observed in self.misses:
            if observed is None:
                continue  # already counted as failed
            if observed != fingerprint(run_scenario(spec, use_cache=False)):
                self.checks.problem(f"miss {spec.name}: result differs from its reference")

    def layer_specs(self) -> List[ScenarioSpec]:
        return self.hit_specs

    def store_path(self) -> Optional[Path]:
        return self.store

    def report(self) -> Dict[str, object]:
        return {
            **super().report(),
            "hit_latency_s.p99": percentile(self.samples.values("hit"), 99),
            "statuses": dict(self.statuses),
        }


WORKLOADS = {cls.name: cls for cls in (ColdRoofs, WarmSweep, Service)}
