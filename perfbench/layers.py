"""Per-layer probe of a traced run: each layer timed through its public functions.

After a traced workload loop, the probe decomposes the workload's own roofs
layer by layer -- scene, grid, weather, horizon, field, suitability,
solvers, evaluation, stage cache, result store, service handler, worker and
CLI -- calling each public function from the benchmark inside a span.
Figures the loop measured itself (stage glue, per-point driver overhead,
worker and HTTP figures of ``service``) take precedence over the probe's.

Pipeline, solver and stage-cache times are seconds summed over the
workload's roofs (median over probe passes); store, handler, CLI, import
and process figures are medians per call.  The ``solar.*`` and ``work.*``
counts are computed from the arrays, so they repeat exactly for a seed and
a later kernel change can quote work per byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sqlite3
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from repro import cli
from repro.core.evaluation import PlacementEvaluator
from repro.core.greedy import greedy_floorplan
from repro.core.ilp import ILPConfig, ilp_floorplan
from repro.core.problem import FloorplanProblem, default_topology
from repro.core.suitability import SuitabilityConfig, compute_suitability
from repro.core.traditional import traditional_floorplan
from repro.gis.gridding import make_roof_grid
from repro.gis.suitable_area import suitable_grid_for_scene
from repro.gis.synthetic import build_roof_scene
from repro.runner.batch import run_batch
from repro.runner.cache import StageCache
from repro.runner.solvers import WarmStart
from repro.runner.stages import scenario_content_digest
from repro.runner.store import ResultStore
from repro.scenario import ScenarioSpec
from repro.serve.app import ServeApp, create_server, open_serve_store
from repro.serve.client import ServeClient
from repro.solar.irradiance_map import compute_roof_solar_field
from repro.solar.shading import compute_horizon_map

from . import scenarios
from .sandbox import BenchError, Sandbox, tree_bytes
from .spans import Tracer, median
from .workloads import Workload, status_layers

#: Probe passes over the roofs (fewer when a pass is slow).
PASSES = 3
PASS_BUDGET_S = 6.0
#: Calls per store / handler measurement.
CALLS = 20
PROCESS_REPEATS = 5

FLOAT32_BYTES = 4


def _span_call(tracer: Tracer, name: str, totals: Dict[str, float], fn, *args, **kwargs):
    with tracer.span(name):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        totals[name] = totals.get(name, 0.0) + time.perf_counter() - started
    return value


def _suitability_payload(spec: ScenarioSpec, problem: FloorplanProblem) -> dict:
    """The stage-cache key ``run_scenario`` files a suitability map under."""
    return {
        "stage": "suitability",
        "solar": spec.solar_payload(),
        "module": dataclasses.asdict(problem.datasheet),
        "percentile": problem.suitability_percentile,
    }


class Probe:
    """One traced run's layer measurements on one workload's inputs."""

    def __init__(self, workload: Workload, tracer: Tracer, sandbox: Sandbox) -> None:
        self.workload = workload
        self.tracer = tracer
        self.sb = sandbox
        self.root = sandbox.root / "probe"
        self.root.mkdir()
        self.specs = workload.layer_specs()
        self.layers: Dict[str, float] = {}

    def run(self) -> Dict[str, float]:
        with self.tracer.span("probe.processes"):
            self._processes()
        passes: List[Dict[str, float]] = []
        started = time.perf_counter()
        while len(passes) < PASSES and (
            not passes or time.perf_counter() - started < PASS_BUDGET_S
        ):
            with self.tracer.span("probe.pipeline", op=-len(passes) - 1):
                passes.append(self._pipeline(len(passes)))
        for name in passes[0]:
            self.layers[name] = median([p[name] for p in passes])
        with self.tracer.span("probe.store"):
            self._store_and_batch()
        with self.tracer.span("probe.serve"):
            self._serve()
        if "worker.spawn_to_exit_s" not in self.workload.loop_layers:
            with self.tracer.span("probe.worker"):
                self._worker()
        self.layers.update(self.workload.loop_layers)
        if self.workload.samples.has("hit"):
            self.layers["serve.transport_s"] = (
                median(self.workload.samples.values("hit")) - self.layers["serve.handler_s"]
            )
        return self.layers

    # -- processes: interpreter, import, CLI ------------------------------------

    def _processes(self) -> None:
        """``import repro.cli`` in a fresh interpreter, and the ``run`` command.

        The bare and the importing interpreter are interleaved so drift on a
        shared machine hits both alike.  ``cli.run_s`` calls the CLI's
        ``main(["run", ...])`` in this already-importing process on a warm
        cache: a ``repro run`` process minus interpreter start-up and
        imports, measured directly rather than as a small difference of two
        large, noisy process times.
        """
        commands = {"bare": ["-c", "pass"], "import": ["-c", "import repro.cli"]}
        walls: Dict[str, List[float]] = {name: [] for name in commands}
        for repeat in range(PROCESS_REPEATS + 1):
            for name, args in commands.items():
                with self.tracer.span("process", argv=" ".join(args)):
                    code, wall = self.sb.run(args)
                if code != 0:
                    raise BenchError(f"python {' '.join(args)} exited {code}")
                if repeat:  # the first round warms the disk cache
                    walls[name].append(wall)
        self.layers["import.repro_cli_s"] = median(walls["import"]) - median(walls["bare"])

        path = self.root / "cli-scenario.json"
        self.specs[0].save(path)
        argv = ["run", str(path), "--cache-dir", str(self.root / "cli-cache")]
        runs = []
        for repeat in range(PROCESS_REPEATS + 1):
            with self.tracer.span("cli.main", argv=" ".join(argv)):
                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                seconds = time.perf_counter() - started
            if code != 0:
                raise BenchError(f"repro {' '.join(argv)} returned {code}")
            if repeat:  # the first call fills the cache
                runs.append(seconds)
        self.layers["cli.run_s"] = median(runs)

    # -- the pipeline kernels and the stage cache -------------------------------

    def _pipeline(self, index: int) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        counts = {"solar.horizon_cells": 0, "solar.field_bytes": 0,
                  "work.valid_cells": 0, "work.daylight_samples": 0, "core.warm_started": 0}
        cache = StageCache(root=self.root / f"cache{index}")
        self.cache = cache
        call = lambda name, fn, *a, **k: _span_call(self.tracer, name, totals, fn, *a, **k)  # noqa: E731
        for position, spec in enumerate(self.specs):
            with self.tracer.span("probe.roof", roof=spec.name):
                scene = call("gis.scene_s", build_roof_scene, spec.roof, dsm_pitch=spec.dsm_pitch)
                grid = call(
                    "gis.grid_s",
                    lambda: suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=spec.grid_pitch)),
                )
                weather = call("weather.build_s", lambda: spec.weather.build(spec.time.build()))
                config = spec.solar.build()
                horizon = call(
                    "solar.horizon_s",
                    compute_horizon_map,
                    scene.dsm.raster,
                    n_sectors=config.n_horizon_sectors,
                    max_distance=config.horizon_max_distance_m,
                )
                field = call(
                    "solar.field_s",
                    compute_roof_solar_field,
                    scene, grid, weather, config, horizon_map=horizon,
                )
                problem = self._problem(spec, field, spec.n_modules)
                suitability = call(
                    "core.suitability_s",
                    compute_suitability,
                    field,
                    SuitabilityConfig(percentile=problem.suitability_percentile),
                    problem.module_model,
                )
                greedy = call("core.greedy_s", greedy_floorplan, problem, suitability=suitability)
                baseline = call(
                    "core.traditional_s", traditional_floorplan, problem, suitability=suitability
                )
                call(
                    "core.evaluate_s",
                    lambda: PlacementEvaluator(problem).compare(baseline.placement, greedy.placement),
                )
                if position == 0:
                    small = self._problem(spec, field, 2 * spec.series_length())
                    call("core.ilp_s", ilp_floorplan, small, suitability=suitability,
                         config=ILPConfig(time_limit_s=60.0))
                half = self._problem(spec, field, self._half(spec))
                prefix = greedy_floorplan(half, suitability=suitability)
                resumed = greedy_floorplan(
                    problem,
                    suitability=suitability,
                    warm_start=WarmStart(placement=prefix.placement, exact_prefix=True),
                )
                counts["core.warm_started"] += int(resumed.warm_modules > 0)

                n_daylight = field.n_daylight
                counts["solar.horizon_cells"] += config.n_horizon_sectors * scene.dsm.raster.data.size
                counts["work.valid_cells"] += grid.n_valid
                counts["work.daylight_samples"] += n_daylight
                counts["solar.field_bytes"] += grid.n_valid * n_daylight * FLOAT32_BYTES

                entries = {
                    "scene": (spec.scene_payload(), scene),
                    "grid": (spec.grid_payload(), grid),
                    "solar": (spec.solar_payload(), field),
                    "suitability": (_suitability_payload(spec, problem), suitability),
                }
                for stage, (payload, value) in entries.items():
                    call("cache.put_s", cache.put, stage, payload, value)
                for stage, (payload, _) in entries.items():
                    _, hit = call(f"cache.hit_s.{stage}", cache.get, stage, payload)
                    if not hit:
                        raise BenchError(f"{spec.name}: stage cache missed its own {stage} entry")
        totals.update(counts)
        totals["cache.put_bytes"] = tree_bytes(cache.root)
        return totals

    @staticmethod
    def _problem(spec: ScenarioSpec, field, n_modules: int) -> FloorplanProblem:
        series = min(spec.series_length(), n_modules)
        return FloorplanProblem(
            grid=field.grid,
            solar=field,
            n_modules=n_modules,
            topology=default_topology(n_modules, series),
            datasheet=spec.datasheet(),
            allow_rotation=spec.allow_rotation,
            label=spec.name,
        )

    @staticmethod
    def _half(spec: ScenarioSpec) -> int:
        series = spec.series_length()
        return max(series, spec.n_modules // 2 // series * series)

    # -- result store, batch driver ---------------------------------------------

    def _store_copy(self) -> Path:
        """A copy of the workload's store (an empty store when it has none)."""
        copy = self.root / "store.sqlite"
        source = self.workload.store_path()
        if source is None:
            ResultStore(copy).close()
            return copy
        src, dst = sqlite3.connect(str(source)), sqlite3.connect(str(copy))
        try:
            src.backup(dst)
        finally:
            src.close()
            dst.close()
        return copy

    def _store_and_batch(self) -> None:
        self.store = self._store_copy()
        started = time.perf_counter()
        with self.tracer.span("run_batch"):
            batch = run_batch(
                self.specs,
                cache=self.cache,
                jobs=self.workload.jobs,
                store=str(self.store),
                campaign="probe-batch",
            )
        wall = time.perf_counter() - started
        if batch.campaign is None or batch.campaign.done != len(self.specs):
            raise BenchError("probe batch did not complete")
        self.done_specs = list(self.specs)
        self.layers["batch.driver_s_per_point"] = (
            wall - sum(r.runtime_s for r in batch.results) / batch.jobs
        ) / len(self.specs)
        result = batch.results[0].to_dict()

        novel = [scenarios.novel_scenario(self.workload.seed, 1000 + i) for i in range(CALLS)]
        calls: Dict[str, List[float]] = {}

        def timed(name: str, fn, *args, **kwargs):
            with self.tracer.span(name):
                started = time.perf_counter()
                value = fn(*args, **kwargs)
                calls.setdefault(name, []).append(time.perf_counter() - started)
            return value

        with ResultStore(self.store) as store:
            for spec in novel:
                timed("store.enroll_s", store.enroll, "probe-store", [spec])
            digests = []
            for _ in novel:
                claimed = timed("store.claim_s", store.claim_next_pending, "probe-store",
                                owner="probe")
                if claimed is None:
                    raise BenchError("probe claim found no pending point")
                digests.append(claimed.point.digest)
            for digest in digests:
                if not timed("store.mark_done_s", store.mark_done, "probe-store", digest,
                             result, require_owner="probe"):
                    raise BenchError("probe lost a lease it held")
            for digest in digests:
                if timed("store.find_done_s", store.find_done, digest) is None:
                    raise BenchError("probe could not find a point it marked done")
        for name, values in calls.items():
            self.layers[name] = median(values)

    # -- service handler, transport ------------------------------------------------

    def _serve(self) -> None:
        bodies = [body for spec in self.done_specs for body in scenarios.request_bodies(spec)]
        store = open_serve_store(self.store)
        try:
            app = ServeApp(store, campaign="probe-serve")
            handler = []
            for index in range(CALLS * 2):
                body = bodies[index % len(bodies)]
                with self.tracer.span("serve.handle_plan"):
                    started = time.perf_counter()
                    status, payload, _ = app.handle_plan(body)
                    handler.append(time.perf_counter() - started)
                if status != 200 or payload.get("cached") is not True:
                    raise BenchError(f"in-process handler answered {status} to a done scenario")
            self.layers["serve.handler_s"] = median(handler)
            if self.workload.samples.has("hit"):
                return
            self._transport(app, bodies)
        finally:
            store.close()

    def _transport(self, app: ServeApp, bodies: List[bytes]) -> None:
        """Client-observed hit latency through an in-process HTTP server."""
        server = create_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        statuses: Counter = Counter()
        latencies = []
        try:
            host, port = server.server_address[:2]
            client = ServeClient(f"http://{host}:{port}", timeout_s=30.0)
            for index in range(CALLS * 2):
                with self.tracer.span("serve.http_hit"):
                    started = time.perf_counter()
                    response = client.plan_raw(bodies[index % len(bodies)])
                    latencies.append(time.perf_counter() - started)
                statuses[response.status] += 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        self.layers["serve.transport_s"] = median(latencies) - self.layers["serve.handler_s"]
        self.layers.update(status_layers(statuses))

    # -- campaign worker ---------------------------------------------------------------

    def _worker(self) -> None:
        spec = scenarios.novel_scenario(self.workload.seed, 2000)
        with ResultStore(self.store) as store:
            store.enroll("probe-worker", [spec])
        with self.tracer.span("worker.process"):
            code, wall = self.sb.run(
                ["-m", "repro", "campaign", "worker", "probe-worker", "--store",
                 str(self.store), "--cache-dir", str(self.cache.root)]
            )
        with ResultStore(self.store) as store:
            done = store.find_done(scenario_content_digest(spec)) is not None
        if code != 0 or not done:
            raise BenchError(f"probe worker exited {code} (point done: {done})")
        self.layers["worker.spawn_to_exit_s"] = wall
        self.layers["worker.points"] = 1


def probe_layers(workload: Workload, tracer: Tracer, sandbox: Sandbox) -> Dict[str, float]:
    return Probe(workload, tracer, sandbox).run()

