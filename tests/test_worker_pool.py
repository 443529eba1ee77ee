"""The batch runner's process-wide worker pool.

A pooled batch (``jobs > 1``) borrows the process's idle worker pool and
hands it back when it ends cleanly, so the next pooled batch runs on the
same, already warm workers.  These tests check what must hold for that to
be safe: what a worker applies comes with each task (trace, faults), a
solver registered later reaches the workers, a torn-down pool is never
lent again, threads never share a pool, and no worker outlives its
parent process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.gis import RoofSpec
from repro.runner import get_solver_entry, register_solver, run_batch
from repro.runner import batch as batch_module
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec
from repro.telemetry import merge_trace, read_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def tiny_spec(name: str, solver: str = "greedy") -> ScenarioSpec:
    """A seconds-scale scenario with a roof unique to ``name``."""
    return ScenarioSpec(
        name=name,
        roof=RoofSpec(
            name=f"{name}-roof", width_m=6.0, depth_m=4.0, tilt_deg=30.0, azimuth_deg=0.0
        ),
        n_modules=2,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name=solver),
    )


def fleet(tag: str, size: int = 4) -> list:
    return [tiny_spec(f"{tag}-{index}") for index in range(size)]


def idle_pool():
    """The pool the batch runner keeps idle, or ``None``."""
    idle = batch_module._IDLE
    return None if idle is None else idle[1]


def worker_pids(pool) -> set:
    return set(pool._processes)


def fingerprints(batch) -> list:
    return [result.fingerprint() for result in batch.results]


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until_gone(pids, timeout_s: float = 15.0) -> set:
    """The pids of ``pids`` still running after up to ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    running = set(pids)
    while running and time.monotonic() < deadline:
        running = {pid for pid in running if alive(pid)}
        time.sleep(0.05)
    return running


def _late_solver(problem, options, suitability):
    return get_solver_entry("greedy").fn(problem, options, suitability)


class TestReuse:
    def test_consecutive_batches_run_on_the_same_workers(self, tmp_path):
        run_batch(fleet("untraced"), cache=tmp_path / "cache", jobs=2)
        pool = idle_pool()
        assert pool is not None
        workers = worker_pids(pool)
        assert len(workers) == 2 and os.getpid() not in workers

        # Tracing starts after the workers were forked: the trace path and
        # each batch's span reach them with every task.
        trace_path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path)
        for tag in ("first", "second"):
            run_batch(fleet(tag), cache=tmp_path / "cache", jobs=2)
            assert idle_pool() is pool
            assert worker_pids(pool) == workers

        merge_trace(trace_path)
        spans = [e for e in read_trace(trace_path) if e.get("type") == "span"]
        batches = [s for s in spans if s["name"] == "batch"]
        assert len(batches) == 2
        for batch_span in batches:
            points = [
                s for s in spans if s["name"] == "scenario" and s["parent"] == batch_span["id"]
            ]
            assert len(points) == 4
            assert {s["pid"] for s in points} <= workers

    def test_pool_size_change_forks_a_new_pool(self, tmp_path):
        run_batch(fleet("two", 2), cache=tmp_path / "cache", jobs=2)
        pool = idle_pool()
        workers = worker_pids(pool)
        run_batch(fleet("three", 3), cache=tmp_path / "cache", jobs=3)
        resized = idle_pool()
        assert resized is not pool and len(worker_pids(resized)) == 3
        # The mismatched pool was shut down, not left running beside it.
        assert not {pid for pid in workers if alive(pid)}

    def test_serial_batches_leave_the_idle_pool_alone(self, tmp_path):
        run_batch(fleet("pooled", 2), cache=tmp_path / "cache", jobs=2)
        pool = idle_pool()
        run_batch(fleet("serial", 2), cache=tmp_path / "cache", jobs=1)
        assert idle_pool() is pool


class TestWhatReachesAWorker:
    def test_a_fault_plan_set_between_batches_fires_in_the_next_only(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store.sqlite"

        def failed(tag: str) -> int:
            batch = run_batch(
                fleet(tag), cache=tmp_path / "cache", jobs=2, store=store, campaign=tag
            )
            return batch.campaign.failed

        assert failed("before") == 0
        pool = idle_pool()
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=99")
        assert failed("armed") == 4
        # ``times=1`` counts per worker process, from each batch's start:
        # every batch re-arms its workers, as freshly forked ones would be.
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=1")
        assert 1 <= failed("once") <= 2
        assert 1 <= failed("once-again") <= 2
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert failed("cleared") == 0
        # Failed points do not tear the pool down.
        assert idle_pool() is pool

    def test_a_solver_registered_after_a_pooled_batch_runs_in_the_next(self, tmp_path):
        run_batch(fleet("early", 2), cache=tmp_path / "cache", jobs=2)
        stale = idle_pool()
        stale_workers = worker_pids(stale)
        register_solver("pool-late-test", _late_solver, overwrite=True)
        late = run_batch(
            [tiny_spec(f"late-{index}", solver="pool-late-test") for index in range(2)],
            cache=tmp_path / "cache",
            jobs=2,
        )
        assert late.n_scenarios == 2
        assert idle_pool() is not stale
        assert not {pid for pid in stale_workers if alive(pid)}


class TestTornDownPools:
    def test_after_a_worker_death_the_next_batch_gets_a_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        run_batch(fleet("warm"), cache=cache, jobs=2)
        lent = worker_pids(idle_pool())
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash:match=victim,times=1")
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "faults-state"))
        crashed = run_batch(
            [tiny_spec("victim"), tiny_spec("bystander")],
            cache=cache,
            jobs=2,
            store=tmp_path / "store.sqlite",
            campaign="crash",
            retries=1,
        )
        assert crashed.campaign.done == 2 and crashed.campaign.retried >= 1
        assert idle_pool() is None
        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.delenv(faults.FAULTS_STATE_ENV)

        after = run_batch(fleet("after"), cache=cache, jobs=2)
        assert after.n_scenarios == 4
        assert not worker_pids(idle_pool()) & lent

    def test_a_worker_killed_while_idle_is_not_lent_again(self, tmp_path):
        cache = tmp_path / "cache"
        run_batch(fleet("warm", 2), cache=cache, jobs=2)
        pool = idle_pool()
        lent = worker_pids(pool)
        victim = min(lent)
        os.kill(victim, signal.SIGKILL)
        assert not wait_until_gone({victim})

        after = run_batch(
            fleet("after"), cache=cache, jobs=2, store=tmp_path / "store.sqlite", campaign="after"
        )
        assert (after.campaign.done, after.campaign.retried) == (4, 0)
        fresh = idle_pool()
        assert fresh is not None and fresh is not pool
        assert not worker_pids(fresh) & lent
        assert not wait_until_gone(lent)

    def test_a_pool_broken_while_idle_is_rebuilt_on_submit(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        run_batch(fleet("warm", 2), cache=cache, jobs=2)
        pool = idle_pool()
        lent = worker_pids(pool)
        os.kill(min(lent), signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool._broken
        # Lend the broken pool anyway: its first submission is refused.
        monkeypatch.setattr(batch_module, "_pool_intact", lambda pool: True)

        after = run_batch(
            fleet("after"), cache=cache, jobs=2, store=tmp_path / "store.sqlite", campaign="after"
        )
        assert after.campaign.done == 4
        assert idle_pool() is None
        assert not wait_until_gone(lent)

    def test_after_a_watchdog_eviction_the_next_batch_gets_a_fresh_pool(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        # Warm the bystander so it cannot overrun the 1 s budget itself.
        run_batch([tiny_spec("steady")], cache=cache, jobs=1)
        run_batch(fleet("warm", 2), cache=cache, jobs=2)
        lent = worker_pids(idle_pool())
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.hang:match=hung,times=1,sleep=30")
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "faults-state"))
        evicted = run_batch(
            [tiny_spec("hung"), tiny_spec("steady")],
            cache=cache,
            jobs=2,
            store=tmp_path / "store.sqlite",
            campaign="hang",
            timeout_s=1.0,
        )
        assert (evicted.campaign.timed_out, evicted.campaign.done) == (1, 1)
        assert idle_pool() is None
        assert not wait_until_gone(lent)
        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.delenv(faults.FAULTS_STATE_ENV)

        after = run_batch(fleet("after", 2), cache=cache, jobs=2)
        assert after.n_scenarios == 2
        assert not worker_pids(idle_pool()) & lent


def test_pooled_batches_in_concurrent_threads_match_serial(tmp_path):
    """Four threads (more than the two cores) borrow and hand back at once."""
    fleets = {tag: fleet(tag, 3) for tag in ("north", "south", "east", "west")}
    expected = {
        tag: fingerprints(run_batch(specs, cache=tmp_path / "serial", jobs=1))
        for tag, specs in fleets.items()
    }
    observed = {}

    def run(tag: str) -> None:
        observed[tag] = fingerprints(run_batch(fleets[tag], cache=tmp_path / "pooled", jobs=2))

    threads = [threading.Thread(target=run, args=(tag,)) for tag in fleets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert observed == expected
    # Every loop ran on a pool of its own; one pool idles now and the
    # others were shut down as they came back, so no other worker is left.
    pool = idle_pool()
    assert pool is not None
    assert {child.pid for child in multiprocessing.active_children()} == worker_pids(pool)


_KILLED_PARENT = textwrap.dedent(
    """
    import os, signal, sys

    sys.path.insert(0, {src!r})
    sys.path.insert(0, {tests!r})
    from repro.runner import batch, run_batch
    from test_worker_pool import fleet

    run_batch(fleet("orphan", 2), cache={cache!r}, jobs=2)
    print(" ".join(str(pid) for pid in batch._IDLE[1]._processes), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


class TestNoWorkerOutlivesItsParent:
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        script = tmp_path / "killed.py"
        script.write_text(
            _KILLED_PARENT.format(
                src=str(SRC), tests=str(Path(__file__).parent), cache=str(tmp_path / "cache")
            ),
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        pids = {int(pid) for pid in proc.stdout.split()}
        assert len(pids) == 2
        left = wait_until_gone(pids)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left

    @pytest.mark.parametrize("command", ["sweep", "campaign"])
    def test_cli_exit_leaves_no_worker_behind(self, tmp_path, command):
        spec_path = tmp_path / "spec.json"
        tiny_spec("cli-exit").save(spec_path)
        trace_path = tmp_path / "trace.jsonl"
        common = [
            "--jobs",
            "2",
            "--store",
            str(tmp_path / "store.sqlite"),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--trace",
            str(trace_path),
        ]
        if command == "sweep":
            args = ["sweep", "--base", str(spec_path), "--axis", "n_modules=2,4", *common]
        else:
            second = tmp_path / "second.json"
            tiny_spec("cli-exit-2").save(second)
            args = ["campaign", "run", "exit-check", str(spec_path), str(second), *common]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        spans = [e for e in read_trace(trace_path) if e.get("type") == "span"]
        workers = {s["pid"] for s in spans if s["name"] == "scenario"}
        (parent,) = {s["pid"] for s in spans if s["name"] == "batch"}
        assert workers and parent not in workers
        # The interpreter joined its pool on the way out: nothing to wait for.
        assert not {pid for pid in workers if alive(pid)}
