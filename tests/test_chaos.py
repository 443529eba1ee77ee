"""Chaos tests: injected faults must be absorbed, never fatal.

Each test arms :mod:`repro.faults` (via ``REPRO_FAULTS`` or in-process
``configure``) and drives the production machinery -- the batch driver's
watchdog and retry loop, the stage cache's integrity layer, the result
store's lease reclamation and doctor -- to a converged, fully-accounted
end state.  The point is never the fault itself but the recovery: a
campaign hit by crashes, hangs, corruption or signals must end with every
point ``done`` (possibly after a resume) and zero orphaned state.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.errors import ConfigurationError, ScenarioExecutionError
from repro.gis import RoofSpec
from repro.runner import (
    ResultStore,
    StageCache,
    get_solver_entry,
    register_solver,
    run_batch,
    scenario_content_digest,
    solve_with_fallback,
)
from repro.runner.store import STATUS_DONE, STATUS_FAILED, STATUS_TIMED_OUT
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec
from repro.sweep import SweepAxis, SweepPlan


def tiny_spec(name: str, solver: str = "greedy", n_modules: int = 2) -> ScenarioSpec:
    """A seconds-scale scenario with a roof unique to ``name``."""
    return ScenarioSpec(
        name=name,
        roof=RoofSpec(
            name=f"{name}-roof",
            width_m=6.0,
            depth_m=4.0,
            tilt_deg=30.0,
            azimuth_deg=0.0,
        ),
        n_modules=n_modules,
        n_series=n_modules,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name=solver),
    )


def statuses(store_path: Path, campaign: str) -> dict:
    with ResultStore(store_path) as store:
        return store.status_counts(campaign)


# ---------------------------------------------------------------------------
# Injected worker faults: the campaign must converge
# ---------------------------------------------------------------------------


class TestChaosCampaigns:
    def test_worker_crash_is_absorbed_by_retries(self, tmp_path, monkeypatch):
        """An OOM-style worker kill fails only its point; retries finish it.

        The state directory makes ``times=1`` fleet-wide: the replacement
        worker spawned after the crash must not crash again.
        """
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.crash:match=victim,times=1")
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "faults-state"))
        store_path = tmp_path / "store.sqlite"

        batch = run_batch(
            [tiny_spec("victim"), tiny_spec("bystander")],
            cache=tmp_path / "cache",
            jobs=2,
            store=store_path,
            campaign="chaos-crash",
            retries=2,
        )
        summary = batch.campaign
        assert (summary.done, summary.failed, summary.timed_out) == (2, 0, 0)
        assert summary.retried >= 1  # the crash cost at least one re-enqueue
        counts = statuses(store_path, "chaos-crash")
        assert counts["done"] == 2
        assert counts["running"] == counts["failed"] == 0

    def test_worker_hang_trips_watchdog_then_resume_completes(
        self, tmp_path, monkeypatch
    ):
        """A hung worker is evicted by the deadline watchdog (``timed_out``),
        and a resume with faults cleared finishes the campaign."""
        cache_dir = tmp_path / "cache"
        specs = [tiny_spec("hung"), tiny_spec("steady")]
        # Warm the innocent point so it cannot trip the 2 s budget itself.
        run_batch([specs[1]], cache=cache_dir, jobs=1)

        monkeypatch.setenv(
            faults.FAULTS_ENV, "worker.hang:match=hung,times=5,sleep=30"
        )
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "faults-state"))
        store_path = tmp_path / "store.sqlite"

        batch = run_batch(
            specs,
            cache=cache_dir,
            jobs=2,
            store=store_path,
            campaign="chaos-hang",
            timeout_s=2.0,
        )
        summary = batch.campaign
        assert summary.timed_out == 1
        assert summary.done == 1  # the warmed bystander completed
        with ResultStore(store_path) as store:
            record = store.point(
                "chaos-hang", scenario_content_digest(specs[0])
            )
            assert record.status == STATUS_TIMED_OUT
            assert "timed out: exceeded wall-clock budget of 2s" in record.error

        # Resume with the fault plan cleared: exactly the hung point reruns.
        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.delenv(faults.FAULTS_STATE_ENV)
        resumed = run_batch(
            specs, cache=cache_dir, store=store_path, campaign="chaos-hang"
        ).campaign
        assert (resumed.computed, resumed.skipped) == (1, 1)
        assert (resumed.done, resumed.failed, resumed.timed_out) == (2, 0, 0)
        assert statuses(store_path, "chaos-hang")["done"] == 2

    def test_transient_solver_error_retries_to_done(self, tmp_path, monkeypatch):
        """Two injected solver crashes are absorbed by a 2-retry budget."""
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=2")
        store_path = tmp_path / "store.sqlite"
        spec = tiny_spec("flaky-point")

        summary = run_batch(
            [spec],
            jobs=1,
            use_cache=False,
            store=store_path,
            campaign="chaos-transient",
            retries=2,
            retry_backoff_s=0.01,
        ).campaign
        assert (summary.done, summary.failed, summary.retried) == (1, 0, 2)
        with ResultStore(store_path) as store:
            record = store.point(
                "chaos-transient", scenario_content_digest(spec)
            )
            assert record.status == STATUS_DONE
            assert record.attempts == 3  # two injected failures + the success

    def test_corrupted_cache_entry_degrades_to_recompute(self, tmp_path, monkeypatch):
        """Post-write corruption is quarantined on the next read, and the
        recomputed result is identical to the uncorrupted one."""
        # Armed via the environment: run_batch (re)configures from
        # $REPRO_FAULTS in the parent, so an in-process configure() would
        # be disarmed at entry.
        monkeypatch.setenv(faults.FAULTS_ENV, "cache.corrupt:times=1")
        cache = StageCache(root=tmp_path / "cache")
        spec = tiny_spec("bitrot")

        first = run_batch([spec], cache=cache, jobs=1).results[0]
        assert faults.fire("cache.corrupt", key="any") is False  # budget spent

        second = run_batch([spec], cache=cache, jobs=1).results[0]
        assert cache.stats.quarantined == 1
        assert second.annual_energy_mwh == pytest.approx(first.annual_energy_mwh)
        quarantined = list((cache.root / "_quarantine").rglob("*.quarantined"))
        assert quarantined  # preserved for post-mortem, invisible to lookups

    def test_store_io_error_is_absorbed_by_write_retries(self, tmp_path):
        """An injected ``sqlite3.OperationalError`` never surfaces: the
        store's write loop retries past it."""
        faults.configure("store.io:times=1")
        with ResultStore(tmp_path / "store.sqlite") as store:
            enrolled = store.enroll("chaos-io", [tiny_spec("io-point")])
        assert [record.status for record in enrolled] == ["pending"]


# ---------------------------------------------------------------------------
# Graceful shutdown on SIGTERM
# ---------------------------------------------------------------------------


_SIGTERM_VICTIM = textwrap.dedent(
    """
    import sys, time

    sys.path.insert(0, {src!r})
    from repro.runner import get_solver_entry, register_solver, run_batch
    from repro.gis import RoofSpec
    from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec

    def stall(problem, options, suitability):
        time.sleep(120.0)
        return get_solver_entry("greedy").fn(problem, options, suitability)

    register_solver("stall-test", stall, overwrite=True)
    spec = ScenarioSpec(
        name="stalled",
        roof=RoofSpec(name="stalled-roof", width_m=6.0, depth_m=4.0,
                      tilt_deg=30.0, azimuth_deg=0.0),
        n_modules=2, n_series=2, grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name="stall-test"),
    )
    try:
        run_batch([spec], jobs=1, use_cache=False,
                  store={store!r}, campaign="sig")
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)
    """
)


class TestSigtermShutdown:
    def test_sigterm_marks_inflight_points_and_exits_cleanly(self, tmp_path):
        """SIGTERM mid-point: exit code 130, the in-flight point is recorded
        ``failed ("interrupted...")``, and no ``running`` row survives."""
        store_path = tmp_path / "store.sqlite"
        script = tmp_path / "victim.py"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script.write_text(
            _SIGTERM_VICTIM.format(src=src, store=str(store_path)), encoding="utf-8"
        )
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "REPRO_STORE_PATH": str(store_path)},
        )
        try:
            # Wait until the point is genuinely in flight (``running`` row).
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if store_path.exists():
                    try:
                        with ResultStore(store_path) as store:
                            if store.status_counts("sig")["running"]:
                                break
                    except ConfigurationError:
                        pass
                time.sleep(0.1)
            else:
                pytest.fail("victim never started running its point")

            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60.0)
        finally:
            process.kill()

        assert process.returncode == 130, stderr.decode()
        counts = statuses(store_path, "sig")
        assert counts["running"] == 0
        assert counts["failed"] == 1
        with ResultStore(store_path) as store:
            (record,) = store.points("sig", STATUS_FAILED)
            assert "interrupted" in record.error


# ---------------------------------------------------------------------------
# Stale-lease reclamation mid-run
# ---------------------------------------------------------------------------


class TestStaleLeaseReclamation:
    def test_dead_drivers_stale_row_is_adopted_mid_run(self, tmp_path):
        """A ``running`` row whose heartbeat went silent (dead driver) is
        reclaimed by a live driver's tick and finished in the same run."""
        def paced(problem, options, suitability):
            time.sleep(0.5)
            return get_solver_entry("greedy").fn(problem, options, suitability)

        register_solver("paced-test", paced, overwrite=True)
        store_path = tmp_path / "store.sqlite"
        specs = [tiny_spec(f"fleet-{i}", solver="paced-test") for i in range(4)]
        victim_digest = scenario_content_digest(specs[-1])

        def dead_driver() -> None:
            # Once the run is demonstrably under way (first point done),
            # another -- already dead -- driver's lease appears on the last
            # point with a heartbeat far in the past.  The last point will
            # not start for two more paced points, so the driver's reclaim
            # tick (every 0.2 s) sees the stale row long before then.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    with ResultStore(store_path) as other:
                        if other.status_counts("reclaim")["done"] >= 1:
                            break
                except ConfigurationError:
                    pass
                time.sleep(0.05)
            with ResultStore(store_path) as other:
                other.mark_running(
                    "reclaim", victim_digest, lease_owner="deadhost:9999"
                )
            conn = sqlite3.connect(store_path)
            try:
                conn.execute(
                    "UPDATE points SET heartbeat_ts = heartbeat_ts - 1000 "
                    "WHERE campaign='reclaim' AND digest=?",
                    (victim_digest,),
                )
                conn.commit()
            finally:
                conn.close()

        thread = threading.Thread(target=dead_driver, daemon=True)
        thread.start()
        summary = run_batch(
            specs,
            cache=tmp_path / "cache",
            jobs=1,
            store=store_path,
            campaign="reclaim",
            heartbeat_s=0.2,
            stale_after_s=0.3,
        ).campaign
        thread.join(timeout=10.0)

        assert summary.reclaimed == 1
        assert (summary.done, summary.failed) == (4, 0)
        counts = statuses(store_path, "reclaim")
        assert counts["done"] == 4
        assert counts["running"] == 0


# ---------------------------------------------------------------------------
# Wall-clock budgets
# ---------------------------------------------------------------------------


class TestTimeouts:
    def test_in_memory_timeout_raises(self):
        with pytest.raises(ScenarioExecutionError, match="timed out: exceeded"):
            run_batch(
                [tiny_spec("slowpoke")],
                jobs=1,
                use_cache=False,
                timeout_s=0.001,
            )

    def test_campaign_timeout_is_terminal_after_retries(self, tmp_path):
        spec = tiny_spec("over-budget")
        store_path = tmp_path / "store.sqlite"
        summary = run_batch(
            [spec],
            jobs=1,
            use_cache=False,
            store=store_path,
            campaign="budget",
            timeout_s=0.001,
            retries=1,
        ).campaign
        assert (summary.timed_out, summary.retried, summary.done) == (1, 1, 0)
        with ResultStore(store_path) as store:
            record = store.point("budget", scenario_content_digest(spec))
            assert record.status == STATUS_TIMED_OUT
            assert record.attempts == 2

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            run_batch([tiny_spec("x")], jobs=1, timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="retry_backoff_s"):
            run_batch([tiny_spec("x")], jobs=1, retry_backoff_s=-1.0)

    def test_sweep_plan_carries_timeout(self):
        plan = SweepPlan(
            name="budgeted",
            base=tiny_spec("base"),
            axes=(SweepAxis("n_modules", (2, 3)),),
            timeout_s=45.0,
        )
        restored = SweepPlan.from_json(plan.to_json())
        assert restored.timeout_s == 45.0
        # Plans without a budget keep serialising byte-for-byte as before.
        unbudgeted = SweepPlan(
            name="plain", base=tiny_spec("base"), axes=(SweepAxis("n_modules", (2,)),)
        )
        assert "timeout_s" not in unbudgeted.to_dict()
        with pytest.raises(ConfigurationError, match="timeout_s"):
            SweepPlan(
                name="bad",
                base=tiny_spec("base"),
                axes=(SweepAxis("n_modules", (2,)),),
                timeout_s=0.0,
            )


# ---------------------------------------------------------------------------
# Corrupt stage-cache entries (satellite: every corruption is a quiet miss)
# ---------------------------------------------------------------------------


class _ArrayedValue:
    """A cacheable object whose bulk array rides in an ``.npy`` sidecar."""

    __cache_array_fields__ = ("data",)

    def __init__(self, data, tag):
        self.data = data
        self.tag = tag


class TestCorruptCacheEntries:
    PAYLOAD = {"key": "integrity"}

    def _cache(self, tmp_path, **kwargs) -> StageCache:
        return StageCache(root=tmp_path / "cache", **kwargs)

    def test_truncated_pickle_quarantines_to_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, {"value": 42})
        path = cache.path_for("stage", self.PAYLOAD)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        value, hit = cache.get("stage", self.PAYLOAD)
        assert (value, hit) == (None, False)
        assert cache.stats.quarantined == 1
        assert not path.exists()  # moved out of the lookup path
        assert list((cache.root / "_quarantine" / "stage").glob("*.quarantined"))

    def test_same_size_pickle_bitrot_quarantines_to_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, {"value": 42})
        path = cache.path_for("stage", self.PAYLOAD)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))  # same size, different content

        assert cache.get("stage", self.PAYLOAD) == (None, False)
        assert cache.stats.quarantined == 1

    def test_missing_manifest_quarantines_to_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, {"value": 42})
        path = cache.path_for("stage", self.PAYLOAD)
        path.with_name(f"{path.stem}.sum.json").unlink()

        assert cache.get("stage", self.PAYLOAD) == (None, False)
        assert cache.stats.quarantined == 1

    def test_truncated_sidecar_quarantines_to_miss(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, _ArrayedValue(np.arange(64.0), "tagged"))
        path = cache.path_for("stage", self.PAYLOAD)
        sidecar = path.with_name(f"{path.stem}.data.npy")
        raw = sidecar.read_bytes()
        sidecar.write_bytes(raw[: len(raw) - 16])

        assert cache.get("stage", self.PAYLOAD) == (None, False)
        assert cache.stats.quarantined == 1
        # The sidecar is quarantined along with the (healthy) pickle: a
        # partial entry must never re-poison a future lookup.
        assert not sidecar.exists() and not path.exists()

    def test_same_size_sidecar_bitrot_needs_full_verification(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, _ArrayedValue(np.arange(64.0), "tagged"))
        path = cache.path_for("stage", self.PAYLOAD)
        sidecar = path.with_name(f"{path.stem}.data.npy")
        raw = bytearray(sidecar.read_bytes())
        raw[-1] ^= 0xFF  # flip a data byte, keep the size
        sidecar.write_bytes(bytes(raw))

        # ``full`` verification streams the sidecar through SHA-256 and
        # catches same-size bit rot ($REPRO_CACHE_VERIFY=full).
        full = StageCache(root=cache.root, verify="full")
        assert full.get("stage", self.PAYLOAD) == (None, False)
        assert full.stats.quarantined == 1

    def test_partial_atomic_write_leftovers_are_plain_misses(self, tmp_path):
        """A crash mid-``put`` leaves ``.tmp`` files and maybe sidecars but
        no pickle: an ordinary miss, nothing to quarantine."""
        cache = self._cache(tmp_path)
        path = cache.path_for("stage", self.PAYLOAD)
        path.parent.mkdir(parents=True)
        (path.parent / f"{path.stem}abc123.tmp").write_bytes(b"half a write")
        path.with_name(f"{path.stem}.data.npy").write_bytes(b"orphan sidecar")

        assert cache.get("stage", self.PAYLOAD) == (None, False)
        assert cache.stats.quarantined == 0
        assert len(list(cache.root.rglob("*.pkl"))) == 0

    def test_corruption_never_raises_and_recompute_repopulates(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.put("stage", self.PAYLOAD, {"value": 1})
        cache.path_for("stage", self.PAYLOAD).write_bytes(b"\x00garbage")

        assert cache.get("stage", self.PAYLOAD) == (None, False)
        cache.put("stage", self.PAYLOAD, {"value": 2})
        # The repopulated entry is healthy again.
        assert cache.get("stage", self.PAYLOAD) == ({"value": 2}, True)


# ---------------------------------------------------------------------------
# Solver fallback chains (graceful degradation)
# ---------------------------------------------------------------------------


def _register_chaos_solvers() -> None:
    def failing(problem, options, suitability):
        raise RuntimeError("simulated solver crash")

    def sleepy_failing(problem, options, suitability):
        time.sleep(0.05)
        raise RuntimeError("simulated slow solver crash")

    register_solver("chaos-failing", failing, overwrite=True)
    register_solver("chaos-sleepy", sleepy_failing, overwrite=True)


class TestFallbackChains:
    def test_degraded_result_carries_provenance(self):
        _register_chaos_solvers()
        spec = tiny_spec("degrade-me")
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "solver": {"name": "chaos-failing", "fallback": ["greedy"]}}
        )
        result = run_batch([spec], jobs=1, use_cache=False).results[0]
        assert result.degraded is True
        assert result.fallback_solver == "greedy"
        assert "[degraded -> greedy]" in result.report()

    def test_campaign_accounts_degraded_points(self, tmp_path):
        _register_chaos_solvers()
        spec = tiny_spec("degrade-me")
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "solver": {"name": "chaos-failing", "fallback": ["greedy"]}}
        )
        store_path = tmp_path / "store.sqlite"
        summary = run_batch(
            [spec],
            jobs=1,
            use_cache=False,
            store=store_path,
            campaign="degraded",
        ).campaign
        assert (summary.done, summary.degraded) == (1, 1)
        assert "degraded 1" in summary.report()
        with ResultStore(store_path) as store:
            record = store.point("degraded", scenario_content_digest(spec))
            assert record.degraded is True
            assert record.fallback_solver == "greedy"

    def test_configuration_error_propagates_immediately(self, small_problem):
        _register_chaos_solvers()
        with pytest.raises(ConfigurationError, match="no-such-solver"):
            solve_with_fallback(
                small_problem, "chaos-failing", fallback=("no-such-solver",)
            )

    def test_exhausted_budget_skips_to_the_last_entry(self, small_problem):
        _register_chaos_solvers()
        outcome = solve_with_fallback(
            small_problem,
            "chaos-sleepy",
            fallback=("chaos-failing", "greedy"),
            budget_s=0.01,
        )
        assert outcome.degraded is True
        assert outcome.fallback_solver == "greedy"
        assert len(outcome.failures) == 2
        assert "simulated slow solver crash" in outcome.failures[0]
        assert "skipped (chain budget 0.01s exhausted)" in outcome.failures[1]

    def test_every_entry_failing_raises_the_last_error(self, small_problem):
        _register_chaos_solvers()
        with pytest.raises(RuntimeError, match="simulated solver crash"):
            solve_with_fallback(small_problem, "chaos-failing", fallback=())


# ---------------------------------------------------------------------------
# Store doctor: audit and repair
# ---------------------------------------------------------------------------


class TestDoctor:
    def _corrupt(self, store_path: Path, sql: str, params: tuple) -> None:
        conn = sqlite3.connect(store_path)
        try:
            conn.execute(sql, params)
            conn.commit()
        finally:
            conn.close()

    def test_healthy_store_reports_no_issues(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            store.enroll("camp", [tiny_spec("a")])
            report = store.integrity_report()
        assert report["issues"] == []
        assert report["sqlite_ok"] is True

    def test_report_and_repair_cover_every_corruption_class(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs = [tiny_spec("ok"), tiny_spec("bad-result"), tiny_spec("bad-spec")]
        with ResultStore(store_path) as store:
            store.enroll("camp", specs)
            digests = [scenario_content_digest(spec) for spec in specs]
            store.mark_running("camp", digests[0], lease_owner="deadhost:1")
        # Age the running row's heartbeat past any stale threshold, corrupt
        # one done row's result payload and one row's spec payload.
        self._corrupt(
            store_path,
            "UPDATE points SET heartbeat_ts = heartbeat_ts - 10000 WHERE digest=?",
            (digests[0],),
        )
        self._corrupt(
            store_path,
            "UPDATE points SET status='done', result='{broken' WHERE digest=?",
            (digests[1],),
        )
        self._corrupt(
            store_path,
            "UPDATE points SET spec='not json' WHERE digest=?",
            (digests[2],),
        )

        with ResultStore(store_path) as store:
            report = store.integrity_report("camp", stale_after_s=300.0)
            assert ("camp", digests[0]) in report["stale_running"]
            assert ("camp", digests[1]) in report["corrupt_results"]
            assert ("camp", digests[2]) in report["corrupt_specs"]
            assert len(report["issues"]) == 3

            counts = store.repair("camp", stale_after_s=300.0)
            assert counts == {
                "results_discarded": 1,
                "stale_reclaimed": 1,
                "specs_deleted": 1,
            }
            # Demoted rows resume through the normal retry machinery; the
            # unrecoverable spec row is gone.
            assert store.point("camp", digests[0]).status == STATUS_FAILED
            record = store.point("camp", digests[1])
            assert record.status == STATUS_FAILED
            assert "doctor" in record.error
            assert store.status_counts("camp")["pending"] == 0
            assert len(store.points("camp")) == 2
            assert store.integrity_report("camp", stale_after_s=300.0)["issues"] == []

    def test_cli_doctor_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store_path = tmp_path / "store.sqlite"
        with ResultStore(store_path) as store:
            store.enroll("camp", [tiny_spec("a")])
            store.mark_running(
                "camp", scenario_content_digest(tiny_spec("a")), lease_owner="dead:1"
            )
        self._corrupt(
            store_path,
            "UPDATE points SET heartbeat_ts = heartbeat_ts - 10000 WHERE campaign=?",
            ("camp",),
        )

        assert main(["campaign", "doctor", "--store", str(store_path)]) == 1
        out = capsys.readouterr().out
        assert "stale running" in out

        assert (
            main(["campaign", "doctor", "--store", str(store_path), "--repair"]) == 0
        )
        out = capsys.readouterr().out
        assert "1 stale lease(s) reclaimed" in out

        assert main(["campaign", "doctor", "--store", str(store_path)]) == 0
        assert "no issues found" in capsys.readouterr().out
