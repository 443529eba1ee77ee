"""Cooperative worker fleets: atomic claims, lease fencing, fleet chaos.

The store is the queue: N workers (threads, processes or hosts sharing
one SQLite file) pull points via
:meth:`~repro.runner.store.ResultStore.claim_next_pending` and mark them
through lease-fenced terminal writes.  These tests pin the concurrency
contract from the unit level (one claim per point, exactly one winner per
adoption race) up to a real 3-process fleet with a SIGKILLed member, whose
merged results must be fingerprint-identical to a serial run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.gis import RoofSpec
from repro.runner import (
    ResultStore,
    get_solver_entry,
    register_solver,
    resolve_store,
    run_batch,
    run_worker,
    scenario_content_digest,
)
from repro.runner.store import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_RUNNING,
    STORE_PATH_ENV,
)
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec, builtin_scenarios
from repro.serve import open_serve_store


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


def enroll(store_path: Path, campaign: str, specs) -> list:
    with ResultStore(store_path) as store:
        return store.enroll(campaign, specs)


# ---------------------------------------------------------------------------
# Atomic claims
# ---------------------------------------------------------------------------


class TestClaimNextPending:
    def test_claims_oldest_pending_and_stamps_lease(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        specs = [tiny_spec("first"), tiny_spec("second")]
        enroll(store_path, "camp", specs)
        with ResultStore(store_path) as store:
            claimed = store.claim_next_pending("camp", owner="w1")
            assert claimed is not None and not claimed.adopted
            assert claimed.point.name == "first"  # enrollment order
            assert claimed.point.status == STATUS_RUNNING
            assert claimed.point.lease_owner == "w1"
            assert claimed.point.attempts == 1
            assert claimed.point.heartbeat_ts is not None

    def test_concurrent_claims_never_hand_out_the_same_point(self, tmp_path):
        """Two handles claiming in lockstep each drain distinct points."""
        store_path = tmp_path / "store.sqlite"
        specs = [tiny_spec(f"p{i}") for i in range(6)]
        enroll(store_path, "camp", specs)
        claimed: list = []
        errors: list = []
        barrier = threading.Barrier(2)

        def claim_all(owner: str) -> None:
            try:
                with ResultStore(store_path) as store:
                    barrier.wait()
                    while True:
                        got = store.claim_next_pending("camp", owner=owner)
                        if got is None:
                            return
                        claimed.append((owner, got.point.digest))
            except Exception as exc:  # pragma: no cover - the failure branch
                errors.append(exc)

        threads = [
            threading.Thread(target=claim_all, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        digests = [digest for _, digest in claimed]
        assert len(digests) == 6
        assert len(set(digests)) == 6  # no double-claims under contention

    def test_exhausted_queue_returns_none(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "camp", [tiny_spec("only")])
        with ResultStore(store_path) as store:
            assert store.claim_next_pending("camp", owner="w1") is not None
            # The remaining row is running with a fresh heartbeat: nothing
            # left to claim, and terminal rows never become claimable.
            assert store.claim_next_pending("camp", owner="w2") is None
            store.mark_done(
                "camp",
                scenario_content_digest(tiny_spec("only")),
                {"scenario": "only"},
                require_owner="w1",
            )
            assert store.claim_next_pending("camp", owner="w2") is None

    def test_adopts_stale_lease_but_not_fresh_ones(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        spec = tiny_spec("orphan")
        enroll(store_path, "camp", [spec])
        with ResultStore(store_path) as store:
            first = store.claim_next_pending("camp", owner="dead:1")
            assert first is not None
            # Fresh heartbeat: a sibling must not steal the lease.
            assert store.claim_next_pending("camp", owner="w2") is None
            # Stale heartbeat (cutoff in the future): adopted in place.
            adopted = store.claim_next_pending(
                "camp", owner="w2", now=time.time() + 120.0, stale_after_s=60.0
            )
            assert adopted is not None and adopted.adopted
            assert adopted.point.lease_owner == "w2"
            assert adopted.point.attempts == 2  # one per started attempt

    def test_concurrent_adoptions_of_a_stale_row_have_one_winner(self, tmp_path):
        """Two claims racing for one stale lease: exactly one adopts it, and
        the adoption charges exactly one extra attempt."""
        store_path = tmp_path / "store.sqlite"
        spec = tiny_spec("stale-point")
        digest = scenario_content_digest(spec)
        enroll(store_path, "race", [spec])
        with ResultStore(store_path) as store:
            store.mark_running("race", digest, lease_owner="dead:1")
            attempts_before = store.point("race", digest).attempts
        stale_now = time.time() + 120.0
        claims: dict = {}
        errors: list = []
        barrier = threading.Barrier(2)

        def adopt(owner: str) -> None:
            try:
                with ResultStore(store_path) as store:
                    barrier.wait()
                    claims[owner] = store.claim_next_pending(
                        "race", owner=owner, now=stale_now, stale_after_s=60.0
                    )
            except Exception as exc:  # pragma: no cover - the failure branch
                errors.append(exc)

        threads = [threading.Thread(target=adopt, args=(f"w{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        winners = {owner: got for owner, got in claims.items() if got is not None}
        assert len(claims) == 2 and len(winners) == 1
        ((owner, claimed),) = winners.items()
        assert claimed.adopted and claimed.point.digest == digest
        with ResultStore(store_path) as store:
            record = store.point("race", digest)
        assert record.status == STATUS_RUNNING
        assert record.lease_owner == owner
        assert record.attempts == attempts_before + 1

    def test_fenced_marks_protect_adopted_points(self, tmp_path):
        """The original owner's late result is discarded after adoption --
        completion-marking is at-most-once."""
        store_path = tmp_path / "store.sqlite"
        spec = tiny_spec("contested")
        digest = scenario_content_digest(spec)
        enroll(store_path, "camp", [spec])
        with ResultStore(store_path) as store:
            store.claim_next_pending("camp", owner="slow-worker")
            store.claim_next_pending(
                "camp", owner="adopter", now=time.time() + 120.0
            )
            # The stalled original worker finishes anyway: fenced write is a
            # no-op, the adopter's completion lands.
            assert (
                store.mark_done(
                    "camp", digest, {"scenario": "x"}, require_owner="slow-worker"
                )
                is False
            )
            assert (
                store.mark_failed(
                    "camp", digest, "late failure", require_owner="slow-worker"
                )
                is False
            )
            assert store.point("camp", digest).status == STATUS_RUNNING
            assert (
                store.mark_done(
                    "camp", digest, {"scenario": "x"}, require_owner="adopter"
                )
                is True
            )
            assert store.point("camp", digest).status == STATUS_DONE

    def test_release_hands_claim_back_to_pending(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        spec = tiny_spec("returned")
        digest = scenario_content_digest(spec)
        enroll(store_path, "camp", [spec])
        with ResultStore(store_path) as store:
            store.claim_next_pending("camp", owner="w1")
            assert store.release("camp", digest, "w1") is True
            record = store.point("camp", digest)
            assert record.status == STATUS_PENDING
            assert record.lease_owner is None
            # Only the lease holder can release; a second release is a no-op.
            assert store.release("camp", digest, "w1") is False
            again = store.claim_next_pending("camp", owner="w2")
            assert again is not None and not again.adopted


# ---------------------------------------------------------------------------
# The worker daemon, in process
# ---------------------------------------------------------------------------


class TestRunWorker:
    def test_serial_worker_drains_queue_and_matches_run_batch(self, tmp_path):
        specs = [tiny_spec(f"point-{i}") for i in range(3)]
        cache_dir = tmp_path / "cache"
        reference = {
            result.scenario: result.fingerprint()
            for result in run_batch(specs, cache=cache_dir, jobs=1).results
        }

        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", specs)
        summary = run_worker(
            "fleet", store=store_path, worker_id="solo", cache=cache_dir, serial=True
        )
        assert (summary.claimed, summary.done, summary.failed) == (3, 3, 0)
        assert summary.adopted == summary.lost_leases == 0
        assert "claimed 3, done 3" in summary.report()
        with ResultStore(store_path) as store:
            results = store.results("fleet")
            assert all(record.attempts == 1 for record in store.points("fleet"))
        assert {
            result.scenario: result.fingerprint() for result in results
        } == reference

    def test_pooled_worker_matches_too(self, tmp_path):
        spec = tiny_spec("pooled-point")
        cache_dir = tmp_path / "cache"
        reference = run_batch([spec], cache=cache_dir, jobs=1).results[0]
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", [spec])
        summary = run_worker(
            "fleet", store=store_path, worker_id="pooled", cache=cache_dir
        )
        assert (summary.done, summary.failed) == (1, 0)
        with ResultStore(store_path) as store:
            (result,) = store.results("fleet")
        assert result.fingerprint() == reference.fingerprint()

    def test_retries_absorb_transient_solver_errors(self, tmp_path, monkeypatch):
        # Arm via the environment: run_worker re-reads $REPRO_FAULTS on
        # startup and would disarm a directly configured plan.
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=2")
        spec = tiny_spec("flaky")
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", [spec])
        summary = run_worker(
            "fleet",
            store=store_path,
            worker_id="retrier",
            serial=True,
            use_cache=False,
            retries=2,
            retry_backoff_s=0.01,
        )
        assert (summary.done, summary.failed, summary.retried) == (1, 0, 2)
        with ResultStore(store_path) as store:
            record = store.point("fleet", scenario_content_digest(spec))
        assert record.status == STATUS_DONE
        assert record.attempts == 3  # two injected failures + the success

    def test_exhausted_retries_mark_failed_with_point_attribution(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=10")
        spec = tiny_spec("doomed")
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", [spec])
        summary = run_worker(
            "fleet",
            store=store_path,
            worker_id="w",
            serial=True,
            use_cache=False,
            retries=1,
            retry_backoff_s=0.01,
        )
        assert (summary.done, summary.failed, summary.retried) == (0, 1, 1)
        with ResultStore(store_path) as store:
            record = store.point("fleet", scenario_content_digest(spec))
        assert record.status == STATUS_FAILED
        assert "doomed" in record.error and record.digest[:12] in record.error

    def test_serial_timeout_is_post_hoc_and_terminal(self, tmp_path):
        spec = tiny_spec("overlong")
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", [spec])
        summary = run_worker(
            "fleet",
            store=store_path,
            worker_id="w",
            serial=True,
            use_cache=False,
            timeout_s=0.001,
        )
        assert (summary.done, summary.timed_out) == (0, 1)
        with ResultStore(store_path) as store:
            record = store.point("fleet", scenario_content_digest(spec))
        assert record.status == "timed_out"
        assert "timeout_s" in record.error

    def test_max_points_and_no_wait_bound_the_loop(self, tmp_path):
        specs = [tiny_spec(f"bounded-{i}") for i in range(3)]
        store_path = tmp_path / "store.sqlite"
        cache_dir = tmp_path / "cache"
        enroll(store_path, "fleet", specs)
        first = run_worker(
            "fleet",
            store=store_path,
            worker_id="w1",
            cache=cache_dir,
            serial=True,
            max_points=1,
        )
        assert (first.claimed, first.done) == (1, 1)
        # Leave one row running under a live (fresh) foreign lease: a
        # no-wait worker finishes the claimable rows and exits instead of
        # waiting to adopt.
        with ResultStore(store_path) as store:
            held = store.claim_next_pending("fleet", owner="other:1")
            assert held is not None
        second = run_worker(
            "fleet",
            store=store_path,
            worker_id="w2",
            cache=cache_dir,
            serial=True,
            wait_for_stragglers=False,
        )
        assert (second.claimed, second.done) == (1, 1)
        with ResultStore(store_path) as store:
            counts = store.status_counts("fleet")
        assert counts == {
            "pending": 0,
            "running": 1,
            "done": 2,
            "failed": 0,
            "timed_out": 0,
        }

    def test_lost_lease_discards_late_result(self, tmp_path):
        """A worker that looks dead long enough to be adopted must not
        double-complete its point."""
        spec = tiny_spec("adopted-under-me")
        digest = scenario_content_digest(spec)
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "fleet", [spec])
        adopter_done = threading.Event()

        real_claim = ResultStore.claim_next_pending

        def claim_then_lose(self, campaign, **kwargs):
            claimed = real_claim(self, campaign, **kwargs)
            if claimed is not None and kwargs.get("owner") == "victim":
                # Between our claim and our run, a sibling adopts the row
                # (as it would after stale_after_s of silence) and finishes
                # it first.
                with ResultStore(store_path) as other:
                    adopted = real_claim(
                        other,
                        campaign,
                        owner="adopter",
                        now=time.time() + 120.0,
                    )
                    assert adopted is not None and adopted.adopted
                    other.mark_done(
                        campaign,
                        digest,
                        {"scenario": spec.name},
                        require_owner="adopter",
                    )
                adopter_done.set()
            return claimed

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ResultStore, "claim_next_pending", claim_then_lose)
            summary = run_worker(
                "fleet",
                store=store_path,
                worker_id="victim",
                serial=True,
                use_cache=False,
            )
        assert adopter_done.is_set()
        assert (summary.claimed, summary.done, summary.lost_leases) == (1, 0, 1)
        with ResultStore(store_path) as store:
            record = store.point("fleet", digest)
        assert record.status == STATUS_DONE
        assert record.result_dict == {"scenario": spec.name}  # the adopter's write

    def test_worker_validates_arguments(self, tmp_path):
        with pytest.raises(ConfigurationError, match="retries"):
            run_worker("x", store=tmp_path / "s.sqlite", retries=-1)
        with pytest.raises(ConfigurationError, match="timeout_s"):
            run_worker("x", store=tmp_path / "s.sqlite", timeout_s=0.0)
        with pytest.raises(ConfigurationError, match="poll_s"):
            run_worker("x", store=tmp_path / "s.sqlite", poll_s=0.0)
        with pytest.raises(ConfigurationError, match="max_points"):
            run_worker("x", store=tmp_path / "s.sqlite", max_points=0)


class TestBatchAndWorkerShareACampaign:
    def test_batch_and_worker_drain_one_campaign_exactly_once(self, tmp_path):
        """A batch and a fleet worker draining the same campaign at the
        same time split the points between them: each point runs once and
        is marked ``done`` once, with results identical to a serial run."""

        def paced(problem, options, suitability):
            time.sleep(0.2)
            return get_solver_entry("greedy").fn(problem, options, suitability)

        register_solver("paced-share", paced, overwrite=True)
        specs = [tiny_spec(f"shared-{i}", solver="paced-share") for i in range(6)]
        cache_dir = tmp_path / "cache"
        reference = [
            result.fingerprint()
            for result in run_batch(specs, cache=cache_dir, jobs=1).results
        ]
        store_path = tmp_path / "store.sqlite"
        enroll(store_path, "shared", specs)

        summaries: dict = {}

        def drain() -> None:
            summaries["worker"] = run_worker(
                "shared",
                store=store_path,
                worker_id="sharer",
                cache=cache_dir,
                serial=True,
                poll_s=0.05,
            )

        worker = threading.Thread(target=drain)
        worker.start()
        try:
            # Start the batch only once the worker demonstrably holds a lease.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                with ResultStore(store_path) as store:
                    if any(
                        record.lease_owner == "sharer"
                        for record in store.points("shared", STATUS_RUNNING)
                    ):
                        break
                time.sleep(0.02)
            else:
                pytest.fail("worker never claimed a point")
            batch = run_batch(specs, cache=cache_dir, jobs=2, store=store_path, campaign="shared")
        finally:
            worker.join(timeout=60.0)

        assert not worker.is_alive()
        assert summaries["worker"].done >= 1 and batch.campaign.computed >= 1
        assert summaries["worker"].done + batch.campaign.computed == len(specs)
        assert summaries["worker"].lost_leases == 0
        with ResultStore(store_path) as store:
            records = store.points("shared")
            stored = [result.fingerprint() for result in store.results("shared")]
        assert {record.status for record in records} == {STATUS_DONE}
        assert sum(record.attempts for record in records) == len(specs)
        assert [result.fingerprint() for result in batch.results] == reference
        assert stored == reference


# ---------------------------------------------------------------------------
# Store spellings: paths and sqlite:/// URLs open the same file everywhere
# ---------------------------------------------------------------------------


class TestStoreBackends:
    def test_sqlite_url_resolves_to_result_store(self, tmp_path):
        url = f"sqlite:///{tmp_path / 'via-url.sqlite'}"
        with resolve_store(url) as store:
            assert isinstance(store, ResultStore)
            store.enroll("camp", [tiny_spec("a")])
        assert (tmp_path / "via-url.sqlite").exists()

    def test_store_from_url_rejects_unknowns_actionably(self):
        with pytest.raises(ConfigurationError, match="sqlite:///"):
            resolve_store("postgres://host/db")
        with pytest.raises(ConfigurationError, match="no host"):
            resolve_store("sqlite://host/db.sqlite")

    def test_plain_paths_keep_working_untouched(self, tmp_path):
        path = tmp_path / "plain.sqlite"
        with resolve_store(path) as store:
            assert isinstance(store, ResultStore)
        assert resolve_store("none") is None
        assert resolve_store(None) is None

    @pytest.mark.parametrize(
        "spelling",
        ["str", "path", "sqlite-url", "sqlite-default", "none", "sqlite-host", "postgres"],
    )
    def test_every_entry_point_reads_a_spelling_alike(
        self, spelling, tmp_path, monkeypatch
    ):
        target = tmp_path / "store.sqlite"
        monkeypatch.setenv(STORE_PATH_ENV, str(target))
        store = {
            "str": str(target),
            "path": target,
            "sqlite-url": f"sqlite://{target}",
            "sqlite-default": "sqlite://",
            "none": "none",
            "sqlite-host": "sqlite://host/db",
            "postgres": "postgres://h/db",
        }[spelling]

        def worker():
            return run_worker(
                "camp",
                store=store,
                cache=tmp_path / "cache",
                serial=True,
                max_points=1,
                wait_for_stragglers=False,
            )

        if spelling == "none":
            assert resolve_store(store) is None
            with pytest.raises(ConfigurationError, match="a worker needs a store"):
                worker()
            return
        if spelling in ("sqlite-host", "postgres"):
            message = "no host" if spelling == "sqlite-host" else "sqlite:///"
            for open_store in (resolve_store, open_serve_store):
                with pytest.raises(ConfigurationError, match=message):
                    open_store(store)
            with pytest.raises(ConfigurationError, match=message):
                worker()
            assert not target.exists()
            return
        with resolve_store(store) as opened:
            assert opened.path == target
            opened.enroll("camp", [tiny_spec("spelled")])
        with open_serve_store(store) as served:
            assert served.path == target
            assert served.status_counts("camp")[STATUS_PENDING] == 1
        summary = worker()
        assert (summary.claimed, summary.done) == (1, 1)
        with ResultStore(target) as check:
            assert check.status_counts("camp")[STATUS_DONE] == 1


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestWorkerCli:
    def test_store_url_in_the_environment_names_that_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        target = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_PATH_ENV, f"sqlite://{target}")
        assert main(["campaign", "enroll", "env-camp", "residential-south"]) == 0
        assert target.exists()
        assert not list(tmp_path.glob("sqlite:*"))
        hint = capsys.readouterr().out.rsplit("--store ", 1)[1].strip()
        with resolve_store(hint) as store:
            assert store.path == target
            assert store.status_counts("env-camp")[STATUS_PENDING] == 1

    def test_enroll_then_worker_then_status_fleet_view(self, tmp_path, capsys):
        from repro.cli import main

        store_path = tmp_path / "store.sqlite"
        cache_dir = tmp_path / "cache"
        spec_path = tmp_path / "point.json"
        tiny_spec("cli-point").save(spec_path)

        assert (
            main(
                [
                    "campaign",
                    "enroll",
                    "cli-fleet",
                    str(spec_path),
                    "--store",
                    str(store_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 point(s) enrolled" in out and "1 pending" in out

        assert (
            main(
                [
                    "campaign",
                    "worker",
                    "cli-fleet",
                    "--id",
                    "cli-worker",
                    "--serial",
                    "--store",
                    f"sqlite:///{store_path}",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worker 'cli-worker': claimed 1, done 1" in out

        # Fleet view: pin a running lease and confirm the per-owner line.
        with ResultStore(store_path) as store:
            store.enroll("cli-fleet", [tiny_spec("second-point")])
            store.claim_next_pending("cli-fleet", owner="fleet-w9")
        assert (
            main(["campaign", "status", "cli-fleet", "--store", str(store_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "running leases by owner" in out
        assert "fleet-w9: 1 point(s)" in out
        assert "lease=fleet-w9" in out

        payload = None
        assert (
            main(
                [
                    "campaign",
                    "status",
                    "cli-fleet",
                    "--json",
                    "--store",
                    str(store_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in payload}
        assert by_name["second-point"]["lease_owner"] == "fleet-w9"
        assert by_name["second-point"]["heartbeat_ts"] is not None

    def test_worker_exit_code_reflects_failures(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(faults.FAULTS_ENV, "solver.error:times=10")
        store_path = tmp_path / "store.sqlite"
        spec_path = tmp_path / "point.json"
        tiny_spec("fails").save(spec_path)
        enroll(store_path, "cli-fail", [ScenarioSpec.load(spec_path)])
        assert (
            main(
                [
                    "campaign",
                    "worker",
                    "cli-fail",
                    "--serial",
                    "--no-cache",
                    "--store",
                    str(store_path),
                ]
            )
            == 1
        )
        assert "failed 1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Fleet chaos: 3 real worker processes, one SIGKILLed mid-point
# ---------------------------------------------------------------------------


def _worker_argv(campaign: str, store: Path, cache: Path, worker_id: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro",
        "campaign",
        "worker",
        campaign,
        "--id",
        worker_id,
        "--store",
        str(store),
        "--cache-dir",
        str(cache),
        "--poll",
        "0.2",
        "--heartbeat",
        "0.5",
        "--stale-after",
        "2.0",
    ]


def _worker_env(src: Path, store: Path, extra: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "REPRO_STORE_PATH": str(store)}
    env.pop(faults.FAULTS_ENV, None)
    env.pop(faults.FAULTS_STATE_ENV, None)
    env.update(extra)
    return env


class TestFleetChaos:
    def test_fleet_converges_exactly_once_despite_sigkill_and_faults(self, tmp_path):
        """The tentpole acceptance run: the full catalog over a 3-worker
        fleet with chaos armed (worker.hang in the SIGKILL victim,
        worker.crash + store.io in a survivor) must converge with zero
        failures, one terminal state per point, and results
        fingerprint-identical to the serial single-host run."""
        src = Path(__file__).resolve().parents[1] / "src"
        specs = list(builtin_scenarios().values())
        cache_dir = tmp_path / "cache"
        campaign = "chaos-fleet"
        store_path = tmp_path / "store.sqlite"

        # Serial single-host reference run; also warms the shared stage
        # cache so the fleet pass is seconds, not minutes.
        reference = {
            result.scenario: result.fingerprint()
            for result in run_batch(specs, cache=cache_dir, jobs=1).results
        }
        enroll(store_path, campaign, specs)

        procs: dict = {}
        try:
            # The victim claims a point and hangs in-process (serial mode:
            # the SIGKILL below kills the worker itself, not a pool child),
            # leaving a lease that only goes stale -- never released.
            procs["victim"] = subprocess.Popen(
                _worker_argv(campaign, store_path, cache_dir, "victim") + ["--serial"],
                env=_worker_env(
                    src,
                    store_path,
                    {faults.FAULTS_ENV: "worker.hang:times=1,sleep=60"},
                ),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )

            # Wait until the victim demonstrably holds its lease.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if store_path.exists():
                    with ResultStore(store_path) as store:
                        held = [
                            record
                            for record in store.points(campaign, STATUS_RUNNING)
                            if record.lease_owner == "victim"
                        ]
                    if held:
                        break
                time.sleep(0.1)
            else:
                pytest.fail("victim never claimed a point")
            victim_digest = held[0].digest

            # First survivor; it also absorbs a worker crash (pool-child
            # death; the state dir makes times=1 span replacement children)
            # and injected store write errors.
            procs["crasher"] = subprocess.Popen(
                _worker_argv(campaign, store_path, cache_dir, "crasher"),
                env=_worker_env(
                    src,
                    store_path,
                    {
                        faults.FAULTS_ENV: "worker.crash:times=1;store.io:times=2",
                        faults.FAULTS_STATE_ENV: str(tmp_path / "crasher-faults"),
                    },
                ),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )

            # Hold the second survivor back until the crasher demonstrably
            # owns work (a running lease, or a completed point -- the hung
            # victim cannot finish anything, so all progress is the
            # crasher's).  Otherwise a fast sibling can drain the warm
            # cache before the crasher's interpreter finishes booting and
            # the armed crash never fires.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                with ResultStore(store_path) as store:
                    crasher_busy = any(
                        record.lease_owner == "crasher"
                        for record in store.points(campaign, STATUS_RUNNING)
                    )
                    crasher_done = store.status_counts(campaign)[STATUS_DONE] > 0
                if crasher_busy or crasher_done:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("crasher never claimed a point")

            procs["steady"] = subprocess.Popen(
                _worker_argv(campaign, store_path, cache_dir, "steady"),
                env=_worker_env(src, store_path, {}),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )

            # SIGKILL the victim mid-point: no release, no cleanup.
            procs["victim"].kill()
            procs["victim"].wait(timeout=30.0)

            outputs = {}
            for name in ("crasher", "steady"):
                out, err = procs[name].communicate(timeout=180.0)
                outputs[name] = (procs[name].returncode, out.decode(), err.decode())
        finally:
            for proc in procs.values():
                proc.kill()

        for name, (code, out, err) in outputs.items():
            assert code == 0, f"{name} exited {code}: {out}\n{err}"

        with ResultStore(store_path) as store:
            records = store.points(campaign)
            results = store.results(campaign)

        # Every point terminal exactly once, none failed or orphaned.
        statuses = {record.status for record in records}
        assert statuses == {STATUS_DONE}
        assert len(records) == len(specs)

        # Exactly-once accounting: 13 first attempts, plus one re-attempt
        # for the crashed pool child and one for the adopted victim lease.
        attempts = {record.name: record.attempts for record in records}
        assert sum(attempts.values()) == len(specs) + 2, attempts
        assert all(1 <= count <= 3 for count in attempts.values()), attempts

        # The victim's hung point was adopted -- by a survivor, not by the
        # dead victim's ghost.
        victim_record = next(r for r in records if r.digest == victim_digest)
        assert victim_record.lease_owner is None  # cleared on mark_done
        assert victim_record.attempts >= 2

        # One survivor absorbed the crash: its summary says retried >= 1
        # and the fleet as a whole adopted exactly one lease.
        assert "adopted 1" in outputs["crasher"][1] + outputs["steady"][1]
        assert "retried 1" in outputs["crasher"][1]

        # Merged results are fingerprint-identical to the serial run.
        assert {
            result.scenario: result.fingerprint() for result in results
        } == reference
