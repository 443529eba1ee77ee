"""Tests of the durable result store and fault-tolerant campaign runner.

Covers the store's row lifecycle, the crash/resume contract (a failed point
is recorded with its name + digest, and a resume recomputes *exactly* the
missing points), per-point retries, worker-death isolation, and the
bit-for-bit equivalence of the store-backed and in-memory paths over the
scenario catalog.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, ScenarioExecutionError
from repro.gis import RoofSpec
from repro.runner import (
    CampaignSummary,
    ResultStore,
    get_solver_entry,
    register_solver,
    resolve_store,
    run_batch,
    scenario_content_digest,
)
from repro.runner.store import (
    _FIND_DONE_SQL,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_PENDING,
    STORE_SCHEMA_VERSION,
    default_store_path,
)
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec, builtin_scenarios
from repro.sweep import SweepAxis, SweepPlan, SweepResult, run_sweep


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


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "campaigns.sqlite") as handle:
        yield handle


@pytest.fixture()
def flaky_solver(tmp_path):
    """A registered solver that fails while the flag file exists.

    Returns the flag path; delete the file to make the solver succeed on
    the next attempt (the crash -> fix -> resume workflow).
    """
    flag = tmp_path / "flaky-fail-flag"
    flag.write_text("fail")

    def solver(problem, options, suitability):
        if flag.exists():
            raise RuntimeError("simulated solver crash")
        return get_solver_entry("greedy").fn(problem, options, suitability)

    register_solver("flaky-test", solver, overwrite=True)
    return flag


# ---------------------------------------------------------------------------
# Point identity
# ---------------------------------------------------------------------------


class TestPointDigest:
    def test_cache_format_does_not_enter_the_digest(self, monkeypatch):
        # A stage-cache layout change must not re-enroll stored points.
        from repro.runner import cache as cache_module
        from repro.runner import stages as stages_module

        spec = builtin_scenarios()["residential-south"]
        before = scenario_content_digest(spec)
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 99)
        monkeypatch.setattr(stages_module, "CACHE_FORMAT_VERSION", 99, raising=False)
        assert scenario_content_digest(spec) == before

    def test_catalog_digest_is_pinned(self):
        # The digest every store written since cache format 4 holds for
        # this scenario; a change here orphans those campaign rows.
        spec = builtin_scenarios()["residential-south"]
        assert scenario_content_digest(spec) == (
            "34c1c603385aca0740a2d0faaee464d5d628fa55354e5beaa95c065ab74c17ff"
        )


# ---------------------------------------------------------------------------
# ResultStore row lifecycle
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_enroll_is_idempotent_and_ordered(self, store):
        specs = [tiny_spec("a"), tiny_spec("b"), tiny_spec("c")]
        first = store.enroll("camp", specs)
        assert [record.name for record in first] == ["a", "b", "c"]
        assert [record.position for record in first] == [0, 1, 2]
        assert all(record.status == "pending" for record in first)
        # Re-enrolling (the resume entry point) keeps rows untouched and
        # appends only genuinely new points.
        again = store.enroll("camp", specs + [tiny_spec("d")])
        assert [record.position for record in again] == [0, 1, 2, 3]
        assert store.status_counts("camp")["pending"] == 4

    def test_duplicate_digests_rejected(self, store):
        spec = tiny_spec("a")
        with pytest.raises(ConfigurationError):
            store.enroll("camp", [spec, spec])

    def test_transitions_and_accounting(self, store):
        spec = tiny_spec("a")
        (record,) = store.enroll("camp", [spec])
        digest = record.digest
        assert digest == scenario_content_digest(spec)

        store.mark_running("camp", digest)
        point = store.point("camp", digest)
        assert (point.status, point.attempts) == ("running", 1)

        store.mark_failed("camp", digest, "boom")
        point = store.point("camp", digest)
        assert (point.status, point.error) == (STATUS_FAILED, "boom")

        store.mark_running("camp", digest)
        assert store.point("camp", digest).attempts == 2
        result = run_batch([spec], jobs=1, use_cache=False).results[0]
        store.mark_done("camp", digest, result, wall_time_s=1.5)
        point = store.point("camp", digest)
        assert point.status == STATUS_DONE
        assert point.error is None
        assert point.wall_time_s == 1.5
        assert point.result().fingerprint() == result.fingerprint()
        # The spec is stored in full, so resume can rebuild the work list.
        assert point.spec().to_dict() == spec.to_dict()

    def test_find_done_is_served_by_the_digest_index(self, store):
        """The warm-hint and memo lookup by digest alone, which the
        ``(campaign, digest)`` key cannot serve, must not scan the table."""
        plan = store._conn.execute(
            f"EXPLAIN QUERY PLAN {_FIND_DONE_SQL}", ("some-digest",)
        ).fetchall()
        assert any("idx_points_digest" in row["detail"] for row in plan), [
            tuple(row) for row in plan
        ]

    def test_unknown_point_and_campaigns_listing(self, store):
        with pytest.raises(ConfigurationError):
            store.point("camp", "no-such-digest")
        store.enroll("camp-b", [tiny_spec("b")])
        store.enroll("camp-a", [tiny_spec("a")])
        assert [name for name, _ in store.campaigns()] == ["camp-a", "camp-b"]

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "campaigns.sqlite"
        ResultStore(path).close()
        import sqlite3

        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        with pytest.raises(ConfigurationError):
            ResultStore(path)

    def test_v2_store_migrates_in_place_to_v3(self, tmp_path):
        """A schema-v2 store (pre-priority) opens cleanly: the migration
        adds the ``priority`` column in place, existing rows default to
        ``batch``, and claim ordering is exactly the pre-priority
        enrollment order."""
        path = tmp_path / "campaigns.sqlite"
        with ResultStore(path) as seeded:
            seeded.enroll("camp", [tiny_spec("old-a"), tiny_spec("old-b")])
        import sqlite3

        with sqlite3.connect(path) as conn:
            # Rewind to v2: drop the v3 column, stamp the old version.
            conn.execute("ALTER TABLE points DROP COLUMN priority")
            conn.execute("UPDATE meta SET value='2' WHERE key='schema_version'")
        with ResultStore(path) as migrated:
            assert [p.priority for p in migrated.points("camp")] == ["batch", "batch"]
            first = migrated.claim_next_pending("camp", owner="w1")
            second = migrated.claim_next_pending("camp", owner="w1")
            assert [first.point.name, second.point.name] == ["old-a", "old-b"]
        with sqlite3.connect(path) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            assert row[0] == str(STORE_SCHEMA_VERSION)

    def test_interrupted_migration_is_idempotent(self, tmp_path):
        """Version stamp rewound but the column already added (a crash
        between ALTER and UPDATE): reopening must tolerate the duplicate
        column instead of failing the ALTER."""
        path = tmp_path / "campaigns.sqlite"
        with ResultStore(path) as seeded:
            seeded.enroll("camp", [tiny_spec("survivor")])
        import sqlite3

        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value='2' WHERE key='schema_version'")
        with ResultStore(path) as migrated:
            assert [p.name for p in migrated.points("camp")] == ["survivor"]

    def test_equal_priority_claim_order_matches_pre_priority_order(self, store):
        """When every row shares one priority tier the claim order is the
        plain enrollment ``position`` order -- the exact pre-v3 behaviour,
        pinned so the priority CASE never perturbs legacy campaigns."""
        names = [f"p{i}" for i in range(5)]
        store.enroll("camp", [tiny_spec(name) for name in names])
        claimed = []
        while True:
            got = store.claim_next_pending("camp", owner="w1")
            if got is None:
                break
            claimed.append(got.point.name)
        assert claimed == names

    def test_enroll_priority_validated_and_kept_on_reenroll(self, store):
        from repro.runner import PRIORITY_INTERACTIVE

        spec = tiny_spec("tiered")
        with pytest.raises(ConfigurationError):
            store.enroll("camp", [spec], priority="urgent")
        (record,) = store.enroll("camp", [spec], priority=PRIORITY_INTERACTIVE)
        assert record.priority == PRIORITY_INTERACTIVE
        # Idempotent re-enrollment (the resume path) keeps the stored tier.
        (again,) = store.enroll("camp", [spec])
        assert again.priority == PRIORITY_INTERACTIVE

    def test_default_store_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "custom.sqlite"))
        assert default_store_path() == tmp_path / "custom.sqlite"

    def test_resolve_store(self, tmp_path, store):
        assert resolve_store(None) is None
        assert resolve_store("none") is None
        assert resolve_store("NONE") is None
        assert resolve_store(store) is store
        opened = resolve_store(tmp_path / "other.sqlite")
        assert isinstance(opened, ResultStore)
        opened.close()


# ---------------------------------------------------------------------------
# Campaign execution: skip, fail, retry, resume
# ---------------------------------------------------------------------------


class TestCampaignRun:
    def test_worker_error_wrapped_with_point_identity_in_memory(self, tmp_path):
        bad = replace(tiny_spec("too-big"), n_modules=500, n_series=10)
        with pytest.raises(ScenarioExecutionError) as excinfo:
            run_batch([bad], jobs=1, use_cache=False)
        message = str(excinfo.value)
        assert "too-big" in message
        assert scenario_content_digest(bad)[:12] in message
        assert excinfo.value.scenario == "too-big"

    def test_worker_error_wrapped_in_parallel_worker(self, tmp_path):
        # The failure happens inside a worker process; the pool must survive
        # and the error must name the failing point, not a bare traceback.
        good = tiny_spec("good")
        bad = replace(tiny_spec("too-big"), n_modules=500, n_series=10)
        with pytest.raises(ScenarioExecutionError) as excinfo:
            run_batch([good, bad], cache=tmp_path / "cache", jobs=2)
        assert "too-big" in str(excinfo.value)

    def test_failure_recorded_then_resume_computes_exactly_missing(
        self, store, flaky_solver
    ):
        specs = [
            tiny_spec("point-a"),
            replace(tiny_spec("point-b"), solver=SolverSpec(name="flaky-test")),
            tiny_spec("point-c"),
        ]
        digest = scenario_content_digest(specs[1])

        batch = run_batch(
            specs, store=store, campaign="camp", jobs=1, use_cache=False
        )
        summary = batch.campaign
        assert (summary.done, summary.computed, summary.failed) == (2, 2, 1)
        assert summary.skipped == 0
        assert [result.scenario for result in batch.results] == ["point-a", "point-c"]

        # The store has the failure row, attributed to its point.
        (failed,) = store.points("camp", STATUS_FAILED)
        assert failed.name == "point-b"
        assert failed.digest == digest
        assert failed.attempts == 1
        assert "point-b" in failed.error and digest[:12] in failed.error
        assert "simulated solver crash" in failed.error

        # Fix the cause and resume: exactly n - k = 1 point recomputes.
        flaky_solver.unlink()
        resumed = run_batch(
            specs, store=store, campaign="camp", jobs=1, use_cache=False
        )
        summary = resumed.campaign
        assert (summary.done, summary.computed, summary.skipped) == (3, 1, 2)
        assert summary.failed == 0
        # With the cache disabled every recomputation is visible: the resume
        # recomputed each pipeline stage exactly once -- the failed point's
        # stages and nothing else.
        recomputed = resumed.results[1]
        assert recomputed.scenario == "point-b"
        assert summary.stage_recomputes == {
            stage: 1 for stage in recomputed.stage_cached
        }
        assert summary.stage_hits == {stage: 0 for stage in recomputed.stage_cached}
        assert [result.scenario for result in resumed.results] == [
            "point-a",
            "point-b",
            "point-c",
        ]

        # The resumed campaign's results match a fresh in-memory run.
        fresh = run_batch(specs, jobs=1, use_cache=False)
        assert [r.fingerprint() for r in resumed.results] == [
            r.fingerprint() for r in fresh.results
        ]

    def test_retries_within_one_run(self, store, flaky_solver):
        spec = replace(tiny_spec("retry-me"), solver=SolverSpec(name="retry-probe"))

        attempts = []

        def solver(problem, options, suitability):
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise RuntimeError(f"transient failure #{len(attempts)}")
            return get_solver_entry("greedy").fn(problem, options, suitability)

        register_solver("retry-probe", solver, overwrite=True)
        batch = run_batch(
            [spec],
            store=store,
            campaign="camp",
            jobs=1,
            use_cache=False,
            retries=2,
        )
        summary = batch.campaign
        assert (summary.done, summary.failed, summary.retried) == (1, 0, 2)
        assert store.point("camp", scenario_content_digest(spec)).attempts == 3

    def test_retry_budget_exhausted(self, store, flaky_solver):
        spec = replace(tiny_spec("always-bad"), solver=SolverSpec(name="flaky-test"))
        batch = run_batch(
            [spec],
            store=store,
            campaign="camp",
            jobs=1,
            use_cache=False,
            retries=2,
        )
        summary = batch.campaign
        assert (summary.done, summary.failed, summary.retried) == (0, 1, 2)
        assert store.point("camp", scenario_content_digest(spec)).attempts == 3

    def test_worker_death_fails_only_its_point(self, store, monkeypatch):
        """A dying worker process (BrokenProcessPool) is isolated and recovered."""
        from repro.runner import batch as batch_module

        killed = []

        def make_executor(kill_limit):
            class SuddenDeathExecutor:
                """In-process stand-in whose 'worker' dies for one point."""

                def __init__(self, max_workers, initializer=None):
                    self.max_workers = max_workers

                def submit(self, fn, payload):
                    future = Future()
                    name = payload[0]["name"]
                    if name == "victim" and len(killed) < kill_limit:
                        killed.append(name)
                        future.set_exception(BrokenProcessPool("simulated OOM kill"))
                    else:
                        future.set_result(fn(payload))
                    return future

                def shutdown(self, wait=True, cancel_futures=False):
                    pass

            return SuddenDeathExecutor

        specs = [tiny_spec("survivor"), tiny_spec("victim")]

        # A transient death: the casualty is re-enqueued on the rebuilt pool
        # WITHOUT consuming the error-retry budget (retries=0), because most
        # pool-death casualties are innocent bystanders of the culprit.
        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", make_executor(1))
        batch = run_batch(
            specs, store=store, campaign="transient", jobs=2, use_cache=False
        )
        assert (batch.campaign.done, batch.campaign.failed) == (2, 0)
        assert batch.campaign.retried == 1
        victim = next(
            record for record in store.points("transient") if record.name == "victim"
        )
        assert victim.attempts == 2

        # A point that deterministically kills its worker exhausts the
        # bounded free passes and fails -- without looping forever and
        # without taking the survivor down with it.
        killed.clear()
        monkeypatch.setattr(batch_module, "ProcessPoolExecutor", make_executor(99))
        batch = run_batch(
            specs, store=store, campaign="persistent", jobs=2, use_cache=False
        )
        assert (batch.campaign.done, batch.campaign.failed) == (1, 1)
        (failed,) = store.points("persistent", STATUS_FAILED)
        assert failed.name == "victim"
        assert "worker process died" in failed.error

    def test_batch_leaves_other_enrolled_points_alone(self, store):
        """A batch given part of a campaign claims only its own points: the
        rest stay ``pending`` with no attempt charged."""
        specs = [tiny_spec(f"member-{i}") for i in range(4)]
        store.enroll("camp", specs)
        batch = run_batch(specs[:2], store=store, campaign="camp", jobs=1, use_cache=False)
        assert (batch.campaign.done, batch.campaign.computed) == (2, 2)
        by_name = {record.name: record for record in store.points("camp")}
        for spec in specs[2:]:
            record = by_name[spec.name]
            assert (record.status, record.attempts) == (STATUS_PENDING, 0)

    def test_interrupted_running_rows_recovered_on_resume(self, store):
        spec = tiny_spec("stuck")
        (record,) = store.enroll("camp", [spec])
        store.mark_running("camp", record.digest)  # driver died mid-point
        batch = run_batch(
            [spec], store=store, campaign="camp", jobs=1, use_cache=False
        )
        assert (batch.campaign.done, batch.campaign.failed) == (1, 0)
        assert store.point("camp", record.digest).attempts == 2


# ---------------------------------------------------------------------------
# Equivalence with the in-memory path + byte-compatible export
# ---------------------------------------------------------------------------


class TestStoreEquivalence:
    def test_store_backed_matches_in_memory_over_catalog(self, tmp_path):
        specs = list(builtin_scenarios().values())
        cache = tmp_path / "cache"
        memory = run_batch(specs, cache=cache, jobs=1)
        stored = run_batch(
            specs,
            cache=cache,
            jobs=1,
            store=tmp_path / "campaigns.sqlite",
            campaign="catalog",
        )
        assert [r.fingerprint() for r in stored.results] == [
            r.fingerprint() for r in memory.results
        ]
        # A warm re-run reloads every point from the store, identically.
        warm = run_batch(
            specs,
            cache=cache,
            jobs=1,
            store=tmp_path / "campaigns.sqlite",
            campaign="catalog",
        )
        assert warm.campaign.computed == 0
        assert warm.campaign.skipped == len(specs)
        assert [r.fingerprint() for r in warm.results] == [
            r.fingerprint() for r in memory.results
        ]

    def test_export_is_byte_compatible_with_jsonl_writer(self, tmp_path):
        specs = [tiny_spec("a"), tiny_spec("b")]
        store_path = tmp_path / "campaigns.sqlite"
        batch = run_batch(
            specs,
            store=store_path,
            campaign="camp",
            jobs=1,
            use_cache=False,
        )
        # The JSONL format: one sorted-key record per result, in input order.
        reference = "".join(
            json.dumps(result.to_dict(), sort_keys=True) + "\n"
            for result in batch.results
        ).encode("utf-8")
        exported = tmp_path / "exported.jsonl"
        with ResultStore(store_path) as store:
            assert store.export("camp", exported) == 2
        assert exported.read_bytes() == reference
        records = [json.loads(line) for line in exported.read_text().splitlines()]
        assert [record["scenario"] for record in records] == ["a", "b"]


# ---------------------------------------------------------------------------
# Sweeps through the store
# ---------------------------------------------------------------------------


class TestSweepCampaign:
    @pytest.fixture()
    def plan(self):
        return SweepPlan(
            name="store-sweep",
            base=tiny_spec("base"),
            axes=(SweepAxis("n_modules", (2, 4)),),
        )

    def test_sweep_store_matches_in_memory_and_resumes_noop(self, tmp_path, plan):
        cache = tmp_path / "cache"
        memory = run_sweep(plan, cache=cache, jobs=1)
        stored = run_sweep(
            plan, cache=cache, jobs=1, store=tmp_path / "campaigns.sqlite"
        )
        assert stored.campaign is not None
        assert stored.campaign.campaign == plan.campaign_name == "sweep:store-sweep"
        assert [p.result.fingerprint() for p in stored.points] == [
            p.result.fingerprint() for p in memory.points
        ]
        # Round-trip through JSON keeps the campaign summary.
        restored = SweepResult.from_dict(stored.to_dict())
        assert restored.campaign.as_dict() == stored.campaign.as_dict()

        warm = run_sweep(
            plan, cache=cache, jobs=1, store=tmp_path / "campaigns.sqlite"
        )
        assert (warm.campaign.computed, warm.campaign.skipped) == (0, plan.n_points)
        assert [p.result.fingerprint() for p in warm.points] == [
            p.result.fingerprint() for p in memory.points
        ]

    def test_sweep_with_failed_points_raises_but_keeps_state(
        self, tmp_path, plan, flaky_solver
    ):
        failing = SweepPlan(
            name="flaky-sweep",
            base=replace(tiny_spec("base"), solver=SolverSpec(name="flaky-test")),
            axes=(SweepAxis("n_modules", (2, 4)),),
        )
        store_path = tmp_path / "campaigns.sqlite"
        with pytest.raises(ScenarioExecutionError, match="flaky-sweep"):
            run_sweep(failing, jobs=1, use_cache=False, store=store_path)
        with ResultStore(store_path) as store:
            counts = store.status_counts(failing.campaign_name)
        assert counts["failed"] == 2

        # Fixing the cause and re-running the same sweep resumes to completion.
        flaky_solver.unlink()
        resumed = run_sweep(failing, jobs=1, use_cache=False, store=store_path)
        assert (resumed.campaign.computed, resumed.campaign.failed) == (2, 0)

    def test_campaign_summary_round_trip(self):
        summary = CampaignSummary(
            campaign="c",
            n_points=3,
            done=2,
            computed=1,
            skipped=1,
            failed=1,
            retried=2,
            stage_hits={"solar": 1},
            stage_recomputes={"solar": 0},
        )
        assert CampaignSummary.from_dict(summary.as_dict()) == summary
