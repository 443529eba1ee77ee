"""Warm-start and anytime-execution tests across the solver stack.

Covers the PR's equivalence guarantees end to end:

* the solver registry's capability declarations (warm-start support,
  budget option) and backward compatibility with plain three-argument
  solver adapters;
* greedy prefix replay: a warm solve resumed from a smaller instance's
  placement is module-for-module identical to the cold solve, and every
  malformed/foreign hint falls back to a cold solve instead of failing;
* the ILP takes no hint: its points in a warm sweep solve cold;
* capability-driven budget threading through fallback chains (no solver
  name special-casing);
* warm-start provenance on :class:`ScenarioResult` (serialised, but kept
  out of the fingerprint) and the ``SolverSpec.warm_start`` opt-out;
* sweep-level warm execution: axis-ascending ordering, wiring of exact
  ``n_modules``-step pairs only, and a warm sweep whose aggregated table
  matches the cold run exactly;
* store-level wiring: enrollment-time neighbour digests, claim-time hint
  resolution, the v3 -> v4 schema migration, a worker fleet picking hints
  up from done rows, and rows without the exact-prefix flag solving cold.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.core import FloorplanProblem, GreedyConfig, greedy_floorplan
from repro.errors import ConfigurationError
from repro.gis import RoofSpec
from repro.pv.array import SeriesParallelTopology
from repro.runner import (
    ResultStore,
    SolverOutcome,
    WarmStart,
    get_solver_entry,
    register_solver,
    run_batch,
    run_scenario,
    run_worker,
    solve,
    solve_with_fallback,
)
from repro.runner.stages import ScenarioResult
from repro.runner.store import STORE_SCHEMA_VERSION
from repro.scenario import ScenarioSpec, TimeSpec
from repro.scenario.spec import SolverSpec
from repro.sweep import SweepAxis, SweepPlan, run_sweep


def tiny_spec(
    name: str, n_modules: int = 2, warm_start: bool = True, solver: str = "greedy"
) -> ScenarioSpec:
    """A seconds-scale scenario; all sizes share one roof (and so one
    solar field), which is what makes their placements prefix-compatible."""
    return ScenarioSpec(
        name=name,
        roof=RoofSpec(
            name="warm-roof",
            width_m=6.0,
            depth_m=4.0,
            tilt_deg=30.0,
            azimuth_deg=0.0,
        ),
        n_modules=n_modules,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name=solver, warm_start=warm_start),
    )


# ---------------------------------------------------------------------------
# Registry capabilities
# ---------------------------------------------------------------------------


class TestRegistryCapabilities:
    def test_builtin_capability_declarations(self):
        assert get_solver_entry("greedy").supports_warm_start
        assert get_solver_entry("ilp").budget_option == "time_limit_s"
        assert get_solver_entry("ilp").supports_budget
        assert not get_solver_entry("ilp").supports_warm_start
        for name in ("traditional", "exhaustive"):
            entry = get_solver_entry(name)
            assert not entry.supports_warm_start
            assert not entry.supports_budget

    def test_legacy_three_argument_solver_still_works(self, small_problem):
        """Solvers registered without capabilities keep the old 3-arg
        calling convention -- a warm hint must not reach (or break) them."""
        seen = {}

        def legacy(problem, options, suitability):
            seen["options"] = dict(options)
            result = greedy_floorplan(problem, suitability=suitability)
            return SolverOutcome(
                solver="legacy-test",
                placement=result.placement,
                suitability=result.suitability,
                runtime_s=result.runtime_s,
                info={},
            )

        register_solver("legacy-test", legacy, overwrite=True)
        cold = greedy_floorplan(small_problem)
        hint = WarmStart(placement=cold.placement, exact_prefix=True)
        outcome = solve(small_problem, "legacy-test", warm_start=hint, budget_s=9.0)
        assert outcome.placement.n_modules == small_problem.n_modules
        assert not outcome.warm_started
        # No declared budget option either: budget_s is silently dropped.
        assert seen["options"] == {}

    def test_builtin_adapters_accept_three_positional_args(self, small_problem):
        """A solver entry's ``fn`` is the raw adapter: warm-capable builtins
        must keep the hint optional so legacy 3-arg callers keep working."""
        outcome = get_solver_entry("greedy").fn(small_problem, {}, None)
        assert outcome.placement.n_modules == small_problem.n_modules
        assert not outcome.warm_started

    def test_budget_threaded_into_declared_option(self, small_problem):
        received = {}

        def probe(problem, options, suitability):
            received.update(options)
            result = greedy_floorplan(problem, suitability=suitability)
            return SolverOutcome(
                solver="budget-probe",
                placement=result.placement,
                suitability=result.suitability,
                runtime_s=result.runtime_s,
                info={},
            )

        register_solver(
            "budget-probe", probe, overwrite=True, budget_option="wall_s"
        )
        solve(small_problem, "budget-probe", budget_s=2.5)
        assert received["wall_s"] == 2.5
        # An explicit caller option always wins over the threaded budget.
        received.clear()
        solve(small_problem, "budget-probe", options={"wall_s": 9.0}, budget_s=2.5)
        assert received["wall_s"] == 9.0

    def test_fallback_budget_is_capability_driven(self, small_problem):
        """The chain threads its remaining budget into *any* solver that
        declares a budget option -- there is no ILP name special case."""
        received = {}

        def failing(problem, options, suitability):
            raise RuntimeError("primary always fails")

        def probe(problem, options, suitability):
            received.update(options)
            result = greedy_floorplan(problem, suitability=suitability)
            return SolverOutcome(
                solver="chain-probe",
                placement=result.placement,
                suitability=result.suitability,
                runtime_s=result.runtime_s,
                info={},
            )

        register_solver("chain-fail", failing, overwrite=True)
        register_solver(
            "chain-probe", probe, overwrite=True, budget_option="wall_s"
        )
        chain = solve_with_fallback(
            small_problem, "chain-fail", fallback=("chain-probe",), budget_s=30.0
        )
        assert chain.degraded
        assert chain.outcome.solver == "chain-probe"
        # The probe got the chain's *remaining* wall clock, not the full
        # budget and not nothing.
        assert 0.0 < received["wall_s"] <= 30.0


# ---------------------------------------------------------------------------
# Greedy prefix replay
# ---------------------------------------------------------------------------


def ladder_problem(base: FloorplanProblem, n_modules: int) -> FloorplanProblem:
    """The same roof instance with a different module count."""
    return FloorplanProblem(
        grid=base.grid,
        solar=base.solar,
        n_modules=n_modules,
        topology=SeriesParallelTopology(n_series=3, n_parallel=n_modules // 3),
        datasheet=base.datasheet,
        label=f"{base.label}-n{n_modules}",
    )


class TestGreedyWarmStart:
    def test_warm_replay_is_module_for_module_identical(self, small_problem):
        """greedy(N) warm-started from greedy(k < N) equals cold greedy(N)
        exactly -- placements, order, rotations and relaxation tally."""
        small = ladder_problem(small_problem, 3)
        cold_small = greedy_floorplan(small)
        cold_full = greedy_floorplan(small_problem)
        warm_full = greedy_floorplan(
            small_problem,
            warm_start=WarmStart(placement=cold_small.placement, exact_prefix=True),
        )
        assert warm_full.warm_modules == 3
        assert warm_full.placement.modules == cold_full.placement.modules
        assert warm_full.relaxed_threshold_count == cold_full.relaxed_threshold_count

    @pytest.mark.parametrize("threshold", [True, False])
    def test_warm_equals_cold_across_configs(self, small_problem, threshold):
        config = GreedyConfig(respect_distance_threshold=threshold)
        small = ladder_problem(small_problem, 3)
        hint = WarmStart(
            placement=greedy_floorplan(small, config=config).placement,
            exact_prefix=True,
        )
        cold = greedy_floorplan(small_problem, config=config)
        warm = greedy_floorplan(small_problem, config=config, warm_start=hint)
        assert warm.placement.modules == cold.placement.modules

    def test_heuristic_hint_is_ignored_by_greedy(self, small_problem):
        """Only exact-prefix hints replay; a heuristic neighbour placement
        (different axis) must leave greedy identical to cold."""
        small = ladder_problem(small_problem, 3)
        hint = WarmStart(
            placement=greedy_floorplan(small).placement, exact_prefix=False
        )
        cold = greedy_floorplan(small_problem)
        warm = greedy_floorplan(small_problem, warm_start=hint)
        assert warm.warm_modules == 0
        assert warm.placement.modules == cold.placement.modules

    def test_foreign_hint_falls_back_to_cold(self, small_problem):
        """A hint produced by a different algorithm fails validation and
        the solve proceeds cold instead of raising."""
        greedy_like = greedy_floorplan(ladder_problem(small_problem, 3)).placement
        tampered = dataclasses.replace(
            greedy_like, metadata={**greedy_like.metadata, "algorithm": "ilp"}
        )
        cold = greedy_floorplan(small_problem)
        warm = greedy_floorplan(
            small_problem,
            warm_start=WarmStart(placement=tampered, exact_prefix=True),
        )
        assert warm.warm_modules == 0
        assert warm.placement.modules == cold.placement.modules

    def test_oversized_hint_falls_back_to_cold(self, small_problem):
        """A hint with more modules than the instance cannot be a prefix."""
        cold_full = greedy_floorplan(small_problem)
        small = ladder_problem(small_problem, 3)
        warm = greedy_floorplan(
            small,
            warm_start=WarmStart(placement=cold_full.placement, exact_prefix=True),
        )
        assert warm.warm_modules == 0
        assert warm.placement.modules == greedy_floorplan(small).placement.modules


# ---------------------------------------------------------------------------
# Scenario-level provenance and opt-out
# ---------------------------------------------------------------------------


class TestScenarioWarmStart:
    def test_result_round_trips_and_fingerprint_excludes_provenance(self):
        result = run_scenario(tiny_spec("prov", n_modules=2))
        data = result.to_dict()
        assert "warm_started" in data and "gap" in data
        restored = ScenarioResult.from_dict(data)
        assert restored.warm_started == result.warm_started
        assert restored.gap == result.gap
        # warm_started/gap are provenance like runtime_s: two runs of the
        # same scenario fingerprint identically whether or not they were
        # warm-started.
        twin = ScenarioResult.from_dict({**data, "warm_started": True, "gap": 0.5})
        assert twin.fingerprint() == result.fingerprint()

    def test_run_scenario_threads_hint_and_records_provenance(self):
        small = run_scenario(tiny_spec("ladder-2", n_modules=2))
        from repro.io.placement_json import placement_from_dict

        hint = WarmStart(
            placement=placement_from_dict(small.placement), exact_prefix=True
        )
        warm = run_scenario(tiny_spec("ladder-4", n_modules=4), warm_start=hint)
        cold = run_scenario(tiny_spec("ladder-4", n_modules=4))
        assert warm.warm_started
        assert not cold.warm_started
        assert warm.placement["modules"] == cold.placement["modules"]

    def test_solver_spec_opt_out_forces_cold(self):
        small = run_scenario(tiny_spec("optout-2", n_modules=2))
        from repro.io.placement_json import placement_from_dict

        hint = WarmStart(
            placement=placement_from_dict(small.placement), exact_prefix=True
        )
        result = run_scenario(
            tiny_spec("optout-4", n_modules=4, warm_start=False), warm_start=hint
        )
        assert not result.warm_started

    def test_solver_spec_serialises_opt_out_only_when_set(self):
        assert "warm_start" not in SolverSpec().to_dict()
        data = SolverSpec(warm_start=False).to_dict()
        assert data["warm_start"] is False
        assert SolverSpec.from_dict(data).warm_start is False
        # Digest stability: the default never changes a scenario's
        # dictionary form, so content digests are untouched by this PR.
        spec = tiny_spec("digest-probe")
        assert spec.to_dict() == ScenarioSpec.from_dict(spec.to_dict()).to_dict()


# ---------------------------------------------------------------------------
# Batch and sweep threading
# ---------------------------------------------------------------------------


class TestBatchAndSweepWarmStart:
    def test_run_batch_threads_hints_by_name(self, tmp_path):
        specs = [tiny_spec("wb-2", n_modules=2), tiny_spec("wb-4", n_modules=4)]
        batch = run_batch(
            specs,
            cache=tmp_path / "cache",
            jobs=1,
            warm_hints={"wb-4": "wb-2"},
        )
        by_name = batch.by_name()
        assert by_name["wb-4"].warm_started
        assert not by_name["wb-2"].warm_started

    def test_warm_execution_order_and_wiring(self):
        plan = SweepPlan(
            name="wired",
            base=tiny_spec("wired-base"),
            axes=(
                SweepAxis("solver.name", ("greedy", "traditional")),
                # Deliberately declared descending: warm execution must
                # still walk the ladder small-to-large.
                SweepAxis("n_modules", (6, 4, 2)),
            ),
        )
        ordered, hints = plan.warm_execution()
        names = [point.name for point in ordered]
        assert names[0].endswith("n_modules=2")
        for point_name, neighbour_name in hints.items():
            assert names.index(neighbour_name) < names.index(point_name)
        # Only the greedy takes a hint, so only its ladder is wired.
        assert hints == {
            f"wired@name=greedy+n_modules={n}": f"wired@name=greedy+n_modules={below}"
            for below, n in ((2, 4), (4, 6))
        }

    @pytest.mark.parametrize("mode", ["grid", "zip"])
    def test_warm_execution_wires_only_exact_n_modules_steps(self, mode):
        """Whatever the other axes, a hint joins two points that differ only
        by one step of ``n_modules``: the greedy's exact-prefix pair."""
        axes = (
            SweepAxis("n_modules", (6, 2, 4)),
            SweepAxis("solver.name", ("greedy", "ilp", "traditional")),
            SweepAxis("weather.seed", (3, 1, 2)),
        )
        plan = SweepPlan(name="exact", base=tiny_spec("exact-base"), axes=axes, mode=mode)
        by_name = {point.name: point for point in plan.points()}
        _, hints = plan.warm_execution()
        steps = {(2, 4), (4, 6)}
        for point_name, neighbour_name in hints.items():
            point, neighbour = by_name[point_name], by_name[neighbour_name]
            assert {**point.overrides, "n_modules": None} == {
                **neighbour.overrides,
                "n_modules": None,
            }
            assert (neighbour.overrides["n_modules"], point.overrides["n_modules"]) in steps
        assert all(by_name[name].spec.solver.name == "greedy" for name in hints)
        if mode == "grid":
            assert len(hints) == 2 * 3  # two steps per greedy seed ladder
        else:
            assert hints == {}  # every zip step changes all three axes

    def test_warm_sweep_table_matches_cold(self, tmp_path):
        plan = SweepPlan(
            name="warm-vs-cold",
            base=tiny_spec("wvc-base"),
            axes=(SweepAxis("n_modules", (2, 4)),),
            warm_start=True,
        )
        cold = run_sweep(plan, cache=None, jobs=1, warm_start=False)
        warm = run_sweep(plan, cache=None, jobs=1)  # plan flag applies
        metrics = (
            "annual_energy_mwh",
            "baseline_energy_mwh",
            "improvement_percent",
            "wiring_extra_length_m",
            "capacity_factor",
        )
        assert warm.table(metrics) == cold.table(metrics)
        assert [r.fingerprint() for r in warm.results()] == [
            r.fingerprint() for r in cold.results()
        ]
        assert cold.warm_started_count() == 0
        assert warm.warm_started_count() == 1
        assert warm.summary()["n_warm_started"] == 1

    def test_ilp_points_of_a_warm_sweep_solve_cold(self, tmp_path):
        """The ILP takes no hint: a store-backed warm sweep leaves its ladder
        unwired, every ILP point reports ``warm_started=False`` and
        fingerprints like its cold solve."""
        plan = SweepPlan(
            name="ilp-ladder",
            base=tiny_spec("ilp-base", solver="ilp"),
            axes=(SweepAxis("n_modules", (2, 4)),),
        )
        _, hints = plan.warm_execution()
        assert hints == {}
        warm = run_sweep(
            plan, cache=tmp_path / "cache", jobs=1, store=tmp_path / "s.sqlite", warm_start=True
        )
        assert [result.warm_started for result in warm.results()] == [False, False]
        assert [result.fingerprint() for result in warm.results()] == [
            run_scenario(point.spec, use_cache=False).fingerprint()
            for point in plan.points()
        ]

    def test_store_backed_warm_sweep_wires_only_greedy_rows(self, tmp_path):
        plan = SweepPlan(
            name="mixed-ladder",
            base=tiny_spec("mixed-base"),
            axes=(
                SweepAxis("solver.name", ("greedy", "ilp")),
                SweepAxis("n_modules", (2, 4)),
            ),
        )
        store = tmp_path / "s.sqlite"
        warm = run_sweep(plan, cache=tmp_path / "cache", jobs=1, store=store, warm_start=True)
        with ResultStore(store) as opened:
            rows = {record.name: record for record in opened.points(plan.campaign_name)}
            hints = {name: opened.warm_hint(record) for name, record in rows.items()}
        greedy_4 = "mixed-ladder@name=greedy+n_modules=4"
        assert rows[greedy_4].warm_hint_digest == rows[
            "mixed-ladder@name=greedy+n_modules=2"
        ].digest
        assert hints[greedy_4] is not None
        assert {name for name, row in rows.items() if row.warm_hint_digest} == {greedy_4}
        assert {name for name, hint in hints.items() if hint} == {greedy_4}
        assert [result.fingerprint() for result in warm.results()] == [
            run_scenario(point.spec, use_cache=False).fingerprint()
            for point in plan.points()
        ]

    def test_plan_serialises_warm_start_only_when_set(self):
        base = tiny_spec("ser-base")
        cold_plan = SweepPlan(name="p", base=base, axes=(SweepAxis("n_modules", (2,)),))
        assert "warm_start" not in cold_plan.to_dict()
        warm_plan = SweepPlan(
            name="p", base=base, axes=(SweepAxis("n_modules", (2,)),), warm_start=True
        )
        restored = SweepPlan.from_json(warm_plan.to_json())
        assert restored.warm_start
        assert restored.to_dict() == warm_plan.to_dict()


# ---------------------------------------------------------------------------
# Store wiring and worker pickup
# ---------------------------------------------------------------------------


class TestStoreWarmHints:
    def test_enroll_records_wiring_and_resolves_after_neighbour_done(self, tmp_path):
        specs = [tiny_spec("sw-2", n_modules=2), tiny_spec("sw-4", n_modules=4)]
        with ResultStore(tmp_path / "store.sqlite") as store:
            records = store.enroll(
                "camp", specs, warm_hints={"sw-4": "sw-2"}
            )
            by_name = {record.name: record for record in records}
            assert by_name["sw-4"].warm_hint_digest == by_name["sw-2"].digest
            assert by_name["sw-4"].warm_exact_prefix
            assert by_name["sw-2"].warm_hint_digest is None
            # Neighbour not done yet: no hint, the point would solve cold.
            assert store.warm_hint(by_name["sw-4"]) is None
            result = run_scenario(specs[0])
            store.mark_done("camp", by_name["sw-2"].digest, result)
            (refreshed,) = [
                record
                for record in store.points("camp")
                if record.name == "sw-4"
            ]
            hint = store.warm_hint(refreshed)
            assert hint is not None
            assert hint["source"] == "sw-2"
            assert hint["exact_prefix"] is True
            assert hint["placement"] == result.placement

    def test_enroll_rejects_unknown_neighbour(self, tmp_path):
        with ResultStore(tmp_path / "store.sqlite") as store:
            with pytest.raises(ConfigurationError):
                store.enroll(
                    "camp",
                    [tiny_spec("solo")],
                    warm_hints={"solo": "not-enrolled"},
                )

    def test_v3_store_migrates_in_place_to_v4(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as seeded:
            seeded.enroll("camp", [tiny_spec("old-point")])
        with sqlite3.connect(path) as conn:
            conn.execute("ALTER TABLE points DROP COLUMN warm_hint_digest")
            conn.execute("ALTER TABLE points DROP COLUMN warm_exact_prefix")
            conn.execute("UPDATE meta SET value='3' WHERE key='schema_version'")
        with ResultStore(path) as migrated:
            (record,) = migrated.points("camp")
            assert record.warm_hint_digest is None
            assert record.warm_exact_prefix is False
            assert migrated.claim_next_pending("camp", owner="w1") is not None
        with sqlite3.connect(path) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            assert row[0] == str(STORE_SCHEMA_VERSION)

    def test_worker_fleet_picks_hints_from_done_rows(self, tmp_path):
        """End to end: enrollment wires the ladder, a worker drains it in
        order, and the larger point's stored result is warm-started."""
        path = tmp_path / "fleet.sqlite"
        specs = [tiny_spec("fw-2", n_modules=2), tiny_spec("fw-4", n_modules=4)]
        with ResultStore(path) as store:
            store.enroll("fleet", specs, warm_hints={"fw-4": "fw-2"})
        summary = run_worker(
            "fleet", store=path, serial=True, cache=tmp_path / "cache", poll_s=0.1
        )
        assert summary.done == 2 and not summary.failed
        with ResultStore(path) as store:
            by_name = {record.name: record for record in store.points("fleet")}
            assert by_name["fw-4"].result().warm_started
            assert not by_name["fw-2"].result().warm_started

    @pytest.mark.parametrize("solver", ["greedy", "ilp"])
    def test_row_without_exact_prefix_flag_drains_cold(self, tmp_path, solver):
        """Older builds enrolled advisory hints with ``warm_exact_prefix = 0``.
        Such a row still resolves a hint, which no solver consumes: the point
        drains and solves cold."""
        path = tmp_path / "fleet.sqlite"
        specs = [
            tiny_spec("adv-2", n_modules=2, solver=solver),
            tiny_spec("adv-4", n_modules=4, solver=solver),
        ]
        with ResultStore(path) as store:
            store.enroll("fleet", specs, warm_hints={"adv-4": "adv-2"})
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE points SET warm_exact_prefix=0 WHERE name='adv-4'")
        summary = run_worker(
            "fleet", store=path, serial=True, cache=tmp_path / "cache", poll_s=0.1
        )
        assert summary.done == 2 and not summary.failed
        with ResultStore(path) as store:
            (row,) = [record for record in store.points("fleet") if record.name == "adv-4"]
            assert row.warm_hint_digest is not None and not row.warm_exact_prefix
            assert store.warm_hint(row)["exact_prefix"] is False
            result = row.result()
        assert not result.warm_started
        assert result.fingerprint() == run_scenario(specs[1], use_cache=False).fingerprint()

    def test_worker_opt_out_solves_cold(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        specs = [tiny_spec("fc-2", n_modules=2), tiny_spec("fc-4", n_modules=4)]
        with ResultStore(path) as store:
            store.enroll("fleet", specs, warm_hints={"fc-4": "fc-2"})
        summary = run_worker(
            "fleet",
            store=path,
            serial=True,
            cache=tmp_path / "cache",
            poll_s=0.1,
            warm_start=False,
        )
        assert summary.done == 2 and not summary.failed
        with ResultStore(path) as store:
            by_name = {record.name: record for record in store.points("fleet")}
            assert not by_name["fc-4"].result().warm_started
