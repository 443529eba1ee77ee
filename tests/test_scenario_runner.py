"""Tests of the scenario catalog, stage cache, and batch runner."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro
from repro.core import traditional_floorplan
from repro.errors import ConfigurationError
from repro.gis import simple_residential_roof
from repro.runner import (
    ResultStore,
    ScenarioResult,
    StageCache,
    available_solvers,
    run_batch,
    run_scenario,
    solve,
)
from repro.runner.stages import node_keys
from repro.scenario import (
    ScenarioSpec,
    WeatherSpec,
    builtin_scenarios,
    roof_spec_from_dict,
    roof_spec_to_dict,
)

from oracles.evaluation import validate_placement


@pytest.fixture(scope="module")
def catalog():
    return builtin_scenarios()


@pytest.fixture()
def fast_scenario(catalog):
    """The cheapest catalog entry, used by the cache tests."""
    return catalog["residential-south"]


# ---------------------------------------------------------------------------
# Scenario specification round-trips
# ---------------------------------------------------------------------------


class TestScenarioSpec:
    def test_catalog_size_and_coverage(self, catalog):
        assert len(catalog) >= 10
        tags = {tag for spec in catalog.values() for tag in spec.tags}
        for required in ("residential", "industrial", "fleet", "east-west",
                        "high-latitude", "shading", "sparse"):
            assert required in tags, f"catalog lacks a {required!r} scenario"

    def test_every_catalog_entry_round_trips_via_json(self, catalog):
        for spec in catalog.values():
            restored = ScenarioSpec.from_json(spec.to_json())
            assert restored.to_dict() == spec.to_dict(), spec.name

    def test_roof_spec_round_trip_preserves_geometry(self, catalog):
        roof = catalog["industrial-pipes"].roof
        restored = roof_spec_from_dict(roof_spec_to_dict(roof))
        assert restored.width_m == roof.width_m
        assert len(restored.obstacles) == len(roof.obstacles)
        assert [o.name for o in restored.obstacles] == [o.name for o in roof.obstacles]
        first, first_restored = roof.obstacles[0], restored.obstacles[0]
        assert [(v.x, v.y) for v in first_restored.polygon.vertices] == [
            (v.x, v.y) for v in first.polygon.vertices
        ]

    def test_save_and_load_file(self, fast_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        fast_scenario.save(path)
        assert ScenarioSpec.load(path).to_dict() == fast_scenario.to_dict()

    def test_unknown_module_rejected(self, fast_scenario):
        with pytest.raises(ConfigurationError):
            replace(fast_scenario, module="not-a-module")

    def test_bad_weather_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WeatherSpec(kind="martian")

    def test_with_solver_copies(self, fast_scenario):
        variant = fast_scenario.with_solver("ilp", time_limit_s=5.0)
        assert variant.solver.name == "ilp"
        assert variant.solver.options == {"time_limit_s": 5.0}
        assert fast_scenario.solver.name == "greedy"

    def test_content_keys_distinguish_scene_inputs(self, fast_scenario):
        wider = replace(
            fast_scenario, roof=replace(fast_scenario.roof, width_m=13.0)
        )
        assert node_keys(fast_scenario)["scene"] != node_keys(wider)["scene"]
        # The solver choice must NOT affect the expensive-stage keys.
        other_solver = fast_scenario.with_solver("traditional")
        assert node_keys(fast_scenario) == node_keys(other_solver)


# ---------------------------------------------------------------------------
# Stage cache behaviour
# ---------------------------------------------------------------------------


class TestStageCache:
    def test_second_run_hits_every_stage(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        cold = run_scenario(fast_scenario, cache=cache)
        assert not any(cold.stage_cached.values())
        warm = run_scenario(fast_scenario, cache=cache)
        assert all(warm.stage_cached.values())
        assert warm.fingerprint() == cold.fingerprint()
        assert cache.stats.hits >= 4

    def test_content_change_invalidates(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache)
        changed = replace(
            fast_scenario,
            name="changed-weather",
            weather=replace(fast_scenario.weather, seed=99),
        )
        result = run_scenario(changed, cache=cache)
        # Scene and grid do not depend on the weather; the solar field does.
        assert result.stage_cached["scene"]
        assert result.stage_cached["grid"]
        assert not result.stage_cached["solar"]

    def test_solver_change_reuses_all_stages(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache)
        result = run_scenario(fast_scenario.with_solver("traditional"), cache=cache)
        assert all(result.stage_cached.values())

    def test_disabled_cache_never_hits(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache, use_cache=False)
        result = run_scenario(fast_scenario, cache=cache, use_cache=False)
        assert not any(result.stage_cached.values())
        assert set(result.stage_cached) == {"scene", "grid", "solar", "suitability"}
        assert len(list(cache.root.rglob("*.pkl"))) == 0

    def test_disabled_handle_stays_disabled_in_parallel_batch(
        self, fast_scenario, tmp_path, monkeypatch
    ):
        # An uncached batch must not open the handle's directory, nor a
        # default-dir cache, inside the worker processes.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        cache = StageCache(root=tmp_path / "cache")
        batch = run_batch([fast_scenario], cache=cache, jobs=2, use_cache=False)
        assert not any(batch.results[0].stage_cached.values())
        assert batch.cache_dir is None
        assert len(list(cache.root.rglob("*.pkl"))) == 0
        assert not (tmp_path / "default").exists()

    def test_verify_off_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="verify mode 'off'"):
            StageCache(root=tmp_path / "cache", verify="off")

    def test_corrupt_entry_is_a_miss(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache)
        for entry in sorted((tmp_path / "cache").rglob("*.pkl")):
            entry.write_bytes(b"not a pickle")
        result = run_scenario(fast_scenario, cache=cache)
        assert not any(result.stage_cached.values())

    def test_clear(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache)
        assert len(list(cache.root.rglob("*.pkl"))) > 0
        removed = cache.clear()
        assert removed == cache.stats.writes
        assert len(list(cache.root.rglob("*.pkl"))) == 0


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------


class TestBatchRunner:
    @pytest.fixture(scope="class")
    def batch_specs(self):
        catalog = builtin_scenarios()
        return [
            catalog["residential-south"],
            catalog["fleet-a-n6"],
            catalog["fleet-b-n8"],
            catalog["fleet-c-baseline"],
        ]

    def test_parallel_matches_serial(self, batch_specs, tmp_path):
        serial = run_batch(
            batch_specs, cache=tmp_path / "cache-serial", jobs=1
        )
        parallel = run_batch(
            batch_specs, cache=tmp_path / "cache-parallel", jobs=2
        )
        assert serial.jobs == 1 and parallel.jobs == 2
        assert [r.fingerprint() for r in serial.results] == [
            r.fingerprint() for r in parallel.results
        ]

    def test_results_jsonl_round_trip(self, batch_specs, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(tmp_path / "store.sqlite") as store:
            batch = run_batch(
                batch_specs, cache=tmp_path / "cache", jobs=1, store=store
            )
            assert store.export("batch", path) == len(batch_specs)
        restored = [
            ScenarioResult.from_dict(json.loads(line))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert [r.to_dict() for r in restored] == [r.to_dict() for r in batch.results]

    def test_warm_rerun_hits_cache(self, batch_specs, tmp_path):
        cache_dir = tmp_path / "cache"
        run_batch(batch_specs, cache=cache_dir, jobs=1)
        warm = run_batch(batch_specs, cache=cache_dir, jobs=1)
        hits = warm.cache_hit_counts()
        for stage in ("scene", "grid", "solar", "suitability"):
            assert hits[stage] == len(batch_specs)

    def test_fleet_scenarios_share_expensive_stages(self, batch_specs, tmp_path):
        batch = run_batch(batch_specs, cache=tmp_path / "cache", jobs=1)
        by_name = batch.by_name()
        # The later fleet variants reuse the first fleet scenario's stages.
        assert all(by_name["fleet-b-n8"].stage_cached.values())
        assert all(by_name["fleet-c-baseline"].stage_cached.values())

    def test_duplicate_names_rejected(self, batch_specs, tmp_path):
        with pytest.raises(ConfigurationError):
            run_batch(batch_specs + [batch_specs[0]], cache=tmp_path / "c")

    def test_empty_batch_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_batch([], cache=tmp_path / "c")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, batch_specs, tmp_path, jobs):
        # ``jobs=1`` is the one spelling of serial; below that is an error,
        # not a silent in-process run.
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_batch(batch_specs, cache=tmp_path / "c", jobs=jobs)
        assert not (tmp_path / "c").exists()


# ---------------------------------------------------------------------------
# Solver registry + plan_roof integration
# ---------------------------------------------------------------------------


class TestSolverSelection:
    def test_registry_contains_all_four(self):
        assert {"greedy", "traditional", "ilp", "exhaustive"} <= set(available_solvers())

    def test_unknown_solver_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            solve(small_problem, "annealing")

    def test_bad_options_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            solve(small_problem, "greedy", {"no_such_option": 1})

    def test_solver_outcomes_are_valid_placements(self, small_problem):
        for name in ("greedy", "traditional"):
            outcome = solve(small_problem, name)
            assert outcome.solver == name
            validate_placement(outcome.placement, small_problem.grid)

    def test_outcome_forwards_solver_specific_fields(self, small_problem):
        """Solver-specific figures live in ``info``, not as attributes."""
        greedy = solve(small_problem, "greedy")
        assert set(greedy.info) == {"relaxed_threshold_count", "warm_modules"}
        assert greedy.info["relaxed_threshold_count"] >= 0
        assert greedy.info["warm_modules"] == 0
        traditional = solve(small_problem, "traditional")
        assert set(traditional.info) == {"strategy"}
        assert traditional.info["strategy"] == (
            traditional_floorplan(small_problem).strategy
        )
        with pytest.raises(AttributeError):
            traditional.strategy

    def test_plan_roof_solver_selectable(self, tmp_path):
        spec = simple_residential_roof(width_m=8.0, depth_m=5.0, n_obstacles=1, seed=3)
        cache = StageCache(root=tmp_path / "cache")
        kwargs = dict(
            n_modules=4,
            n_series=2,
            time_grid=repro.TimeGrid(step_minutes=240.0, day_stride=60),
            cache=cache,
        )
        greedy = repro.plan_roof(spec, solver="greedy", **kwargs)
        baseline = repro.plan_roof(spec, solver="traditional", **kwargs)
        assert greedy.solver_name == "greedy"
        assert baseline.solver_name == "traditional"
        validate_placement(greedy.proposed.placement, greedy.problem.grid)
        validate_placement(greedy.baseline.placement, greedy.problem.grid)
        # The second call reused every expensive stage from the first.
        assert all(baseline.stage_cached.values())
        # A traditional-vs-traditional comparison is a no-op improvement.
        assert baseline.improvement_percent == pytest.approx(0.0, abs=1e-9)


class TestScenarioResult:
    def test_report_mentions_cache_and_solver(self, fast_scenario, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(fast_scenario, cache=cache)
        warm = run_scenario(fast_scenario, cache=cache)
        text = warm.report()
        assert fast_scenario.name in text
        assert "solver=greedy" in text
        assert "cached:" in text

    def test_ilp_scenario_runs(self, tmp_path):
        result = run_scenario(
            builtin_scenarios()["ilp-exact-mini"], cache=StageCache(root=tmp_path / "c")
        )
        assert result.solver == "ilp"
        assert result.annual_energy_mwh > 0
        assert result.solver_info["solver_status"]
