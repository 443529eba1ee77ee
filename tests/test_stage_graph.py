"""The pipeline as one node table: keys, laziness, accounting, sharing.

Scenarios, ``plan_roof`` and the case-study drivers all describe their run
as a :class:`~repro.scenario.ScenarioSpec` and run the stages through
:func:`repro.runner.stages.run_pipeline`.  These tests pin what that
executor promises:

* the cache keys it files entries under are the node table's own keys
  (:func:`repro.runner.stages.node_keys`), pinned literally, so an existing
  cache stays warm -- whichever entry point fills or reads it;
* a warm run never builds the weather, the solar configuration or the
  horizon (the inputs of a cached field);
* a cold run records every node exactly once, with exclusive wall times;
* ``plan_roof``, the case studies and scenarios share the entries of a roof;
* the node table is the only place in ``src/`` that chains the stage
  functions, and no reference implementation ships there.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.weather.synthetic
from repro import plan_roof, telemetry
from repro.experiments import (
    CaseStudyConfig,
    Table1Config,
    prepare_all_case_studies,
    prepare_case_study,
    run_table1_sweep,
    table1_sweep_plan,
)
from repro.gis import RoofSpec
from repro.runner import PIPELINE_STAGES, ResultStore, StageCache, run_batch, run_scenario
from repro.runner.stages import node_keys
from repro.runner.store import METRIC_KIND_STAGE_RECOMPUTE_TIME
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec, builtin_scenarios
from repro.scenario.spec import SolarSpec, WeatherSpec
from repro.solar import LinkeTurbidityProfile, TimeGrid
from repro.telemetry import merge_trace, read_trace

CACHED_STAGES = ("scene", "grid", "solar", "suitability")
COARSE_TIME = TimeGrid(step_minutes=240.0, day_stride=45)


def _roof(name: str) -> RoofSpec:
    return RoofSpec(name=name, width_m=6.0, depth_m=4.0, tilt_deg=30.0, azimuth_deg=0.0)


def _spec(name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        roof=_roof(f"{name}-roof"),
        n_modules=2,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name="greedy"),
    )


def _record_puts(cache: StageCache, monkeypatch) -> list:
    """Record ``(stage, payload)`` of every entry the cache writes."""
    puts: list = []
    real_put = cache.put

    def put(stage, payload, value):
        puts.append((stage, payload))
        real_put(stage, payload, value)

    monkeypatch.setattr(cache, "put", put)
    return puts


def _cached_keys(spec: ScenarioSpec) -> list:
    """``(stage, key)`` of the four cached entries of ``spec``, in table order."""
    keys = node_keys(spec)
    return [(stage, keys[stage]) for stage in CACHED_STAGES]


class TestCacheKeysArePinned:
    #: ``node_keys`` of the catalog's ``residential-south``.  A change here
    #: orphans every cache entry written so far: bump ``CACHE_FORMAT_VERSION``
    #: with it.
    RESIDENTIAL_SOUTH = {
        "scene": "6de57e87872255b7d90ea9caa5ac45b58e5fb3c5734556c739645cca6a7d6e4a",
        "grid": "3f8887bcbe335ccc8642ef82b02262fe750c5635b45ac70ad22c69dd89b505f4",
        "weather": "35872e2430fde4fbc80bf65bfc24b194f351a7394f336612bf98e0b965fd6927",
        "horizon": "88a0c20c0bfdd0f729d7641f63d1d90e788f115c76f87daad59989c1c4a8d5d2",
        "solar": "e4ef76ef356f208329da0d22a4ffd1400f3e4e09dc2fe759ba314ea1a1212456",
        "suitability": "635aee3e1f4569dd0cb57b2ad22c9ea48fb77616b69c745f6ddc6abc251b23a3",
    }

    def test_scenario_keys_are_the_node_keys(self, tmp_path, monkeypatch):
        spec = builtin_scenarios()["residential-south"]
        assert node_keys(spec) == self.RESIDENTIAL_SOUTH
        cache = StageCache(root=tmp_path / "cache")
        puts = _record_puts(cache, monkeypatch)
        run_scenario(spec, cache=cache)
        assert puts == _cached_keys(spec)

    def test_plan_roof_keys_are_the_node_keys(self, tmp_path, monkeypatch):
        spec = _spec("keyed")
        cache = StageCache(root=tmp_path / "cache")
        puts = _record_puts(cache, monkeypatch)
        plan_roof(
            spec.roof, n_modules=2, n_series=2, grid_pitch=0.4, time_grid=COARSE_TIME,
            cache=cache,
        )
        assert puts == _cached_keys(spec)


class TestWarmRunsAreLazy:
    def test_warm_run_builds_no_field_input(self, tmp_path, monkeypatch):
        spec = _spec("lazy")
        cold = run_scenario(spec, cache=tmp_path / "cache")

        def refuse(*args, **kwargs):
            raise AssertionError("a warm run built an input of a cached field")

        monkeypatch.setattr(WeatherSpec, "build", refuse)
        monkeypatch.setattr(SolarSpec, "build", refuse)
        monkeypatch.setattr("repro.solar.shading.compute_horizon_map", refuse)
        monkeypatch.setattr("repro.solar.irradiance_map.compute_horizon_map", refuse)
        warm = run_scenario(spec, cache=tmp_path / "cache")
        assert warm.fingerprint() == cold.fingerprint()
        assert all(warm.stage_cached.values())
        assert "weather" not in warm.stage_times_s
        assert "horizon" not in warm.stage_times_s

    def test_solar_hit_with_a_new_module_builds_no_field_input(self, tmp_path, monkeypatch):
        """The warm-sweep shape: the field hits, the suitability misses."""
        spec = _spec("lazy-module")
        run_scenario(spec, cache=tmp_path / "cache")
        monkeypatch.setattr(WeatherSpec, "build", lambda *a, **k: pytest.fail("weather built"))
        monkeypatch.setattr(SolarSpec, "build", lambda *a, **k: pytest.fail("config built"))
        other = dataclasses.replace(spec, module="compact-200")
        result = run_scenario(other, cache=tmp_path / "cache")
        assert result.stage_cached == {
            "scene": True, "grid": True, "solar": True, "suitability": False,
        }


class TestColdRunsRecordEveryNode:
    def test_one_span_and_one_exclusive_time_per_node(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        telemetry.configure(trace)
        result = run_scenario(_spec("accounted"), cache=tmp_path / "cache")
        telemetry.configure(None)
        merge_trace(trace)
        names = [e["name"] for e in read_trace(trace) if e.get("type") == "span"]
        assert {stage: names.count(stage) for stage in PIPELINE_STAGES} == {
            stage: 1 for stage in PIPELINE_STAGES
        }
        assert list(result.stage_times_s) == list(PIPELINE_STAGES)
        assert all(seconds >= 0.0 for seconds in result.stage_times_s.values())
        assert sum(result.stage_times_s.values()) <= result.runtime_s
        assert list(result.stage_cached) == list(CACHED_STAGES)
        assert not any(result.stage_cached.values())

    def test_cold_campaign_books_weather_and_horizon_as_recompute(self, tmp_path):
        with ResultStore(tmp_path / "campaigns.sqlite") as store:
            batch = run_batch(
                [_spec("cold-campaign")], store=store, campaign="camp", jobs=1,
                cache=tmp_path / "cache",
            )
            rows = store.metrics("camp")
        (result,) = batch.results
        summary = batch.campaign
        # Counts stay cache provenance: the four cached stages only.
        assert summary.stage_recomputes == {stage: 1 for stage in CACHED_STAGES}
        recompute = summary.stage_recompute_time_s
        assert set(recompute) == set(CACHED_STAGES) | {"weather", "horizon"}
        for stage in ("weather", "horizon"):
            assert recompute[stage] == pytest.approx(result.stage_times_s[stage], abs=1e-6)
            assert summary.stage_hit_time_s[stage] == 0.0
        booked = {
            row["name"] for row in rows if row["kind"] == METRIC_KIND_STAGE_RECOMPUTE_TIME
        }
        assert {"weather", "horizon"} <= booked


class TestEntriesAreShared:
    def test_plan_roof_and_scenario_share_every_entry(self, tmp_path):
        spec = _spec("shared")
        cache = StageCache(root=tmp_path / "cache")
        planned = plan_roof(
            spec.roof, n_modules=2, grid_pitch=spec.grid_pitch, time_grid=COARSE_TIME,
            cache=cache,
        )
        assert planned.stage_cached == dict.fromkeys(CACHED_STAGES, False)
        result = run_scenario(spec, cache=cache)
        assert result.stage_cached == dict.fromkeys(CACHED_STAGES, True)
        assert result.annual_energy_mwh == planned.comparison.candidate.annual_energy_mwh

    def test_case_study_reuses_plan_roof_field(self, tmp_path):
        roof = _roof("study-roof")
        config = CaseStudyConfig(
            grid_pitch=0.4, time_step_minutes=240.0, day_stride=45, weather_seed=4
        )
        cache = StageCache(root=tmp_path / "cache")
        planned = plan_roof(
            roof, n_modules=2, grid_pitch=0.4, time_grid=config.time_grid(),
            weather_seed=4, solar=config.solar, cache=cache,
        )
        writes = cache.stats.writes
        study = prepare_case_study(roof, config, cache=cache)
        assert cache.stats.writes == writes  # scene, grid and field all hit
        assert study.n_valid == planned.problem.grid.n_valid
        # The field hit, so the study's weather is built from the spec.
        weather = WeatherSpec(seed=4).build(config.time_grid())
        assert np.array_equal(study.weather.ghi, weather.ghi)
        assert np.array_equal(study.weather.temperature, weather.temperature)

    def test_warm_plan_roof_builds_no_weather(self, tmp_path, monkeypatch):
        built = []
        real = repro.weather.synthetic.generate_weather

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.weather.synthetic, "generate_weather", counting)
        cache = StageCache(root=tmp_path / "cache")
        kwargs = dict(n_modules=2, grid_pitch=0.4, time_grid=COARSE_TIME, cache=cache)
        plan_roof(_roof("warm-roof"), **kwargs)
        assert len(built) == 1
        warm = plan_roof(_roof("warm-roof"), **kwargs)
        assert len(built) == 1
        assert all(warm.stage_cached.values())

    def test_case_studies_and_table1_share_the_fields(self, tmp_path):
        config = Table1Config(
            module_counts=(2,),
            series_length=2,
            case_study=CaseStudyConfig(
                scale=0.35, dsm_pitch=0.5, time_step_minutes=240.0, day_stride=45,
                solar=SolarSpec(n_horizon_sectors=8, horizon_max_distance_m=20.0),
            ),
        )
        cache = StageCache(root=tmp_path / "cache")
        studies = prepare_all_case_studies(config.case_study, cache=cache)
        table = run_table1_sweep(config, cache=cache, jobs=1)
        points = table.sweep.points
        assert [point.labels["roof"] for point in points] == list(studies)
        for point in points:
            assert point.result.stage_cached["solar"], point.labels["roof"]
            assert point.result.n_valid_cells == studies[point.labels["roof"]].n_valid

    def test_turin_linke_climatology_has_one_key(self, tmp_path):
        # A scenario document may omit `solar.linke_turbidity`, leave it
        # null or spell the Turin climatology out: all three describe the
        # Table I run and share its cache entries.
        turin = list(LinkeTurbidityProfile.turin_default().monthly_values)
        config = Table1Config(
            module_counts=(2,),
            series_length=2,
            case_study=CaseStudyConfig(
                scale=0.35, dsm_pitch=0.5, time_step_minutes=240.0, day_stride=45,
                solar=SolarSpec(n_horizon_sectors=8, horizon_max_distance_m=20.0),
            ),
        )
        table_spec = table1_sweep_plan(config, roofs=["roof2"]).specs()[0]
        document = table_spec.to_dict()
        assert document["solar"]["linke_turbidity"] is None
        del document["solar"]["linke_turbidity"]
        run_spec = ScenarioSpec.from_dict(document)
        spelled = ScenarioSpec.from_dict(
            {**document, "solar": {**document["solar"], "linke_turbidity": turin}}
        )
        for spec in (run_spec, spelled):
            assert spec.to_dict() == table_spec.to_dict()
            assert node_keys(spec) == node_keys(table_spec)
        cache = StageCache(root=tmp_path / "cache")
        first = run_scenario(table_spec, cache=cache)
        second = run_scenario(run_spec, cache=cache)
        assert not first.stage_cached["solar"]
        assert second.stage_cached["solar"] and second.stage_cached["suitability"]
        assert second.fingerprint() == first.fingerprint()
        assert len(list((tmp_path / "cache" / "solar").glob("*.pkl"))) == 1


class TestOneDescriptionOfThePipeline:
    SRC = Path(repro.__file__).resolve().parent
    STAGE_FUNCTIONS = {
        "build_roof_scene",
        "make_roof_grid",
        "suitable_grid_for_scene",
        "compute_roof_solar_field",
    }

    def _modules(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield path.relative_to(self.SRC).as_posix(), ast.parse(path.read_text())

    def test_no_reference_implementation_in_src(self):
        defined = []
        for module, tree in self._modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name.endswith("_reference"):
                    defined.append(f"{module}:{node.lineno} {node.name}")
        assert defined == [], "oracles belong in tests/oracles/"

    def test_only_the_node_table_calls_the_stage_functions(self):
        calls = []
        for module, tree in self._modules():
            if module == "runner/stages.py":
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in self.STAGE_FUNCTIONS:
                    calls.append(f"{module}:{node.lineno} {name}")
        assert calls == [], "run the stages through repro.runner.stages.run_pipeline"
