"""The pipeline as one node table: keys, laziness, accounting, sharing.

Scenarios, ``plan_roof`` and the case-study drivers all run the stages
through :func:`repro.runner.stages.run_pipeline`.  These tests pin what
that executor promises:

* the cache keys it files entries under are byte-identical to the payloads
  the two key sources have always produced, so an existing cache stays warm;
* a warm run never builds the weather, the solar configuration or the
  horizon (the inputs of a cached field);
* a cold run records every node exactly once, with exclusive wall times;
* the object path and the scenario path share the entries of a roof;
* the node table is the only place in ``src/`` that chains the stage
  functions, and no reference implementation ships there.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro

from repro import plan_roof, telemetry
from repro.experiments import CaseStudyConfig, prepare_case_study
from repro.gis import RoofSpec
from repro.runner import PIPELINE_STAGES, ResultStore, StageCache, run_batch, run_scenario
from repro.runner.cache import content_digest
from repro.runner.stages import solar_config_payload, weather_content_key
from repro.runner.store import METRIC_KIND_STAGE_RECOMPUTE_TIME
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec, get_scenario
from repro.scenario.spec import SolarSpec, WeatherSpec, roof_spec_to_dict
from repro.solar import SolarSimulationConfig, TimeGrid
from repro.telemetry import iter_spans, merge_trace, read_trace
from repro.weather import SyntheticWeatherConfig, generate_weather

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
    """Record ``(stage, payload digest)`` of every entry the cache writes."""
    puts: list = []
    real_put = cache.put

    def put(stage, payload, value):
        puts.append((stage, content_digest(payload)))
        real_put(stage, payload, value)

    monkeypatch.setattr(cache, "put", put)
    return puts


class TestCacheKeysArePinned:
    def test_scenario_keys_are_the_spec_payloads(self, tmp_path, monkeypatch):
        spec = get_scenario("residential-south")
        cache = StageCache(root=tmp_path / "cache")
        puts = _record_puts(cache, monkeypatch)
        run_scenario(spec, cache=cache)
        suitability = {
            "stage": "suitability",
            "solar": spec.solar_payload(),
            "module": dataclasses.asdict(spec.datasheet()),
            "percentile": 75.0,
        }
        assert puts == [
            ("scene", content_digest(spec.scene_payload())),
            ("grid", content_digest(spec.grid_payload())),
            ("solar", content_digest(spec.solar_payload())),
            ("suitability", content_digest(suitability)),
        ]
        # The spec payloads themselves: the literal layout every cache
        # written so far was keyed on.
        assert spec.solar_payload() == {
            "stage": "solar",
            "grid": {
                "stage": "grid",
                "scene": spec.scene_payload(),
                "grid_pitch": spec.grid_pitch,
            },
            "time": spec.time.to_dict(),
            "weather": spec.weather.to_dict(),
            "solar": spec.solar.to_dict(),
        }

    def test_plan_roof_keys_hash_the_weather_arrays(self, tmp_path, monkeypatch):
        roof = _roof("keyed-roof")
        cache = StageCache(root=tmp_path / "cache")
        puts = _record_puts(cache, monkeypatch)
        plan_roof(roof, n_modules=2, grid_pitch=0.4, time_grid=COARSE_TIME, cache=cache)
        # plan_roof with weather=None still generates it to hash it.
        weather = generate_weather(COARSE_TIME, SyntheticWeatherConfig(seed=0))
        scene = {
            "stage": "scene",
            "roof": roof_spec_to_dict(roof),
            "dsm_pitch": 0.4,
        }
        grid = {"stage": "grid", "scene": scene, "grid_pitch": 0.4}
        solar = {
            "stage": "solar",
            "grid": grid,
            "weather": weather_content_key(weather),
            "solar": solar_config_payload(SolarSimulationConfig()),
        }
        assert puts == [
            ("scene", content_digest(scene)),
            ("grid", content_digest(grid)),
            ("solar", content_digest(solar)),
        ]


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
        names = [s["name"] for s in iter_spans(read_trace(trace))]
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
                [_spec("cold-campaign")], store=store, campaign="camp", parallel=False,
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
    def test_plan_roof_and_scenario_share_scene_and_grid(self, tmp_path):
        spec = _spec("shared")
        cache = StageCache(root=tmp_path / "cache")
        planned = plan_roof(
            spec.roof, n_modules=2, grid_pitch=spec.grid_pitch, time_grid=COARSE_TIME,
            cache=cache,
        )
        assert planned.stage_cached == {"scene": False, "grid": False, "solar": False}
        result = run_scenario(spec, cache=cache)
        # The solar keys differ by design (spec vs weather-array digest).
        assert result.stage_cached == {
            "scene": True, "grid": True, "solar": False, "suitability": False,
        }

    def test_case_study_reuses_plan_roof_field(self, tmp_path):
        roof = _roof("study-roof")
        config = CaseStudyConfig(grid_pitch=0.4, time_step_minutes=240.0, day_stride=45)
        weather = generate_weather(config.time_grid(), SyntheticWeatherConfig(seed=4))
        cache = StageCache(root=tmp_path / "cache")
        planned = plan_roof(
            roof, n_modules=2, grid_pitch=0.4, weather=weather, cache=cache,
        )
        writes = cache.stats.writes
        study = prepare_case_study(roof, config, weather=weather, cache=cache)
        assert cache.stats.writes == writes  # scene, grid and field all hit
        assert study.n_valid == planned.problem.grid.n_valid
        assert study.weather is weather


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
