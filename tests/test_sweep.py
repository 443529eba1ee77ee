"""Tests of the declarative sweep engine and the report generator.

Covers the PR's acceptance criteria end to end:

* dotted-path axis overrides on :class:`ScenarioSpec`, including JSON
  round-trip stability of overridden specs;
* grid/zip plan expansion, plan (de)serialisation, deterministic naming;
* sweep execution through the cached batch runner, with stage-cache reuse
  accounting: an ``n_modules x solver`` sweep computes its solar field
  once, a warm re-run recomputes nothing, and a warm re-run of the whole
  built-in catalog reports zero solar recomputations;
* the ``table1`` report preset matching the object-level Table I oracle
  row-for-row, with byte-identical regeneration;
* the ``sweep`` / ``report`` CLI subcommands.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    CaseStudyConfig,
    Table1Config,
    run_table1_sweep,
    table1_sweep_plan,
)
from repro.gis import RoofSpec, chimney
from repro.pv.datasheet import get_datasheet
from repro.runner import run_batch
from repro.scenario import ScenarioSpec, SolarSpec, TimeSpec, builtin_scenarios
from repro.scenario.docgen import render_scenarios_markdown
from repro.scenario.spec import apply_scenario_overrides
from repro.sweep import SweepAxis, SweepPlan, SweepResult, run_sweep
from repro.sweep.report import (
    available_presets,
    generate_report,
    render_csv,
    render_markdown_table,
    sweep_report,
    table1_report,
)

from oracles.table1 import table1_reference


@pytest.fixture(scope="module")
def base_scenario() -> ScenarioSpec:
    """A small, fast scenario used as the sweep base."""
    roof = RoofSpec(
        name="sweep-test-roof",
        width_m=8.0,
        depth_m=5.0,
        tilt_deg=28.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(chimney(2.0, 3.5, side_m=0.8, height_m=1.5),),
    )
    return ScenarioSpec(
        name="sweep-test",
        roof=roof,
        n_modules=4,
        n_series=2,
        grid_pitch=0.4,
        dsm_pitch=0.5,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solar=SolarSpec(n_horizon_sectors=16, horizon_max_distance_m=30.0),
    )


@pytest.fixture(scope="module")
def tiny_table1_config() -> Table1Config:
    """A reduced Table I configuration shared by the equivalence tests."""
    return Table1Config(
        module_counts=(6, 8),
        series_length=2,
        case_study=CaseStudyConfig(
            scale=0.35,
            grid_pitch=0.2,
            dsm_pitch=0.5,
            time_step_minutes=120.0,
            day_stride=30,
            solar=SolarSpec(n_horizon_sectors=16, horizon_max_distance_m=30.0),
        ),
    )


# ---------------------------------------------------------------------------
# Axis overrides
# ---------------------------------------------------------------------------


class TestOverrides:
    def test_scalar_and_nested_paths(self, base_scenario):
        point = base_scenario.with_overrides(
            {"n_modules": 6, "n_series": 3, "weather.seed": 9, "weather.latitude_deg": 52.5}
        )
        assert point.n_modules == 6
        assert point.weather.seed == 9
        assert point.weather.latitude_deg == 52.5

    def test_base_is_untouched(self, base_scenario):
        before = base_scenario.to_dict()
        base_scenario.with_overrides({"n_modules": 6, "n_series": 3})
        assert base_scenario.to_dict() == before

    def test_solver_string_shorthand(self, base_scenario):
        point = base_scenario.with_overrides({"solver": "traditional"})
        assert point.solver.name == "traditional"
        assert dict(point.solver.options) == {}

    def test_solver_options_accept_new_keys(self, base_scenario):
        point = base_scenario.with_overrides(
            {"solver.options.respect_distance_threshold": False}
        )
        assert point.solver.options["respect_distance_threshold"] is False

    def test_module_field_override_expands_named_datasheet(self, base_scenario):
        point = base_scenario.with_overrides({"module.gamma_p_per_k": -0.001})
        sheet = point.datasheet()
        assert sheet.gamma_p_per_k == -0.001
        reference = get_datasheet("pv-mf165eb3")
        assert sheet.p_max_ref == reference.p_max_ref

    def test_roof_document_override(self, base_scenario):
        other = dict(base_scenario.to_dict()["roof"], name="other-roof", width_m=10.0)
        point = base_scenario.with_overrides({"roof": other})
        assert point.roof.name == "other-roof"
        assert point.roof.width_m == 10.0

    def test_rename(self, base_scenario):
        assert base_scenario.with_overrides({}, name="renamed").name == "renamed"

    def test_unknown_key_rejected(self, base_scenario):
        with pytest.raises(ConfigurationError, match="unknown key"):
            base_scenario.with_overrides({"weather.sed": 1})
        with pytest.raises(ConfigurationError, match="unknown key"):
            base_scenario.with_overrides({"n_modles": 4})

    def test_non_mapping_intermediate_rejected(self, base_scenario):
        with pytest.raises(ConfigurationError, match="mapping"):
            base_scenario.with_overrides({"n_modules.sub": 1})

    def test_apply_is_pure(self, base_scenario):
        data = base_scenario.to_dict()
        snapshot = json.loads(json.dumps(data))
        apply_scenario_overrides(data, {"weather.seed": 123})
        assert data == snapshot

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"n_modules": 6, "n_series": 3},
            {"solver": "traditional"},
            {"weather.latitude_deg": 60.0, "weather.seed": 4},
            {"module.gamma_p_per_k": -0.002},
            {"solver.options.respect_distance_threshold": False},
        ],
        ids=["base", "modules", "solver", "weather", "datasheet", "options"],
    )
    def test_json_round_trip_stability(self, base_scenario, overrides):
        """JSON -> spec -> JSON is a fixed point, with and without overrides."""
        spec = base_scenario.with_overrides(overrides)
        once = ScenarioSpec.from_json(spec.to_json())
        assert once.to_dict() == spec.to_dict()
        twice = ScenarioSpec.from_json(once.to_json())
        assert twice.to_dict() == once.to_dict()


# ---------------------------------------------------------------------------
# Plan expansion
# ---------------------------------------------------------------------------


class TestSweepPlan:
    def test_grid_expansion_order(self, base_scenario):
        plan = SweepPlan(
            name="t",
            base=base_scenario,
            axes=(
                SweepAxis("n_modules", (2, 4)),
                SweepAxis("solver.name", ("greedy", "traditional")),
            ),
        )
        assert plan.n_points == 4
        points = plan.points()
        assert [(p.overrides["n_modules"], p.overrides["solver.name"]) for p in points] == [
            (2, "greedy"),
            (2, "traditional"),
            (4, "greedy"),
            (4, "traditional"),
        ]
        assert len({p.name for p in points}) == 4
        for point in points:
            assert point.spec.name == point.name
            assert point.spec.n_modules == point.overrides["n_modules"]
            assert point.spec.solver.name == point.overrides["solver.name"]

    def test_zip_expansion(self, base_scenario):
        plan = SweepPlan(
            name="t",
            base=base_scenario,
            axes=(
                SweepAxis("n_modules", (2, 4, 6)),
                SweepAxis("weather.seed", (1, 2, 3)),
            ),
            mode="zip",
        )
        assert plan.n_points == 3
        pairs = [
            (p.spec.n_modules, p.spec.weather.seed) for p in plan.points()
        ]
        assert pairs == [(2, 1), (4, 2), (6, 3)]

    def test_zip_requires_equal_lengths(self, base_scenario):
        with pytest.raises(ConfigurationError, match="equal-length"):
            SweepPlan(
                name="t",
                base=base_scenario,
                axes=(SweepAxis("n_modules", (2, 4)), SweepAxis("weather.seed", (1,))),
                mode="zip",
            )

    def test_duplicate_axis_keys_rejected(self, base_scenario):
        with pytest.raises(ConfigurationError, match="unique"):
            SweepPlan(
                name="t",
                base=base_scenario,
                axes=(SweepAxis("solver.name", ("greedy",)), SweepAxis("roof.name", ("x",))),
            )

    def test_unknown_mode_rejected(self, base_scenario):
        with pytest.raises(ConfigurationError, match="mode"):
            SweepPlan(
                name="t",
                base=base_scenario,
                axes=(SweepAxis("n_modules", (2,)),),
                mode="diagonal",
            )

    def test_negative_axis_values_keep_their_sign(self, base_scenario):
        """Regression: labels must not strip the minus sign of negatives."""
        plan = SweepPlan(
            name="t",
            base=base_scenario,
            axes=(SweepAxis("weather.latitude_deg", (-10.0, 10.0)),),
        )
        points = plan.points()  # must not collide
        assert [p.labels["latitude_deg"] for p in points] == ["-10.0", "10.0"]
        assert points[0].spec.weather.latitude_deg == -10.0

    def test_axis_labels(self, base_scenario):
        axis = SweepAxis("weather.seed", (1, 2), labels=("a", "b"))
        plan = SweepPlan(name="t", base=base_scenario, axes=(axis,))
        assert [p.labels["seed"] for p in plan.points()] == ["a", "b"]
        with pytest.raises(ConfigurationError, match="labels"):
            SweepAxis("weather.seed", (1, 2), labels=("only-one",))

    def test_plan_json_round_trip(self, base_scenario, tmp_path):
        plan = SweepPlan(
            name="t",
            base=base_scenario,
            axes=(
                SweepAxis("n_modules", (2, 4)),
                SweepAxis("weather.seed", (1, 2), labels=("wet", "dry")),
            ),
            mode="zip",
            description="round trip",
        )
        assert SweepPlan.from_json(plan.to_json()).to_dict() == plan.to_dict()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert SweepPlan.load(path).to_dict() == plan.to_dict()


# ---------------------------------------------------------------------------
# Execution and aggregation
# ---------------------------------------------------------------------------


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep_outcome(self, base_scenario, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("sweep-cache")
        plan = SweepPlan(
            name="modules-x-solver",
            base=base_scenario,
            axes=(
                SweepAxis("n_modules", (2, 4)),
                SweepAxis("solver.name", ("greedy", "traditional")),
            ),
        )
        cold = run_sweep(plan, cache=cache_dir, jobs=1)
        warm = run_sweep(plan, cache=cache_dir, jobs=1)
        return plan, cold, warm

    def test_points_in_plan_order(self, sweep_outcome):
        plan, cold, _ = sweep_outcome
        assert [p.name for p in cold.points] == [p.name for p in plan.points()]
        assert cold.n_points == 4
        for point in cold.points:
            assert point.result.scenario == point.name
            assert point.result.annual_energy_mwh > 0

    def test_cold_sweep_computes_solar_once(self, sweep_outcome):
        """Neither axis touches the solar key: one computation serves the grid."""
        _, cold, _ = sweep_outcome
        assert cold.stage_recompute_counts()["solar"] == 1
        assert cold.cache_hit_counts()["solar"] == 3

    def test_warm_sweep_recomputes_nothing(self, sweep_outcome):
        _, _, warm = sweep_outcome
        recomputes = warm.stage_recompute_counts()
        assert recomputes["solar"] == 0
        assert recomputes["scene"] == 0
        assert recomputes["grid"] == 0
        assert recomputes["suitability"] == 0
        assert warm.cache_hit_counts()["solar"] == warm.n_points

    def test_warm_matches_cold(self, sweep_outcome):
        _, cold, warm = sweep_outcome
        cold_prints = [p.result.fingerprint() for p in cold.points]
        warm_prints = [p.result.fingerprint() for p in warm.points]
        assert cold_prints == warm_prints

    def test_table_rows(self, sweep_outcome):
        _, cold, _ = sweep_outcome
        rows = cold.table()
        assert len(rows) == 4
        assert rows[0]["n_modules"] == 2
        assert rows[0]["name"] == "greedy"
        assert rows[0]["annual_energy_mwh"] > 0

    def test_pivot(self, sweep_outcome):
        _, cold, _ = sweep_outcome
        pivot = cold.pivot("n_modules", "name", "annual_energy_mwh")
        assert pivot.row_labels == (2, 4)
        assert pivot.col_labels == ("greedy", "traditional")
        for i, point_row in enumerate(pivot.values):
            assert all(value is not None and value > 0 for value in point_row)
        # pivot cells match the underlying results
        by_name = {p.name: p.result for p in cold.points}
        first = by_name["modules-x-solver@n_modules=2+name=greedy"]
        assert pivot.values[0][0] == first.annual_energy_mwh

    def test_result_json_round_trip(self, sweep_outcome, tmp_path):
        _, cold, _ = sweep_outcome
        path = tmp_path / "sweep.json"
        cold.save(path)
        restored = SweepResult.load(path)
        assert restored.to_dict() == cold.to_dict()
        assert restored.stage_recompute_counts() == cold.stage_recompute_counts()

    def test_sweep_report_is_deterministic(self, sweep_outcome):
        _, cold, _ = sweep_outcome
        first = sweep_report(cold)
        second = sweep_report(cold)
        assert first.markdown == second.markdown
        assert first.csv == second.csv
        assert "| point |" in first.markdown
        assert "Stage cache reuse" in first.markdown

    def test_grid_dims_recorded(self, sweep_outcome):
        _, cold, _ = sweep_outcome
        result = cold.points[0].result
        assert result.grid_cols > 0 and result.grid_rows > 0
        # and survive the record round trip
        restored = type(result).from_dict(result.to_dict())
        assert (restored.grid_cols, restored.grid_rows) == (
            result.grid_cols,
            result.grid_rows,
        )


class TestCatalogWarmBatch:
    def test_warm_catalog_rerun_has_zero_solar_recomputes(self, tmp_path):
        """Acceptance: a warm re-run over the catalog recomputes no solar stage."""
        specs = list(builtin_scenarios().values())
        cache = tmp_path / "catalog-cache"
        run_batch(specs, cache=cache, jobs=1)
        warm = run_batch(specs, cache=cache, jobs=1)
        misses = warm.cache_miss_counts()
        assert misses.get("solar", 0) == 0
        assert misses.get("scene", 0) == 0
        assert misses.get("grid", 0) == 0
        assert warm.cache_hit_counts()["solar"] == len(specs)


# ---------------------------------------------------------------------------
# Report rendering and presets
# ---------------------------------------------------------------------------


class TestRenderers:
    def test_markdown_formats_and_missing_cells(self):
        text = render_markdown_table(
            [{"a": 1, "b": 1.5}, {"a": 2}],
            columns=[("a", "A"), ("b", "B")],
            formats={"b": "%.2f"},
        )
        assert text.splitlines() == [
            "| A | B |",
            "| --- | --- |",
            "| 1 | 1.50 |",
            "| 2 |  |",
        ]

    def test_csv(self):
        text = render_csv(
            [{"a": 1, "b": "x,y"}], columns=[("a", "A"), ("b", "B")]
        )
        assert text == 'A,B\n1,"x,y"\n'

    def test_empty_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            render_markdown_table([], columns=[])

    def test_presets_registered(self):
        assert available_presets() == ["catalog", "table1"]
        with pytest.raises(ConfigurationError, match="unknown report preset"):
            generate_report("nope")


class TestCatalogPreset:
    def test_catalog_report_lists_every_scenario(self):
        artifact = generate_report("catalog")
        names = {row["name"] for row in artifact.rows}
        assert names == set(builtin_scenarios())
        assert artifact.markdown == generate_report("catalog").markdown
        assert artifact.text("csv").startswith("Scenario,")

    def test_generated_scenarios_doc_embeds_catalog(self):
        document = render_scenarios_markdown()
        assert document == render_scenarios_markdown()  # deterministic
        for name in builtin_scenarios():
            assert f"## `{name}`" in document


class TestTable1Equivalence:
    @pytest.fixture(scope="class")
    def oracle_rows(self, tiny_table1_config):
        results = table1_reference(tiny_table1_config, roofs=("roof2", "roof3"))
        return results.report.as_dicts()

    def test_sweep_rows_match_legacy_exactly(
        self, tiny_table1_config, oracle_rows, tmp_path
    ):
        """Acceptance: the sweep-driven Table 1 matches the oracle row-for-row."""
        outcome = run_table1_sweep(
            tiny_table1_config,
            roofs=("roof2", "roof3"),
            cache=tmp_path / "cache",
            jobs=1,
        )
        assert outcome.report.as_dicts() == oracle_rows

    def test_report_artifact_rows_and_determinism(
        self, tiny_table1_config, oracle_rows, tmp_path
    ):
        """Acceptance: the Markdown artifact is deterministic and row-exact."""
        cache = tmp_path / "cache"
        cold = table1_report(
            tiny_table1_config, roofs=("roof2", "roof3"), cache=cache, jobs=1
        )
        warm = table1_report(
            tiny_table1_config, roofs=("roof2", "roof3"), cache=cache, jobs=1
        )
        assert list(cold.rows) == oracle_rows
        assert cold.markdown == warm.markdown  # byte-identical regeneration
        assert cold.csv == warm.csv
        for row in oracle_rows:
            assert f"| {row['roof']} | {row['WxL']} |" in cold.markdown

    def test_plan_mirrors_legacy_configuration(self, tiny_table1_config):
        plan = table1_sweep_plan(tiny_table1_config, roofs=("roof2",))
        assert plan.n_points == 2  # 1 roof x 2 module counts
        base = plan.base
        assert base.n_series == tiny_table1_config.series_length
        assert base.time.step_minutes == tiny_table1_config.case_study.time_step_minutes
        assert base.weather.seed == tiny_table1_config.case_study.weather_seed
        assert base.solar.n_horizon_sectors == 16

    def test_unknown_roof_rejected(self, tiny_table1_config):
        with pytest.raises(ConfigurationError, match="unknown case-study roofs"):
            table1_sweep_plan(tiny_table1_config, roofs=("roof9",))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestSweepCli:
    def test_adhoc_sweep(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--base", "residential-south",
                "--axis", "n_modules=3,6",
                "--axis", "solver.name=greedy,traditional",
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "sweep.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "| point |" in captured.out
        assert "stage recomputations" in captured.err
        restored = SweepResult.load(tmp_path / "sweep.json")
        assert restored.n_points == 4

    def test_plan_file_and_save_plan(self, capsys, tmp_path, base_scenario):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "sweep",
                "--base", "residential-south",
                "--axis", "n_modules=3,6",
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--save-plan", str(plan_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            [
                "sweep", str(plan_path),
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--format", "csv",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("point,")

    def test_axis_value_parsing_errors(self, capsys):
        assert main(["sweep", "--base", "residential-south", "--axis", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["sweep", "--base", "residential-south"]) == 2
        assert "at least one --axis" in capsys.readouterr().err

    def test_plan_and_base_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{}", encoding="utf-8")
        code = main(
            ["sweep", str(path), "--base", "residential-south", "--axis", "n_modules=3"]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_plan_file_rejects_adhoc_flags(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["sweep", str(path), "--zip"]) == 2
        assert "--zip/--name" in capsys.readouterr().err
        assert main(["sweep", str(path), "--name", "x"]) == 2
        assert "--zip/--name" in capsys.readouterr().err


class TestReportCli:
    def test_catalog_preset_stdout(self, capsys):
        assert main(["report", "--preset", "catalog"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Built-in scenario catalog")
        assert "residential-south" in out

    def test_table1_preset_to_file(self, capsys, tmp_path):
        output = tmp_path / "table1.md"
        code = main(
            [
                "report",
                "--preset", "table1",
                "--scale", "0.35",
                "--modules", "6",
                "--series-length", "2",
                "--step-minutes", "120",
                "--day-stride", "30",
                "--roofs", "roof2",
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(output),
            ]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out
        text = output.read_text(encoding="utf-8")
        assert "| Roof |" in text
        assert "| roof2 |" in text

    def test_bad_modules_rejected(self, capsys):
        assert main(["report", "--preset", "table1", "--modules", ","]) == 2
        assert "at least one module count" in capsys.readouterr().err
