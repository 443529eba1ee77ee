"""Integration tests: experiment drivers and the end-to-end pipeline.

These run the case-study machinery at a reduced scale (small roofs, coarse
time grids) so the full paper pipeline -- scene, shading, weather, solar
field, both placers, evaluation, reporting -- is exercised in a few seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import build_problem
from repro.experiments import (
    CaseStudyConfig,
    PAPER_TABLE1,
    Table1Config,
    case_study_specs,
    figure2_iv_curves,
    figure3_module_characteristics,
    figure6_irradiance_map,
    figure7_placements,
    overhead_characterisation,
    prepare_case_study,
    roof1_spec,
    roof2_spec,
    roof3_spec,
    run_table1_sweep,
    runtime_sweep,
    summarize_runtime,
)
from repro.errors import ConfigurationError
from repro.gis import simple_residential_roof
from repro.io.placement_json import placement_from_dict
from repro.scenario import SolarSpec

from oracles.evaluation import validate_placement


@pytest.fixture(scope="module")
def tiny_config() -> CaseStudyConfig:
    """A heavily reduced case-study configuration for integration tests."""
    return CaseStudyConfig(
        scale=0.35,
        grid_pitch=0.2,
        dsm_pitch=0.5,
        time_step_minutes=120.0,
        day_stride=30,
        solar=SolarSpec(n_horizon_sectors=16, horizon_max_distance_m=30.0),
    )


@pytest.fixture(scope="module")
def tiny_study(tiny_config):
    """Roof 2 prepared at the reduced scale."""
    return prepare_case_study(roof2_spec(tiny_config.scale), tiny_config)


class TestCaseStudies:
    def test_specs_have_paper_characteristics(self):
        specs = case_study_specs(1.0)
        assert set(specs) == {"roof1", "roof2", "roof3"}
        for spec in specs.values():
            assert spec.tilt_deg == pytest.approx(26.0)
            assert spec.obstacles
        assert roof1_spec().width_m == pytest.approx(57.4)
        assert roof2_spec().depth_m == pytest.approx(10.2)
        assert roof3_spec().depth_m == pytest.approx(10.4)

    def test_full_scale_grid_matches_table1_dimensions(self):
        from repro.gis import build_roof_scene, make_roof_grid

        scene = build_roof_scene(roof1_spec(1.0), dsm_pitch=1.0)
        grid = make_roof_grid(scene, pitch=0.2)
        assert (grid.n_cols, grid.n_rows) == (287, 51)

    def test_prepared_study_consistency(self, tiny_study):
        assert tiny_study.n_valid > 0
        assert tiny_study.solar.n_cells == tiny_study.grid.n_valid
        assert tiny_study.solar.n_time == tiny_study.weather.n_samples

    def test_roof1_has_smaller_valid_fraction(self, tiny_config):
        study1 = prepare_case_study(roof1_spec(tiny_config.scale), tiny_config)
        study2 = prepare_case_study(roof2_spec(tiny_config.scale), tiny_config)
        fraction1 = study1.n_valid / study1.grid.n_cells
        fraction2 = study2.n_valid / study2.grid.n_cells
        assert fraction1 < fraction2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CaseStudyConfig(scale=0.0)
        with pytest.raises(ConfigurationError):
            CaseStudyConfig(grid_pitch=-0.1)


class TestFigureDrivers:
    def test_figure2_iv_curves(self):
        family = figure2_iv_curves()
        voltages, currents = family.curve(1000.0, 25.0)
        assert voltages.shape == currents.shape
        # Isc grows with irradiance.
        low = family.curve(200.0, 25.0)[1][0]
        high = family.curve(1000.0, 25.0)[1][0]
        assert high > 4 * low

    def test_figure3_characteristics_shape(self):
        chars = figure3_module_characteristics()
        assert chars.pmax_vs_g[-1] == pytest.approx(1.0, rel=1e-6)
        assert chars.isc_vs_g[0] < chars.isc_vs_g[-1]
        # Power decreases with temperature.
        assert np.all(np.diff(chars.pmax_vs_t) < 0)
        # Voc decreases with temperature.
        assert np.all(np.diff(chars.voc_vs_t) < 0)

    def test_overhead_characterisation_matches_paper_order(self):
        overhead = overhead_characterisation()
        # ~0.11 W per metre at 4 A (paper Section V-C).
        assert overhead.loss_per_metre_w == pytest.approx(0.112, rel=1e-6)
        assert np.all(np.diff(overhead.annual_loss_wh) >= 0)
        assert overhead.cost[-1] == pytest.approx(overhead.lengths_m[-1])

    def test_figure6_map(self, tiny_study):
        figure = figure6_irradiance_map(tiny_study)
        assert figure.n_valid == tiny_study.n_valid
        assert figure.variation_coefficient > 0
        assert isinstance(figure.ascii_rendering, str) and figure.ascii_rendering

    def test_figure7_placements(self, tiny_study):
        figure = figure7_placements(tiny_study, n_modules=8)
        assert figure.traditional_map.shape == tiny_study.grid.shape
        assert (figure.proposed_map >= -1).all()
        assert figure.n_modules == 8

    def test_figure7_follows_configured_solver(self, tiny_study):
        config = Table1Config(solver="traditional")
        figure = figure7_placements(tiny_study, n_modules=8, config=config)
        assert np.array_equal(figure.proposed_map, figure.traditional_map)
        assert figure.improvement_percent == 0.0

    def test_figure7_invalid_count(self, tiny_study):
        with pytest.raises(ConfigurationError):
            figure7_placements(tiny_study, n_modules=0)


class TestTable1:
    def test_run_table1_reduced(self, tiny_config, tiny_study, tmp_path):
        config = Table1Config(module_counts=(8,), series_length=4, case_study=tiny_config)
        results = run_table1_sweep(
            config, roofs=("roof2", "roof3"), cache=tmp_path / "cache", jobs=1
        )
        assert len(results.sweep.points) == 2
        rendered = results.report.render()
        assert "roof2" in rendered and "roof3" in rendered
        for point in results.sweep.points:
            assert point.result.baseline_energy_mwh > 0
            assert placement_from_dict(point.result.placement).n_modules == 8
        roof2 = results.sweep.points[0]
        assert roof2.labels["roof"] == "roof2"
        validate_placement(placement_from_dict(roof2.result.placement), tiny_study.grid)

    def test_paper_reference_rows(self):
        assert len(PAPER_TABLE1) == 6
        improvements = [row["improvement_percent"] for row in PAPER_TABLE1]
        assert min(improvements) > 10.0 and max(improvements) < 30.0

    def test_build_problem_uses_series_of_eight(self, tiny_study):
        problem = build_problem(tiny_study.solar, 16, 8)
        assert problem.topology.n_series == 8
        assert problem.topology.n_parallel == 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Table1Config(module_counts=())


class TestRuntimeSweep:
    def test_runtime_sweep_and_summary(self):
        samples = runtime_sweep(
            roof_widths_m=(10.0,), module_counts=(4,), grid_pitch=0.4,
            time_step_minutes=240.0, day_stride=60,
        )
        assert len(samples) == 1
        summary = summarize_runtime(samples)
        assert summary["max_placement_runtime_s"] < summary["paper_budget_s"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            runtime_sweep(roof_widths_m=(), module_counts=(4,))
        with pytest.raises(ConfigurationError):
            summarize_runtime([])


class TestEndToEndPipeline:
    def test_plan_roof_quickstart(self):
        spec = simple_residential_roof(width_m=8.0, depth_m=5.0, n_obstacles=2, seed=1)
        result = repro.plan_roof(
            spec, n_modules=6, n_series=3,
            time_grid=repro.TimeGrid(step_minutes=120.0, day_stride=30),
        )
        assert result.comparison.baseline.annual_energy_mwh > 0
        assert result.comparison.candidate.annual_energy_mwh > 0
        report = result.report()
        assert "traditional" in report and "proposed" in report
        validate_placement(result.proposed.placement, result.problem.grid)
        validate_placement(result.baseline.placement, result.problem.grid)

    def test_plan_roof_reads_the_seeded_weather(self, small_weather):
        spec = simple_residential_roof(width_m=8.0, depth_m=5.0, n_obstacles=1, seed=3)
        grid = small_weather.time_grid
        result = repro.plan_roof(
            spec, n_modules=4, n_series=2, time_grid=grid, weather_seed=3
        )
        assert result.problem.solar.n_time == small_weather.n_samples
        # The field's ambient temperature is the seeded trace, bit for bit.
        assert np.array_equal(result.problem.solar.temperature, small_weather.temperature)

    def test_version_exported(self):
        assert repro.__version__ == "1.0.0"
