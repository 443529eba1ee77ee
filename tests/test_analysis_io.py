"""Unit tests for the analysis layer and the I/O formats."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.analysis import (
    MonthlyEnergy,
    Table1Report,
    Table1Row,
    ascii_heatmap,
    capacity_factor,
    downsample_map,
    format_comparison_table,
    map_statistics,
    monthly_energy,
    month_of_day,
    overlap_fraction,
    placement_ascii,
    placement_shape_metrics,
    spatial_variation_coefficient,
    string_uniformity,
)
from repro.core import compute_suitability, greedy_floorplan, traditional_floorplan
from repro.errors import IOFormatError, ReproError
from repro.io import (
    placement_from_dict,
    placement_to_dict,
    save_placement,
    write_asc,
    write_weather_csv,
)


def _read_asc(path):
    """Header dict and south-up data array of an ESRI ASCII grid file."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = {key: float(value) for key, value in (line.split() for line in lines[:6])}
    data = np.loadtxt(lines[6:], ndmin=2)[::-1]
    assert data.shape == (int(header["nrows"]), int(header["ncols"]))
    return header, data


def _read_weather_csv(path):
    """Station row, grid row and named columns of a weather CSV file."""
    with path.open(newline="", encoding="ascii") as handle:
        station, grid, fields, *rows = list(csv.reader(handle))
    columns = np.array(rows, dtype=float).T
    return station, grid, dict(zip(fields, columns))


class TestEnergyAnalysis:
    def test_month_of_day(self):
        months = month_of_day(np.array([1.0, 31.0, 32.0, 365.0]))
        assert months.tolist() == [0, 0, 1, 11]

    def test_monthly_energy_sums_to_total(self, small_time_grid):
        power = np.full(small_time_grid.n_samples, 50.0)
        breakdown = monthly_energy(small_time_grid, power)
        assert np.sum(breakdown.monthly_wh) == pytest.approx(
            small_time_grid.integrate_energy_wh(power), rel=1e-9
        )
        assert len(breakdown.as_dict()) == 12

    def test_monthly_energy_length_check(self, small_time_grid):
        with pytest.raises(ReproError):
            monthly_energy(small_time_grid, np.zeros(3))

    def test_monthly_energy_validation(self):
        with pytest.raises(ReproError):
            MonthlyEnergy(monthly_wh=np.zeros(5))

    def test_capacity_factor(self):
        assert capacity_factor(876_000.0, 1000.0) == pytest.approx(0.1)


class TestMaps:
    def make_map(self):
        values = np.linspace(0, 1, 200).reshape(10, 20)
        values[0, 0] = np.nan
        return values

    def test_downsample_shape(self):
        reduced = downsample_map(self.make_map(), max_rows=5, max_cols=10)
        assert reduced.shape[0] <= 5 and reduced.shape[1] <= 10

    def test_ascii_heatmap_lines(self):
        art = ascii_heatmap(self.make_map(), max_rows=5, max_cols=10)
        lines = art.splitlines()
        assert 1 <= len(lines) <= 5
        assert all(len(line) <= 10 for line in lines)

    def test_map_statistics(self):
        stats = map_statistics(self.make_map())
        assert stats["min"] >= 0.0 and stats["max"] <= 1.0
        assert stats["p25"] <= stats["p50"] <= stats["p75"]

    def test_map_statistics_empty(self):
        with pytest.raises(ReproError):
            map_statistics(np.full((3, 3), np.nan))

    def test_variation_coefficient(self):
        uniform = np.ones((5, 5))
        assert spatial_variation_coefficient(uniform) == pytest.approx(0.0)
        assert spatial_variation_coefficient(self.make_map()) > 0.0

    def test_placement_ascii(self, small_problem):
        placement = traditional_floorplan(small_problem).placement
        art = placement_ascii(placement, small_problem.grid.shape)
        assert "A" in art


class TestPlacementMetrics:
    def test_shape_metrics(self, small_problem):
        traditional = traditional_floorplan(small_problem)
        metrics = placement_shape_metrics(traditional.placement, traditional.suitability)
        assert metrics.covered_area_m2 == pytest.approx(
            small_problem.n_modules * 1.6 * 0.8, rel=1e-6
        )
        assert 0.0 < metrics.packing_density <= 1.0
        assert metrics.min_footprint_suitability <= metrics.mean_footprint_suitability

    def test_string_uniformity_bounds(self, small_problem):
        greedy = greedy_floorplan(small_problem)
        uniformity = string_uniformity(greedy.placement, greedy.suitability)
        assert 0.0 < uniformity.worst_ratio <= 1.0 + 1e-9
        assert len(uniformity.per_string_min_over_mean) == small_problem.topology.n_parallel

    def test_greedy_strings_at_least_as_uniform(self, small_problem):
        suitability = compute_suitability(small_problem.solar)
        traditional = traditional_floorplan(small_problem, suitability=suitability)
        greedy = greedy_floorplan(small_problem, suitability=suitability)
        uniform_greedy = string_uniformity(greedy.placement, suitability)
        uniform_traditional = string_uniformity(traditional.placement, suitability)
        assert uniform_greedy.mean_ratio >= uniform_traditional.mean_ratio - 0.05

    def test_overlap_fraction(self, small_problem):
        traditional = traditional_floorplan(small_problem)
        self_overlap = overlap_fraction(
            traditional.placement, traditional.placement, small_problem.grid.shape
        )
        assert self_overlap == pytest.approx(1.0)


class TestReports:
    def test_table1_row_improvement(self):
        row = Table1Row("roof1", 287, 51, 9000, 16, traditional_mwh=3.0, proposed_mwh=3.6)
        assert row.improvement_percent == pytest.approx(20.0)
        assert row.as_dict()["WxL"] == "287x51"

    def test_report_render(self):
        report = Table1Report()
        report.add_row(Table1Row("roof1", 287, 51, 9000, 16, 3.0, 3.6))
        report.add_row(Table1Row("roof2", 298, 51, 11000, 32, 6.0, 7.2))
        text = report.render()
        assert "roof1" in text and "20.00%" in text
        assert len(report.as_dicts()) == 2
        assert [row.improvement_percent for row in report.rows] == pytest.approx([20.0, 20.0])

    def test_report_empty_render(self):
        with pytest.raises(ReproError):
            Table1Report().render()

    def test_format_comparison_table(self):
        text = format_comparison_table(["a", "b"], [[1.0, 2.0], [3.0, 4.0]], ["x", "y"])
        assert "a" in text and "4.000" in text
        with pytest.raises(ReproError):
            format_comparison_table(["a"], [[1.0]], ["x", "y"])


class TestIO:
    def test_asc_roundtrip(self, tmp_path, small_scene):
        path = tmp_path / "dsm.asc"
        write_asc(small_scene.dsm, path)
        header, data = _read_asc(path)
        spec = small_scene.dsm.raster.spec
        assert data.shape == small_scene.dsm.shape
        assert np.allclose(data, small_scene.dsm.data, atol=1e-3)
        assert header["cellsize"] == pytest.approx(spec.pitch)
        assert (header["xllcorner"], header["yllcorner"]) == pytest.approx(
            (spec.origin_x, spec.origin_y)
        )

    def test_weather_csv_roundtrip(self, tmp_path, small_weather):
        path = tmp_path / "weather.csv"
        write_weather_csv(small_weather, path)
        station, grid, columns = _read_weather_csv(path)
        assert set(columns) == {"day_of_year", "hour", "ghi_w_m2", "temperature_c"}
        assert np.allclose(columns["ghi_w_m2"], small_weather.ghi, atol=1e-2)
        assert np.allclose(columns["temperature_c"], small_weather.temperature, atol=1e-2)
        assert np.allclose(columns["hour"], small_weather.time_grid.hours, atol=1e-4)
        assert station[1] == small_weather.station.name
        assert float(grid[1]) == small_weather.time_grid.step_minutes

    def test_weather_csv_with_decomposition(self, tmp_path, small_time_grid):
        from repro.weather import SyntheticWeatherConfig, generate_clearsky_weather

        series = generate_clearsky_weather(small_time_grid, SyntheticWeatherConfig(seed=2))
        path = tmp_path / "clearsky.csv"
        write_weather_csv(series, path)
        _, _, columns = _read_weather_csv(path)
        assert np.allclose(columns["dni_w_m2"], series.dni, atol=1e-2)
        assert np.allclose(columns["dhi_w_m2"], series.dhi, atol=1e-2)

    def test_placement_json_roundtrip(self, tmp_path, small_problem):
        placement = greedy_floorplan(small_problem).placement
        path = tmp_path / "placement.json"
        save_placement(placement, path)
        loaded = placement_from_dict(json.loads(path.read_text(encoding="ascii")))
        assert loaded.n_modules == placement.n_modules
        assert [(m.row, m.col) for m in loaded] == [(m.row, m.col) for m in placement]
        assert loaded.topology == placement.topology

    def test_placement_dict_validation(self):
        with pytest.raises(IOFormatError):
            placement_from_dict({"format_version": 99})
        with pytest.raises(IOFormatError):
            placement_from_dict({"format_version": 1})

    def test_placement_dict_roundtrip_in_memory(self, small_problem):
        placement = traditional_floorplan(small_problem).placement
        data = placement_to_dict(placement)
        rebuilt = placement_from_dict(data)
        assert rebuilt.label == placement.label
