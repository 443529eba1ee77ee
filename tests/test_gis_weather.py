"""Unit tests for the GIS substrate (DSM, scenes, gridding, suitable area)
and the synthetic weather generator."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import GISError, WeatherError
from repro.geometry import Polygon, Raster, RasterSpec
from repro.gis import (
    DigitalSurfaceModel,
    ObstacleFootprint,
    RoofSpec,
    SuitableAreaConfig,
    apply_suitable_area,
    build_roof_scene,
    chimney,
    compute_suitable_area,
    dormer,
    make_roof_grid,
    pipe_rack,
    random_obstacle_set,
    scattered_vents,
    simple_residential_roof,
    suitable_grid_for_scene,
    vent,
)
from repro.solar import TimeGrid
from repro.weather import (
    ClearnessModel,
    StationMetadata,
    SyntheticWeatherConfig,
    TemperatureModel,
    WeatherSeries,
    generate_clearsky_index,
    generate_clearsky_weather,
    generate_temperature,
    generate_weather,
    scale_weather,
)


class TestDSM:
    def test_from_array_rejects_nan(self):
        data = np.zeros((3, 3))
        data[1, 1] = np.nan
        with pytest.raises(GISError):
            DigitalSurfaceModel(Raster(RasterSpec(0.0, 0.0, 1.0, 3, 3), data))

    def test_obstacle_footprint_validation(self):
        with pytest.raises(GISError):
            ObstacleFootprint("bad", Polygon.rectangle(0, 0, 1, 1), height_m=0.0)


class TestSyntheticScene:
    def test_scene_contains_roof_at_expected_heights(self, small_scene, small_roof_spec):
        dsm = small_scene.dsm
        eave = small_roof_spec.eave_height_m
        assert float(dsm.data.max()) >= eave
        assert float(dsm.data.min()) == pytest.approx(0.0)

    def test_obstacles_raise_dsm_above_roof(self, small_scene):
        chimney_obstacle = small_scene.obstacles[0]
        centre_roof = chimney_obstacle.polygon.centroid()
        world = small_scene.frame.roof_to_world(centre_roof)
        spec = small_scene.dsm.raster.spec
        row = int((world.y - spec.origin_y) // spec.pitch)
        col = int((world.x - spec.origin_x) // spec.pitch)
        surface = small_scene.dsm.data[row, col]
        assert surface > world.z + 0.5 * chimney_obstacle.height_m

    def test_roof_polygon_matches_spec(self, small_scene, small_roof_spec):
        assert small_scene.roof_polygon.area() == pytest.approx(
            small_roof_spec.width_m * small_roof_spec.depth_m
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(GISError):
            RoofSpec(name="bad", width_m=-1.0, depth_m=5.0, tilt_deg=20.0, azimuth_deg=0.0)
        with pytest.raises(GISError):
            RoofSpec(name="bad", width_m=5.0, depth_m=5.0, tilt_deg=95.0, azimuth_deg=0.0)
        with pytest.raises(GISError):
            RoofSpec(
                name="bad", width_m=5.0, depth_m=5.0, tilt_deg=20.0, azimuth_deg=0.0,
                surface_roughness_m=-0.1,
            )

    def test_roughness_changes_surface(self, small_roof_spec):
        smooth_spec = dataclasses.replace(small_roof_spec, surface_roughness_m=0.0)
        rough_spec = dataclasses.replace(small_roof_spec, surface_roughness_m=0.2)
        smooth = build_roof_scene(smooth_spec, dsm_pitch=0.4)
        rough = build_roof_scene(rough_spec, dsm_pitch=0.4)
        assert float(np.std(rough.dsm.data - smooth.dsm.data)) > 0.01

    def test_obstacle_factories(self):
        assert chimney(1, 1).name == "chimney"
        assert dormer(1, 1).name == "dormer"
        assert vent(1, 1).name == "vent"
        assert pipe_rack(0, 0).polygon.area() == pytest.approx(16.0)

    def test_scattered_vents_count_and_bounds(self):
        vents = scattered_vents(20.0, 8.0, n_vents=10, seed=3)
        assert len(vents) == 10
        for obstacle in vents:
            centroid = obstacle.polygon.centroid()
            assert 0.0 <= centroid.x <= 20.0
            assert 0.0 <= centroid.y <= 8.0

    def test_scattered_vents_deterministic(self):
        first = scattered_vents(20.0, 8.0, 6, seed=9)
        second = scattered_vents(20.0, 8.0, 6, seed=9)
        assert [o.polygon.centroid() for o in first] == [o.polygon.centroid() for o in second]

    def test_random_obstacle_set(self):
        obstacles = random_obstacle_set(10.0, 6.0, 5, seed=1)
        assert len(obstacles) == 5

    def test_simple_residential_roof(self):
        spec = simple_residential_roof(n_obstacles=3, seed=2)
        assert len(spec.obstacles) == 3
        scene = build_roof_scene(spec, dsm_pitch=0.5)
        assert scene.name == spec.name


class TestGridding:
    def test_grid_dimensions(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        assert grid.n_cols == 60  # 12 m / 0.2 m
        assert grid.n_rows == 30  # 6 m / 0.2 m
        assert grid.n_cells == 1800

    def test_invalid_pitch(self, small_scene):
        with pytest.raises(GISError):
            make_roof_grid(small_scene, pitch=0.0)

    def test_dsm_indices_within_bounds(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        rows, cols = grid.dsm_indices(small_scene.dsm)
        assert rows.shape == grid.shape
        assert rows.min() >= 0 and rows.max() < small_scene.dsm.shape[0]
        assert cols.min() >= 0 and cols.max() < small_scene.dsm.shape[1]

    def test_valid_cells_listing(self, small_grid):
        cells = small_grid.valid_cells()
        assert cells.shape == (small_grid.n_valid, 2)
        assert np.all(small_grid.valid_mask[cells[:, 0], cells[:, 1]])


class TestSuitableArea:
    def test_obstacles_and_setback_reduce_valid_cells(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        result = compute_suitable_area(
            grid, small_scene.obstacles, SuitableAreaConfig(edge_setback_m=0.4)
        )
        assert result.n_valid < grid.n_cells
        assert result.excluded_by_obstacles > 0
        assert result.excluded_by_setback > 0
        assert 0 < result.n_valid < result.n_total

    def test_no_obstacles_no_setback_keeps_everything(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        result = compute_suitable_area(grid, [], SuitableAreaConfig(edge_setback_m=0.0))
        assert result.n_valid == grid.n_cells

    def test_obstacle_cells_are_invalid(self, small_scene, small_grid):
        chimney_obstacle = small_scene.obstacles[0]
        centroid = chimney_obstacle.polygon.centroid()
        row = int(centroid.y / small_grid.pitch)
        col = int(centroid.x / small_grid.pitch)
        assert not small_grid.valid_mask[row, col]

    def test_scene_grid_uses_the_scene_setback(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        config = SuitableAreaConfig(edge_setback_m=small_scene.spec.edge_setback_m)
        expected = compute_suitable_area(grid, small_scene.obstacles, config)
        restricted = suitable_grid_for_scene(small_scene, grid)
        np.testing.assert_array_equal(restricted.valid_mask, expected.valid_mask)

    def test_apply_suitable_area_returns_new_grid(self, small_scene):
        grid = make_roof_grid(small_scene, pitch=0.2)
        result = compute_suitable_area(grid, small_scene.obstacles)
        restricted = apply_suitable_area(grid, result)
        assert restricted.n_valid == result.n_valid


class TestWeather:
    def test_station_validation(self):
        with pytest.raises(WeatherError):
            StationMetadata(name="x", latitude_deg=100.0, longitude_deg=0.0)

    def test_series_shape_validation(self, small_time_grid):
        station = StationMetadata("s", 45.0, 7.7)
        with pytest.raises(WeatherError):
            WeatherSeries(
                time_grid=small_time_grid,
                ghi=np.zeros(3),
                temperature=np.zeros(small_time_grid.n_samples),
                station=station,
            )

    def test_negative_ghi_rejected(self, small_time_grid):
        station = StationMetadata("s", 45.0, 7.7)
        ghi = np.zeros(small_time_grid.n_samples)
        ghi[0] = -5.0
        with pytest.raises(WeatherError):
            WeatherSeries(small_time_grid, ghi, np.zeros(small_time_grid.n_samples), station)

    def test_generated_weather_is_deterministic(self, small_time_grid):
        first = generate_weather(small_time_grid, SyntheticWeatherConfig(seed=4))
        second = generate_weather(small_time_grid, SyntheticWeatherConfig(seed=4))
        assert np.array_equal(first.ghi, second.ghi)
        assert np.array_equal(first.temperature, second.temperature)

    def test_different_seeds_differ(self, small_time_grid):
        first = generate_weather(small_time_grid, SyntheticWeatherConfig(seed=1))
        second = generate_weather(small_time_grid, SyntheticWeatherConfig(seed=2))
        assert not np.array_equal(first.ghi, second.ghi)

    def test_ghi_zero_at_night_positive_at_noon(self, small_weather, small_time_grid):
        night = small_time_grid.hours < 3.0
        noon = np.abs(small_time_grid.hours - 12.0) <= 1.5
        assert float(small_weather.ghi[night].max()) == pytest.approx(0.0)
        assert float(small_weather.ghi[noon].mean()) > 50.0

    def test_annual_ghi_plausible_for_turin(self):
        grid = TimeGrid(step_minutes=60.0, day_stride=7)
        weather = generate_weather(grid, SyntheticWeatherConfig(seed=7))
        annual = weather.annual_ghi_kwh_per_m2()
        assert 800.0 < annual < 1800.0

    def test_clearsky_weather_upper_bounds_cloudy(self):
        grid = TimeGrid(step_minutes=120.0, day_stride=30)
        config = SyntheticWeatherConfig(seed=5)
        cloudy = generate_weather(grid, config)
        clear = generate_clearsky_weather(grid, config)
        assert clear.annual_ghi_kwh_per_m2() >= cloudy.annual_ghi_kwh_per_m2() * 0.95

    def test_summer_warmer_than_winter(self, small_weather, small_time_grid):
        summer = (small_time_grid.days_of_year > 150) & (small_time_grid.days_of_year < 240)
        winter = (small_time_grid.days_of_year < 60) | (small_time_grid.days_of_year > 330)
        summer_mean = small_weather.temperature[summer].mean()
        winter_mean = small_weather.temperature[winter].mean()
        assert summer_mean > winter_mean + 5

    def test_clearsky_index_bounds(self, small_time_grid):
        index = generate_clearsky_index(small_time_grid, seed=0)
        assert float(index.min()) >= 0.02
        assert float(index.max()) <= 1.1

    def test_clearness_model_validation(self):
        with pytest.raises(WeatherError):
            ClearnessModel(clear_mean=1.5)
        with pytest.raises(WeatherError):
            ClearnessModel(persistence=1.0)

    def test_temperature_model_validation(self):
        with pytest.raises(WeatherError):
            TemperatureModel(seasonal_amplitude_c=-1.0)

    def test_temperature_clearness_coupling(self, small_time_grid):
        clear = generate_temperature(
            small_time_grid, clearsky_index=np.ones(small_time_grid.n_samples), seed=0
        )
        overcast = generate_temperature(
            small_time_grid, clearsky_index=np.full(small_time_grid.n_samples, 0.2), seed=0
        )
        assert clear.mean() > overcast.mean()

    def test_scale_weather(self, small_weather):
        doubled = scale_weather(small_weather, 2.0)
        assert np.allclose(doubled.ghi, small_weather.ghi * 2.0)
        with pytest.raises(WeatherError):
            scale_weather(small_weather, -1.0)

    def test_summary_keys(self, small_weather):
        summary = small_weather.summary()
        assert {"station", "annual_ghi_kwh_m2", "mean_temperature_c"} <= set(summary)
