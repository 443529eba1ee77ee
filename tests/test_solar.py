"""Unit tests for the solar substrate (position, clear sky, decomposition,
transposition, shading, time grid, irradiance field)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import SOLAR_CONSTANT, TURIN_LATITUDE
from repro.errors import SolarModelError
from repro.geometry import Raster, RasterSpec
from repro.solar import (
    TimeGrid,
    clearness_index,
    clearsky_irradiance,
    compute_horizon_map,
    compute_solar_position,
    decompose_ghi,
    erbs_diffuse_fraction,
    incidence_cosine,
    paper_time_grid,
    plane_of_array,
    relative_air_mass,
    solar_declination,
)
from repro.solar.linke import LinkeTurbidityProfile


class TestTimeGrid:
    def test_paper_grid_size(self):
        grid = paper_time_grid()
        assert grid.n_samples == 365 * 96
        assert grid.annual_scale == pytest.approx(1.0)

    def test_day_stride_scaling(self):
        grid = TimeGrid(step_minutes=60.0, day_stride=7)
        assert grid.n_days == 53
        assert grid.annual_scale == pytest.approx(365 / 53)

    def test_invalid_step(self):
        with pytest.raises(SolarModelError):
            TimeGrid(step_minutes=0.0)
        with pytest.raises(SolarModelError):
            TimeGrid(step_minutes=7.0)  # does not divide 24 h

    def test_invalid_stride(self):
        with pytest.raises(SolarModelError):
            TimeGrid(day_stride=0)

    def test_energy_integration_constant_power(self):
        grid = TimeGrid(step_minutes=60.0, day_stride=1)
        energy = grid.integrate_energy_wh(np.full(grid.n_samples, 100.0))
        assert energy == pytest.approx(100.0 * 8760.0)

    def test_energy_integration_subsampled_is_unbiased(self):
        grid = TimeGrid(step_minutes=60.0, day_stride=5)
        energy = grid.integrate_energy_wh(np.full(grid.n_samples, 100.0))
        assert energy == pytest.approx(100.0 * 8760.0, rel=1e-9)

    def test_energy_integration_length_mismatch(self):
        grid = TimeGrid(step_minutes=60.0, day_stride=7)
        with pytest.raises(SolarModelError):
            grid.integrate_energy_wh(np.zeros(3))


class TestSolarPosition:
    def test_declination_range_and_solstices(self):
        days = np.arange(1, 366)
        decl = solar_declination(days)
        assert decl.max() == pytest.approx(23.45, abs=0.5)
        assert decl.min() == pytest.approx(-23.45, abs=0.5)
        assert np.argmax(decl) + 1 == pytest.approx(172, abs=4)

    def test_noon_elevation_turin_summer(self):
        position = compute_solar_position(TURIN_LATITUDE, np.array([172.0]), np.array([12.0]))
        expected = 90.0 - TURIN_LATITUDE + 23.4
        assert position.elevation_deg[0] == pytest.approx(expected, abs=1.0)

    def test_noon_azimuth_is_south(self):
        position = compute_solar_position(TURIN_LATITUDE, np.array([100.0]), np.array([12.0]))
        assert abs(position.azimuth_deg[0]) < 2.0

    def test_morning_sun_is_east(self):
        position = compute_solar_position(TURIN_LATITUDE, np.array([172.0]), np.array([8.0]))
        # Convention: azimuth negative towards East.
        assert position.azimuth_deg[0] < -30.0

    def test_midnight_sun_below_horizon(self):
        position = compute_solar_position(TURIN_LATITUDE, np.array([172.0]), np.array([0.5]))
        assert position.elevation_deg[0] < 0

    def test_extraterrestrial_close_to_solar_constant(self):
        position = compute_solar_position(TURIN_LATITUDE, np.arange(1, 366), np.full(365, 12.0))
        assert np.all(np.abs(position.extraterrestrial_normal - SOLAR_CONSTANT) < 50)

    def test_latitude_validation(self):
        with pytest.raises(SolarModelError):
            compute_solar_position(120.0, np.array([1.0]), np.array([12.0]))


class TestClearSky:
    def test_air_mass_one_at_zenith(self):
        assert relative_air_mass(np.array([90.0]))[0] == pytest.approx(1.0, abs=0.01)

    def test_air_mass_grows_towards_horizon(self):
        masses = relative_air_mass(np.array([90.0, 30.0, 10.0, 2.0]))
        assert np.all(np.diff(masses) > 0)

    def test_air_mass_infinite_below_horizon(self):
        assert np.isinf(relative_air_mass(np.array([-5.0]))[0])

    def test_clearsky_magnitudes_at_noon(self):
        irradiance = clearsky_irradiance(
            np.array([1361.0]), np.array([65.0]), np.array([3.0])
        )
        assert 750.0 < irradiance.beam_normal[0] < 1100.0
        assert 50.0 < irradiance.diffuse_horizontal[0] < 200.0
        assert irradiance.global_horizontal[0] > irradiance.diffuse_horizontal[0]

    def test_clearsky_zero_at_night(self):
        irradiance = clearsky_irradiance(
            np.array([1361.0]), np.array([-10.0]), np.array([3.0])
        )
        assert irradiance.beam_normal[0] == 0.0
        assert irradiance.global_horizontal[0] == 0.0

    def test_higher_turbidity_means_less_beam(self):
        clean = clearsky_irradiance(np.array([1361.0]), np.array([45.0]), np.array([2.0]))
        hazy = clearsky_irradiance(np.array([1361.0]), np.array([45.0]), np.array([6.0]))
        assert hazy.beam_normal[0] < clean.beam_normal[0]
        assert hazy.diffuse_horizontal[0] > clean.diffuse_horizontal[0]

    def test_invalid_turbidity(self):
        with pytest.raises(SolarModelError):
            clearsky_irradiance(np.array([1361.0]), np.array([45.0]), np.array([0.0]))

    def test_linke_profile_interpolation(self):
        profile = LinkeTurbidityProfile.turin_default()
        values = profile.value_for_day(np.array([15.5, 196.5]))
        assert values[0] == pytest.approx(2.6, abs=0.05)
        assert values[1] == pytest.approx(3.9, abs=0.05)

    def test_linke_profile_validation(self):
        with pytest.raises(SolarModelError):
            LinkeTurbidityProfile((3.0,) * 11)
        with pytest.raises(SolarModelError):
            LinkeTurbidityProfile((0.0,) + (3.0,) * 11)


class TestDecomposition:
    def test_clearness_index_range(self):
        kt = clearness_index(np.array([500.0]), np.array([1361.0]), np.array([45.0]))
        assert 0.0 < kt[0] < 1.0

    def test_clearness_zero_at_night(self):
        kt = clearness_index(np.array([0.0]), np.array([1361.0]), np.array([-5.0]))
        assert kt[0] == 0.0

    def test_erbs_monotone_decreasing(self):
        kd = erbs_diffuse_fraction(np.array([0.1, 0.3, 0.5, 0.7]))
        assert np.all(np.diff(kd) < 0)
        assert np.all((kd >= 0) & (kd <= 1))

    def test_erbs_overcast_mostly_diffuse(self):
        assert erbs_diffuse_fraction(np.array([0.1]))[0] > 0.9

    def test_decompose_energy_closure(self):
        ghi = np.array([600.0])
        elevation = np.array([50.0])
        result = decompose_ghi(ghi, np.array([1361.0]), elevation)
        reconstructed = result.dni[0] * np.sin(np.radians(elevation[0])) + result.dhi[0]
        assert reconstructed == pytest.approx(ghi[0], rel=1e-6)

    def test_decompose_night_is_zero(self):
        result = decompose_ghi(np.array([0.0]), np.array([1361.0]), np.array([-10.0]))
        assert result.dni[0] == 0.0 and result.dhi[0] == 0.0

    def test_decompose_is_erbs(self):
        ghi = np.array([500.0, 100.0])
        i0 = np.array([1361.0, 1361.0])
        elevation = np.array([45.0, 20.0])
        result = decompose_ghi(ghi, i0, elevation)
        kt = clearness_index(ghi, i0, elevation)
        np.testing.assert_array_equal(result.diffuse_fraction, erbs_diffuse_fraction(kt))

    def test_shape_mismatch_raises(self):
        with pytest.raises(SolarModelError):
            decompose_ghi(np.array([500.0, 200.0]), np.array([1361.0]), np.array([45.0]))


class TestTransposition:
    def test_incidence_flat_surface_equals_sin_elevation(self):
        cos_inc = incidence_cosine(0.0, 0.0, np.array([30.0]), np.array([0.0]))
        assert cos_inc[0] == pytest.approx(np.sin(np.radians(30.0)))

    def test_incidence_normal_surface(self):
        cos_inc = incidence_cosine(60.0, 0.0, np.array([30.0]), np.array([0.0]))
        assert cos_inc[0] == pytest.approx(1.0)

    def test_incidence_clamped_behind_surface(self):
        cos_inc = incidence_cosine(90.0, 0.0, np.array([30.0]), np.array([180.0]))
        assert cos_inc[0] == 0.0

    def test_invalid_tilt(self):
        with pytest.raises(SolarModelError):
            incidence_cosine(120.0, 0.0, np.array([30.0]), np.array([0.0]))

    def test_south_tilt_boosts_winter_irradiance(self):
        # Low winter sun: a 30 deg south-facing tilt collects more beam than flat.
        poa_flat = plane_of_array(
            np.array([700.0]), np.array([80.0]), np.array([400.0]), np.array([1400.0]),
            0.0, 0.0, np.array([20.0]), np.array([0.0]),
        )
        poa_tilt = plane_of_array(
            np.array([700.0]), np.array([80.0]), np.array([400.0]), np.array([1400.0]),
            30.0, 0.0, np.array([20.0]), np.array([0.0]),
        )
        assert poa_tilt.total[0] > poa_flat.total[0]

    def test_isotropic_and_haydavies_agree_for_zero_dni(self):
        # With no beam the Hay-Davies anisotropy index is 0, so the sky
        # diffuse is the isotropic DHI * (1 + cos tilt) / 2.
        poa = plane_of_array(
            dni=np.array([0.0]), dhi=np.array([100.0]), ghi=np.array([100.0]),
            extraterrestrial_normal=np.array([1400.0]),
            surface_tilt_deg=30.0, surface_azimuth_deg=0.0,
            solar_elevation_deg=np.array([40.0]), solar_azimuth_deg=np.array([0.0]),
        )
        isotropic = 100.0 * (1.0 + np.cos(np.radians(30.0))) / 2.0
        assert poa.sky_diffuse[0] == pytest.approx(isotropic, rel=1e-9)

    def test_ground_reflection_zero_for_flat(self):
        poa = plane_of_array(
            np.array([500.0]), np.array([100.0]), np.array([500.0]), np.array([1400.0]),
            0.0, 0.0, np.array([45.0]), np.array([0.0]),
        )
        assert poa.ground_reflected[0] == pytest.approx(0.0)


class TestShading:
    def flat_dsm_with_wall(self) -> Raster:
        elevation = np.zeros((20, 20))
        elevation[:, 12] = 2.0  # a north-south wall at x ~ 4.8 m
        return Raster(RasterSpec(0.0, 0.0, 0.4, 20, 20), elevation)

    def test_horizon_shape(self):
        dsm = self.flat_dsm_with_wall()
        horizon = compute_horizon_map(dsm, n_sectors=8, max_distance=8.0)
        assert horizon.horizon_deg.shape == (8, 20, 20)
        assert horizon.n_sectors == 8

    def test_horizon_zero_on_open_flat_ground(self):
        dsm = Raster(RasterSpec(0.0, 0.0, 0.4, 20, 20), np.zeros((20, 20)))
        horizon = compute_horizon_map(dsm, n_sectors=8, max_distance=6.0)
        assert float(horizon.horizon_deg.max()) == pytest.approx(0.0)
        rows, cols = np.indices(dsm.shape)
        assert np.allclose(horizon.sky_view_for_cells(rows.ravel(), cols.ravel()), 1.0)

    def test_wall_raises_horizon_to_its_west(self):
        dsm = self.flat_dsm_with_wall()
        horizon = compute_horizon_map(dsm, n_sectors=16, max_distance=8.0)
        # A cell just west of the wall looking east (azimuth -90) sees a high horizon.
        east, west = horizon.sector_index(np.array([-90.0, 90.0]))
        east_sector = horizon.horizon_deg[east]
        assert east_sector[10, 10] > 45.0
        # Looking west from the same cell the horizon is clear.
        west_sector = horizon.horizon_deg[west]
        assert west_sector[10, 10] == pytest.approx(0.0)

    def test_wall_shadows_low_eastern_sun(self):
        dsm = self.flat_dsm_with_wall()
        horizon = compute_horizon_map(dsm, n_sectors=16, max_distance=8.0)
        # A low then a high sun in the east, seen from just west of the wall.
        lit = horizon.lit_mask_for_cells(
            np.array([10]), np.array([10]), np.array([20.0, 70.0]), np.array([-90.0, -90.0])
        )
        assert not lit[0, 0]
        assert lit[1, 0]

    def test_lit_fraction_series_shape_and_range(self):
        dsm = self.flat_dsm_with_wall()
        horizon = compute_horizon_map(dsm, n_sectors=8, max_distance=8.0)
        rows = np.array([10, 10])
        cols = np.array([5, 15])
        lit = horizon.lit_mask_for_cells(
            rows, cols, np.array([30.0, -10.0, 60.0]), np.array([0.0, 0.0, -90.0])
        )
        assert lit.shape == (3, 2)
        assert lit.dtype == bool
        # Sun below horizon -> nothing is lit.
        assert not lit[1].any()

    def test_sky_view_lower_near_wall(self):
        dsm = self.flat_dsm_with_wall()
        horizon = compute_horizon_map(dsm, n_sectors=16, max_distance=8.0)
        near, far = horizon.sky_view_for_cells(np.array([10, 10]), np.array([11, 2]))
        assert near < far


class TestRoofSolarField:
    def test_field_dimensions(self, small_solar, small_grid, small_time_grid):
        assert small_solar.n_cells == small_grid.n_valid
        assert small_solar.n_time == small_time_grid.n_samples
        # The field is daylight compressed: only the sun-up rows are
        # stored, and the exact dense expansion restores the rest.
        assert 0 < small_solar.n_daylight < small_solar.n_time
        # One column per distinct DSM cell: the 0.2 m grid puts several
        # cells on each 0.4 m DSM cell.
        assert 0 < small_solar.n_columns < small_solar.n_cells
        assert small_solar.irradiance.shape == (
            small_solar.n_daylight,
            small_solar.n_columns,
        )
        assert small_solar.column_index.shape == (small_solar.n_cells,)
        assert small_solar.to_dense().shape == (
            small_solar.n_time,
            small_solar.n_cells,
        )

    def test_irradiance_non_negative_and_bounded(self, small_solar):
        assert float(small_solar.irradiance.min()) >= 0.0
        assert float(small_solar.irradiance.max()) < 1400.0

    def test_percentile_map_nan_outside_valid(self, small_solar, small_grid):
        p75 = small_solar.percentile_map(75)
        assert p75.shape == small_grid.shape
        assert np.count_nonzero(np.isfinite(p75)) == small_grid.n_valid

    def test_percentile_map_ordering(self, small_solar):
        p25 = small_solar.percentile_map(25)
        p75 = small_solar.percentile_map(75)
        valid = np.isfinite(p75)
        assert np.all(p75[valid] >= p25[valid] - 1e-6)

    def test_cell_series_accessors(self, small_solar):
        row, col = small_solar.cells[0]
        series = small_solar.irradiance_for_cell(int(row), int(col))
        assert series.shape == (small_solar.n_time,)

    def test_invalid_cell_lookup(self, small_solar, small_grid):
        invalid_cells = np.argwhere(~small_grid.valid_mask)
        if invalid_cells.size:
            row, col = invalid_cells[0]
            with pytest.raises(SolarModelError):
                small_solar.column_of(int(row), int(col))

    def test_annual_insolation_plausible(self, small_solar):
        insolation = small_solar.annual_insolation_map_kwh()
        finite = insolation[np.isfinite(insolation)]
        # Turin-like climate on a 26 deg tilt: a few hundred to ~1700 kWh/m2.
        assert 200.0 < float(np.median(finite)) < 1800.0
