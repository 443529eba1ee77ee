"""Tests of the daylight-compressed solar field and zero-copy transport.

Covers the PR-3 contract end to end:

* the compressed field expands bit-for-bit to the kept dense reference and
  every consumer (energy integration, aggregate maps, suitability, greedy /
  traditional placements, the evaluator) agrees with the dense flow;
* the degenerate axes (polar night / all-dark series, ``n_daylight == 0``)
  flow through without special-casing;
* the stage cache round-trips the irradiance block through a raw ``.npy``
  sidecar that warm readers memory-map read-only, with clean invalidation
  of pre-version entries and corrupt sidecars;
* the batch runner ships kilobyte-sized cache-key payloads (never an
  irradiance array) and its completion-streamed execution preserves input
  order;
* the polar-safe azimuth formula (the ``cos_az`` guard fix).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import FloorplanProblem, PlacementEvaluator, default_topology
from repro.core.greedy import greedy_floorplan
from repro.core.suitability import compute_suitability
from repro.core.traditional import traditional_floorplan
from repro.errors import SolarModelError
from repro.pv.datasheet import PV_MF165EB3
from repro.runner import StageCache, run_batch
from repro.runner.batch import _task_context, _worker_payload
from repro.runner.stages import STAGE_SOLAR, run_pipeline
from repro.scenario import ScenarioSpec, SolarSpec, TimeSpec, WeatherSpec, builtin_scenarios
from repro.solar import (
    CompressedTimeGrid,
    SolarSimulationConfig,
    TimeGrid,
    compute_roof_solar_field,
    irradiance_map,
    solar_elevation_azimuth,
)
from repro.weather.records import StationMetadata, WeatherSeries

from oracles.solar_field import compute_roof_solar_field_dense_reference


@pytest.fixture(scope="module")
def dense_reference(small_scene, small_grid, small_weather):
    """The kept dense assembly of the small roof (the ground truth)."""
    config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
    return compute_roof_solar_field_dense_reference(
        small_scene, small_grid, small_weather, config
    )


def _modules(placement):
    return [(m.module_index, m.row, m.col, m.rotated) for m in placement.modules]


def _problem(grid, solar, n_modules=6, n_series=3):
    return FloorplanProblem(
        grid=grid,
        solar=solar,
        n_modules=n_modules,
        topology=default_topology(n_modules, n_series=n_series),
        datasheet=PV_MF165EB3,
        label="equivalence",
    )


# ---------------------------------------------------------------------------
# CompressedTimeGrid
# ---------------------------------------------------------------------------


class TestCompressedTimeGrid:
    def test_round_trip_is_exact(self):
        grid = TimeGrid(step_minutes=120.0, day_stride=30)
        keep = np.zeros(grid.n_samples, dtype=bool)
        keep[::3] = True
        axis = CompressedTimeGrid.from_mask(grid, keep)
        assert axis.n_daylight == int(np.count_nonzero(keep))
        assert axis.n_full == grid.n_samples
        values = np.arange(axis.n_daylight, dtype=float) + 1.0
        dense = axis.expand(values)
        assert dense.shape == (grid.n_samples,)
        assert np.all(dense[~keep] == 0.0)
        assert np.array_equal(dense[axis.indices], values)

    def test_integrate_matches_dense_for_zero_filled_series(self):
        grid = TimeGrid(step_minutes=120.0, day_stride=30)
        keep = np.zeros(grid.n_samples, dtype=bool)
        keep[10:60] = True
        axis = CompressedTimeGrid.from_mask(grid, keep)
        rng = np.random.default_rng(0)
        compressed = rng.uniform(0.0, 900.0, size=(axis.n_daylight, 3))
        dense = axis.expand(compressed)
        fast = axis.integrate_energy_wh(compressed)
        reference = grid.integrate_energy_wh(dense)
        assert np.allclose(fast, reference, rtol=1e-12)

    def test_empty_axis(self):
        grid = TimeGrid(step_minutes=120.0, day_stride=30)
        axis = CompressedTimeGrid.from_mask(grid, np.zeros(grid.n_samples, dtype=bool))
        assert axis.n_daylight == 0
        assert axis.integrate_energy_wh(np.zeros((0,))) == 0.0
        assert np.array_equal(axis.expand(np.zeros((0, 2))), np.zeros((grid.n_samples, 2)))

    def test_validation(self):
        grid = TimeGrid(step_minutes=120.0, day_stride=30)
        with pytest.raises(SolarModelError):
            CompressedTimeGrid(full=grid, indices=np.array([3, 3]))
        with pytest.raises(SolarModelError):
            CompressedTimeGrid(full=grid, indices=np.array([grid.n_samples]))
        axis = CompressedTimeGrid(full=grid, indices=np.array([0, 5]))
        with pytest.raises(SolarModelError):
            axis.integrate_energy_wh(np.zeros(3))
        with pytest.raises(SolarModelError):
            axis.expand(np.zeros(3))


# ---------------------------------------------------------------------------
# Dense vs compressed equivalence
# ---------------------------------------------------------------------------


class TestDenseEquivalence:
    def test_expansion_is_bit_identical(self, small_solar, dense_reference):
        assert dense_reference.n_daylight == dense_reference.n_time
        assert small_solar.n_daylight < small_solar.n_time
        assert np.array_equal(small_solar.to_dense(), dense_reference.irradiance)
        # Every dropped row of the reference is exactly zero.
        mask = np.zeros(small_solar.n_time, dtype=bool)
        mask[small_solar.daylight.indices] = True
        assert np.all(dense_reference.irradiance[~mask] == 0.0)

    def test_assembly_over_many_tiles_and_chunks_is_bit_identical(
        self, monkeypatch, small_scene, small_grid, small_weather, dense_reference
    ):
        # Budgets small enough that the small roof's columns take several
        # chunks and each chunk's rows many tiles, ragged ends included.
        monkeypatch.setattr(irradiance_map, "_DENSE_BLOCK_BYTES", 64 * 1024)
        monkeypatch.setattr(irradiance_map, "_ASSEMBLY_TILE_BYTES", 4 * 1024)
        config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
        field = compute_roof_solar_field(small_scene, small_grid, small_weather, config)
        chunk = 64 * 1024 // (8 * field.n_daylight)
        assert field.n_columns > 3 * chunk
        assert field.n_daylight > 10 * (4 * 1024 // (8 * chunk))
        assert np.array_equal(field.to_dense(), dense_reference.irradiance)

    def test_aggregate_maps_match(self, small_solar, dense_reference):
        assert np.array_equal(
            np.nan_to_num(small_solar.percentile_map(75)),
            np.nan_to_num(dense_reference.percentile_map(75)),
        )
        fast = small_solar.annual_insolation_map_kwh()
        slow = dense_reference.annual_insolation_map_kwh()
        finite = np.isfinite(slow)
        assert np.array_equal(finite, np.isfinite(fast))
        assert np.allclose(fast[finite], slow[finite], rtol=1e-9)

    def test_iter_dense_blocks_reassembles_exactly(self, small_solar):
        # The blocks cover the stored columns; the column index expands
        # them to one series per cell.
        dense = small_solar.to_dense().astype(np.float64)
        rebuilt = np.empty((small_solar.n_time, small_solar.n_columns))
        for sl, block in small_solar.iter_dense_blocks(max_columns=7):
            rebuilt[:, sl] = block
        assert np.array_equal(rebuilt[:, small_solar.column_index], dense)

    def test_suitability_is_bit_identical(self, small_solar, dense_reference):
        for statistic in ("percentile", "mean"):
            from repro.core.suitability import SuitabilityConfig

            cfg = SuitabilityConfig(statistic=statistic)
            fast = compute_suitability(small_solar, cfg)
            slow = compute_suitability(dense_reference, cfg)
            assert np.array_equal(
                np.nan_to_num(fast.values), np.nan_to_num(slow.values)
            )

    def test_placements_identical_module_for_module(
        self, small_grid, small_solar, dense_reference
    ):
        fast_problem = _problem(small_grid, small_solar)
        dense_problem = _problem(small_grid, dense_reference)
        assert _modules(greedy_floorplan(fast_problem).placement) == _modules(
            greedy_floorplan(dense_problem).placement
        )
        assert _modules(traditional_floorplan(fast_problem).placement) == _modules(
            traditional_floorplan(dense_problem).placement
        )

    def test_evaluation_within_1e9_relative(
        self, small_grid, small_solar, dense_reference
    ):
        fast_problem = _problem(small_grid, small_solar)
        dense_problem = _problem(small_grid, dense_reference)
        placement = greedy_floorplan(fast_problem).placement
        fast = PlacementEvaluator(fast_problem).evaluate(
            placement, store_power_series=True
        )
        slow = PlacementEvaluator(dense_problem).evaluate(
            placement, store_power_series=True
        )
        for name in (
            "annual_energy_wh",
            "gross_energy_wh",
            "wiring_loss_wh",
            "mean_mismatch_loss",
            "peak_power_w",
            "capacity_factor",
        ):
            fast_value, slow_value = getattr(fast, name), getattr(slow, name)
            assert fast_value == pytest.approx(slow_value, rel=1e-9, abs=1e-9), name
        assert fast.power_series_w.shape == (small_solar.n_time,)
        assert np.allclose(fast.power_series_w, slow.power_series_w, rtol=1e-9, atol=1e-9)

    def test_restricted_to_preserves_axis(self, small_grid, small_solar):
        mask = np.zeros_like(small_grid.valid_mask)
        mask[2:8, 2:22] = small_grid.valid_mask[2:8, 2:22]
        grid = small_grid.with_mask(mask)
        restricted = small_solar.restricted_to(grid)
        assert restricted.daylight is small_solar.daylight
        assert restricted.n_cells == grid.n_valid
        row, col = restricted.cells[0]
        assert np.array_equal(
            restricted.irradiance_for_cell(int(row), int(col)),
            small_solar.irradiance_for_cell(int(row), int(col)),
        )

    def test_scenario_catalog_fingerprints_match_dense(self, tmp_path, monkeypatch):
        """Catalog scenarios run identically on the compressed field.

        The dense flow is emulated by patching the assembly entry point the
        pipeline uses with the kept dense reference.
        """
        from repro.runner import stages
        from repro.runner.stages import run_scenario

        catalog = builtin_scenarios()
        names = ("residential-south", "high-latitude", "heavy-shading")
        compressed = {
            name: run_scenario(catalog[name], cache=None, use_cache=False).fingerprint()
            for name in names
        }
        monkeypatch.setattr(
            stages, "compute_roof_solar_field", compute_roof_solar_field_dense_reference
        )
        dense = {
            name: run_scenario(catalog[name], cache=None, use_cache=False).fingerprint()
            for name in names
        }
        for name in names:
            comp, ref = dict(compressed[name]), dict(dense[name])
            for key in ("annual_energy_mwh", "baseline_energy_mwh",
                        "improvement_percent", "wiring_extra_length_m"):
                assert comp.pop(key) == pytest.approx(ref.pop(key), rel=1e-9), (name, key)
            # Everything else -- placements included -- must be identical.
            assert comp == ref, name


# ---------------------------------------------------------------------------
# Degenerate axes (polar night / all-dark weather)
# ---------------------------------------------------------------------------


class TestPolarNight:
    @pytest.fixture(scope="class")
    def dark_solar(self, small_scene, small_grid, small_time_grid):
        """An all-dark series: zero GHI everywhere -> n_daylight == 0."""
        n = small_time_grid.n_samples
        weather = WeatherSeries(
            time_grid=small_time_grid,
            ghi=np.zeros(n),
            temperature=np.linspace(-12.0, 4.0, n),
            station=StationMetadata(name="polar", latitude_deg=85.0, longitude_deg=0.0),
        )
        config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
        return compute_roof_solar_field(small_scene, small_grid, weather, config)

    def test_zero_daylight_axis(self, dark_solar):
        assert dark_solar.n_daylight == 0
        assert dark_solar.irradiance.shape == (0, dark_solar.n_columns)
        assert np.all(dark_solar.to_dense() == 0.0)

    def test_maps_are_zero(self, dark_solar):
        for grid_map in (
            dark_solar.percentile_map(75),
            dark_solar.annual_insolation_map_kwh(),
        ):
            finite = np.isfinite(grid_map)
            assert np.count_nonzero(finite) == dark_solar.n_cells
            assert np.all(grid_map[finite] == 0.0)

    def test_pipeline_places_and_scores_zero_energy(self, small_grid, dark_solar):
        problem = _problem(small_grid, dark_solar)
        result = greedy_floorplan(problem)
        assert result.placement.n_modules == problem.n_modules
        evaluation = PlacementEvaluator(problem).evaluate(
            result.placement, store_power_series=True
        )
        assert evaluation.annual_energy_wh == 0.0
        assert evaluation.peak_power_w == 0.0
        assert evaluation.mean_mismatch_loss == 0.0
        assert evaluation.power_series_w.shape == (dark_solar.n_time,)
        assert np.all(evaluation.power_series_w == 0.0)


# ---------------------------------------------------------------------------
# Polar-safe solar azimuth (the cos_az guard fix)
# ---------------------------------------------------------------------------


class TestHighLatitudeAzimuth:
    def test_azimuth_tracks_hour_angle_at_north_pole(self):
        # At the pole the sun circles at constant elevation (= declination);
        # its azimuth in the from-South-positive-West convention equals the
        # hour angle.  The former scalar guard dropped the safe_cos_elev
        # factor exactly at |lat| = 90 and collapsed the azimuth to ~+-90.
        hours = np.arange(0.5, 24.0, 1.0)
        days = np.full_like(hours, 172.0)  # near the June solstice
        elevation, azimuth, declination, hour_angle = solar_elevation_azimuth(
            90.0, days, hours
        )
        assert np.all(elevation > 0)  # polar day
        assert np.allclose(elevation, declination, atol=1e-6)
        assert np.allclose(azimuth, hour_angle, atol=1e-6)

    def test_azimuth_at_south_pole_midsummer(self):
        hours = np.arange(0.5, 24.0, 1.0)
        days = np.full_like(hours, 355.0)  # near the December solstice
        elevation, azimuth, declination, hour_angle = solar_elevation_azimuth(
            -90.0, days, hours
        )
        assert np.all(elevation > 0)
        assert np.allclose(elevation, -declination, atol=1e-6)
        # cos_az flips sign at lat = -90: azimuth = atan2(sin ha, -cos ha).
        ha = np.radians(hour_angle)
        expected = np.degrees(np.arctan2(np.sin(ha), -np.cos(ha)))
        assert np.allclose(azimuth, expected, atol=1e-6)

    def test_mid_latitudes_unchanged_shape(self):
        hours = np.arange(0.5, 24.0, 1.0)
        days = np.full_like(hours, 172.0)
        elevation, azimuth, _, _ = solar_elevation_azimuth(45.0, days, hours)
        up = elevation > 0
        # Sunrise in the east (negative azimuth), sunset in the west.
        assert azimuth[up][0] < -60.0
        assert azimuth[up][-1] > 60.0


# ---------------------------------------------------------------------------
# Memmap sidecar cache round-trip
# ---------------------------------------------------------------------------


class TestMemmapCache:
    def _cached(self, roof, cache):
        spec = ScenarioSpec(
            name="memmap",
            roof=roof,
            n_modules=1,
            grid_pitch=0.2,
            time=TimeSpec(step_minutes=120.0, day_stride=30),
            weather=WeatherSpec(seed=3),
            solar=SolarSpec(n_horizon_sectors=16, horizon_max_distance_m=25.0),
        )
        stage_cached: dict = {}
        solar = run_pipeline(spec, STAGE_SOLAR, cache, stage_cached, {})[STAGE_SOLAR]
        return solar, stage_cached[STAGE_SOLAR]

    def test_round_trip_is_memmapped_and_exact(self, small_roof_spec, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        cold, hit_cold = self._cached(small_roof_spec, cache)
        assert not hit_cold
        sidecars = list((tmp_path / "cache").rglob("*.irradiance.npy"))
        assert len(sidecars) == 1
        warm, hit_warm = self._cached(small_roof_spec, cache)
        assert hit_warm
        assert isinstance(warm.irradiance, np.memmap)
        assert not warm.irradiance.flags.writeable
        assert np.array_equal(np.asarray(warm.irradiance), cold.irradiance)
        assert np.array_equal(warm.daylight.indices, cold.daylight.indices)
        # The pickled entry itself stays small: the bulk lives in the sidecar.
        entry = next((tmp_path / "cache" / "solar").glob("*.pkl"))
        assert entry.stat().st_size < sidecars[0].stat().st_size

    def test_missing_sidecar_is_a_miss(self, small_roof_spec, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        self._cached(small_roof_spec, cache)
        for sidecar in (tmp_path / "cache").rglob("*.npy"):
            sidecar.unlink()
        _, hit = self._cached(small_roof_spec, cache)
        assert not hit

    def test_corrupt_sidecar_is_a_miss(self, small_roof_spec, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        self._cached(small_roof_spec, cache)
        for sidecar in (tmp_path / "cache").rglob("*.npy"):
            sidecar.write_bytes(b"not an npy file")
        _, hit = self._cached(small_roof_spec, cache)
        assert not hit

    def test_format_version_orphans_old_entries(
        self, small_roof_spec, tmp_path, monkeypatch
    ):
        from repro.runner import cache as cache_module

        cache = StageCache(root=tmp_path / "cache")
        self._cached(small_roof_spec, cache)
        # Entries written under a previous on-disk format hash to different
        # paths, so they can never be read back (no corruption, just a miss).
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 1)
        _, hit = self._cached(small_roof_spec, cache)
        assert not hit

    def test_format_3_cache_is_a_clean_miss(self, tmp_path, monkeypatch):
        # Format 4 stores one irradiance column per DSM cell, and format 5
        # keys entries by the node table.  A cache directory filled under
        # format 3 is neither read nor an error: every stage recomputes next
        # to the old entries, to the same answer.
        from repro.runner import cache as cache_module
        from repro.runner.stages import run_scenario

        assert cache_module.CACHE_FORMAT_VERSION == 5
        spec = builtin_scenarios()["residential-south"]
        root = tmp_path / "cache"
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_FORMAT_VERSION", 3)
            old = run_scenario(spec, cache=StageCache(root=root))
        old_entries = len(list(root.rglob("*.pkl")))
        assert old_entries and not any(old.stage_cached.values())
        new = run_scenario(spec, cache=StageCache(root=root))
        assert not any(new.stage_cached.values())
        assert new.fingerprint() == old.fingerprint()
        assert len(list(root.rglob("*.pkl"))) == 2 * old_entries
        again = run_scenario(spec, cache=StageCache(root=root))
        assert all(again.stage_cached.values())

    def test_clear_removes_sidecars(self, small_roof_spec, tmp_path):
        cache = StageCache(root=tmp_path / "cache")
        self._cached(small_roof_spec, cache)
        assert list((tmp_path / "cache").rglob("*.npy"))
        removed = cache.clear()
        assert removed == cache.stats.writes
        assert not list((tmp_path / "cache").rglob("*.npy"))


# ---------------------------------------------------------------------------
# Zero-copy batch transport
# ---------------------------------------------------------------------------


class TestBatchTransport:
    def test_worker_payload_is_kilobytes_not_arrays(self):
        # The biggest catalog roof: its solar field is tens of MB, but the
        # submitted work unit carries only the declarative spec + cache key
        # material.
        spec = builtin_scenarios()["industrial-pipes"]
        payload = _worker_payload(spec, "some-cache-dir", None, _task_context())
        size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert size < 50_000, f"worker payload unexpectedly large: {size} bytes"

    def test_streamed_completion_preserves_input_order(self, tmp_path):
        catalog = builtin_scenarios()
        names = [
            "fleet-c-baseline",
            "residential-south",
            "fleet-a-n6",
            "fleet-b-n8",
            "residential-compact",
        ]
        specs = [catalog[name] for name in names]
        # 5 scenarios with 2 workers and 2-deep in-flight chunks exercises
        # the submit-as-completed refill loop.
        batch = run_batch(specs, cache=tmp_path / "cache", jobs=2)
        assert [result.scenario for result in batch.results] == names
        serial = run_batch(specs, cache=tmp_path / "cache-serial", jobs=1)
        assert [r.fingerprint() for r in batch.results] == [
            r.fingerprint() for r in serial.results
        ]
