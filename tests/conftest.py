"""Shared fixtures: small, fast instances of every pipeline stage.

The heavy objects (scene, solar field, problem) are session-scoped so the
whole suite builds them once; they are deliberately small (a ~10 m roof,
two-hourly sampling of every 30th day) to keep the suite CI-friendly while
still exercising every code path end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FloorplanProblem, default_topology
from repro.gis import (
    RoofSpec,
    build_roof_scene,
    chimney,
    make_roof_grid,
    suitable_grid_for_scene,
    vent,
)
from repro.pv.datasheet import PV_MF165EB3
from repro.solar import SolarSimulationConfig, TimeGrid, compute_roof_solar_field
from repro.weather import SyntheticWeatherConfig, generate_weather


@pytest.fixture(autouse=True)
def isolated_campaign_store(tmp_path, monkeypatch):
    """Point the default campaign result store at a per-test location.

    Keeps CLI/sweep tests -- which fall back to ``$REPRO_STORE_PATH`` or the
    user cache directory -- hermetic: no test reads another test's (or the
    developer's) campaign state, and nothing leaks into ``~/.cache``.
    """
    monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "test-campaigns.sqlite"))


@pytest.fixture(autouse=True)
def isolated_faults(monkeypatch):
    """Keep fault-injection state out of (and between) tests.

    A developer's ``REPRO_FAULTS`` must not arm chaos in the suite, and a
    chaos test that arms a plan in-process must not leave spent (or live!)
    injectors behind for later tests.
    """
    from repro import faults

    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture(autouse=True)
def isolated_telemetry(monkeypatch):
    """Keep tracing and log-level state out of (and between) tests.

    A developer's ``REPRO_TRACE``/``REPRO_LOG_LEVEL`` must not leak into the
    suite, and a test that enables tracing must not leave the process-wide
    tracer recording for later tests.
    """
    from repro import telemetry

    monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
    monkeypatch.delenv(telemetry.LOG_LEVEL_ENV, raising=False)
    telemetry.configure(None)
    yield
    telemetry.configure(None)


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Shut the batch runner's idle worker pool down after every test.

    A pooled batch hands its workers back for the next one in the process,
    and those workers carry what they inherited at fork time.  Tests that
    monkeypatch ``ProcessPoolExecutor`` or a module global before a pooled
    batch need workers forked after the patch, not a pool an earlier test
    left idle.
    """
    yield
    from repro.runner import batch

    batch.discard_idle_pool()


@pytest.fixture(scope="session")
def small_time_grid() -> TimeGrid:
    """Two-hourly samples of every 30th day (156 samples)."""
    return TimeGrid(step_minutes=120.0, day_stride=30)


@pytest.fixture(scope="session")
def small_roof_spec() -> RoofSpec:
    """A 12 m x 6 m south-facing roof with a chimney and two vents."""
    return RoofSpec(
        name="test-roof",
        width_m=12.0,
        depth_m=6.0,
        tilt_deg=26.0,
        azimuth_deg=10.0,
        eave_height_m=5.0,
        edge_setback_m=0.2,
        obstacles=(
            chimney(3.0, 4.5, side_m=0.8, height_m=1.6),
            vent(7.0, 2.0, side_m=0.4, height_m=0.8),
            vent(9.5, 4.0, side_m=0.4, height_m=0.9),
        ),
        surface_roughness_m=0.08,
        roughness_correlation_m=1.0,
        roughness_seed=5,
    )


@pytest.fixture(scope="session")
def small_scene(small_roof_spec):
    """The rasterised scene of the small roof."""
    return build_roof_scene(small_roof_spec, dsm_pitch=0.4)


@pytest.fixture(scope="session")
def small_grid(small_scene):
    """The suitable-area-restricted virtual grid of the small roof."""
    grid = make_roof_grid(small_scene, pitch=0.2)
    return suitable_grid_for_scene(small_scene, grid)


@pytest.fixture(scope="session")
def small_weather(small_time_grid):
    """A deterministic synthetic weather trace."""
    return generate_weather(small_time_grid, SyntheticWeatherConfig(seed=3))


@pytest.fixture(scope="session")
def small_solar(small_scene, small_grid, small_weather):
    """The roof solar field of the small roof."""
    config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
    return compute_roof_solar_field(small_scene, small_grid, small_weather, config)


@pytest.fixture(scope="session")
def quarter_hour_solar(small_scene, small_grid):
    """The small roof's field at 15-minute steps on every 3rd day.

    Its 5,880 stored rows span many row tiles of the evaluator's column
    gather and of the daylight block copy, and its 370 columns more than
    one column block of the suitability reduction.
    """
    time_grid = TimeGrid(step_minutes=15.0, day_stride=3)
    weather = generate_weather(time_grid, SyntheticWeatherConfig(seed=3))
    config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
    return compute_roof_solar_field(small_scene, small_grid, weather, config)


@pytest.fixture(scope="session")
def small_problem(small_grid, small_solar) -> FloorplanProblem:
    """A 6-module (3 series x 2 parallel) floorplanning instance."""
    return FloorplanProblem(
        grid=small_grid,
        solar=small_solar,
        n_modules=6,
        topology=default_topology(6, n_series=3),
        datasheet=PV_MF165EB3,
        label="test-problem",
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A seeded random generator for per-test randomness."""
    return np.random.default_rng(12345)
