"""Property-based tests (hypothesis) on the core data structures and models.

These check the invariants that must hold for *any* input, not just the
hand-picked examples of the unit tests: geometric invariances, physical
bounds of the solar and PV models, and the aggregation laws of the
series/parallel panel model, and that shading is monotone: raising the
surroundings of a roof never brightens it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import STC_IRRADIANCE
from repro.geometry import Point2D, Point3D, Polygon, Raster, RasterSpec, RoofPlaneFrame
from repro.gis import DigitalSurfaceModel
from repro.pv import PVArray, SeriesParallelTopology, paper_module_model
from repro.pv.wiring import WiringSpec, string_extra_length
from repro.solar import (
    SolarSimulationConfig,
    compute_horizon_map,
    compute_roof_solar_field,
    erbs_diffuse_fraction,
    incidence_cosine,
    relative_air_mass,
    solar_declination,
    solar_elevation_azimuth,
)
from repro.solar.time_series import TimeGrid

from oracles.evaluation import (
    mismatch_loss_fraction,
    module_operating_point,
    operating_point_from_conditions,
)
from oracles.rasterize import contains_point

finite_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
positive_size = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


class TestGeometryProperties:
    @given(x1=finite_coord, y1=finite_coord, x2=finite_coord, y2=finite_coord)
    def test_distance_symmetry_and_triangle_with_origin(self, x1, y1, x2, y2):
        a, b = Point2D(x1, y1), Point2D(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))
        origin = Point2D(0, 0)
        assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(b) + 1e-6

    @given(x=finite_coord, y=finite_coord)
    def test_manhattan_at_least_euclidean(self, x, y):
        a, b = Point2D(0, 0), Point2D(x, y)
        assert a.manhattan_distance_to(b) >= a.distance_to(b) - 1e-9

    @given(
        x=finite_coord, y=finite_coord,
        angle=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_rotation_preserves_norm(self, x, y, angle):
        point = Point2D(x, y)
        assert point.rotated(angle).norm() == pytest.approx(point.norm(), abs=1e-6)

    @given(
        xmin=finite_coord, ymin=finite_coord,
        width=positive_size, height=positive_size,
    )
    def test_rectangle_area_and_centroid(self, xmin, ymin, width, height):
        rect = Polygon.rectangle(xmin, ymin, xmin + width, ymin + height)
        assert rect.area() == pytest.approx(width * height, rel=1e-6, abs=1e-9)
        centroid = rect.centroid()
        assert contains_point(rect, centroid)

    @given(
        xmin=finite_coord, ymin=finite_coord,
        width=positive_size, height=positive_size,
        dx=finite_coord, dy=finite_coord,
    )
    def test_translation_preserves_area(self, xmin, ymin, width, height, dx, dy):
        rect = Polygon.rectangle(xmin, ymin, xmin + width, ymin + height)
        assert rect.translated(dx, dy).area() == pytest.approx(rect.area(), rel=1e-6, abs=1e-9)

    @given(
        azimuth=st.floats(min_value=-180.0, max_value=180.0),
        tilt=st.floats(min_value=0.0, max_value=80.0),
        u=st.floats(min_value=-50.0, max_value=50.0),
        v=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_roof_frame_is_an_isometry(self, azimuth, tilt, u, v):
        frame = RoofPlaneFrame(origin=Point3D(1.0, -2.0, 6.0), azimuth_deg=azimuth, tilt_deg=tilt)
        roof_point = Point2D(u, v)
        world = frame.roof_to_world(roof_point)
        # Mapping to world preserves distances (the frame is orthonormal).
        assert world.distance_to(frame.origin) == pytest.approx(roof_point.norm(), abs=1e-6)
        other = Point2D(v, -u)
        assert world.distance_to(frame.roof_to_world(other)) == pytest.approx(
            roof_point.distance_to(other), abs=1e-6
        )


class TestSolarProperties:
    @given(day=st.floats(min_value=1.0, max_value=365.0))
    def test_declination_bounded(self, day):
        decl = float(solar_declination(np.array([day]))[0])
        assert -23.6 <= decl <= 23.6

    @given(elevation=st.floats(min_value=0.1, max_value=90.0))
    def test_air_mass_at_least_one(self, elevation):
        mass = float(relative_air_mass(np.array([elevation]))[0])
        assert mass >= 0.99

    @given(kt=st.floats(min_value=0.0, max_value=1.2))
    def test_erbs_fraction_bounded(self, kt):
        kd = float(erbs_diffuse_fraction(np.array([kt]))[0])
        assert 0.0 <= kd <= 1.0

    @given(
        latitude=st.floats(min_value=-66.0, max_value=66.0),
        day=st.floats(min_value=1.0, max_value=365.0),
        hour=st.floats(min_value=0.0, max_value=24.0),
    )
    def test_elevation_bounded_by_colatitude(self, latitude, day, hour):
        elevation, _, decl, _ = solar_elevation_azimuth(
            latitude, np.array([day]), np.array([hour])
        )
        max_elevation = 90.0 - abs(latitude - decl[0]) + 1e-6
        assert elevation[0] <= max_elevation + 0.5
        assert elevation[0] >= -90.0

    @given(
        tilt=st.floats(min_value=0.0, max_value=90.0),
        azimuth=st.floats(min_value=-180.0, max_value=180.0),
        sun_elevation=st.floats(min_value=-20.0, max_value=90.0),
        sun_azimuth=st.floats(min_value=-180.0, max_value=180.0),
    )
    def test_incidence_cosine_bounded(self, tilt, azimuth, sun_elevation, sun_azimuth):
        cos_inc = float(
            incidence_cosine(tilt, azimuth, np.array([sun_elevation]), np.array([sun_azimuth]))[0]
        )
        assert 0.0 <= cos_inc <= 1.0 + 1e-12

    @given(
        step=st.sampled_from([15.0, 30.0, 60.0, 120.0, 240.0]),
        stride=st.integers(min_value=1, max_value=60),
        power=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_energy_integration_scale_invariance(self, step, stride, power):
        grid = TimeGrid(step_minutes=step, day_stride=stride)
        energy = grid.integrate_energy_wh(np.full(grid.n_samples, power))
        assert energy == pytest.approx(power * 8760.0, rel=1e-9)


class TestPVProperties:
    @given(
        irradiance=st.floats(min_value=0.0, max_value=1300.0),
        temperature=st.floats(min_value=-20.0, max_value=60.0),
    )
    def test_module_power_bounds(self, irradiance, temperature):
        model = paper_module_model()
        op = module_operating_point(model, np.array([irradiance]), np.array([temperature]))
        power = float(op.power_w[0])
        assert power >= 0.0
        # Never exceeds the STC rating by more than the cold-weather margin.
        assert power <= 165.0 * (irradiance / STC_IRRADIANCE) * 1.3 + 1e-9

    @given(
        irradiance=st.floats(min_value=1.0, max_value=1300.0),
        temperature=st.floats(min_value=-20.0, max_value=60.0),
    )
    def test_module_power_consistency(self, irradiance, temperature):
        model = paper_module_model()
        op = module_operating_point(model, np.array([irradiance]), np.array([temperature]))
        assert float(op.power_w[0]) == pytest.approx(
            float(op.voltage_v[0]) * float(op.current_a[0]), rel=1e-9, abs=1e-9
        )

    @given(
        n_series=st.integers(min_value=1, max_value=6),
        n_parallel=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_panel_power_never_exceeds_module_sum(self, n_series, n_parallel, data):
        topology = SeriesParallelTopology(n_series, n_parallel)
        array = PVArray(topology)
        irradiance = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=1200.0),
                    min_size=topology.n_modules,
                    max_size=topology.n_modules,
                )
            )
        )
        panel = float(operating_point_from_conditions(array, irradiance, 20.0).power_w)
        ideal = float(
            np.sum(module_operating_point(paper_module_model(), irradiance, 20.0).power_w)
        )
        assert panel <= ideal + 1e-6
        assert panel >= -1e-9

    @given(
        uniform=st.floats(min_value=10.0, max_value=1200.0),
        n_series=st.integers(min_value=1, max_value=6),
        n_parallel=st.integers(min_value=1, max_value=4),
    )
    def test_uniform_irradiance_has_no_mismatch(self, uniform, n_series, n_parallel):
        array = PVArray(SeriesParallelTopology(n_series, n_parallel))
        irradiance = np.full(n_series * n_parallel, uniform)
        loss = float(mismatch_loss_fraction(array, irradiance, 20.0))
        assert loss == pytest.approx(0.0, abs=1e-9)

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=2,
            max_size=10,
        )
    )
    def test_wiring_overhead_non_negative_and_monotone_in_connector(self, points):
        positions = [Point2D(x, y) for x, y in points]
        short_connector = string_extra_length(positions, WiringSpec(connector_length_m=0.5))
        long_connector = string_extra_length(positions, WiringSpec(connector_length_m=2.0))
        assert short_connector >= 0.0
        assert long_connector <= short_connector + 1e-9


class TestPlacementProperties:
    @given(
        rows=st.integers(min_value=0, max_value=20),
        cols=st.integers(min_value=0, max_value=40),
        cells_w=st.integers(min_value=1, max_value=8),
        cells_h=st.integers(min_value=1, max_value=8),
    )
    def test_covered_cells_count_matches_footprint(self, rows, cols, cells_w, cells_h):
        from repro.core import ModuleFootprint, ModulePlacement

        placement = ModulePlacement(module_index=0, row=rows, col=cols)
        footprint = ModuleFootprint(cells_w=cells_w, cells_h=cells_h)
        cells = placement.covered_cells(footprint)
        assert cells.shape == (cells_w * cells_h, 2)
        assert len({tuple(c) for c in cells}) == cells_w * cells_h
        assert cells[:, 0].min() == rows and cells[:, 1].min() == cols


class TestServeNormalizationProperties:
    """The serve memo must be representation-insensitive and garbage-proof.

    ``normalize_scenario_document`` round-trips every client document
    through :class:`~repro.scenario.ScenarioSpec`, so semantically
    identical documents -- keys reordered, solver written as a string or a
    dict, defaults spelled out or omitted -- collapse to one
    ``scenario_content_digest`` (one memo entry, one request id).  And no
    garbage document may ever escape as anything but the 400-mapped
    :class:`~repro.serve.BadRequestError`: a public endpoint that 500s on
    bad input is a bug.
    """

    @staticmethod
    def _minimal_document(name, width_m, depth_m, tilt_deg, n_modules, solver):
        return {
            "name": name,
            "roof": {
                "name": f"{name}-roof",
                "width_m": width_m,
                "depth_m": depth_m,
                "tilt_deg": tilt_deg,
                "azimuth_deg": 0.0,
            },
            "n_modules": n_modules,
            "solver": solver,
        }

    @given(
        width_m=st.floats(min_value=3.0, max_value=20.0, allow_nan=False),
        depth_m=st.floats(min_value=3.0, max_value=12.0, allow_nan=False),
        tilt_deg=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        n_modules=st.integers(min_value=1, max_value=6),
        solver=st.sampled_from(["greedy", "traditional"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalent_documents_share_one_digest(
        self, width_m, depth_m, tilt_deg, n_modules, solver
    ):
        from repro.runner import scenario_content_digest
        from repro.serve import normalize_scenario_document

        minimal = self._minimal_document(
            "prop", width_m, depth_m, tilt_deg, n_modules, solver
        )
        # Defaults spelled out: the fully canonical dictionary form.
        explicit = normalize_scenario_document(minimal).to_dict()
        # Keys reordered (JSON object order must never matter).
        reordered = dict(reversed(list(explicit.items())))
        # Solver as string shorthand vs. explicit {"name", "options"} dict.
        shorthand = dict(explicit)
        shorthand["solver"] = solver

        digests = {
            scenario_content_digest(normalize_scenario_document(document))
            for document in (minimal, explicit, reordered, shorthand)
        }
        assert len(digests) == 1

    _json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-10, max_value=10)
        | st.floats(allow_nan=False, allow_infinity=False, width=32)
        | st.text(max_size=8),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=12,
    )

    @given(document=_json_values)
    @settings(max_examples=60, deadline=None)
    def test_garbage_documents_never_500_they_400(self, document):
        from repro.serve import BadRequestError, normalize_scenario_document

        try:
            spec = normalize_scenario_document(document)
        except BadRequestError:
            return  # the 400 path: exactly what the contract demands
        # A randomly valid document is acceptable -- it must round-trip.
        assert spec.to_dict()["name"] == str(document["name"])

    @given(document=_json_values)
    @settings(max_examples=25, deadline=None)
    def test_handle_plan_maps_garbage_to_400_not_500(self, document, tmp_path_factory):
        import json as json_module

        from repro.serve import ServeApp, open_serve_store

        store = open_serve_store(
            tmp_path_factory.mktemp("serve-prop") / "store.sqlite"
        )
        try:
            app = ServeApp(store)
            body = json_module.dumps({"scenario": document}).encode("utf-8")
            status, payload, _ = app.dispatch("POST", "/v1/plan", body)
            assert status in (202, 400)  # never 500
            if status == 400:
                assert "error" in payload
        finally:
            store.close()


class TestShadingMonotonicity:
    """Raising DSM cells outside the roof never brightens a roof cell.

    At horizon level no angle of a window cell falls; at field level no
    irradiance sample or sky-view factor of a valid cell rises.  Plan energy
    is not monotone (the placement moves), so it is not asserted.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(2, 30), st.integers(2, 30)),
        terraced=st.booleans(),
        n_sectors=st.integers(4, 12),
        max_distance=st.floats(1.0, 20.0),
    )
    def test_raised_surroundings_never_lower_a_horizon(
        self, seed, shape, terraced, n_sectors, max_distance
    ):
        gen = np.random.default_rng(seed)
        n_rows, n_cols = shape
        data = gen.normal(5.0, 2.0, size=shape)
        if terraced:
            data = np.round(data)
        data[gen.random(shape) < 0.05] = np.nan
        row_lo, row_hi = np.sort(gen.choice(n_rows + 1, size=2, replace=False))
        col_lo, col_hi = np.sort(gen.choice(n_cols + 1, size=2, replace=False))
        window = ((int(row_lo), int(row_hi)), (int(col_lo), int(col_hi)))
        outside = np.ones(shape, dtype=bool)
        outside[row_lo:row_hi, col_lo:col_hi] = False
        lift = np.where(outside & (gen.random(shape) < 0.3), gen.uniform(0.0, 6.0, shape), 0.0)
        if terraced:
            lift = np.round(lift)
        spec = RasterSpec(0.0, 0.0, 0.5, n_rows, n_cols)
        before = compute_horizon_map(
            Raster(spec, data), n_sectors=n_sectors, max_distance=max_distance, window=window
        )
        after = compute_horizon_map(
            Raster(spec, data + lift), n_sectors=n_sectors, max_distance=max_distance, window=window
        )
        assert np.all(after.horizon_deg >= before.horizon_deg)

    @staticmethod
    def _fields(scene, grid, weather, lift):
        """The solar field of ``scene`` before and after adding ``lift`` to its DSM."""
        dsm = scene.dsm.raster
        raised = dataclasses.replace(
            scene, dsm=DigitalSurfaceModel(Raster(dsm.spec, dsm.data + lift))
        )
        config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
        before = compute_roof_solar_field(scene, grid, weather, config)
        after = compute_roof_solar_field(raised, grid, weather, config)
        assert np.array_equal(after.cells, before.cells)
        assert np.array_equal(after.column_index, before.column_index)
        assert np.array_equal(after.daylight.indices, before.daylight.indices)
        return before, after

    @staticmethod
    def _outside_roof(scene, grid):
        """DSM cells that no element of the roof grid samples."""
        rows, cols = grid.dsm_indices(scene.dsm)
        outside = np.ones(scene.dsm.raster.shape, dtype=bool)
        outside[rows, cols] = False
        return outside

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.05, 0.3, 1.0]))
    def test_raised_surroundings_never_brighten_a_cell(
        self, small_scene, small_grid, small_weather, seed, share
    ):
        gen = np.random.default_rng(seed)
        outside = self._outside_roof(small_scene, small_grid)
        chosen = outside & (gen.random(outside.shape) < share)
        lift = np.where(chosen, gen.uniform(0.0, 15.0, outside.shape), 0.0)
        before, after = self._fields(small_scene, small_grid, small_weather, lift)
        assert np.all(after.irradiance <= before.irradiance)
        assert np.all(after.sky_view <= before.sky_view)

    def test_a_wall_around_the_roof_darkens_it(self, small_scene, small_grid, small_weather):
        # Guards the property above against holding vacuously.
        lift = np.where(self._outside_roof(small_scene, small_grid), 12.0, 0.0)
        before, after = self._fields(small_scene, small_grid, small_weather, lift)
        assert np.all(after.irradiance <= before.irradiance)
        assert np.any(after.irradiance < before.irradiance)
        assert np.any(after.sky_view < before.sky_view)
