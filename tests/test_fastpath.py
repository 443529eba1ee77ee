"""Equivalence tests of the vectorised fast paths against their references.

Every optimisation of the evaluation engine ships with its ground truth:

* the horizon-map kernel must reproduce ``compute_horizon_map_reference``
  **bit for bit** (cached stages must stay valid across the change), and a
  roof-window map must equal the matching slice of the whole-tile map, down
  to the solar field built on it,
* the vectorised :class:`~repro.core.PlacementEvaluator` must agree with the
  original per-module-loop evaluation to within 1e-9 relative,
* the incremental greedy placer must return placements **identical module
  for module** to the full-rebuild reference, on the scenario catalog too,
* the vectorised solar-field accessors and the shadow-fraction map must
  match their loop formulations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FloorplanProblem,
    GreedyConfig,
    ModulePlacement,
    Placement,
    PlacementEvaluator,
    default_topology,
    evaluate_placement,
    greedy_floorplan,
    module_irradiance_series,
    traditional_floorplan,
)
from repro.errors import GISError, PlacementError, SolarModelError
from repro.geometry import Raster, RasterSpec
from repro.gis import RoofSpec, build_roof_scene, make_roof_grid, suitable_grid_for_scene
from repro.scenario import builtin_scenarios, get_scenario
from repro.solar import compute_roof_solar_field
from repro.solar.shading import compute_horizon_map, shadow_fraction_map

from oracles.evaluation import evaluate_placement_reference, module_irradiance_series_reference
from oracles.greedy import greedy_floorplan_reference
from oracles.horizon import compute_horizon_map_reference


RELATIVE_TOLERANCE = 1e-9


def _relative_error(new: np.ndarray, ref: np.ndarray) -> float:
    new = np.asarray(new, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(new - ref) / np.maximum(np.abs(ref), 1e-12)))


# ---------------------------------------------------------------------------
# Horizon-map kernel
# ---------------------------------------------------------------------------


class TestHorizonMapEquivalence:
    def test_bit_identical_on_roof_dsm(self, small_scene):
        dsm = small_scene.dsm.raster
        reference = compute_horizon_map_reference(dsm, n_sectors=16, max_distance=25.0)
        fast = compute_horizon_map(dsm, n_sectors=16, max_distance=25.0)
        assert np.array_equal(reference.sector_azimuths_deg, fast.sector_azimuths_deg)
        assert np.array_equal(reference.horizon_deg, fast.horizon_deg)
        assert reference.pitch == fast.pitch

    def test_bit_identical_default_parameters(self, small_scene):
        dsm = small_scene.dsm.raster
        reference = compute_horizon_map_reference(dsm)
        fast = compute_horizon_map(dsm)
        assert np.array_equal(reference.horizon_deg, fast.horizon_deg)

    def test_bit_identical_with_substep_marching(self, small_scene):
        dsm = small_scene.dsm.raster
        reference = compute_horizon_map_reference(
            dsm, n_sectors=8, max_distance=6.0, min_step=0.13
        )
        fast = compute_horizon_map(dsm, n_sectors=8, max_distance=6.0, min_step=0.13)
        assert np.array_equal(reference.horizon_deg, fast.horizon_deg)

    def test_bit_identical_on_random_dsm_with_nan_holes(self, rng):
        data = rng.normal(5.0, 1.5, size=(48, 57))
        data[rng.random(data.shape) < 0.05] = np.nan
        raster = Raster(RasterSpec(0.0, 0.0, 0.5, 48, 57), data)
        reference = compute_horizon_map_reference(raster, n_sectors=12, max_distance=15.0)
        fast = compute_horizon_map(raster, n_sectors=12, max_distance=15.0)
        assert np.array_equal(reference.horizon_deg, fast.horizon_deg)


class TestShadowFractionEquivalence:
    def test_matches_per_sample_loop(self, small_scene, rng):
        horizon = compute_horizon_map(
            small_scene.dsm.raster, n_sectors=16, max_distance=25.0
        )
        elevation = rng.uniform(-10.0, 60.0, size=300)
        azimuth = rng.uniform(-180.0, 180.0, size=300)
        fast = shadow_fraction_map(horizon, elevation, azimuth)
        up = elevation > 0.0
        reference = np.zeros(horizon.shape, dtype=float)
        for elev, az in zip(elevation[up], azimuth[up]):
            reference += horizon.shadow_mask(float(elev), float(az)).astype(float)
        reference /= float(np.count_nonzero(up))
        assert np.array_equal(reference, fast)

    def test_sun_never_up(self, small_scene):
        horizon = compute_horizon_map(
            small_scene.dsm.raster, n_sectors=16, max_distance=25.0
        )
        result = shadow_fraction_map(horizon, np.array([-5.0, -1.0]), np.array([0.0, 10.0]))
        assert np.all(result == 1.0)


# ---------------------------------------------------------------------------
# Roof-window horizon
# ---------------------------------------------------------------------------


@st.composite
def _dsm_and_window(draw):
    """A small random DSM (optionally NaN-holed and terraced) plus a window."""
    n_rows = draw(st.integers(1, 18))
    n_cols = draw(st.integers(1, 18))
    pitch = draw(st.sampled_from([0.25, 0.4, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = gen.normal(5.0, 2.0, size=(n_rows, n_cols))
    if draw(st.booleans()):
        # Terraced heights produce the exactly tied obstruction ratios the
        # kernel resolves in angle space.
        data = np.round(data)
    data[gen.random(data.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = np.nan
    row_lo = draw(st.integers(0, n_rows - 1))
    row_hi = draw(st.integers(row_lo + 1, n_rows))
    col_lo = draw(st.integers(0, n_cols - 1))
    col_hi = draw(st.integers(col_lo + 1, n_cols))
    raster = Raster(RasterSpec(0.0, 0.0, pitch, n_rows, n_cols), data)
    return raster, ((row_lo, row_hi), (col_lo, col_hi))


def _assert_window_matches_full_tile(raster, window, **options):
    """Check the windowed map against the whole-tile map; return the windowed map."""
    full = compute_horizon_map(raster, **options)
    windowed = compute_horizon_map(raster, window=window, **options)
    (row_lo, row_hi), (col_lo, col_hi) = window
    assert windowed.origin == (row_lo, col_lo)
    assert windowed.shape == (row_hi - row_lo, col_hi - col_lo)
    assert np.array_equal(windowed.sector_azimuths_deg, full.sector_azimuths_deg)
    assert np.array_equal(windowed.horizon_deg, full.horizon_deg[:, row_lo:row_hi, col_lo:col_hi])
    return windowed


class TestHorizonWindow:
    @settings(max_examples=80, deadline=None)
    @given(
        case=_dsm_and_window(),
        n_sectors=st.integers(4, 12),
        max_distance=st.floats(0.5, 8.0),
        min_step=st.sampled_from([None, 0.13, 0.7]),
    )
    def test_window_equals_full_tile_slice(self, case, n_sectors, max_distance, min_step):
        raster, window = case
        _assert_window_matches_full_tile(
            raster,
            window,
            n_sectors=n_sectors,
            max_distance=max_distance,
            min_step=min_step,
        )

    @pytest.mark.parametrize(
        "window",
        [
            ((0, 6), (10, 30)),  # touches the top edge
            ((30, 36), (10, 30)),  # touches the bottom edge
            ((8, 20), (0, 5)),  # touches the left edge
            ((8, 20), (36, 41)),  # touches the right edge
            ((17, 18), (20, 21)),  # 1x1 interior cell
            ((35, 36), (0, 1)),  # 1x1 corner cell
            ((0, 36), (0, 41)),  # the whole tile
        ],
    )
    @pytest.mark.parametrize("seed", [1, 4])  # two random surfaces per window
    def test_edge_and_single_cell_windows(self, window, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(5.0, 1.5, size=(36, 41))
        data[rng.random(data.shape) < 0.05] = np.nan
        raster = Raster(RasterSpec(0.0, 0.0, 0.5, 36, 41), data)
        windowed = _assert_window_matches_full_tile(
            raster, window, n_sectors=12, max_distance=12.0
        )
        reference = compute_horizon_map_reference(raster, n_sectors=12, max_distance=12.0)
        (row_lo, row_hi), (col_lo, col_hi) = window
        assert np.array_equal(
            windowed.horizon_deg, reference.horizon_deg[:, row_lo:row_hi, col_lo:col_hi]
        )
        rows, cols = np.mgrid[row_lo:row_hi, col_lo:col_hi]
        assert np.array_equal(
            windowed.sky_view_for_cells(rows.ravel(), cols.ravel()),
            reference.sky_view_factor()[row_lo:row_hi, col_lo:col_hi].ravel(),
        )

    def test_cell_queries_take_dsm_indices(self, small_scene, rng):
        raster = small_scene.dsm.raster
        window = ((5, 20), (7, 31))
        full = compute_horizon_map(raster, n_sectors=16, max_distance=25.0)
        windowed = compute_horizon_map(raster, n_sectors=16, max_distance=25.0, window=window)
        rows = rng.integers(5, 20, size=40)
        cols = rng.integers(7, 31, size=40)
        elevation = rng.uniform(-10.0, 60.0, size=200)
        azimuth = rng.uniform(-180.0, 180.0, size=200)
        assert np.array_equal(
            windowed.lit_mask_for_cells(rows, cols, elevation, azimuth),
            full.lit_mask_for_cells(rows, cols, elevation, azimuth),
        )
        assert np.array_equal(
            windowed.sky_view_for_cells(rows, cols), full.sky_view_factor()[rows, cols]
        )
        with pytest.raises(GISError):
            windowed.sky_view_for_cells(np.array([4]), np.array([10]))
        with pytest.raises(GISError):
            windowed.lit_mask_for_cells(np.array([10]), np.array([31]), elevation, azimuth)

    @pytest.mark.parametrize(
        "window",
        [
            ((3, 3), (0, 5)),  # no rows
            ((0, 5), (4, 2)),  # reversed columns
            ((-1, 4), (0, 5)),  # starts before the tile
            ((0, 11), (0, 5)),  # ends past the tile
            ((10, 12), (0, 5)),  # entirely below the tile
            ((0, 5), (12, 14)),  # entirely right of the tile
        ],
    )
    def test_empty_or_outside_window_raises(self, window):
        raster = Raster(RasterSpec(0.0, 0.0, 0.5, 10, 12), np.zeros((10, 12)))
        with pytest.raises(GISError):
            compute_horizon_map(raster, n_sectors=8, max_distance=3.0, window=window)


def _catalog_roofs() -> list:
    """One catalog scenario name per distinct (roof, DSM pitch, grid pitch)."""
    names = {}
    for spec in builtin_scenarios().values():
        names.setdefault((spec.roof, spec.dsm_pitch, spec.grid_pitch), spec.name)
    return sorted(names.values())


class TestRoofWindowSolarField:
    @pytest.mark.parametrize("name", _catalog_roofs())
    def test_window_field_equals_full_tile_field(self, name):
        spec = get_scenario(name)
        scene = build_roof_scene(spec.roof, dsm_pitch=spec.dsm_pitch)
        grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=spec.grid_pitch))
        weather = spec.weather.build(spec.time.build())
        config = spec.solar.build()
        full_tile = compute_horizon_map(
            scene.dsm.raster,
            n_sectors=config.n_horizon_sectors,
            max_distance=config.horizon_max_distance_m,
        )
        windowed = compute_roof_solar_field(scene, grid, weather, config)
        whole = compute_roof_solar_field(scene, grid, weather, config, horizon_map=full_tile)
        assert windowed.n_cells == grid.n_valid > 0
        assert np.array_equal(windowed.irradiance, whole.irradiance)
        assert np.array_equal(windowed.sky_view, whole.sky_view)
        # The per-cell sky view equals the whole-tile map's, as read before
        # the solar stage used windows.
        dsm_rows, dsm_cols = grid.dsm_indices(scene.dsm)
        cells = windowed.cells
        assert np.array_equal(
            windowed.sky_view,
            full_tile.sky_view_factor()[
                dsm_rows[cells[:, 0], cells[:, 1]], dsm_cols[cells[:, 0], cells[:, 1]]
            ],
        )
        assert np.array_equal(windowed.daylight.indices, whole.daylight.indices)

    def test_roof_without_valid_cells_gives_empty_field(self, small_weather):
        # The 0.6 m setback swallows the whole 1x1 m facet: no valid cell,
        # so there is no roof window to bound.
        roof = RoofSpec(
            name="setback-only",
            width_m=1.0,
            depth_m=1.0,
            tilt_deg=20.0,
            azimuth_deg=0.0,
            edge_setback_m=0.6,
        )
        scene = build_roof_scene(roof, dsm_pitch=0.4)
        grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.2))
        assert grid.n_valid == 0
        field = compute_roof_solar_field(scene, grid, small_weather)
        assert field.n_cells == 0
        assert field.to_dense().shape == (field.n_time, 0)
        assert field.sky_view.shape == (0,)


# ---------------------------------------------------------------------------
# Solar-field accessors
# ---------------------------------------------------------------------------


class TestSolarFieldAccessors:
    def test_irradiance_for_cells_matches_column_loop(self, small_solar):
        cells = small_solar.cells[::3]
        fast = small_solar.irradiance_for_cells(cells)
        columns = [small_solar.column_of(int(r), int(c)) for r, c in cells]
        reference = np.asarray(small_solar.to_dense()[:, columns], dtype=float)
        assert fast.dtype == np.float64
        assert fast.shape == (small_solar.n_time, len(columns))
        assert np.array_equal(reference, fast)

    def test_irradiance_for_cells_rejects_invalid_cell(self, small_solar):
        lookup = small_solar.cell_column_lookup
        invalid = np.argwhere(lookup < 0)
        assert invalid.size, "expected at least one invalid grid element"
        cells = np.vstack([small_solar.cells[:2], invalid[:1]])
        with pytest.raises(SolarModelError):
            small_solar.irradiance_for_cells(cells)

    def test_annual_insolation_matches_per_column_integration(self, small_solar):
        fast = small_solar.annual_insolation_map_kwh()
        dense = small_solar.to_dense()
        totals = np.array(
            [
                small_solar.time_grid.integrate_energy_wh(dense[:, k].astype(float))
                for k in range(small_solar.n_cells)
            ]
        )
        reference = np.full(small_solar.grid.shape, np.nan)
        reference[small_solar.cells[:, 0], small_solar.cells[:, 1]] = totals / 1e3
        assert np.array_equal(np.isnan(reference), np.isnan(fast))
        finite = ~np.isnan(reference)
        assert _relative_error(fast[finite], reference[finite]) < RELATIVE_TOLERANCE

    def test_integrate_energy_wh_batched_matches_scalar(self, small_solar):
        time_axis = small_solar.time_axis
        block = np.asarray(small_solar.irradiance[:, :5])
        batched = time_axis.integrate_energy_wh(block)
        assert isinstance(batched, np.ndarray)
        for k in range(block.shape[1]):
            scalar = time_axis.integrate_energy_wh(block[:, k].astype(float))
            assert isinstance(scalar, float)
            assert abs(batched[k] - scalar) <= RELATIVE_TOLERANCE * max(abs(scalar), 1.0)


# ---------------------------------------------------------------------------
# Placement evaluator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rotated_problem(small_grid, small_solar) -> FloorplanProblem:
    from repro.pv.datasheet import PV_MF165EB3

    return FloorplanProblem(
        grid=small_grid,
        solar=small_solar,
        n_modules=6,
        topology=default_topology(6, n_series=3),
        datasheet=PV_MF165EB3,
        allow_rotation=True,
        label="rotated-problem",
    )


def _example_placements(problem: FloorplanProblem) -> list:
    return [
        greedy_floorplan(problem).placement,
        traditional_floorplan(problem).placement,
    ]


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("aggregation", ["substring-min", "mean"])
    def test_module_irradiance_series(self, small_problem, aggregation):
        for placement in _example_placements(small_problem):
            reference = module_irradiance_series_reference(
                small_problem, placement, aggregation=aggregation
            )
            fast = module_irradiance_series(
                small_problem, placement, aggregation=aggregation
            )
            assert fast.shape == reference.shape
            assert _relative_error(fast, reference) < RELATIVE_TOLERANCE

    def test_module_irradiance_series_with_rotation(self, rotated_problem):
        placement = greedy_floorplan(rotated_problem).placement
        assert any(m.rotated for m in placement) or True  # mixed orientations allowed
        reference = module_irradiance_series_reference(rotated_problem, placement)
        fast = module_irradiance_series(rotated_problem, placement)
        assert _relative_error(fast, reference) < RELATIVE_TOLERANCE

    @pytest.mark.parametrize("include_wiring", [True, False])
    def test_evaluation_figures(self, small_problem, include_wiring):
        for placement in _example_placements(small_problem):
            reference = evaluate_placement_reference(
                small_problem, placement, include_wiring_loss=include_wiring
            )
            fast = evaluate_placement(
                small_problem, placement, include_wiring_loss=include_wiring
            )
            for key, ref_value in reference.summary().items():
                new_value = fast.summary()[key]
                if isinstance(ref_value, str):
                    assert new_value == ref_value
                else:
                    assert abs(new_value - ref_value) <= RELATIVE_TOLERANCE * max(
                        abs(ref_value), 1e-9
                    ), key

    def test_power_series_matches(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        reference = evaluate_placement_reference(
            small_problem, placement, store_power_series=True
        )
        fast = evaluate_placement(small_problem, placement, store_power_series=True)
        assert fast.power_series_w is not None
        assert (
            _relative_error(fast.power_series_w, reference.power_series_w)
            < 1e-7  # absolute powers near zero inflate the relative figure
            or np.allclose(fast.power_series_w, reference.power_series_w, atol=1e-6)
        )

    def test_shared_evaluator_matches_one_shot(self, small_problem):
        placements = _example_placements(small_problem)
        evaluator = PlacementEvaluator(small_problem)
        for placement in placements:
            shared = evaluator.evaluate(placement)
            one_shot = evaluate_placement(small_problem, placement)
            assert shared.summary() == one_shot.summary()

    def test_comparison_through_evaluator(self, small_problem):
        baseline, candidate = (
            traditional_floorplan(small_problem).placement,
            greedy_floorplan(small_problem).placement,
        )
        comparison = PlacementEvaluator(small_problem).compare(baseline, candidate)
        assert comparison.baseline.placement_label == "traditional"
        assert comparison.candidate.placement_label == "greedy"

    def test_validation_errors_preserved(self, small_problem):
        footprint = small_problem.footprint
        overlapping = Placement(
            modules=(
                ModulePlacement(module_index=0, row=5, col=5),
                ModulePlacement(module_index=1, row=5, col=5),
                ModulePlacement(module_index=2, row=5, col=5 + footprint.cells_w),
                ModulePlacement(module_index=3, row=5 + footprint.cells_h, col=5),
                ModulePlacement(
                    module_index=4, row=5 + footprint.cells_h, col=5 + footprint.cells_w
                ),
                ModulePlacement(module_index=5, row=5, col=5 + 2 * footprint.cells_w),
            ),
            footprint=footprint,
            topology=small_problem.topology,
            grid_pitch=small_problem.grid.pitch,
        )
        with pytest.raises(PlacementError, match="overlaps"):
            evaluate_placement(small_problem, overlapping)

        out_of_bounds = Placement(
            modules=tuple(
                ModulePlacement(module_index=i, row=10_000, col=5 + i * footprint.cells_w)
                for i in range(6)
            ),
            footprint=footprint,
            topology=small_problem.topology,
            grid_pitch=small_problem.grid.pitch,
        )
        with pytest.raises(PlacementError, match="bounds"):
            evaluate_placement(small_problem, out_of_bounds)

    def test_generic_model_path(self, small_grid, small_solar):
        """A non-standard thermal model routes through the generic operating
        point (no fused fast path) and still matches the reference."""
        from repro.pv.datasheet import PV_MF165EB3
        from repro.pv.module import EmpiricalModuleModel
        from repro.pv.thermal import NOCTTemperatureModel

        model = EmpiricalModuleModel(
            datasheet=PV_MF165EB3, thermal=NOCTTemperatureModel()
        )
        problem = FloorplanProblem(
            grid=small_grid,
            solar=small_solar,
            n_modules=6,
            topology=default_topology(6, n_series=3),
            datasheet=PV_MF165EB3,
            module_model=model,
            label="noct-problem",
        )
        evaluator = PlacementEvaluator(problem)
        assert not evaluator._fused
        placement = greedy_floorplan(problem).placement
        reference = evaluate_placement_reference(problem, placement)
        fast = evaluator.evaluate(placement)
        assert (
            abs(fast.annual_energy_wh - reference.annual_energy_wh)
            <= RELATIVE_TOLERANCE * abs(reference.annual_energy_wh)
        )

    def test_wrong_module_count_rejected(self, small_problem):
        footprint = small_problem.footprint
        placement = Placement(
            modules=(ModulePlacement(module_index=0, row=5, col=5),),
            footprint=footprint,
            topology=default_topology(1, n_series=1),
            grid_pitch=small_problem.grid.pitch,
        )
        with pytest.raises(PlacementError, match="number of modules"):
            evaluate_placement(small_problem, placement)

    def test_mismatched_footprint_rejected(self, small_problem):
        """A placement defined on a different module footprint must error
        instead of being silently gathered with the problem's footprint."""
        foreign = small_problem.footprint.rotated()
        placement = Placement(
            modules=tuple(
                ModulePlacement(module_index=i, row=5, col=5 + i * foreign.cells_w)
                for i in range(6)
            ),
            footprint=foreign,
            topology=small_problem.topology,
            grid_pitch=small_problem.grid.pitch,
        )
        with pytest.raises(PlacementError, match="footprint"):
            module_irradiance_series(small_problem, placement)

    def test_partial_placement_series_allowed(self, small_problem):
        """module_irradiance_series still works on partial placements (the
        reference behaviour); only evaluate() requires the problem's N."""
        footprint = small_problem.footprint
        placement = Placement(
            modules=(ModulePlacement(module_index=0, row=5, col=5),),
            footprint=footprint,
            topology=default_topology(1, n_series=1),
            grid_pitch=small_problem.grid.pitch,
        )
        series = module_irradiance_series(small_problem, placement)
        reference = module_irradiance_series_reference(small_problem, placement)
        assert series.shape == (small_problem.solar.n_time, 1)
        assert _relative_error(series, reference) < RELATIVE_TOLERANCE


# ---------------------------------------------------------------------------
# Incremental greedy
# ---------------------------------------------------------------------------


def _module_tuples(placement: Placement) -> list:
    return [(m.module_index, m.row, m.col, m.rotated) for m in placement]


class TestIncrementalGreedyEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            None,
            GreedyConfig(footprint_aggregate="anchor"),
            GreedyConfig(respect_distance_threshold=False),
            GreedyConfig(tie_tolerance=0.05),
        ],
    )
    def test_identical_on_small_problem(self, small_problem, config):
        reference = greedy_floorplan_reference(small_problem, config=config)
        fast = greedy_floorplan(small_problem, config=config)
        assert _module_tuples(reference.placement) == _module_tuples(fast.placement)
        assert reference.relaxed_threshold_count == fast.relaxed_threshold_count

    def test_identical_with_rotation(self, rotated_problem):
        reference = greedy_floorplan_reference(rotated_problem)
        fast = greedy_floorplan(rotated_problem)
        assert _module_tuples(reference.placement) == _module_tuples(fast.placement)

    @pytest.mark.parametrize(
        "scenario_name", ["residential-south", "industrial-pipes", "heavy-shading"]
    )
    def test_identical_on_catalog_scenarios(self, scenario_name):
        problem = _catalog_problem(scenario_name)
        reference = greedy_floorplan_reference(problem)
        fast = greedy_floorplan(problem)
        assert _module_tuples(reference.placement) == _module_tuples(fast.placement)
        assert reference.relaxed_threshold_count == fast.relaxed_threshold_count


def _catalog_problem(name: str) -> FloorplanProblem:
    """Assemble the floorplanning problem of a catalog scenario (no cache)."""
    spec = get_scenario(name)
    scene = build_roof_scene(spec.roof, dsm_pitch=spec.dsm_pitch)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=spec.grid_pitch))
    time_grid = spec.time.build()
    weather = spec.weather.build(time_grid)
    solar = compute_roof_solar_field(scene, grid, weather, spec.solar.build())
    return FloorplanProblem(
        grid=solar.grid,
        solar=solar,
        n_modules=spec.n_modules,
        topology=default_topology(spec.n_modules, spec.series_length()),
        datasheet=spec.datasheet(),
        allow_rotation=spec.allow_rotation,
        label=spec.name,
    )
