"""Unit and integration tests for the floorplanning core (placement data
structures, suitability, constraints, greedy / traditional / ILP / exhaustive
placers, energy evaluation)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistanceThreshold,
    FloorplanProblem,
    GreedyConfig,
    ILPConfig,
    ModuleFootprint,
    ModulePlacement,
    Placement,
    PlacementEvaluator,
    SuitabilityConfig,
    compare_placements,
    compute_suitability,
    default_topology,
    evaluate_placement,
    exhaustive_floorplan,
    feasible_anchor_mask,
    footprint_from_module,
    greedy_floorplan,
    ilp_floorplan,
    traditional_floorplan,
)
import repro.core.ilp as ilp_module
from repro.core.exhaustive import ExhaustiveConfig
from repro.gis import RoofSpec, build_roof_scene, make_roof_grid, suitable_grid_for_scene
from repro.errors import ConfigurationError, InfeasiblePlacementError, PlacementError
from repro.geometry import Point2D
from repro.pv.array import SeriesParallelTopology
from repro.pv.datasheet import PV_MF165EB3
from repro.runner.solvers import solve, solve_with_fallback
from repro.solar import SolarSimulationConfig, TimeGrid, compute_roof_solar_field
from repro.weather import SyntheticWeatherConfig, generate_weather

from oracles.evaluation import validate_placement


# ---------------------------------------------------------------------------
# Placement data structures
# ---------------------------------------------------------------------------


class TestFootprintAndPlacement:
    def test_footprint_from_module(self):
        footprint = footprint_from_module(1.6, 0.8, 0.2)
        assert (footprint.cells_w, footprint.cells_h) == (8, 4)
        assert footprint.n_cells == 32

    def test_footprint_bad_pitch(self):
        with pytest.raises(PlacementError):
            footprint_from_module(1.6, 0.8, 0.3)

    def test_rotated_footprint(self):
        footprint = ModuleFootprint(cells_w=8, cells_h=4)
        assert footprint.rotated() == ModuleFootprint(cells_w=4, cells_h=8)

    def test_covered_cells(self):
        placement = ModulePlacement(module_index=0, row=2, col=3)
        cells = placement.covered_cells(ModuleFootprint(2, 2))
        assert cells.shape == (4, 2)
        assert {tuple(c) for c in cells} == {(2, 3), (2, 4), (3, 3), (3, 4)}

    def test_center_roof(self):
        placement = ModulePlacement(module_index=0, row=0, col=0)
        center = placement.center_roof(ModuleFootprint(cells_w=8, cells_h=4), 0.2)
        assert center == Point2D(0.8, 0.4)

    def make_placement(self) -> Placement:
        footprint = ModuleFootprint(cells_w=2, cells_h=1)
        modules = (
            ModulePlacement(0, 0, 0),
            ModulePlacement(1, 0, 2),
            ModulePlacement(2, 2, 0),
            ModulePlacement(3, 2, 2),
        )
        return Placement(
            modules=modules,
            footprint=footprint,
            topology=SeriesParallelTopology(2, 2),
            grid_pitch=0.2,
            label="toy",
        )

    def test_placement_maps(self):
        placement = self.make_placement()
        occupancy = placement.occupancy_map((4, 6))
        strings = placement.string_map((4, 6))
        assert occupancy[0, 0] == 0 and occupancy[0, 2] == 1
        assert strings[0, 0] == 0 and strings[2, 0] == 1
        assert occupancy[3, 5] == -1

    def test_string_positions_grouping(self):
        placement = self.make_placement()
        strings = placement.string_positions()
        assert len(strings) == 2
        assert len(strings[0]) == 2

    def test_dispersion_positive(self):
        assert self.make_placement().dispersion_m() > 0

    def test_module_count_topology_mismatch(self):
        with pytest.raises(PlacementError):
            Placement(
                modules=(ModulePlacement(0, 0, 0),),
                footprint=ModuleFootprint(1, 1),
                topology=SeriesParallelTopology(2, 1),
                grid_pitch=0.2,
            )

    def test_duplicate_module_indices_rejected(self):
        with pytest.raises(PlacementError):
            Placement(
                modules=(ModulePlacement(0, 0, 0), ModulePlacement(0, 1, 1)),
                footprint=ModuleFootprint(1, 1),
                topology=SeriesParallelTopology(2, 1),
                grid_pitch=0.2,
            )

    def test_validate_against_grid(self, small_grid):
        footprint = ModuleFootprint(cells_w=2, cells_h=1)
        good = Placement(
            modules=(ModulePlacement(0, 5, 5),),
            footprint=footprint,
            topology=SeriesParallelTopology(1, 1),
            grid_pitch=small_grid.pitch,
        )
        validate_placement(good, small_grid)
        out_of_bounds = Placement(
            modules=(ModulePlacement(0, small_grid.n_rows - 1, small_grid.n_cols - 1),),
            footprint=footprint,
            topology=SeriesParallelTopology(1, 1),
            grid_pitch=small_grid.pitch,
        )
        with pytest.raises(PlacementError):
            validate_placement(out_of_bounds, small_grid)

    def test_validate_detects_overlap(self, small_grid):
        footprint = ModuleFootprint(cells_w=2, cells_h=2)
        overlapping = Placement(
            modules=(ModulePlacement(0, 5, 5), ModulePlacement(1, 5, 6)),
            footprint=footprint,
            topology=SeriesParallelTopology(2, 1),
            grid_pitch=small_grid.pitch,
        )
        with pytest.raises(PlacementError):
            validate_placement(overlapping, small_grid)


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------


class TestProblem:
    def test_footprint_derived_from_datasheet(self, small_problem):
        assert small_problem.footprint.cells_w == 8
        assert small_problem.footprint.cells_h == 4

    def test_nameplate(self, small_problem):
        assert small_problem.nameplate_power_w == pytest.approx(6 * 165.0)

    def test_topology_mismatch_rejected(self, small_grid, small_solar):
        with pytest.raises(PlacementError):
            FloorplanProblem(
                grid=small_grid,
                solar=small_solar,
                n_modules=6,
                topology=SeriesParallelTopology(4, 2),
            )

    def test_too_many_modules_rejected(self, small_grid, small_solar):
        with pytest.raises(InfeasiblePlacementError):
            FloorplanProblem(
                grid=small_grid,
                solar=small_solar,
                n_modules=200,
                topology=default_topology(200, 8),
            )

    def test_default_topology(self):
        assert default_topology(32, 8).n_parallel == 4
        assert default_topology(5, 8).n_series == 5
        with pytest.raises(Exception):
            default_topology(0)


# ---------------------------------------------------------------------------
# Suitability metric
# ---------------------------------------------------------------------------


class TestSuitability:
    def test_map_covers_valid_cells_only(self, small_solar, small_grid):
        suitability = compute_suitability(small_solar)
        finite = np.isfinite(suitability.values)
        assert finite.sum() == small_grid.n_valid

    def test_percentile_tracks_irradiance(self, small_solar):
        suitability = compute_suitability(
            small_solar, SuitabilityConfig(use_temperature_correction=False)
        )
        p75 = small_solar.percentile_map(75)
        valid = np.isfinite(p75)
        assert np.allclose(suitability.values[valid], p75[valid], rtol=1e-6)

    def test_temperature_correction_factor_is_applied(self, small_solar):
        with_correction = compute_suitability(small_solar, SuitabilityConfig())
        without = compute_suitability(
            small_solar, SuitabilityConfig(use_temperature_correction=False)
        )
        valid = np.isfinite(with_correction.values)
        # The corrected metric equals the raw percentile times f(T), and the
        # factor stays within a physically sensible band around 1.
        reconstructed = without.values[valid] * with_correction.temperature_factor[valid]
        assert np.allclose(with_correction.values[valid], reconstructed, rtol=1e-9)
        assert np.all(with_correction.temperature_factor[valid] > 0.6)
        assert np.all(with_correction.temperature_factor[valid] < 1.3)
        assert not np.allclose(
            with_correction.temperature_factor[valid], 1.0
        ), "the correction should actually modify the metric"

    def test_mean_statistic_lower_than_percentile(self, small_solar):
        percentile = compute_suitability(small_solar, SuitabilityConfig(statistic="percentile"))
        mean = compute_suitability(small_solar, SuitabilityConfig(statistic="mean"))
        valid = np.isfinite(percentile.values)
        assert np.mean(mean.values[valid]) < np.mean(percentile.values[valid])

    def test_invalid_config(self):
        with pytest.raises(PlacementError):
            SuitabilityConfig(percentile=0.0)
        with pytest.raises(PlacementError):
            SuitabilityConfig(statistic="median")


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class TestConstraints:
    def test_feasible_anchor_mask_counts(self):
        valid = np.ones((4, 6), dtype=bool)
        occupied = np.zeros_like(valid)
        mask = feasible_anchor_mask(valid, occupied, ModuleFootprint(cells_w=2, cells_h=2))
        assert mask.sum() == 3 * 5

    def test_feasible_anchor_mask_respects_holes(self):
        valid = np.ones((4, 4), dtype=bool)
        valid[1, 1] = False
        mask = feasible_anchor_mask(
            valid, np.zeros_like(valid), ModuleFootprint(cells_w=2, cells_h=2)
        )
        assert not mask[0, 0] and not mask[1, 1]
        assert mask[2, 2]

    def test_distance_threshold_floor(self):
        threshold = DistanceThreshold(factor=2.0, min_radius_m=5.0)
        # Two adjacent modules: a 0.25 m spread, so the floor binds.
        limit = threshold.threshold_around((0.25, 0.0), np.array([0.0, 0.5]), np.zeros(2))
        assert limit == 5.0
        centroid = Point2D(0.25, 0.0)
        assert Point2D(3.0, 0.0).distance_to(centroid) <= limit
        assert not Point2D(30.0, 0.0).distance_to(centroid) <= limit

    def test_distance_threshold_spread(self):
        # Past the floor the threshold is ``factor`` times the mean spread.
        threshold = DistanceThreshold(factor=2.0, min_radius_m=5.0)
        assert threshold.threshold_around((0.0, 0.0), np.array([-10.0, 10.0]), np.zeros(2)) == 20.0

    def test_distance_threshold_single_module(self):
        threshold = DistanceThreshold()
        limit = threshold.threshold_around((0.0, 0.0), np.zeros(1), np.zeros(1))
        assert limit == np.inf
        assert Point2D(100.0, 100.0).distance_to(Point2D(0, 0)) <= limit

    def test_distance_threshold_validation(self):
        with pytest.raises(PlacementError):
            DistanceThreshold(factor=0.0)


# ---------------------------------------------------------------------------
# Placement algorithms
# ---------------------------------------------------------------------------


class TestGreedy:
    def test_places_requested_modules_validly(self, small_problem):
        result = greedy_floorplan(small_problem)
        assert result.placement.n_modules == small_problem.n_modules
        validate_placement(result.placement, small_problem.grid)
        assert result.runtime_s >= 0.0

    def test_greedy_prefers_high_suitability_cells(self, small_problem):
        result = greedy_floorplan(small_problem)
        suitability = result.suitability
        covered = result.placement.covered_cells()
        covered_mean = np.nanmean(suitability.values[covered[:, 0], covered[:, 1]])
        overall_mean = np.nanmean(suitability.values)
        assert covered_mean >= overall_mean

    def test_deterministic(self, small_problem):
        first = greedy_floorplan(small_problem)
        second = greedy_floorplan(small_problem)
        assert [
            (m.row, m.col) for m in first.placement
        ] == [(m.row, m.col) for m in second.placement]

    def test_reuses_precomputed_suitability(self, small_problem):
        suitability = compute_suitability(small_problem.solar)
        result = greedy_floorplan(small_problem, suitability=suitability)
        assert result.suitability is suitability

    def test_config_validation(self, small_problem):
        # The footprint score (the mean) and the tie band are fixed: the
        # adapter rejects the options that used to select them.
        for options in ({"footprint_aggregate": "median"}, {"tie_tolerance": -1.0}):
            with pytest.raises(ConfigurationError, match=next(iter(options))):
                solve(small_problem, "greedy", options)

    def test_without_distance_threshold(self, small_problem):
        result = greedy_floorplan(
            small_problem, config=GreedyConfig(respect_distance_threshold=False)
        )
        validate_placement(result.placement, small_problem.grid)


class TestTraditional:
    def test_places_compact_block(self, small_problem):
        result = traditional_floorplan(small_problem)
        placement = result.placement
        validate_placement(placement, small_problem.grid)
        assert placement.n_modules == small_problem.n_modules
        assert result.strategy in ("full-block", "string-rows", "packed-modules")

    def test_traditional_is_more_compact_than_greedy(self, small_problem):
        traditional = traditional_floorplan(small_problem)
        greedy = greedy_floorplan(small_problem, suitability=traditional.suitability)
        assert traditional.placement.dispersion_m() <= greedy.placement.dispersion_m() + 1e-9

    def test_config_validation(self, small_problem):
        # A block row holds one series string and the modules touch: the
        # adapter takes no option at all.
        for options in ({"modules_per_row": 0}, {"gap_cells": -1}):
            with pytest.raises(ConfigurationError, match=next(iter(options))):
                solve(small_problem, "traditional", options)


class TestILPAndExhaustive:
    @pytest.fixture(scope="class")
    def tiny_problem(self, small_grid, small_solar):
        """A 2-module instance small enough for the ILP and exhaustive search."""
        # Shrink the candidate space by invalidating most of the grid.
        mask = np.zeros_like(small_grid.valid_mask)
        mask[2:8, 2:22] = small_grid.valid_mask[2:8, 2:22]
        grid = small_grid.with_mask(mask)
        solar = small_solar.restricted_to(grid)
        return FloorplanProblem(
            grid=grid,
            solar=solar,
            n_modules=2,
            topology=SeriesParallelTopology(2, 1),
            datasheet=PV_MF165EB3,
            label="tiny",
        )

    def test_ilp_places_modules(self, tiny_problem):
        result = ilp_floorplan(tiny_problem, config=ILPConfig(time_limit_s=20.0))
        validate_placement(result.placement, tiny_problem.grid)
        assert result.placement.n_modules == 2
        assert result.objective_value > 0
        assert result.gap is not None
        assert result.gap <= 1e-6  # proven optimum on this tiny instance
        assert result.placement.metadata["gap"] == result.gap

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_ilp_at_least_as_good_as_greedy_on_surrogate(self, tiny_problem, data):
        """On the computed map and on drawn ones: the ILP optimum bounds the greedy."""
        suitability = compute_suitability(tiny_problem.solar)
        valid = ~np.isnan(suitability.values)
        n_valid = int(valid.sum())
        cell_values = st.lists(
            st.floats(min_value=0.0, max_value=1000.0), min_size=n_valid, max_size=n_valid
        )
        drawn = data.draw(st.none() | cell_values)
        if drawn is not None:
            values = np.full(suitability.values.shape, np.nan)
            values[valid] = drawn
            suitability = dataclasses.replace(suitability, values=values)
        ilp = ilp_floorplan(
            tiny_problem, suitability=suitability, config=ILPConfig(time_limit_s=20.0)
        )
        validate_placement(ilp.placement, tiny_problem.grid)
        try:
            greedy = greedy_floorplan(tiny_problem, suitability=suitability)
        except InfeasiblePlacementError:
            # The greedy never backtracks: a first module near the middle of
            # the 20-cell window leaves no room for the second, which the
            # ILP (validated above) still places.
            return

        def surrogate(placement):
            total = 0.0
            for cells in placement.covered_cells_by_module():
                total += float(np.nanmean(suitability.values[cells[:, 0], cells[:, 1]]))
            return total

        # The optimum is at most the solver's dual bound, which lies within
        # the relative gap of the returned objective, whichever of the two
        # the gap is relative to.
        ilp_value = surrogate(ilp.placement)
        gap = ilp.gap if ilp.gap is not None else 0.0
        slack = gap * abs(ilp_value) / (1.0 - gap)
        assert ilp_value >= surrogate(greedy.placement) - slack - 1e-6

    def test_ilp_anchor_limit(self, tiny_problem, monkeypatch):
        monkeypatch.setattr(ilp_module, "MAX_ANCHORS", 1)
        with pytest.raises(InfeasiblePlacementError, match="ILP limit of 1"):
            ilp_floorplan(tiny_problem)

    def test_exhaustive_not_worse_than_greedy(self, tiny_problem):
        exhaustive = exhaustive_floorplan(
            tiny_problem, ExhaustiveConfig(max_combinations=500000)
        )
        greedy = greedy_floorplan(tiny_problem)
        greedy_energy = evaluate_placement(tiny_problem, greedy.placement).annual_energy_wh
        assert exhaustive.best_energy_wh >= greedy_energy - 1e-6
        assert exhaustive.n_combinations_evaluated > 0

    def test_exhaustive_combination_limit(self, small_problem):
        with pytest.raises(InfeasiblePlacementError):
            exhaustive_floorplan(small_problem, ExhaustiveConfig(max_combinations=10))

    def test_ilp_time_limit_without_solution_falls_back_to_greedy(
        self, tiny_problem, monkeypatch
    ):
        """HiGHS stopped by its time limit before any solution: with no warm
        incumbent the ILP fails with HiGHS's message, and a fallback chain
        degrades to the greedy answer."""
        import scipy.optimize

        message = "Time limit reached. (HiGHS Status 13: model_status is Time limit reached)"
        timed_out = scipy.optimize.OptimizeResult(
            x=None, fun=None, success=False, status=1, message=message, mip_gap=None
        )
        monkeypatch.setattr(scipy.optimize, "milp", lambda *args, **kwargs: timed_out)
        with pytest.raises(InfeasiblePlacementError) as error:
            ilp_floorplan(tiny_problem)
        assert "failed to find a feasible placement" in str(error.value)
        assert message in str(error.value)

        chain = solve_with_fallback(tiny_problem, "ilp", fallback=("greedy",))
        assert chain.degraded and chain.fallback_solver == "greedy"
        assert chain.failures and message in chain.failures[0]
        greedy = greedy_floorplan(tiny_problem)
        assert [(m.row, m.col, m.rotated) for m in chain.outcome.placement] == [
            (m.row, m.col, m.rotated) for m in greedy.placement
        ]


@st.composite
def _tiny_roof_problems(draw):
    """A small unobstructed roof holding 1-3 modules side by side, planned on
    a 0.4 m grid (4 x 2 cells per module) without rotation, so the ILP's
    anchors are a subset of the exhaustive search's.

    The exhaustive search scores one module order per anchor set, so the
    energy must not depend on that order.  It does only through the wiring
    loss of a string of three, which is not drawn.
    """
    n_modules = draw(st.integers(min_value=1, max_value=3))
    n_series = draw(st.sampled_from([d for d in (1, 2) if n_modules % d == 0]))
    spec = RoofSpec(
        name="drawn-tiny-roof",
        width_m=1.6 * n_modules + 0.4 * draw(st.integers(min_value=0, max_value=2)),
        depth_m=0.8 + 0.4 * draw(st.integers(min_value=0, max_value=2)),
        tilt_deg=draw(st.floats(min_value=0.0, max_value=45.0)),
        azimuth_deg=draw(st.floats(min_value=-90.0, max_value=90.0)),
        edge_setback_m=0.0,
        surface_roughness_m=draw(st.sampled_from([0.0, 0.3])),
        roughness_correlation_m=0.4,
        roughness_seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    scene = build_roof_scene(spec, dsm_pitch=0.4)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.4))
    weather = generate_weather(
        TimeGrid(step_minutes=240.0, day_stride=60), SyntheticWeatherConfig(seed=1)
    )
    config = SolarSimulationConfig(n_horizon_sectors=8, horizon_max_distance_m=10.0)
    problem = FloorplanProblem(
        grid=grid,
        solar=compute_roof_solar_field(scene, grid, weather, config),
        n_modules=n_modules,
        topology=SeriesParallelTopology(n_series, n_modules // n_series),
        datasheet=PV_MF165EB3,
        allow_rotation=False,
        label="drawn-tiny-problem",
    )
    return problem


@settings(max_examples=10, deadline=None)
@given(problem=_tiny_roof_problems())
def test_exhaustive_energy_bounds_the_ilp_placement(problem):
    """The brute-force energy optimum is never below the ILP's placement."""
    ilp = ilp_floorplan(problem, config=ILPConfig(time_limit_s=20.0))
    exhaustive = exhaustive_floorplan(problem)
    ilp_energy = PlacementEvaluator(problem).evaluate(ilp.placement).annual_energy_wh
    assert exhaustive.best_energy_wh >= ilp_energy - 1e-9 * max(1.0, abs(ilp_energy))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TestEvaluation:
    def test_evaluation_basic_quantities(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        evaluation = evaluate_placement(small_problem, placement)
        assert evaluation.annual_energy_wh > 0
        assert evaluation.gross_energy_wh >= evaluation.annual_energy_wh
        assert 0.0 <= evaluation.capacity_factor < 0.35
        assert evaluation.peak_power_w <= small_problem.nameplate_power_w * 1.2

    def test_wiring_loss_small_fraction(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        evaluation = evaluate_placement(small_problem, placement)
        assert evaluation.wiring_loss_fraction < 0.05

    def test_wiring_loss_never_adds_energy(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        evaluation = PlacementEvaluator(small_problem).evaluate(placement)
        assert evaluation.wiring_loss_wh >= 0.0
        assert evaluation.gross_energy_wh >= evaluation.annual_energy_wh

    def test_power_series_storage(self, small_problem):
        placement = traditional_floorplan(small_problem).placement
        evaluation = evaluate_placement(small_problem, placement, store_power_series=True)
        assert evaluation.power_series_w is not None
        assert evaluation.power_series_w.shape == (small_problem.solar.n_time,)

    def test_comparison_improvement_sign(self, small_problem):
        traditional = traditional_floorplan(small_problem)
        greedy = greedy_floorplan(small_problem, suitability=traditional.suitability)
        comparison = compare_placements(
            small_problem, traditional.placement, greedy.placement
        )
        assert comparison.improvement_percent == pytest.approx(
            100.0
            * (comparison.candidate.annual_energy_wh - comparison.baseline.annual_energy_wh)
            / comparison.baseline.annual_energy_wh
        )

    def test_summary_round_trip(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        summary = evaluate_placement(small_problem, placement).summary()
        assert {"annual_energy_mwh", "wiring_extra_length_m", "capacity_factor"} <= set(summary)

    def test_invalid_placement_rejected(self, small_problem):
        bad = Placement(
            modules=tuple(
                ModulePlacement(i, 0, i * small_problem.footprint.cells_w) for i in range(6)
            ),
            footprint=small_problem.footprint,
            topology=small_problem.topology,
            grid_pitch=small_problem.grid.pitch,
        )
        # Row 0 lies in the edge setback, so validation must fail.
        with pytest.raises(PlacementError):
            evaluate_placement(small_problem, bad)
