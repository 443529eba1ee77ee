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
    SuitabilityConfig,
    TraditionalConfig,
    compare_placements,
    compute_suitability,
    default_topology,
    evaluate_placement,
    exhaustive_floorplan,
    feasible_anchor_mask,
    footprint_from_module,
    footprint_suitability,
    greedy_floorplan,
    ilp_floorplan,
    module_irradiance_series,
    traditional_floorplan,
)
from repro.core.exhaustive import ExhaustiveConfig
from repro.errors import InfeasiblePlacementError, PlacementError
from repro.geometry import Point2D
from repro.pv.array import SeriesParallelTopology
from repro.pv.datasheet import PV_MF165EB3


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
        good.validate(small_grid)
        out_of_bounds = Placement(
            modules=(ModulePlacement(0, small_grid.n_rows - 1, small_grid.n_cols - 1),),
            footprint=footprint,
            topology=SeriesParallelTopology(1, 1),
            grid_pitch=small_grid.pitch,
        )
        with pytest.raises(PlacementError):
            out_of_bounds.validate(small_grid)

    def test_validate_detects_overlap(self, small_grid):
        footprint = ModuleFootprint(cells_w=2, cells_h=2)
        overlapping = Placement(
            modules=(ModulePlacement(0, 5, 5), ModulePlacement(1, 5, 6)),
            footprint=footprint,
            topology=SeriesParallelTopology(2, 1),
            grid_pitch=small_grid.pitch,
        )
        with pytest.raises(PlacementError):
            overlapping.validate(small_grid)


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------


class TestProblem:
    def test_describe(self, small_problem):
        description = small_problem.describe()
        assert description["n_modules"] == 6
        assert description["topology"] == "3s x 2p"

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

    def test_ranked_cells_sorted(self, small_solar):
        suitability = compute_suitability(small_solar)
        ranked = suitability.ranked_cells()
        values = suitability.values[ranked[:, 0], ranked[:, 1]]
        assert np.all(np.diff(values) <= 1e-9)

    def test_normalised_range(self, small_solar):
        suitability = compute_suitability(small_solar)
        normalised = suitability.normalised()
        finite = normalised[np.isfinite(normalised)]
        assert float(finite.min()) == pytest.approx(0.0)
        assert float(finite.max()) == pytest.approx(1.0)

    def test_footprint_suitability_nan_on_invalid(self, small_solar):
        suitability = compute_suitability(small_solar)
        # A footprint larger than the grid is invalid.
        value = footprint_suitability(suitability, 0, 0, 10_000, 10_000)
        assert np.isnan(value)

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
        compact = [Point2D(0, 0), Point2D(0.5, 0.0)]
        assert threshold.threshold_for(compact) == 5.0
        assert threshold.accepts(Point2D(3.0, 0.0), compact)
        assert not threshold.accepts(Point2D(30.0, 0.0), compact)

    def test_distance_threshold_single_module(self):
        threshold = DistanceThreshold()
        assert threshold.accepts(Point2D(100.0, 100.0), [Point2D(0, 0)])

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
        result.placement.validate(small_problem.grid)
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

    def test_config_validation(self):
        with pytest.raises(InfeasiblePlacementError):
            GreedyConfig(footprint_aggregate="median")
        with pytest.raises(InfeasiblePlacementError):
            GreedyConfig(tie_tolerance=-1.0)

    def test_without_distance_threshold(self, small_problem):
        result = greedy_floorplan(
            small_problem, config=GreedyConfig(respect_distance_threshold=False)
        )
        result.placement.validate(small_problem.grid)

    def test_anchor_aggregate_variant(self, small_problem):
        result = greedy_floorplan(small_problem, config=GreedyConfig(footprint_aggregate="anchor"))
        result.placement.validate(small_problem.grid)


class TestTraditional:
    def test_places_compact_block(self, small_problem):
        result = traditional_floorplan(small_problem)
        placement = result.placement
        placement.validate(small_problem.grid)
        assert placement.n_modules == small_problem.n_modules
        assert result.strategy in ("full-block", "string-rows", "packed-modules")

    def test_traditional_is_more_compact_than_greedy(self, small_problem):
        traditional = traditional_floorplan(small_problem)
        greedy = greedy_floorplan(small_problem, suitability=traditional.suitability)
        assert traditional.placement.dispersion_m() <= greedy.placement.dispersion_m() + 1e-9

    def test_modules_per_row_config(self, small_problem):
        result = traditional_floorplan(
            small_problem, config=TraditionalConfig(modules_per_row=2)
        )
        result.placement.validate(small_problem.grid)

    def test_config_validation(self):
        with pytest.raises(InfeasiblePlacementError):
            TraditionalConfig(modules_per_row=0)
        with pytest.raises(InfeasiblePlacementError):
            TraditionalConfig(gap_cells=-1)


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
        result.placement.validate(tiny_problem.grid)
        assert result.placement.n_modules == 2
        assert result.objective_value > 0

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
        ilp.placement.validate(tiny_problem.grid)
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

    def test_ilp_anchor_limit(self, tiny_problem):
        with pytest.raises(InfeasiblePlacementError):
            ilp_floorplan(tiny_problem, config=ILPConfig(max_anchors=1))

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

    def test_disable_wiring_loss(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        with_loss = evaluate_placement(small_problem, placement, include_wiring_loss=True)
        without = evaluate_placement(small_problem, placement, include_wiring_loss=False)
        assert without.annual_energy_wh >= with_loss.annual_energy_wh

    def test_power_series_storage(self, small_problem):
        placement = traditional_floorplan(small_problem).placement
        evaluation = evaluate_placement(small_problem, placement, store_power_series=True)
        assert evaluation.power_series_w is not None
        assert evaluation.power_series_w.shape == (small_problem.solar.n_time,)

    def test_module_aggregation_mean_not_below_substring(self, small_problem):
        placement = traditional_floorplan(small_problem).placement
        substring = evaluate_placement(small_problem, placement, module_aggregation="substring-min")
        mean = evaluate_placement(small_problem, placement, module_aggregation="mean")
        assert mean.annual_energy_wh >= substring.annual_energy_wh - 1e-6

    def test_module_irradiance_series_shape(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        series = module_irradiance_series(small_problem, placement)
        assert series.shape == (small_problem.solar.n_time, small_problem.n_modules)
        assert float(series.min()) >= 0.0

    def test_unknown_aggregation_rejected(self, small_problem):
        placement = greedy_floorplan(small_problem).placement
        with pytest.raises(PlacementError):
            module_irradiance_series(small_problem, placement, aggregation="median")

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
