"""Equivalence tests of the vectorised fast paths against their references.

Every optimisation of the evaluation engine ships with its ground truth:

* the horizon-map kernel must reproduce ``compute_horizon_map_reference``
  **bit for bit** (cached stages must stay valid across the change), and a
  roof-window map must equal the matching slice of the whole-tile map, down
  to the solar field built on it,
* the vectorised :class:`~repro.core.PlacementEvaluator` must agree with the
  original per-module-loop evaluation to within 1e-9 relative,
* the incremental greedy placer must return placements **identical module
  for module** to the full-rebuild reference, on the scenario catalog and
  on generated grids (warm prefixes included), and the compact baseline's
  string rows must equal the per-row oracle's,
* the vectorised solar-field accessors and the shadow-fraction map must
  match their loop formulations.
"""

from __future__ import annotations

import dataclasses
import re
from types import SimpleNamespace

import hypothesis
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
    traditional_floorplan,
)
from repro.core import greedy as greedy_module
from repro.core.constraints import feasible_anchor_mask, mark_occupied
from repro.core.evaluation import _GATHER_TILE_BYTES
from repro.core.greedy import _footprint_score_map
from repro.core.suitability import SuitabilityConfig, SuitabilityMap
from repro.core.traditional import _pack_modules_individually
from repro.errors import GISError, InfeasiblePlacementError, PlacementError, SolarModelError
from repro.geometry import Point3D, Raster, RasterSpec, RoofPlaneFrame
from repro.gis import (
    RoofGrid,
    RoofSpec,
    build_roof_scene,
    make_roof_grid,
    suitable_grid_for_scene,
)
from repro.pv.datasheet import PV_MF165EB3
from repro.runner.solvers import WarmStart
from repro.scenario import builtin_scenarios
from repro.solar import compute_roof_solar_field, shading
from repro.solar.shading import _BLOCK_SHAPE, compute_horizon_map

from oracles.evaluation import (
    evaluate_placement_reference,
    module_irradiance_series_reference,
    validate_placement,
)
from oracles.greedy import greedy_floorplan_reference
from oracles.horizon import compute_horizon_map_reference, sky_view_factor_reference
from oracles.solar_field import irradiance_for_cells
from oracles.traditional import (
    pack_modules_individually_reference,
    traditional_floorplan_reference,
)


RELATIVE_TOLERANCE = 1e-9


def _relative_error(new: np.ndarray, ref: np.ndarray) -> float:
    new = np.asarray(new, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(new - ref) / np.maximum(np.abs(ref), 1e-12)))


def _module_series(evaluator: PlacementEvaluator, placement: Placement) -> np.ndarray:
    """The per-module effective irradiance ``evaluate`` runs on, ``(n_time, N)``:
    one checked gather of the covered columns, reduced and expanded to the
    full time axis."""
    series = evaluator._series_from_columns(*evaluator._validated_columns(placement))
    return evaluator._solar.daylight.expand(series)


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


@st.composite
def _multi_block_case(draw):
    """A DSM up to 40x150 and a window spanning several kernel blocks both ways.

    The horizon kernel gathers each block of the window separately, so a
    block seam must be invisible: the draw mixes terraced heights (exact
    ratio ties), NaN holes, a marching step that is not the pitch, and a
    ``max_distance`` reaching past the tile.
    """
    block_rows, block_cols = _BLOCK_SHAPE
    n_rows = draw(st.integers(block_rows + 2, max(block_rows + 2, 40)))
    n_cols = draw(st.integers(block_cols + 2, max(block_cols + 2, 150)))
    pitch = draw(st.sampled_from([0.5, 1.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = gen.normal(5.0, 2.0, size=(n_rows, n_cols))
    if draw(st.booleans()):
        data = np.round(data)
    data[gen.random(data.shape) < draw(st.sampled_from([0.0, 0.05]))] = np.nan
    row_lo = draw(st.integers(0, n_rows - block_rows - 2))
    row_hi = draw(st.integers(row_lo + block_rows + 2, n_rows))
    col_lo = draw(st.integers(0, n_cols - block_cols - 2))
    col_hi = draw(st.integers(col_lo + block_cols + 2, n_cols))
    raster = Raster(RasterSpec(0.0, 0.0, pitch, n_rows, n_cols), data)
    options = {
        "n_sectors": draw(st.integers(4, 6)),
        "max_distance": max(n_rows, n_cols) * pitch * draw(st.sampled_from([0.2, 0.6, 1.3])),
        "min_step": draw(st.sampled_from([None, 0.7 * pitch, 1.6 * pitch])),
    }
    return raster, ((row_lo, row_hi), (col_lo, col_hi)), options


def _roof_dsm(
    n_rows,
    n_cols,
    pitch,
    seed,
    rows,
    cols,
    height,
    surface,
    towers,
    holes,
    n_sectors,
    reach,
    min_step,
):
    """A roof-like DSM on which the horizon kernel's height bound drops steps.

    A plateau (the roof, DSM ``rows`` x ``cols``) stands on low ground.  Its
    surface is flat (a region's highest cell then equals a block's lowest
    exactly), terraced, tilted or rough; towers taller than the roof stand
    on it or around it, and NaN holes may pierce both.  The window is the
    plateau, at least two kernel blocks tall and often two wide, so a tower
    next to a full block sits in the last row or column of the regions its
    cells' steps read.

    Every DSM gives the bound a step to drop.  The ground stays within 1 m
    of zero and the roof at least 2 m up.  The first sector's rays run
    towards higher rows and columns; from the block in the roof's last row
    of blocks and first column, the first of its steps that reaches past
    the roof's last row (at most 16 rows on) moves at most 16 columns.  The
    tile reaches 17 columns past the roof's first column and the rays at
    least 24 cells, so that step lies in the tile.  The region it reads
    lies past the roof's last row, within the block width plus 16 columns
    from the roof's first column; a tower drawn there moves to just left
    of the roof, so the region is all ground.  Towers past the roof's last
    row elsewhere stay, and the steps towards them must not be dropped.
    """
    gen = np.random.default_rng(seed)
    data = np.clip(gen.normal(0.0, 0.3, size=(n_rows, n_cols)), -1.0, 1.0)
    (row_lo, row_hi), (col_lo, col_hi) = rows, cols
    shape = (row_hi - row_lo, col_hi - col_lo)
    roof = height + np.maximum(
        {
            "flat": np.zeros(shape),
            "terraced": np.round(gen.normal(0.0, 0.6, size=shape)),
            "tilted": np.arange(shape[0])[:, None] * 0.15 * pitch + np.zeros(shape),
            "rough": gen.normal(0.0, 0.3, size=shape),
        }[surface],
        -2.0,
    )
    data[row_lo:row_hi, col_lo:col_hi] = roof
    block_cols = _BLOCK_SHAPE[1]
    for tower in range(towers):
        row, col = gen.integers(0, n_rows), gen.integers(0, n_cols)
        if tower % 2:
            # Next to the first block's last column.
            col = min(col_lo + block_cols + gen.integers(-1, 2), n_cols - 1)
        size_rows, size_cols = gen.integers(1, 3, size=2)
        if row + size_rows > row_hi and col_lo - size_cols < col < col_lo + block_cols + 16:
            col = col_lo - size_cols
        data[row : row + size_rows, col : col + size_cols] = roof.max() + gen.uniform(1.0, 8.0)
    data[gen.random(data.shape) < holes] = np.nan
    raster = Raster(RasterSpec(0.0, 0.0, pitch, n_rows, n_cols), data)
    options = {
        "n_sectors": n_sectors,
        "max_distance": max(n_rows, n_cols, 40) * pitch * reach,
        "min_step": None if min_step is None else min_step * pitch,
    }
    return raster, (rows, cols), options


@st.composite
def _roof_case(draw):
    """:func:`_roof_dsm` of drawn sizes, surface, towers, holes and rays."""
    block_rows, block_cols = _BLOCK_SHAPE
    n_rows = draw(st.integers(block_rows + 7, 44))
    min_width = draw(st.sampled_from([6, block_cols + 1]))
    n_cols = draw(st.integers(max(min_width + 6, 19), 150))
    pitch = draw(st.sampled_from([0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    row_lo = draw(st.integers(2, n_rows - block_rows - 5))
    row_hi = draw(st.integers(row_lo + block_rows + 1, n_rows - 2))
    col_lo = draw(st.integers(2, n_cols - max(min_width + 4, 17)))
    col_hi = draw(st.integers(col_lo + min_width, n_cols - 2))
    return _roof_dsm(
        n_rows,
        n_cols,
        pitch,
        seed,
        (row_lo, row_hi),
        (col_lo, col_hi),
        height=draw(st.sampled_from([4.0, 6.5])),
        surface=draw(st.sampled_from(["flat", "terraced", "tilted", "rough"])),
        towers=draw(st.integers(0, 5)),
        holes=draw(st.sampled_from([0.0, 0.03])),
        n_sectors=draw(st.integers(4, 8)),
        reach=draw(st.sampled_from([0.6, 1.3])),
        min_step=draw(st.sampled_from([None, 0.7])),
    )


def _horizon_and_gathered_steps(raster, window, options, bounded=True):
    """The horizon map and the number of steps its blocks gather.

    ``bounded=False`` makes every region's highest cell ``+inf``, so the
    height bound keeps every step that reaches the tile.
    """
    gathered = []
    block_horizon = shading._block_horizon
    region_maxima = shading._region_maxima

    def counting_block_horizon(padded, view, base, target, steps, weights, out):
        gathered.append(len(steps[3]))
        block_horizon(padded, view, base, target, steps, weights, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shading, "_block_horizon", counting_block_horizon)
        if not bounded:
            patch.setattr(
                shading,
                "_region_maxima",
                lambda elevation: np.full_like(region_maxima(elevation), np.inf),
            )
        horizon = compute_horizon_map(raster, window=window, **options)
    return horizon, sum(gathered)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @settings(max_examples=25, deadline=None)
    @given(case=_multi_block_case())
    def test_block_seams_match_the_reference(self, case):
        raster, window, options = case
        windowed = _assert_window_matches_full_tile(raster, window, **options)
        reference = compute_horizon_map_reference(raster, **options)
        assert np.array_equal(
            compute_horizon_map(raster, **options).horizon_deg, reference.horizon_deg
        )
        (row_lo, row_hi), (col_lo, col_hi) = window
        assert np.array_equal(
            windowed.horizon_deg, reference.horizon_deg[:, row_lo:row_hi, col_lo:col_hi]
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
            sky_view_factor_reference(reference)[row_lo:row_hi, col_lo:col_hi].ravel(),
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
            windowed.sky_view_for_cells(rows, cols), sky_view_factor_reference(full)[rows, cols]
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


class TestHeightBound:
    @settings(max_examples=20, deadline=None)
    @given(case=_roof_case())
    # A draw on which an earlier generator left the bound nothing to drop:
    # a tower stood on the ground the guaranteed step reads.
    @hypothesis.example(
        case=_roof_dsm(23, 19, 0.5, 1222, (2, 19), (2, 8), 6.5, "terraced", 3, 0.03, 4, 0.6, None)
    )
    def test_dropped_steps_leave_the_map_bit_identical(self, case):
        raster, window, options = case
        windowed, gathered = _horizon_and_gathered_steps(raster, window, options)
        unbounded, every_step = _horizon_and_gathered_steps(
            raster, window, options, bounded=False
        )
        # The draw exercises the bound, so the equalities below are not vacuous.
        assert gathered < every_step
        reference = compute_horizon_map_reference(raster, **options)
        (row_lo, row_hi), (col_lo, col_hi) = window
        assert _bit_equal(
            windowed.horizon_deg, reference.horizon_deg[:, row_lo:row_hi, col_lo:col_hi]
        )
        assert _bit_equal(unbounded.horizon_deg, windowed.horizon_deg)
        tile, _ = _horizon_and_gathered_steps(raster, None, options)
        assert _bit_equal(tile.horizon_deg, reference.horizon_deg)


def _catalog_roofs() -> list:
    """One catalog scenario name per distinct (roof, DSM pitch, grid pitch)."""
    names = {}
    for spec in builtin_scenarios().values():
        names.setdefault((spec.roof, spec.dsm_pitch, spec.grid_pitch), spec.name)
    return sorted(names.values())


class TestRoofWindowSolarField:
    @pytest.mark.parametrize("name", _catalog_roofs())
    def test_window_field_equals_full_tile_field(self, name):
        spec = builtin_scenarios()[name]
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
            windowed.sky_view[windowed.column_index],
            sky_view_factor_reference(full_tile)[
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
        fast = irradiance_for_cells(small_solar, cells)
        columns = [small_solar.column_of(int(r), int(c)) for r, c in cells]
        reference = np.stack(
            [
                small_solar.daylight.expand(small_solar.irradiance[:, k].astype(float))
                for k in columns
            ],
            axis=1,
        )
        assert fast.dtype == np.float64
        assert fast.shape == (small_solar.n_time, len(columns))
        assert np.array_equal(reference, fast)

    def test_irradiance_for_cells_rejects_invalid_cell(self, small_solar):
        lookup = small_solar.cell_lookup
        invalid = np.argwhere(lookup < 0)
        assert invalid.size, "expected at least one invalid grid element"
        cells = np.vstack([small_solar.cells[:2], invalid[:1]])
        with pytest.raises(SolarModelError):
            irradiance_for_cells(small_solar, cells)

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
        time_axis = small_solar.daylight
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
    def test_module_irradiance_series(self, small_problem):
        for placement in _example_placements(small_problem):
            reference = module_irradiance_series_reference(small_problem, placement)
            fast = _module_series(PlacementEvaluator(small_problem), placement)
            assert fast.shape == reference.shape
            assert _relative_error(fast, reference) < RELATIVE_TOLERANCE

    def test_module_series_over_many_row_tiles_is_bit_exact(self, small_grid, quarter_hour_solar):
        # The gather runs in row tiles; every reduction is per time row, so
        # the series must equal the per-module loop bit for bit, on both
        # orientations and on both gather branches: the two substrings of an
        # 8-cell long side are equal (reshape + mean), those of a 7-cell one
        # are not (reduceat).
        for long_side_m in (1.6, 1.4):
            problem = FloorplanProblem(
                grid=small_grid,
                solar=quarter_hour_solar,
                n_modules=9,
                topology=default_topology(9, n_series=3),
                datasheet=dataclasses.replace(PV_MF165EB3, width_m=long_side_m),
                allow_rotation=True,
                label="quarter-hour-problem",
            )
            row_bytes = quarter_hour_solar.irradiance.itemsize * problem.footprint.n_cells
            assert quarter_hour_solar.n_daylight * row_bytes * problem.n_modules > (
                4 * _GATHER_TILE_BYTES
            )
            evaluator = PlacementEvaluator(problem)
            even = problem.footprint.cells_w % 2 == 0
            for gather in evaluator._gathers.values():
                counts = gather.group_counts
                assert len(counts) == 2
                assert bool(np.all(counts == counts[0])) == even
            placements = _example_placements(problem)
            assert {m.rotated for placement in placements for m in placement} == {False, True}
            for placement in placements:
                reference = module_irradiance_series_reference(problem, placement)
                fast = _module_series(evaluator, placement)
                np.testing.assert_array_equal(fast.view(np.uint64), reference.view(np.uint64))

    def test_module_irradiance_series_with_rotation(self, rotated_problem):
        placement = greedy_floorplan(rotated_problem).placement
        assert any(m.rotated for m in placement) or True  # mixed orientations allowed
        reference = module_irradiance_series_reference(rotated_problem, placement)
        fast = _module_series(PlacementEvaluator(rotated_problem), placement)
        assert _relative_error(fast, reference) < RELATIVE_TOLERANCE

    def test_evaluation_figures(self, small_problem):
        evaluator = PlacementEvaluator(small_problem)
        for placement in _example_placements(small_problem):
            reference = evaluate_placement_reference(small_problem, placement)
            fast = evaluator.evaluate(placement)
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

    def test_modules_sharing_dsm_cells_do_not_overlap(self, small_grid, small_solar):
        # The 0.2 m grid puts two columns of grid cells on each 0.4 m DSM
        # cell, and those cells share one stored irradiance column.  Two
        # modules side by side can cover the two halves of one DSM cell
        # without covering a common grid cell, so the overlap check must
        # compare cells, not columns.
        problem = FloorplanProblem(
            grid=small_grid,
            solar=small_solar,
            n_modules=2,
            topology=default_topology(2, n_series=2),
            datasheet=PV_MF165EB3,
            label="shared-columns",
        )
        footprint = problem.footprint
        lookup = small_solar.cell_lookup

        def covered(row, col):
            cells = ModulePlacement(0, row, col).covered_cells(footprint)
            if np.any(cells.max(axis=0) >= lookup.shape):
                return None
            indices = lookup[cells[:, 0], cells[:, 1]]
            return None if np.any(indices < 0) else indices

        def placement(row, col, second_col):
            return Placement(
                modules=(ModulePlacement(0, row, col), ModulePlacement(1, row, second_col)),
                footprint=footprint,
                topology=problem.topology,
                grid_pitch=small_grid.pitch,
            )

        for row, col in small_solar.cells:
            first, second = covered(row, col), covered(row, col + footprint.cells_w)
            if first is None or second is None:
                continue
            shared = np.intersect1d(
                small_solar.column_index[first], small_solar.column_index[second]
            )
            if shared.size:
                break
        else:
            pytest.fail("no two side-by-side modules share a DSM cell")

        side_by_side = placement(row, col, col + footprint.cells_w)
        fast = PlacementEvaluator(problem).evaluate(side_by_side)
        reference = evaluate_placement_reference(problem, side_by_side)
        assert fast.annual_energy_wh > 0
        assert abs(fast.annual_energy_wh - reference.annual_energy_wh) <= (
            RELATIVE_TOLERANCE * reference.annual_energy_wh
        )
        reused = placement(row, col, col + footprint.cells_w - 1)
        with pytest.raises(PlacementError, match="module 1 overlaps"):
            PlacementEvaluator(problem).evaluate(reused)
        with pytest.raises(PlacementError, match="overlap"):
            validate_placement(reused, small_grid)

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
            _module_series(PlacementEvaluator(small_problem), placement)

    def test_partial_placement_series_allowed(self, small_problem):
        """The per-module series still works on partial placements (the
        reference behaviour); only evaluate() requires the problem's N."""
        footprint = small_problem.footprint
        placement = Placement(
            modules=(ModulePlacement(module_index=0, row=5, col=5),),
            footprint=footprint,
            topology=default_topology(1, n_series=1),
            grid_pitch=small_problem.grid.pitch,
        )
        series = _module_series(PlacementEvaluator(small_problem), placement)
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
            GreedyConfig(respect_distance_threshold=True),
            GreedyConfig(respect_distance_threshold=False),
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
    spec = builtin_scenarios()[name]
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


def _grid_problem(
    valid, cells, n_modules, allow_rotation=False, threshold_factor=2.0, n_series=None
):
    """A placement problem on a 1 m grid whose modules span ``cells = (w, h)``.

    The modules form one string unless ``n_series`` is given.

    The placers read only the grid and the suitability map they are given,
    so the problem carries a stand-in for the solar field.
    """
    n_rows, n_cols = valid.shape
    grid = RoofGrid(
        frame=RoofPlaneFrame(origin=Point3D(0.0, 0.0, 0.0), azimuth_deg=0.0, tilt_deg=30.0),
        pitch=1.0,
        n_rows=n_rows,
        n_cols=n_cols,
        valid_mask=valid,
    )
    return FloorplanProblem(
        grid=grid,
        solar=SimpleNamespace(grid=grid),
        n_modules=n_modules,
        topology=default_topology(n_modules, n_series or n_modules),
        datasheet=dataclasses.replace(PV_MF165EB3, width_m=cells[0], height_m=cells[1]),
        allow_rotation=allow_rotation,
        distance_threshold_factor=threshold_factor,
    )


def _suitability_map(values):
    return SuitabilityMap(
        values=values,
        irradiance_statistic=values,
        temperature_factor=np.ones_like(values),
        config=SuitabilityConfig(),
    )


def _level_values(rng, valid, levels):
    """Suitability on a few levels (exact ties), NaN off the valid cells."""
    values = rng.integers(0, levels, size=valid.shape) / levels + 0.5
    return np.where(valid, values, np.nan)


#: Which grid edge gets a bonus strip, so the first module lands on it and
#: the ones around it make the removal windows clip there.
_EDGES = ("bottom", "top", "left", "right", None)


@st.composite
def _greedy_case(draw):
    cells = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n_rows = draw(st.integers(cells[1] + 1, 14))
    # Two islands further apart than the threshold's floor (7 cells for the
    # smallest module): once the placement fills one, the threshold relaxes.
    islands = draw(st.booleans())
    n_cols = draw(st.integers(24, 30) if islands else st.integers(cells[0] + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((n_rows, n_cols)) >= draw(st.sampled_from([0.0, 0.05, 0.2]))
    if islands:
        valid[:, n_cols // 2 - 5 : n_cols // 2 + 5] = False
    values = _level_values(rng, valid, draw(st.integers(2, 5)))
    edge = draw(st.sampled_from(_EDGES))
    band = max(cells)
    strip = {
        "bottom": np.s_[:band, :],
        "top": np.s_[-band:, :],
        "left": np.s_[:, :band],
        "right": np.s_[:, -band:],
    }.get(edge)
    if strip is not None:
        values[strip] += 1.0
    capacity = int(valid.sum()) // (cells[0] * cells[1])
    hypothesis.assume(capacity >= 1)
    fill = draw(st.sampled_from([0.7, 0.9] if islands else [0.2, 0.6, 0.9, 1.0]))
    n_modules = max(1, int(fill * min(capacity, 40)))
    config = GreedyConfig(respect_distance_threshold=draw(st.booleans()))
    problem = _grid_problem(
        valid,
        cells,
        n_modules,
        allow_rotation=draw(st.booleans()),
        threshold_factor=draw(st.sampled_from([0.25, 1.0, 2.0])),
    )
    warm_modules = draw(st.integers(1, max(n_modules - 1, 1)))
    return problem, _suitability_map(values), config, warm_modules


def _live_anchor_count(problem, suitability, placed) -> int:
    """Anchors a full rebuild would still rank after placing ``placed``."""
    occupied = np.zeros(problem.grid.shape, dtype=bool)
    orientations = [(problem.footprint, False)]
    if problem.allow_rotation and problem.footprint.cells_w != problem.footprint.cells_h:
        orientations.append((problem.footprint.rotated(), True))
    footprints = {rotated: fp for fp, rotated in orientations}
    for module in placed:
        mark_occupied(occupied, module.row, module.col, footprints[module.rotated])
    return sum(
        int(
            (
                feasible_anchor_mask(problem.grid.valid_mask, occupied, fp)
                & np.isfinite(_footprint_score_map(suitability, fp.cells_h, fp.cells_w))
            ).sum()
        )
        for fp, _ in orientations
    )


class TestIncrementalGreedyProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=_greedy_case())
    def test_matches_the_full_rebuild_oracle(self, case):
        problem, suitability, config, warm_modules = case
        try:
            reference = greedy_floorplan_reference(problem, suitability, config)
        except InfeasiblePlacementError as exc:
            with pytest.raises(InfeasiblePlacementError, match=re.escape(str(exc))):
                greedy_floorplan(problem, suitability, config)
            return
        fast = greedy_floorplan(problem, suitability, config)
        assert _module_tuples(fast.placement) == _module_tuples(reference.placement)
        assert fast.relaxed_threshold_count == reference.relaxed_threshold_count

        if problem.n_modules < 2:
            return
        prefix = greedy_floorplan(
            dataclasses.replace(
                problem,
                n_modules=warm_modules,
                topology=default_topology(warm_modules, warm_modules),
            ),
            suitability,
            config,
        )
        warm = greedy_floorplan(
            problem,
            suitability,
            config,
            warm_start=WarmStart(placement=prefix.placement, exact_prefix=True),
        )
        assert warm.warm_modules == warm_modules
        assert _module_tuples(warm.placement) == _module_tuples(reference.placement)
        assert warm.relaxed_threshold_count == reference.relaxed_threshold_count

    def test_traced_steps_count_live_anchors(self, monkeypatch):
        rng = np.random.default_rng(7)
        valid = rng.random((12, 18)) >= 0.1
        values = _level_values(rng, valid, 3)
        problem = _grid_problem(valid, (3, 2), 10, allow_rotation=True)
        suitability = _suitability_map(values)
        config = GreedyConfig()
        events = []
        monkeypatch.setattr(greedy_module, "tracing_enabled", lambda: True)
        monkeypatch.setattr(
            greedy_module, "trace_event", lambda name, **attrs: events.append((name, attrs))
        )
        modules = greedy_floorplan(problem, suitability, config).placement.modules
        steps = [attrs for name, attrs in events if name == "greedy.step"]
        assert [step["module"] for step in steps] == list(range(problem.n_modules))
        for step in steps:
            assert step["candidates_left"] == _live_anchor_count(
                problem, suitability, modules[: step["module"] + 1]
            )


# ---------------------------------------------------------------------------
# Traditional baseline: string rows
# ---------------------------------------------------------------------------


@st.composite
def _banded_case(draw):
    """Bands of valid rows too low for the whole block of two or more strings."""
    cells = (draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    n_series = draw(st.integers(2, 4))
    n_parallel = draw(st.integers(2, 4))
    # A band lower than two module rows cannot hold the block.
    band_h = draw(st.integers(cells[1], 2 * cells[1] - 1))
    row_w = n_series * cells[0]
    n_cols = draw(st.integers(row_w, row_w + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, n_parallel + 1))):
        rows.append(np.ones((band_h, n_cols), dtype=bool))
        rows.append(np.zeros((draw(st.integers(1, 2)), n_cols), dtype=bool))
    valid = np.vstack(rows[:-1])
    valid &= rng.random(valid.shape) >= draw(st.sampled_from([0.0, 0.03]))
    n_modules = n_series * n_parallel
    hypothesis.assume(valid.sum() >= n_modules * cells[0] * cells[1])
    problem = _grid_problem(valid, cells, n_modules, n_series=n_series)
    values = _level_values(rng, valid, draw(st.integers(2, 5)))
    return problem, _suitability_map(values)


class TestTraditionalStringRows:
    @settings(max_examples=60, deadline=None)
    @given(case=_banded_case())
    def test_matches_the_per_row_oracle(self, case):
        problem, suitability = case
        modules, strategy = traditional_floorplan_reference(problem, suitability)
        assert strategy != "full-block"
        if modules is None:
            with pytest.raises(InfeasiblePlacementError):
                traditional_floorplan(problem, suitability)
            return
        fast = traditional_floorplan(problem, suitability)
        assert fast.strategy == strategy
        assert _module_tuples(fast.placement) == [
            (m.module_index, m.row, m.col, m.rotated) for m in modules
        ]


# ---------------------------------------------------------------------------
# Traditional baseline: modules packed one by one
# ---------------------------------------------------------------------------


@st.composite
def _packing_case(draw):
    """A pierced grid, a module size and more or fewer modules than fit."""
    cells = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n_rows = draw(st.integers(cells[1], 16))
    n_cols = draw(st.integers(cells[0], 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((n_rows, n_cols)) >= draw(st.sampled_from([0.0, 0.05, 0.2]))
    valid[: cells[1], : cells[0]] = True
    # The problem itself refuses more modules than the valid cells can hold.
    room = int(valid.sum()) // (cells[0] * cells[1])
    problem = _grid_problem(valid, cells, min(draw(st.integers(1, 30)), room))
    values = _level_values(rng, valid, draw(st.integers(1, 4)))
    return problem, _suitability_map(values)


class TestTraditionalPackedModules:
    @settings(max_examples=80, deadline=None)
    @given(case=_packing_case())
    def test_matches_the_per_module_oracle(self, case):
        problem, suitability = case
        expected = pack_modules_individually_reference(problem, suitability, problem.footprint)
        packed = _pack_modules_individually(problem, suitability, problem.footprint)
        if expected is None:
            assert packed is None
            return
        assert [(m.module_index, m.row, m.col, m.rotated) for m in packed] == [
            (m.module_index, m.row, m.col, m.rotated) for m in expected
        ]
