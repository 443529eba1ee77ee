"""Differential tests: the array kernels of a cold plan against their oracles.

* :func:`repro.solar.irradiance_map.select_percentile` against
  ``np.percentile`` of the installed numpy on the full-sample rows;
* :func:`repro.core.suitability.compute_suitability` and
  :meth:`RoofSolarField.percentile_map` against the dense-block oracles in
  ``tests/oracles/suitability.py``, on dense, compressed, F-ordered
  (``restricted_to``) and read-only fields;
* :func:`repro.solar.compute_roof_solar_field` (one column per DSM cell)
  against the dense per-cell oracle in ``tests/oracles/solar_field.py``, on
  generated coarse roofs;
* :meth:`repro.geometry.polygon.Polygon.rasterize` against the per-cell
  ``contains_point`` loop in ``tests/oracles/rasterize.py``.

Every comparison is bit for bit: ``float64`` results are compared as their
integer bit patterns, so a differing last bit or zero sign fails.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.rasterize import rasterize_reference
from oracles.solar_field import compute_roof_solar_field_dense_reference
from oracles.suitability import compute_suitability_reference, percentile_map_reference
from test_execution_mode import coarse_specs

from repro.core.suitability import SuitabilityConfig, compute_suitability
from repro.errors import PVModelError, SolarModelError
from repro.geometry import Point2D, Polygon
from repro.gis import build_roof_scene, make_roof_grid, suitable_grid_for_scene
from repro.pv.datasheet import PV_MF165EB3
from repro.pv.module import EmpiricalModuleModel, paper_module_model
from repro.pv.thermal import CellTemperatureModel
from repro.solar.irradiance_map import (
    _TRANSPOSE_TILE_ROWS,
    RoofSolarField,
    compute_roof_solar_field,
    select_percentile,
)
from repro.solar.time_series import CompressedTimeGrid, TimeGrid

#: Percentiles that sit on the edges of numpy's index arithmetic.
EDGE_PERCENTILES = (0.0, 1e-9, 0.5, 25.0, 50.0, 75.0, 99.5, 100.0 - 1e-9, 100.0)

#: A small value pool makes ties, zeros and repeated order statistics common.
TIED_VALUES = (0.0, 0.0, 1.0, 2.5, 2.5, 100.0, 812.25, 1000.0)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def samples(low: float, high: float):
    """Finite float32 values in ``[low, high]``, with -0.0 folded into 0.0.

    The two zeros compare equal, so which of them a partition leaves at a
    given position is unspecified -- in ``np.percentile`` as in the kernel.
    """
    return st.floats(min_value=low, max_value=high, allow_nan=False, width=32).map(
        lambda value: value + 0.0
    )


@st.composite
def percentile_q(draw, n_zeros: int = 0, n: int = 1) -> float:
    """A percentile in [0, 100]: an edge value, one at the zero/value
    boundary, or anything in between."""
    boundary = min(100.0 * n_zeros / max(n - 1, 1), 100.0)
    return draw(
        st.one_of(
            st.sampled_from(EDGE_PERCENTILES),
            st.sampled_from([boundary, max(boundary - 1e-7, 0.0)]),
            st.floats(min_value=0.0, max_value=100.0),
        )
    )


@st.composite
def value_blocks(draw, allow_negative: bool):
    """A ``(c, m)`` block of tied, random or NaN-bearing values.

    Rows are narrow (at most 40 values) or wide (600-20,000 values, filled
    from a drawn seed), which numpy's partition selects in its vectorised
    path.  With ``allow_negative`` every sample of a row is explicit, so a
    block may turn all its zeros into -0.0: with one zero sign in the sample
    the sign a partition leaves at a position is determined.
    """
    n_rows = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    low = -50.0 if allow_negative else 0.0
    if draw(st.booleans()):
        n_cols = draw(st.integers(600, 20_000))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tied = np.array(TIED_VALUES)[rng.integers(0, len(TIED_VALUES), (n_rows, n_cols))]
        spread = rng.uniform(low, 1200.0, (n_rows, n_cols))
        share_tied = draw(st.sampled_from([0.0, 0.5, 1.0]))
        block = np.where(rng.random((n_rows, n_cols)) < share_tied, tied, spread).astype(dtype)
    else:
        n_cols = draw(st.integers(0 if not allow_negative else 1, 40))
        element = st.one_of(st.sampled_from(TIED_VALUES), samples(low, 1200.0))
        values = draw(st.lists(element, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        block = np.array(values, dtype=dtype).reshape(n_rows, n_cols)
    if allow_negative and draw(st.booleans()):
        block[block == 0.0] = -0.0
    if n_cols and draw(st.booleans()):
        row = draw(st.integers(0, n_rows - 1))
        col = draw(st.integers(0, n_cols - 1))
        block[row, col] = np.nan
    return block


class TestSelectPercentile:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_with_implicit_zeros(self, data):
        block = data.draw(value_blocks(allow_negative=False))
        # Wide rows take up to twice their width in zeros, as a field's
        # daylight rows take about as many night rows.
        m = block.shape[1]
        n_zeros = data.draw(st.integers(0 if m else 1, max(40, 2 * m)))
        n = block.shape[1] + n_zeros
        q = data.draw(percentile_q(n_zeros, n))
        full = np.concatenate(
            [np.zeros((block.shape[0], n_zeros)), block.astype(np.float64)], axis=1
        )
        expected = np.percentile(full, q, axis=1)
        assert_bits_equal(select_percentile(block.copy(), q, n_zeros=n_zeros), expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_numpy_on_signed_values(self, data):
        # The module-temperature form: every sample explicit, any sign.
        block = data.draw(value_blocks(allow_negative=True))
        q = data.draw(percentile_q())
        expected = np.percentile(block.astype(np.float64), q, axis=1)
        assert_bits_equal(select_percentile(block.copy(), q), expected)

    def test_all_zero_rows_and_all_nan_rows(self):
        block = np.array([[0.0, 0.0, 0.0], [np.nan, np.nan, np.nan]], dtype=np.float32)
        for q in EDGE_PERCENTILES:
            expected = np.percentile(
                np.concatenate([np.zeros((2, 4)), block.astype(float)], axis=1), q, axis=1
            )
            assert_bits_equal(select_percentile(block.copy(), q, n_zeros=4), expected)

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            select_percentile(np.zeros((1, 3)), 100.5)


# -- field-level: compute_suitability and percentile_map ----------------------------


@st.composite
def solar_fields(draw, grid):
    """A small field on ``grid``: random time axis, night split, dtype, columns and values."""
    steps_per_day = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    day_stride = draw(st.sampled_from([91, 122, 183, 365]))
    time_grid = TimeGrid(step_minutes=1440.0 / steps_per_day, day_stride=day_stride)
    n_time = time_grid.n_samples
    cells = np.argwhere(grid.valid_mask)[: draw(st.integers(1, 12))]
    keep = np.array(draw(st.lists(st.booleans(), min_size=n_time, max_size=n_time)))
    compressed = draw(st.booleans())
    if not compressed:
        # A dense field keeps every step; its night rows are stored zeros.
        night = ~keep
        keep = np.ones(n_time, dtype=bool)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows = int(keep.sum())
    # Cells share columns, as grid cells on one DSM cell do; every column
    # is some cell's.
    n_columns = draw(st.integers(1, len(cells)))
    shared = draw(
        st.lists(
            st.integers(0, n_columns - 1),
            min_size=len(cells) - n_columns,
            max_size=len(cells) - n_columns,
        )
    )
    column_index = np.array(draw(st.permutations(list(range(n_columns)) + shared)))
    element = st.one_of(st.sampled_from(TIED_VALUES), samples(0.0, 1200.0))
    size = n_rows * n_columns
    irradiance = np.array(
        draw(st.lists(element, min_size=size, max_size=size)), dtype=dtype
    ).reshape(n_rows, n_columns)
    if not compressed:
        irradiance[night] = 0.0
    if size and draw(st.booleans()):
        irradiance.flat[draw(st.integers(0, size - 1))] = np.nan
    temperature = np.array(draw(st.lists(samples(-25.0, 45.0), min_size=n_time, max_size=n_time)))
    mask = np.zeros_like(grid.valid_mask)
    mask[cells[:, 0], cells[:, 1]] = True
    return RoofSolarField(
        grid=dataclasses.replace(grid, valid_mask=mask),
        time_grid=time_grid,
        cells=cells,
        irradiance=irradiance,
        column_index=column_index,
        temperature=temperature,
        sky_view=np.ones(n_columns),
        daylight=CompressedTimeGrid.from_mask(time_grid, keep),
    )


def assert_maps_equal(
    field: RoofSolarField, config: SuitabilityConfig, model: EmpiricalModuleModel | None = None
) -> None:
    model = model if model is not None else paper_module_model()
    actual = compute_suitability(field, config, model)
    expected = compute_suitability_reference(field, config, model)
    assert_bits_equal(actual.values, expected.values)
    assert_bits_equal(actual.irradiance_statistic, expected.irradiance_statistic)
    assert_bits_equal(actual.temperature_factor, expected.temperature_factor)


SUITABILITY_CONFIGS = (
    SuitabilityConfig(),
    SuitabilityConfig(use_temperature_correction=False),
    SuitabilityConfig(percentile=1e-9),
    SuitabilityConfig(percentile=100.0 - 1e-9),
    SuitabilityConfig(percentile=50.0),
    SuitabilityConfig(statistic="mean"),
)


class TestSuitabilityKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_fields_match_the_oracle(self, data, small_grid):
        field = data.draw(solar_fields(small_grid))
        for config in SUITABILITY_CONFIGS:
            assert_maps_equal(field, config)
        q = data.draw(percentile_q())
        assert_bits_equal(field.percentile_map(q), percentile_map_reference(field, q))

    def test_small_roof_matches_the_oracle(self, small_solar):
        for config in SUITABILITY_CONFIGS:
            assert_maps_equal(small_solar, config)
        for q in EDGE_PERCENTILES:
            assert_bits_equal(
                small_solar.percentile_map(q), percentile_map_reference(small_solar, q)
            )

    def test_quarter_hour_field_matches_the_oracle(self, quarter_hour_solar):
        # Several column blocks (the temperature buffer is reused by a
        # narrower last one), each copied in many row tiles; both thermal
        # parameter sets write their daylight temperatures in place.
        field = quarter_hour_solar
        assert field.n_columns > field._block_columns()
        assert field.n_daylight > 2 * _TRANSPOSE_TILE_ROWS
        hot = EmpiricalModuleModel(
            datasheet=PV_MF165EB3,
            thermal=CellTemperatureModel(absorptivity=0.9, heat_exchange_coefficient=10.0),
        )
        for model in (paper_module_model(), hot):
            assert_maps_equal(field, SuitabilityConfig(), model)

    def test_one_column_shared_by_every_cell_matches_the_oracle(self, small_solar):
        # The kernel reduces a one-column block, the oracle a block of many
        # cells: the statistics must not depend on the block width.  Random
        # float64 values make the mean's summation order show in its bits.
        rng = np.random.default_rng(7)
        field = dataclasses.replace(
            small_solar,
            irradiance=rng.uniform(0.0, 1000.0, (small_solar.n_daylight, 1)),
            column_index=np.zeros(small_solar.n_cells, dtype=int),
            sky_view=np.asarray(small_solar.sky_view)[1:2],
        )
        for config in SUITABILITY_CONFIGS:
            assert_maps_equal(field, config)

    def test_f_ordered_restriction_is_never_modified(self, small_solar, small_grid):
        # restricted_to gathers columns by fancy indexing, so its matrix is
        # F-ordered: the transposed block is then a view, and an in-place
        # partition of that view would reorder the field's own samples.
        mask = small_grid.valid_mask.copy()
        rows, cols = np.nonzero(mask)
        mask[rows[::3], cols[::3]] = False
        restricted = small_solar.restricted_to(
            dataclasses.replace(small_grid, valid_mask=mask)
        )
        assert restricted.irradiance.flags.f_contiguous
        before = restricted.irradiance.copy()
        assert_maps_equal(restricted, SuitabilityConfig())
        assert_bits_equal(
            restricted.percentile_map(75.0), percentile_map_reference(restricted, 75.0)
        )
        np.testing.assert_array_equal(restricted.irradiance, before)

    def test_read_only_storage_is_left_unchanged(self, small_solar):
        irradiance = small_solar.irradiance.copy()
        irradiance.setflags(write=False)
        field = dataclasses.replace(small_solar, irradiance=irradiance)
        before = irradiance.copy()
        assert_maps_equal(field, SuitabilityConfig())
        field.percentile_map(75.0)
        np.testing.assert_array_equal(field.irradiance, before)

    @pytest.mark.parametrize("config", SUITABILITY_CONFIGS, ids=repr)
    def test_negative_irradiance_raises_for_every_config(self, small_solar, config):
        irradiance = small_solar.irradiance.copy()
        irradiance[np.unravel_index(np.argmax(irradiance), irradiance.shape)] = -1.0
        field = dataclasses.replace(small_solar, irradiance=irradiance)
        with pytest.raises(PVModelError, match="non-negative"):
            compute_suitability(field, config)
        with pytest.raises(SolarModelError, match="non-negative"):
            field.percentile_map(75.0)


class TestSolarFieldColumns:
    @settings(max_examples=5, deadline=None)
    @given(drawn=coarse_specs(0), grid_pitch=st.sampled_from((0.2, 0.4)))
    def test_generated_roofs_match_the_dense_oracle(self, drawn, grid_pitch):
        spec = dataclasses.replace(drawn, grid_pitch=grid_pitch)
        scene = build_roof_scene(spec.roof, dsm_pitch=spec.dsm_pitch)
        grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=spec.grid_pitch))
        weather = spec.weather.build(spec.time.build())
        config = spec.solar.build()
        field = compute_roof_solar_field(scene, grid, weather, config)
        dense = compute_roof_solar_field_dense_reference(scene, grid, weather, config)

        # Cells on one DSM cell share a column, and each column is one DSM cell.
        dsm_rows, dsm_cols = grid.dsm_indices(scene.dsm)
        rows, cols = field.cells[:, 0], field.cells[:, 1]
        dsm_cell = dsm_rows[rows, cols] * scene.dsm.raster.shape[1] + dsm_cols[rows, cols]
        pairs = np.unique(np.stack([dsm_cell, field.column_index], axis=1), axis=0)
        assert len(pairs) == len(np.unique(dsm_cell)) == field.n_columns
        assert len(np.unique(field.column_index)) == field.n_columns
        if grid_pitch < spec.dsm_pitch:
            assert field.n_columns < field.n_cells

        np.testing.assert_array_equal(
            field.to_dense().view(np.uint32), dense.irradiance.view(np.uint32)
        )
        for suitability_config in SUITABILITY_CONFIGS:
            assert_maps_equal(field, suitability_config)
        assert_bits_equal(field.percentile_map(75.0), percentile_map_reference(dense, 75.0))


# -- rasterisation -------------------------------------------------------------------


def assert_masks_equal(polygon, origin, pitch, n_cols, n_rows) -> None:
    for mode in ("center", "touch"):
        actual = polygon.rasterize(origin, pitch, n_cols, n_rows, mode=mode)
        expected = rasterize_reference(polygon, origin, pitch, n_cols, n_rows, mode=mode)
        assert actual.dtype == bool
        np.testing.assert_array_equal(actual, expected)


class TestRasterizeKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        lattice=st.lists(
            st.tuples(st.integers(-6, 30), st.integers(-6, 24)), min_size=3, max_size=9
        ),
        pitch=st.sampled_from([0.25, 0.5, 1.0, 0.2, 0.4]),
        origin=st.tuples(
            st.sampled_from([0.0, -1.0, 0.3, 2.0]), st.sampled_from([0.0, -0.5, 1.7])
        ),
        n_cols=st.integers(1, 12),
        n_rows=st.integers(1, 10),
    )
    def test_lattice_rings_match_the_oracle(self, lattice, pitch, origin, n_cols, n_rows):
        # Vertices on the half-pitch lattice land exactly on cell centres and
        # corners, and consecutive lattice points give horizontal, vertical
        # and repeated edges; rings may be concave or self-intersecting, and
        # the raster may see only part of them, or none.
        ox, oy = origin
        vertices = [(ox + i * pitch / 2.0, oy + j * pitch / 2.0) for i, j in lattice]
        if len(set(vertices)) < 3:
            return
        assert_masks_equal(Polygon(vertices), Point2D(ox, oy), pitch, n_cols, n_rows)

    @settings(max_examples=200, deadline=None)
    @given(
        vertices=st.lists(
            st.tuples(
                st.floats(min_value=-3.0, max_value=9.0, allow_nan=False),
                st.floats(min_value=-3.0, max_value=7.0, allow_nan=False),
            ),
            min_size=3,
            max_size=8,
            unique=True,
        ),
        pitch=st.sampled_from([0.2, 0.4, 0.5]),
    )
    # A nearly horizontal edge can overflow the crossing abscissa to inf; the
    # scalar predicate's float division does the same, silently.
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_arbitrary_rings_match_the_oracle(self, vertices, pitch):
        assert_masks_equal(Polygon(vertices), Point2D(0.0, 0.0), pitch, 15, 12)

    @pytest.mark.parametrize(
        "vertices",
        [
            # L-shape and U-shape: concave rings with axis-aligned edges.
            [(0, 0), (4, 0), (4, 1), (1, 1), (1, 3), (0, 3)],
            [(0, 0), (5, 0), (5, 4), (4, 4), (4, 1), (1, 1), (1, 4), (0, 4)],
            # A concave arrow with slanted edges through cell corners.
            [(0, 0), (3, 1.5), (6, 0), (3, 4.5)],
            # Wholly outside the raster, on either side.
            [(-9, -9), (-8, -9), (-8, -8)],
            [(40, 40), (41, 40), (41, 41)],
        ],
    )
    @pytest.mark.parametrize("pitch", [0.5, 0.2])
    def test_named_rings_match_the_oracle(self, vertices, pitch):
        assert_masks_equal(Polygon(vertices), Point2D(0.0, 0.0), pitch, 14, 11)

    def test_scene_polygons_match_the_oracle(self, small_roof_spec, monkeypatch):
        # Replay every rasterisation a scene build and its suitable area make.
        from repro.gis import build_roof_scene, make_roof_grid, suitable_grid_for_scene

        calls = []
        original = Polygon.rasterize

        def record(self, *args, **kwargs):
            calls.append((self, args, kwargs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Polygon, "rasterize", record)
        scene = build_roof_scene(small_roof_spec, dsm_pitch=0.4)
        suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.2))
        monkeypatch.undo()
        assert calls
        for polygon, args, kwargs in calls:
            np.testing.assert_array_equal(
                polygon.rasterize(*args, **kwargs), rasterize_reference(polygon, *args, **kwargs)
            )
