"""Per-cell spatio-temporal irradiance on the roof virtual grid.

This is the integration point of the solar-data extraction flow (paper
Section IV): it combines

* the sun-position series (:mod:`repro.solar.position`),
* the weather trace (measured or synthetic GHI + temperature),
* the Erbs decomposition (GHI -> DNI/DHI, :mod:`repro.solar.decomposition`),
* the Hay-Davies transposition (POA irradiance, :mod:`repro.solar.transposition`),
* the DSM shading engine (:mod:`repro.solar.shading`)

into a :class:`RoofSolarField`: for every *valid* element of the roof's
virtual grid, the global irradiance time series G(i,j,t) incident on the
module plane, plus the ambient temperature series T(t).  These are exactly
the inputs the floorplanning algorithm of Section III consumes.

One column per DSM cell
-----------------------
A grid element's series depends only on the DSM cell it samples: the lit
mask and the sky view are read there, and the plane-of-array components are
shared by the whole facet.  The paper's 0.2 m grid over a 0.4 m DSM puts
about four elements on each DSM cell, so :attr:`RoofSolarField.irradiance`
holds one column per *distinct* DSM cell under the valid elements and
:attr:`RoofSolarField.column_index` maps every element to its column.  The
assembly and every reduction (suitability, aggregate maps) run once per
column and gather through the index.

Daylight compression
--------------------
At the paper's 15-minute annual resolution roughly half of the ~35,000 time
steps are night rows in which every cell's irradiance is exactly zero.  The
native representation of :class:`RoofSolarField` is therefore *daylight
compressed*: :attr:`RoofSolarField.irradiance` holds only the kept rows
(``(n_daylight, n_columns)`` in the storage dtype) and a
:class:`~repro.solar.time_series.CompressedTimeGrid` maps them back to the
full axis.  Expansion is exact -- the dropped rows are zero by construction
-- and every consumer that integrates, gathers or reduces over time runs on
half the rows.  The original dense assembly lives on as the oracle in
``tests/oracles/solar_field.py``, the ground truth of the equivalence tests
and the solar-field benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_ALBEDO
from ..errors import SolarModelError
from ..gis.gridding import RoofGrid
from ..gis.synthetic import RoofScene
from ..weather.records import WeatherSeries
from .decomposition import decompose_ghi
from .position import compute_solar_position
from .shading import HorizonMap, cells_window, compute_horizon_map
from .time_series import CompressedTimeGrid, TimeGrid
from .transposition import plane_of_array

#: Byte budget of one transient float64 block in the chunked consumers
#: (assembly, suitability, aggregate maps).  Small enough that even paper
#: resolution (~35k steps) keeps transients in the tens of megabytes.
_DENSE_BLOCK_BYTES = 16 * 1024 * 1024

#: Byte budget of each of the two reused float64 row tiles in which
#: :func:`compute_roof_solar_field` evaluates a column chunk of the field,
#: so the products stay in cache.  On a 2-CPU VM with 2 MB of L2 per core,
#: the 30 ``cold-roofs`` fields of seeds 0-5 assembled in 114 ms with 512 KB
#: tiles, 117 ms with 256 KB, 122 ms with 1 MB and 134 ms with 2 MB.
_ASSEMBLY_TILE_BYTES = 512 * 1024

#: Stored rows per tile of the transposing copy in
#: :meth:`RoofSolarField.iter_daylight_blocks`.
_TRANSPOSE_TILE_ROWS = 512

#: Storage dtype of :attr:`RoofSolarField.irradiance`.  float32 halves the
#: field's bytes; the consumers accumulate in float64.
STORE_DTYPE = np.dtype(np.float32)


@dataclass(frozen=True)
class SolarSimulationConfig:
    """Options of the roof irradiance simulation.

    The model chain is fixed: Erbs decomposition of GHI, then Hay-Davies
    transposition onto the roof plane.
    """

    albedo: float = DEFAULT_ALBEDO
    n_horizon_sectors: int = 36
    horizon_max_distance_m: float = 60.0


@dataclass
class RoofSolarField:
    """Spatio-temporal irradiance and temperature over a roof grid.

    Attributes
    ----------
    grid:
        The roof virtual grid the field is defined on.
    time_grid:
        Full-resolution temporal sampling.
    cells:
        Array ``(Ng, 2)`` of (row, col) indices of the valid grid elements.
    irradiance:
        Array ``(n_daylight, n_columns)``: plane-of-array global irradiance
        [W/m^2] per kept time step and column, one column per distinct DSM
        cell under the valid elements.
    column_index:
        Integer array ``(Ng,)``: the column of :attr:`irradiance` holding
        the series of each valid element, in :attr:`cells` order.  Elements
        on one DSM cell share a column.
    temperature:
        Array ``(n_time,)``: ambient temperature [degC], always on the full
        axis (night temperatures are real data, unlike night irradiance).
    sky_view:
        Array ``(n_columns,)``: sky-view factor of each column.
    daylight:
        The kept time steps, the axis :attr:`irradiance` rows live on.
        The rows it drops are exactly zero in the dense equivalent, so
        :meth:`to_dense` is an exact expansion; a field that keeps every
        step (the dense oracle's) keeps them all.  Its
        ``integrate_energy_wh`` applies the full grid's quadrature to the
        kept rows, so consumers integrate storage-aligned series directly.
    """

    grid: RoofGrid
    time_grid: TimeGrid
    cells: np.ndarray
    irradiance: np.ndarray
    column_index: np.ndarray
    temperature: np.ndarray
    sky_view: np.ndarray
    daylight: CompressedTimeGrid

    #: Large array fields the stage cache stores as raw ``.npy`` sidecars
    #: (memory-mapped zero-copy by batch workers; see repro.runner.cache).
    __cache_array_fields__ = ("irradiance",)

    def __post_init__(self) -> None:
        n_time = self.time_grid.n_samples
        n_cells = self.cells.shape[0]
        if self.daylight.n_full != n_time:
            raise SolarModelError(
                f"compressed axis covers {self.daylight.n_full} samples but the "
                f"time grid has {n_time}"
            )
        expected_rows = self.daylight.n_daylight
        if self.irradiance.ndim != 2 or self.irradiance.shape[0] != expected_rows:
            raise SolarModelError(
                f"irradiance shape {self.irradiance.shape} does not match "
                f"(n_daylight={expected_rows}, n_columns)"
            )
        n_columns = self.irradiance.shape[1]
        index = self.column_index
        if index.shape != (n_cells,) or (
            n_cells and (int(index.min()) < 0 or int(index.max()) >= n_columns)
        ):
            raise SolarModelError(
                f"column_index must map each of the {n_cells} cells to one of "
                f"the {n_columns} irradiance columns"
            )
        if self.temperature.shape != (n_time,):
            raise SolarModelError("temperature must have one value per time sample")
        lookup = np.full(self.grid.shape, -1, dtype=int)
        lookup[self.cells[:, 0], self.cells[:, 1]] = np.arange(n_cells)
        self._cell_lookup = lookup

    # -- sizes --------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Number of valid cells (the paper's Ng)."""
        return int(self.cells.shape[0])

    @property
    def n_columns(self) -> int:
        """Number of stored irradiance columns (distinct DSM cells)."""
        return int(self.irradiance.shape[1])

    @property
    def n_time(self) -> int:
        """Number of full-axis time samples."""
        return self.time_grid.n_samples

    @property
    def n_daylight(self) -> int:
        """Number of stored (compressed-axis) time samples."""
        return int(self.irradiance.shape[0])

    # -- axis routing --------------------------------------------------------------

    @property
    def axis_temperature(self) -> np.ndarray:
        """Ambient temperature [degC] aligned with the rows of :attr:`irradiance`."""
        return np.asarray(self.temperature, dtype=float)[self.daylight.indices]

    def to_dense(self) -> np.ndarray:
        """The exact dense ``(n_time, Ng)`` irradiance matrix (storage dtype).

        The dropped rows are zero by construction, so this reproduces the
        dense reference bit for bit.  It materialises the full matrix --
        prefer the block iterators for reductions.
        """
        out = np.zeros((self.n_time, self.n_cells), dtype=self.irradiance.dtype)
        out[self.daylight.indices, :] = self.irradiance[:, self.column_index]
        return out

    def _block_columns(self) -> int:
        """Columns per block such that one float64 full-axis block fits the budget."""
        return max(1, _DENSE_BLOCK_BYTES // (8 * max(self.n_time, 1)))

    def iter_dense_blocks(
        self, max_columns: Optional[int] = None
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Iterate dense float64 column blocks ``(column_slice, (n_time, c))``.

        The chunked equivalent of ``irradiance.astype(float)`` for full-axis
        reductions that need the night zeros in place (the mean statistic of
        the suitability ablation).  The slices index stored columns, not
        cells: a reduction runs once per column and gathers its per-cell
        values through :attr:`column_index`.  Each block is freshly
        allocated and safe to modify.
        """
        if max_columns is None:
            max_columns = self._block_columns()
        indices = self.daylight.indices
        for start in range(0, self.n_columns, max_columns):
            stop = min(start + max_columns, self.n_columns)
            block = np.zeros((self.n_time, stop - start), dtype=np.float64)
            block[indices, :] = self.irradiance[:, start:stop]
            yield slice(start, stop), block

    def iter_daylight_blocks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """Iterate column-major blocks ``(column_slice, (c, n_daylight))``.

        Each block is a fresh C-ordered copy of the stored rows of ``c``
        columns in the storage dtype, so a consumer may partition it in
        place: the stored matrix (an F-ordered restriction, a read-only
        memmap) is never touched.  The copy transposes
        :data:`_TRANSPOSE_TILE_ROWS` stored rows at a time, so both sides of
        each tile stay in cache; one strided transpose of the whole column
        slice costs several times more on a paper-resolution field.  A block
        holds as many columns as one of :meth:`iter_dense_blocks`, so its
        float64 full-axis expansion stays within the same byte budget.
        """
        width = self._block_columns()
        n_rows = self.n_daylight
        for start in range(0, self.n_columns, width):
            sl = slice(start, min(start + width, self.n_columns))
            block = np.empty((sl.stop - start, n_rows), dtype=self.irradiance.dtype)
            for row in range(0, n_rows, _TRANSPOSE_TILE_ROWS):
                tile = slice(row, row + _TRANSPOSE_TILE_ROWS)
                block[:, tile] = self.irradiance[tile, sl].T
            yield sl, block

    # -- accessors -----------------------------------------------------------------

    @property
    def cell_lookup(self) -> np.ndarray:
        """Full-grid map of valid-cell indices (-1 on invalid cells).

        ``lookup[row, col]`` is the position of grid element ``(row, col)``
        in :attr:`cells`, so ``column_index[lookup[row, col]]`` is its
        irradiance column.  Distinct elements have distinct cell indices
        even when they share a column, so placement checks (validity,
        overlaps) run on this map.
        """
        return self._cell_lookup

    def column_of(self, row: int, col: int) -> int:
        """Column index (into :attr:`irradiance`) of grid element (row, col).

        Raises
        ------
        SolarModelError
            If the element is not part of the valid set.
        """
        index = int(self._cell_lookup[row, col])
        if index < 0:
            raise SolarModelError(f"grid element ({row}, {col}) is not a valid cell")
        return int(self.column_index[index])

    def irradiance_for_cell(self, row: int, col: int) -> np.ndarray:
        """Full-axis irradiance time series [W/m^2] of one grid element."""
        column = np.asarray(self.irradiance[:, self.column_of(row, col)], dtype=float)
        return self.daylight.expand(column)

    def restricted_to(self, grid: RoofGrid) -> "RoofSolarField":
        """The field restricted to the valid cells of ``grid``.

        The compressed axis and the temperature series are shared with this
        field; the irradiance columns the cells valid in ``grid`` reference
        are *copied* (fancy indexing) into a new matrix, in this field's
        column order, so each restriction owns its (smaller) block.  Every
        valid cell of ``grid`` must be valid here too.
        """
        cells = np.asarray(grid.valid_cells(), dtype=int)
        indices = self._cell_lookup[cells[:, 0], cells[:, 1]]
        if np.any(indices < 0):
            row, col = cells[int(np.argmax(indices < 0))]
            raise SolarModelError(
                f"grid element ({row}, {col}) is not covered by the solar field"
            )
        kept, column_index = np.unique(self.column_index[indices], return_inverse=True)
        return RoofSolarField(
            grid=grid,
            time_grid=self.time_grid,
            cells=cells,
            irradiance=self.irradiance[:, kept],
            column_index=column_index,
            temperature=self.temperature,
            sky_view=np.asarray(self.sky_view)[kept],
            daylight=self.daylight,
        )

    # -- aggregate maps ---------------------------------------------------------------

    def percentile_map(self, q: float = 75.0) -> np.ndarray:
        """Per-cell q-th percentile of irradiance, as a full-grid map.

        Invalid cells are NaN.  This is the quantity Figure 6(b) of the
        paper visualises (brighter colours = larger 75th percentile).  The
        percentile is taken over the *full* axis -- the night zeros are part
        of the distribution -- but selected from the stored rows only (see
        :func:`select_percentile`), one column block at a time.
        """
        values = np.empty(self.n_columns)
        n_night = self.n_time - self.n_daylight
        for sl, block in self.iter_daylight_blocks():
            if np.any(block < 0):
                raise SolarModelError("irradiance must be non-negative")
            values[sl] = select_percentile(block, q, n_zeros=n_night)
        return self.scatter_columns(values)

    def annual_insolation_map_kwh(self) -> np.ndarray:
        """Per-cell yearly insolation [kWh/m^2] (NaN outside the valid area)."""
        totals = self.daylight.integrate_energy_wh(self.irradiance)
        return self.scatter_columns(np.asarray(totals) / 1e3)

    def scatter_columns(self, values: np.ndarray) -> np.ndarray:
        """Full-grid map of per-column ``values`` (NaN outside the valid area).

        Each valid element reads the value of its column.
        """
        grid_map = np.full(self.grid.shape, np.nan)
        grid_map[self.cells[:, 0], self.cells[:, 1]] = values[self.column_index]
        return grid_map


def select_percentile(block: np.ndarray, q: float, n_zeros: int = 0) -> np.ndarray:
    """Row-wise ``np.percentile(row, q)`` of a ``(c, m)`` block, as float64.

    Each row's sample is its ``m`` values plus ``n_zeros`` implicit zeros
    that sort below every value: the night rows of a daylight-compressed
    field, whose irradiance is non-negative.  So full-sample order statistic
    ``j`` is ``0.0`` for ``j < n_zeros`` and stored order statistic
    ``j - n_zeros`` otherwise.  numpy's ``linear`` method interpolates
    between order statistics ``lo`` and ``lo + 1``.  When ``lo`` is stored,
    one in-place single-``kth`` ``np.partition`` of ``block`` (the caller
    must own it) places it, and its successor is the row minimum of the
    part above; when only ``lo + 1`` is stored it is the row minimum of the
    whole block.  NaN sorts last, so every NaN of a row lies in that upper
    part, and one ``isnan`` scan of it flags the rows ``np.percentile``
    returns as NaN.  The float64 cast of the selected values is exact and
    monotone and the interpolation is numpy's ``_lerp``, so the result is
    bit-identical to ``np.percentile`` of the float64 full-sample rows.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n_rows = block.shape[0]
    last = block.shape[1] + n_zeros - 1
    virtual = last * (q / 100.0)
    if virtual >= last:
        # numpy clamps both neighbours to index -1 and takes gamma against it.
        lo = hi = last
        gamma = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        gamma = virtual - lo
    k = lo - n_zeros  # stored position of the lower order statistic
    if k >= 0:
        block.partition(k, axis=1)
        a = block[:, k].astype(np.float64)
    else:
        a = np.zeros(n_rows)
    if hi == lo:
        b = a
    elif hi < n_zeros:
        b = np.zeros(n_rows)
    else:
        b = block[:, k + 1 :].min(axis=1).astype(np.float64)
    diff = b - a
    result = b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma
    result[np.isnan(block[:, max(k, 0) :]).any(axis=1)] = np.nan
    return result


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _valid_cell_dsm_indices(
    scene: RoofScene, grid: RoofGrid
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's valid cells and the DSM row/column each one samples."""
    dsm_rows, dsm_cols = grid.dsm_indices(scene.dsm)
    cells = grid.valid_cells()
    return cells, dsm_rows[cells[:, 0], cells[:, 1]], dsm_cols[cells[:, 0], cells[:, 1]]


def roof_horizon_map(
    scene: RoofScene, grid: RoofGrid, config: SolarSimulationConfig
) -> HorizonMap:
    """The horizon map a roof's solar field needs.

    Computed for the bounding window of the DSM cells under the grid's valid
    elements (the whole tile when the grid has no valid cell), reading
    obstructions from the whole tile, so every cell is bit-identical to the
    whole-tile map.  :func:`compute_roof_solar_field` calls this when it is
    given no map, and the pipeline's ``horizon`` stage calls it too.
    """
    _, rows, cols = _valid_cell_dsm_indices(scene, grid)
    return compute_horizon_map(
        scene.dsm.raster,
        n_sectors=config.n_horizon_sectors,
        max_distance=config.horizon_max_distance_m,
        window=cells_window(rows, cols),
    )


def _poa_and_shading_inputs(
    scene: RoofScene,
    grid: RoofGrid,
    weather: WeatherSeries,
    cfg: SolarSimulationConfig,
    horizon_map: Optional[HorizonMap],
):
    """Shared front half of the solar assembly (positions, POA, horizon)."""
    time_grid = weather.time_grid

    position = compute_solar_position(
        weather.station.latitude_deg, time_grid.days_of_year, time_grid.hours
    )

    # 1. Direct/diffuse components.
    if weather.has_decomposition:
        dni = np.asarray(weather.dni, dtype=float)
        dhi = np.asarray(weather.dhi, dtype=float)
    else:
        decomposition = decompose_ghi(
            weather.ghi, position.extraterrestrial_normal, position.elevation_deg
        )
        dni = decomposition.dni
        dhi = decomposition.dhi

    # 2. Plane-of-array components on the roof plane (identical for all cells).
    poa = plane_of_array(
        dni,
        dhi,
        weather.ghi,
        position.extraterrestrial_normal,
        scene.spec.tilt_deg,
        scene.spec.azimuth_deg,
        position.elevation_deg,
        position.azimuth_deg,
        albedo=cfg.albedo,
    )

    # 3. Shading geometry: per-cell DSM indices + a horizon map covering them.
    cells, cell_dsm_rows, cell_dsm_cols = _valid_cell_dsm_indices(scene, grid)
    if horizon_map is None:
        horizon_map = roof_horizon_map(scene, grid, cfg)

    return time_grid, position, poa, horizon_map, cells, cell_dsm_rows, cell_dsm_cols


def compute_roof_solar_field(
    scene: RoofScene,
    grid: RoofGrid,
    weather: WeatherSeries,
    config: SolarSimulationConfig | None = None,
    horizon_map: Optional[HorizonMap] = None,
) -> RoofSolarField:
    """Run the full solar-data extraction flow for a roof.

    Parameters
    ----------
    scene:
        Roof scene providing the DSM (shading) and the roof frame.
    grid:
        Virtual grid restricted to the suitable area.
    weather:
        Weather trace (synthetic or measured).  If it does not carry DNI/DHI
        the Erbs decomposition is applied.
    config:
        Simulation options.
    horizon_map:
        Pre-computed horizon map of the scene DSM, covering at least the
        DSM cells of the grid's valid elements.  When omitted it is
        :func:`roof_horizon_map` (those cells' bounding window of the DSM,
        not the whole tile); obstructions still come from the whole tile, so
        the field is bit-identical either way.

    Notes
    -----
    The returned field is daylight compressed: only the time steps with a
    non-zero plane-of-array component are stored.  It holds one column per
    distinct DSM cell under the valid elements (in DSM row-major order), so
    the lit masks, sky views and products are computed once per DSM cell.
    The assembly is chunked over columns: the transient boolean shadow mask
    covers one column chunk at a time, never the full ``(n_time,
    n_columns)`` matrix.  The float64 products of a chunk are evaluated in
    row tiles of :data:`_ASSEMBLY_TILE_BYTES` into two reused buffers, in
    the reference's association order, and each tile is cast into the
    float32 field; a float64 temporary per term over a whole chunk (up to
    16 MB each) would fall out of cache and be mapped afresh per chunk.
    Expanded through its column
    index, the field is bit-identical to the dense per-cell oracle in
    ``tests/oracles/solar_field.py``, whose dropped rows are exactly zero.
    """
    cfg = config if config is not None else SolarSimulationConfig()
    (
        time_grid,
        position,
        poa,
        horizon_map,
        cells,
        cell_dsm_rows,
        cell_dsm_cols,
    ) = _poa_and_shading_inputs(scene, grid, weather, cfg, horizon_map)
    n_dsm_cols = scene.dsm.raster.shape[1]
    distinct, column_index = np.unique(
        cell_dsm_rows * n_dsm_cols + cell_dsm_cols, return_inverse=True
    )
    column_rows, column_cols = np.divmod(distinct, n_dsm_cols)
    sky_view = horizon_map.sky_view_for_cells(column_rows, column_cols)

    beam = np.asarray(poa.beam, dtype=float)
    sky_diffuse = np.asarray(poa.sky_diffuse, dtype=float)
    ground = np.asarray(poa.ground_reflected, dtype=float)

    # 4. Daylight compression: a dense row is all-zero exactly when every POA
    # component is zero (the per-cell shading/sky-view factors only scale
    # them).  Keeping any row with a non-zero component is always safe;
    # dropped rows expand back to exact zeros.
    keep = (beam != 0.0) | (sky_diffuse != 0.0) | (ground != 0.0)
    daylight = CompressedTimeGrid.from_mask(time_grid, keep)
    indices = daylight.indices

    elevation = position.elevation_deg[indices]
    azimuth = position.azimuth_deg[indices]
    beam_d = beam[indices]
    sky_d = sky_diffuse[indices]
    ground_d = ground[indices]

    # 5. Chunked per-column assembly on the compressed axis.  The boolean
    # shadow mask covers one column chunk at a time (the sector grouping of
    # the time axis is precomputed once and shared across chunks); the
    # float64 products cover one row tile of it, in two reused buffers.
    n_axis = int(indices.shape[0])
    n_columns = distinct.shape[0]
    irradiance = np.empty((n_axis, n_columns), dtype=STORE_DTYPE)
    chunk = max(1, _DENSE_BLOCK_BYTES // (8 * max(n_axis, 1)))
    sky_view_arr = np.asarray(sky_view, dtype=float)
    sector_groups = horizon_map.sector_time_groups(azimuth)
    for start in range(0, n_columns, chunk):
        sl = slice(start, min(start + chunk, n_columns))
        lit = horizon_map.lit_mask_for_cells(
            column_rows[sl], column_cols[sl], elevation, azimuth,
            sector_groups=sector_groups,
        )
        tile_rows = max(1, _ASSEMBLY_TILE_BYTES // (8 * (sl.stop - start)))
        total_buffer = np.empty((min(tile_rows, n_axis), sl.stop - start))
        sky_buffer = np.empty_like(total_buffer)
        for row in range(0, n_axis, tile_rows):
            rows = slice(row, min(row + tile_rows, n_axis))
            total = total_buffer[: rows.stop - row]
            sky_term = sky_buffer[: rows.stop - row]
            # Same association order as the dense reference, so the float32
            # cast rounds identically.
            np.multiply(beam_d[rows, None], lit[rows], out=total)
            np.multiply(sky_d[rows, None], sky_view_arr[None, sl], out=sky_term)
            total += sky_term
            total += ground_d[rows, None]
            irradiance[rows, sl] = total

    return RoofSolarField(
        grid=grid,
        time_grid=time_grid,
        cells=cells,
        irradiance=irradiance,
        column_index=column_index,
        temperature=np.asarray(weather.temperature, dtype=float),
        sky_view=sky_view_arr,
        daylight=daylight,
    )
