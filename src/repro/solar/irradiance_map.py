"""Per-cell spatio-temporal irradiance on the roof virtual grid.

This is the integration point of the solar-data extraction flow (paper
Section IV): it combines

* the sun-position series (:mod:`repro.solar.position`),
* the weather trace (measured or synthetic GHI + temperature),
* the decomposition model (GHI -> DNI/DHI, :mod:`repro.solar.decomposition`),
* the transposition model (POA irradiance, :mod:`repro.solar.transposition`),
* the DSM shading engine (:mod:`repro.solar.shading`)

into a :class:`RoofSolarField`: for every *valid* element of the roof's
virtual grid, the global irradiance time series G(i,j,t) incident on the
module plane, plus the ambient temperature series T(t).  These are exactly
the inputs the floorplanning algorithm of Section III consumes.

Daylight compression
--------------------
At the paper's 15-minute annual resolution roughly half of the ~35,000 time
steps are night rows in which every cell's irradiance is exactly zero.  The
native representation of :class:`RoofSolarField` is therefore *daylight
compressed*: :attr:`RoofSolarField.irradiance` holds only the kept rows
(``(n_daylight, Ng)`` in the storage dtype) and a
:class:`~repro.solar.time_series.CompressedTimeGrid` maps them back to the
full axis.  Expansion is exact -- the dropped rows are zero by construction
-- and every consumer that integrates, gathers or reduces over time runs on
half the rows.  :func:`compute_roof_solar_field_dense_reference` keeps the
original dense assembly as the ground truth for the equivalence tests and
the solar-field benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from ..constants import DEFAULT_ALBEDO
from ..errors import SolarModelError
from ..gis.gridding import RoofGrid
from ..gis.synthetic import RoofScene
from ..weather.records import WeatherSeries
from .clearsky import clearsky_irradiance
from .decomposition import decompose_ghi
from .linke import LinkeTurbidityProfile
from .position import compute_solar_position
from .shading import HorizonMap, cells_window, compute_horizon_map
from .time_series import CompressedTimeGrid, TimeGrid
from .transposition import plane_of_array

#: Byte budget of one transient float64 block in the chunked consumers
#: (assembly, suitability, aggregate maps).  Small enough that even paper
#: resolution (~35k steps) keeps transients in the tens of megabytes.
_DENSE_BLOCK_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class SolarSimulationConfig:
    """Options of the roof irradiance simulation."""

    sky_model: str = "haydavies"
    decomposition_model: str = "erbs"
    albedo: float = DEFAULT_ALBEDO
    linke_turbidity: LinkeTurbidityProfile = field(
        default_factory=LinkeTurbidityProfile.turin_default
    )
    n_horizon_sectors: int = 36
    horizon_max_distance_m: float = 60.0
    store_dtype: str = "float32"


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
        Array ``(Ng, 2)`` of (row, col) indices of the valid grid elements,
        in the same order as the columns of :attr:`irradiance`.
    irradiance:
        Array ``(n_daylight, Ng)`` (daylight-compressed, the native form) or
        ``(n_time, Ng)`` (dense legacy form): plane-of-array global
        irradiance [W/m^2] per kept time step and valid cell.
    temperature:
        Array ``(n_time,)``: ambient temperature [degC], always on the full
        axis (night temperatures are real data, unlike night irradiance).
    sky_view:
        Array ``(Ng,)``: sky-view factor of each valid cell.
    daylight:
        The compressed time axis, or ``None`` for a dense field.  When set,
        the rows it drops are exactly zero in the dense equivalent, so
        :meth:`to_dense` is an exact expansion.
    """

    grid: RoofGrid
    time_grid: TimeGrid
    cells: np.ndarray
    irradiance: np.ndarray
    temperature: np.ndarray
    sky_view: np.ndarray
    daylight: Optional[CompressedTimeGrid] = None

    #: Large array fields the stage cache stores as raw ``.npy`` sidecars
    #: (memory-mapped zero-copy by batch workers; see repro.runner.cache).
    __cache_array_fields__ = ("irradiance",)

    def __post_init__(self) -> None:
        n_time = self.time_grid.n_samples
        n_cells = self.cells.shape[0]
        if self.daylight is not None and self.daylight.n_full != n_time:
            raise SolarModelError(
                f"compressed axis covers {self.daylight.n_full} samples but the "
                f"time grid has {n_time}"
            )
        expected_rows = n_time if self.daylight is None else self.daylight.n_daylight
        if self.irradiance.shape != (expected_rows, n_cells):
            raise SolarModelError(
                f"irradiance shape {self.irradiance.shape} does not match "
                f"(n_axis={expected_rows}, Ng={n_cells})"
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
    def n_time(self) -> int:
        """Number of full-axis time samples."""
        return self.time_grid.n_samples

    @property
    def n_daylight(self) -> int:
        """Number of stored (compressed-axis) time samples."""
        return int(self.irradiance.shape[0])

    @property
    def is_compressed(self) -> bool:
        """True when the field stores the daylight-compressed axis."""
        return self.daylight is not None

    # -- axis routing --------------------------------------------------------------

    @property
    def time_axis(self) -> "TimeGrid | CompressedTimeGrid":
        """The axis :attr:`irradiance` rows live on.

        Both :class:`TimeGrid` and :class:`CompressedTimeGrid` provide
        ``integrate_energy_wh`` with the same quadrature, so consumers can
        integrate storage-aligned series without caring about compression.
        """
        return self.time_grid if self.daylight is None else self.daylight

    @property
    def axis_temperature(self) -> np.ndarray:
        """Ambient temperature [degC] aligned with the rows of :attr:`irradiance`."""
        ambient = np.asarray(self.temperature, dtype=float)
        if self.daylight is None:
            return ambient
        return ambient[self.daylight.indices]

    def expand_axis(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Expand a storage-axis series (axis 0) back to the full time axis."""
        if self.daylight is None:
            return np.asarray(values)
        return self.daylight.expand(values, fill=fill)

    def to_dense(self) -> np.ndarray:
        """The exact dense ``(n_time, Ng)`` irradiance matrix (storage dtype).

        For a compressed field the dropped rows are zero by construction,
        so this reproduces the dense reference bit for bit.  It materialises
        the full matrix -- prefer the block iterators for reductions.
        """
        if self.daylight is None:
            return np.asarray(self.irradiance)
        out = np.zeros((self.n_time, self.n_cells), dtype=self.irradiance.dtype)
        out[self.daylight.indices, :] = self.irradiance
        return out

    def _block_columns(self) -> int:
        """Cells per block such that one float64 full-axis block fits the budget."""
        return max(1, _DENSE_BLOCK_BYTES // (8 * max(self.n_time, 1)))

    def iter_dense_blocks(
        self, max_columns: Optional[int] = None
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Iterate dense float64 column blocks ``(column_slice, (n_time, c))``.

        The chunked equivalent of ``irradiance.astype(float)`` for full-axis
        reductions that need the night zeros in place (the mean statistic of
        the suitability ablation).  Each block is freshly allocated and safe
        to modify.
        """
        if max_columns is None:
            max_columns = self._block_columns()
        indices = None if self.daylight is None else self.daylight.indices
        for start in range(0, self.n_cells, max_columns):
            stop = min(start + max_columns, self.n_cells)
            sl = slice(start, stop)
            if indices is None:
                # np.array (not asarray): a float64-stored field would
                # otherwise yield an aliasing view of the matrix.
                yield sl, np.array(self.irradiance[:, sl], dtype=np.float64)
            else:
                block = np.zeros((self.n_time, stop - start), dtype=np.float64)
                block[indices, :] = self.irradiance[:, sl]
                yield sl, block

    def iter_daylight_blocks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """Iterate cell-major blocks ``(column_slice, (c, n_daylight))``.

        Each block is a fresh C-ordered copy of the stored rows of ``c``
        cells in the storage dtype, so a consumer may partition it in place:
        the stored matrix (an F-ordered restriction, a read-only memmap) is
        never touched.  A block holds as many cells as one of
        :meth:`iter_dense_blocks`, so its float64 full-axis expansion stays
        within the same byte budget.
        """
        n_columns = self._block_columns()
        for start in range(0, self.n_cells, n_columns):
            sl = slice(start, min(start + n_columns, self.n_cells))
            yield sl, np.array(self.irradiance[:, sl].T, order="C")

    # -- accessors -----------------------------------------------------------------

    @property
    def cell_column_lookup(self) -> np.ndarray:
        """Full-grid map of irradiance column indices (-1 on invalid cells).

        ``lookup[row, col]`` is the column of :attr:`irradiance` holding the
        series of grid element ``(row, col)``; the evaluation fast path uses
        it to gather whole placements with one fancy-indexing operation.
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
        return index

    def irradiance_for_cell(self, row: int, col: int) -> np.ndarray:
        """Full-axis irradiance time series [W/m^2] of one grid element."""
        column = np.asarray(self.irradiance[:, self.column_of(row, col)], dtype=float)
        return self.expand_axis(column)

    def irradiance_for_cells(self, cells: np.ndarray) -> np.ndarray:
        """Full-axis irradiance of several grid elements, shape ``(n_time, k)``.

        Raises
        ------
        SolarModelError
            If any requested element is not part of the valid set.
        """
        cells_arr = np.asarray(cells, dtype=int).reshape(-1, 2)
        columns = self._cell_lookup[cells_arr[:, 0], cells_arr[:, 1]]
        invalid = columns < 0
        if np.any(invalid):
            row, col = cells_arr[int(np.argmax(invalid))]
            raise SolarModelError(f"grid element ({row}, {col}) is not a valid cell")
        return self.expand_axis(np.asarray(self.irradiance[:, columns], dtype=float))

    def restricted_to(self, grid: RoofGrid) -> "RoofSolarField":
        """The field restricted to the valid cells of ``grid``.

        The compressed axis and the temperature series are shared with this
        field; the irradiance columns of the cells valid in ``grid`` are
        *copied* (fancy indexing) into a new matrix, in
        ``grid.valid_cells()`` order, so each restriction owns its (smaller)
        block.  Every valid cell of ``grid`` must be valid here too.
        """
        cells = np.asarray(grid.valid_cells(), dtype=int)
        columns = self._cell_lookup[cells[:, 0], cells[:, 1]]
        if np.any(columns < 0):
            row, col = cells[int(np.argmax(columns < 0))]
            raise SolarModelError(
                f"grid element ({row}, {col}) is not covered by the solar field"
            )
        return RoofSolarField(
            grid=grid,
            time_grid=self.time_grid,
            cells=cells,
            irradiance=self.irradiance[:, columns],
            temperature=self.temperature,
            sky_view=np.asarray(self.sky_view)[columns],
            daylight=self.daylight,
        )

    # -- aggregate maps ---------------------------------------------------------------

    def percentile_map(self, q: float = 75.0) -> np.ndarray:
        """Per-cell q-th percentile of irradiance, as a full-grid map.

        Invalid cells are NaN.  This is the quantity Figure 6(b) of the
        paper visualises (brighter colours = larger 75th percentile).  The
        percentile is taken over the *full* axis -- the night zeros are part
        of the distribution -- but selected from the stored rows only (see
        :func:`select_percentile`), one cell block at a time.
        """
        values = np.empty(self.n_cells)
        n_night = self.n_time - self.n_daylight
        for sl, block in self.iter_daylight_blocks():
            if np.any(block < 0):
                raise SolarModelError("irradiance must be non-negative")
            values[sl] = select_percentile(block, q, n_zeros=n_night)
        return self._scatter(values)

    def mean_map(self) -> np.ndarray:
        """Per-cell mean irradiance map [W/m^2] (NaN outside the valid area).

        Accumulates in float64 directly on the stored rows (the dropped
        night rows contribute exactly zero to the sum), avoiding the
        full-matrix ``astype(float)`` copy of the straightforward form.
        """
        totals = np.sum(self.irradiance, axis=0, dtype=np.float64)
        return self._scatter(totals / float(max(self.n_time, 1)))

    def annual_insolation_map_kwh(self) -> np.ndarray:
        """Per-cell yearly insolation [kWh/m^2] (NaN outside the valid area)."""
        totals = self.time_axis.integrate_energy_wh(self.irradiance)
        return self._scatter(np.asarray(totals) / 1e3)

    def _scatter(self, values: np.ndarray) -> np.ndarray:
        grid_map = np.full(self.grid.shape, np.nan)
        grid_map[self.cells[:, 0], self.cells[:, 1]] = values
        return grid_map


def select_percentile(block: np.ndarray, q: float, n_zeros: int = 0) -> np.ndarray:
    """Row-wise ``np.percentile(row, q)`` of a ``(c, m)`` block, as float64.

    Each row's sample is its ``m`` values plus ``n_zeros`` implicit zeros
    that sort below every value: the night rows of a daylight-compressed
    field, whose irradiance is non-negative.  So full-sample order statistic
    ``j`` is ``0.0`` for ``j < n_zeros`` and stored order statistic
    ``j - n_zeros`` otherwise.  One in-place ``np.partition`` of ``block``
    (the caller must own it) places the two order statistics numpy's
    ``linear`` method interpolates between, plus the row maximum, which
    flags NaN rows as ``np.percentile`` does.  The float64 cast of the
    selected values is exact and monotone and the interpolation is numpy's
    ``_lerp``, so the result is bit-identical to ``np.percentile`` of the
    float64 full-sample rows.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n_rows, m = block.shape
    last = m + n_zeros - 1
    virtual = last * (q / 100.0)
    if virtual >= last:
        # numpy clamps both neighbours to index -1 and takes gamma against it.
        lo = hi = last
        gamma = virtual + 1.0
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        gamma = virtual - lo
    if m:
        kth = {j - n_zeros for j in (lo, hi) if j >= n_zeros} | {m - 1}
        block.partition(sorted(kth), axis=1)

    def order_statistic(j: int) -> np.ndarray:
        if j < n_zeros:
            return np.zeros(n_rows)
        return block[:, j - n_zeros].astype(np.float64)

    a, b = order_statistic(lo), order_statistic(hi)
    diff = b - a
    result = b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma
    if m:
        top = block[:, m - 1]
        nan_rows = np.isnan(top)
        result[nan_rows] = top[nan_rows]
    return result


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


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
        clearsky_ghi = None
        if cfg.decomposition_model == "engerer":
            turbidity = cfg.linke_turbidity.value_for_day(time_grid.days_of_year)
            clearsky_ghi = clearsky_irradiance(
                position.extraterrestrial_normal,
                position.elevation_deg,
                turbidity,
                altitude_m=weather.station.altitude_m,
            ).global_horizontal
        decomposition = decompose_ghi(
            weather.ghi,
            position.extraterrestrial_normal,
            position.elevation_deg,
            model=cfg.decomposition_model,
            clearsky_ghi=clearsky_ghi,
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
        sky_model=cfg.sky_model,
    )

    # 3. Shading geometry: per-cell DSM indices + a horizon map covering them
    # (only the valid cells' window of the DSM; the whole tile when the grid
    # has no valid cell).
    dsm_rows, dsm_cols = grid.dsm_indices(scene.dsm)
    cells = grid.valid_cells()
    cell_dsm_rows = dsm_rows[cells[:, 0], cells[:, 1]]
    cell_dsm_cols = dsm_cols[cells[:, 0], cells[:, 1]]
    if horizon_map is None:
        horizon_map = compute_horizon_map(
            scene.dsm.raster,
            n_sectors=cfg.n_horizon_sectors,
            max_distance=cfg.horizon_max_distance_m,
            window=cells_window(cell_dsm_rows, cell_dsm_cols),
        )
    sky_view = horizon_map.sky_view_for_cells(cell_dsm_rows, cell_dsm_cols)

    return time_grid, position, poa, horizon_map, cells, cell_dsm_rows, cell_dsm_cols, sky_view


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
        the configured decomposition model is applied.
    config:
        Simulation options.
    horizon_map:
        Pre-computed horizon map of the scene DSM, covering at least the
        DSM cells of the grid's valid elements.  When omitted it is
        computed for exactly those cells' bounding window of the DSM, not
        the whole tile; obstructions still come from the whole tile, so the
        field is bit-identical either way.

    Notes
    -----
    The returned field is daylight compressed: only the time steps with a
    non-zero plane-of-array component are stored, and the assembly is
    chunked over cells -- the transient boolean shadow mask and the float64
    products cover one column block at a time, never the full
    ``(n_time, Ng)`` matrix.  The values of the kept rows are bit-identical
    to :func:`compute_roof_solar_field_dense_reference`, whose dropped rows
    are exactly zero.
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
        sky_view,
    ) = _poa_and_shading_inputs(scene, grid, weather, cfg, horizon_map)

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

    # 5. Chunked per-cell assembly on the compressed axis.  The boolean
    # shadow mask and the float64 block cover one column chunk at a time;
    # the sector grouping of the time axis is precomputed once and shared
    # across chunks.
    dtype = np.dtype(cfg.store_dtype)
    n_axis = int(indices.shape[0])
    n_cells = cells.shape[0]
    irradiance = np.empty((n_axis, n_cells), dtype=dtype)
    chunk = max(1, _DENSE_BLOCK_BYTES // (8 * max(n_axis, 1)))
    sky_view_arr = np.asarray(sky_view, dtype=float)
    sector_groups = horizon_map.sector_time_groups(azimuth)
    for start in range(0, n_cells, chunk):
        sl = slice(start, min(start + chunk, n_cells))
        lit = horizon_map.lit_mask_for_cells(
            cell_dsm_rows[sl], cell_dsm_cols[sl], elevation, azimuth,
            sector_groups=sector_groups,
        )
        # Same association order as the dense reference, so the float32 cast
        # rounds identically.
        irradiance[:, sl] = (
            beam_d[:, None] * lit
            + sky_d[:, None] * sky_view_arr[None, sl]
            + ground_d[:, None]
        )

    return RoofSolarField(
        grid=grid,
        time_grid=time_grid,
        cells=cells,
        irradiance=irradiance,
        temperature=np.asarray(weather.temperature, dtype=float),
        sky_view=sky_view_arr,
        daylight=daylight,
    )


def compute_roof_solar_field_dense_reference(
    scene: RoofScene,
    grid: RoofGrid,
    weather: WeatherSeries,
    config: SolarSimulationConfig | None = None,
    horizon_map: Optional[HorizonMap] = None,
) -> RoofSolarField:
    """Original dense solar assembly, kept as the ground truth.

    Materialises the full float64 ``(n_time, Ng)`` shadow matrix and the
    dense broadcast products exactly like the seed implementation; the
    compressed :func:`compute_roof_solar_field` must expand to its
    ``irradiance`` bit for bit (the equivalence tests and the solar-field
    benchmark rely on this).
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
        sky_view,
    ) = _poa_and_shading_inputs(scene, grid, weather, cfg, horizon_map)

    lit = horizon_map.lit_fraction_for_cells(
        cell_dsm_rows, cell_dsm_cols, position.elevation_deg, position.azimuth_deg
    )

    dtype = np.dtype(cfg.store_dtype)
    irradiance = (
        poa.beam[:, None] * lit
        + poa.sky_diffuse[:, None] * sky_view[None, :]
        + poa.ground_reflected[:, None]
    ).astype(dtype)

    return RoofSolarField(
        grid=grid,
        time_grid=time_grid,
        cells=cells,
        irradiance=irradiance,
        temperature=np.asarray(weather.temperature, dtype=float),
        sky_view=np.asarray(sky_view, dtype=float),
    )
