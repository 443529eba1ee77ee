"""DSM-based shading: horizon maps, shadow masks, sky-view factors.

The paper's GIS flow estimates "the evolution of shadows over the roof over
one year, with 15 minutes intervals" from a high-resolution Digital Surface
Model.  Re-computing a shadow map by ray casting at every one of the ~35,000
time steps would be prohibitively slow, so this module uses the classic
``r.sun`` / ``r.horizon`` strategy:

1. **Horizon map** -- for every DSM cell and for a discrete set of azimuth
   sectors, pre-compute the elevation angle of the local horizon (the
   highest obstruction seen from that cell in that direction).  This is a
   one-off O(cells x sectors x ray-length) computation.  The solar stage
   only needs the cells under the roof, so it computes the map for their
   bounding window of the DSM, reading obstructions from the whole tile.
   The kernel cuts the window into blocks and, per sector, gathers every
   radial step's obstruction heights for a block in one array, so its
   Python overhead is per block and sector, not per radial step.  A block
   skips the steps whose obstruction cells are nowhere higher than its own
   lowest cell: they cannot raise a horizon above zero.
2. **Shadow test** -- at any time step, a cell is in shadow exactly when the
   sun elevation is below the cell's horizon angle in the sun's azimuth
   sector.  This reduces per-time-step shading to an array lookup and a
   comparison.
3. **Sky-view factor** -- the fraction of the sky dome visible from each
   cell, derived from the same horizon map, is used to attenuate the diffuse
   irradiance of obstructed cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEG2RAD, RAD2DEG
from ..errors import GISError
from ..geometry import Raster


@dataclass(frozen=True)
class HorizonMap:
    """Per-cell horizon elevation angles over a set of azimuth sectors.

    The map covers either the whole DSM tile or a rectangular window of it
    (see :func:`compute_horizon_map`); the per-cell queries
    (:meth:`lit_mask_for_cells`, :meth:`sky_view_for_cells`) take DSM
    indices either way.

    Attributes
    ----------
    sector_azimuths_deg:
        Centre azimuth of each sector [deg, 0 = South, positive West],
        covering the full circle.
    horizon_deg:
        Array of shape ``(n_sectors, n_rows, n_cols)`` with the horizon
        elevation angle seen from each cell of the window in each sector.
    pitch:
        DSM cell size [m], kept for reporting purposes.
    origin:
        DSM ``(row, col)`` index of the window's first cell; ``(0, 0)`` for
        a whole-tile map.
    """

    sector_azimuths_deg: np.ndarray
    horizon_deg: np.ndarray
    pitch: float
    origin: tuple[int, int] = (0, 0)

    @property
    def n_sectors(self) -> int:
        """Number of azimuth sectors."""
        return int(self.sector_azimuths_deg.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(n_rows, n_cols)`` of the covered window of the DSM."""
        return (int(self.horizon_deg.shape[1]), int(self.horizon_deg.shape[2]))

    # -- queries ---------------------------------------------------------------

    def sector_index(self, azimuth_deg: np.ndarray) -> np.ndarray:
        """Index of the sector containing each azimuth (nearest centre)."""
        az = np.mod(np.asarray(azimuth_deg, dtype=float) + 180.0, 360.0) - 180.0
        sector_width = 360.0 / self.n_sectors
        idx = np.round((az - self.sector_azimuths_deg[0]) / sector_width).astype(int)
        return np.mod(idx, self.n_sectors)

    def sector_time_groups(
        self, sun_azimuth_deg: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Time-step indices grouped by azimuth sector.

        Precompute this once when calling :meth:`lit_mask_for_cells` for
        several cell chunks over the same sun-position series (the chunked
        solar assembly) -- the grouping scans the whole time axis, which
        would otherwise be repeated per chunk.
        """
        sectors = self.sector_index(np.asarray(sun_azimuth_deg, dtype=float))
        return [
            (int(sector), np.nonzero(sectors == sector)[0])
            for sector in np.unique(sectors)
        ]

    def lit_mask_for_cells(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        sun_elevation_deg: np.ndarray,
        sun_azimuth_deg: np.ndarray,
        sector_groups: "list[tuple[int, np.ndarray]] | None" = None,
    ) -> np.ndarray:
        """Boolean direct-beam visibility for a subset of cells over time.

        Parameters
        ----------
        rows, cols:
            Arrays of equal length selecting the cells of interest, as DSM
            indices inside the covered window.
        sun_elevation_deg, sun_azimuth_deg:
            Per-time-step sun position.
        sector_groups:
            Optional precomputed :meth:`sector_time_groups` of the azimuth
            series, for callers looping over cell chunks.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(n_time, n_cells)``, True where the
            cell sees the solar disc, False where it is shaded (or the sun
            is down).

        Notes
        -----
        This is the memory-lean fast path: instead of gathering a float64
        ``(n_time, n_cells)`` horizon matrix, the time steps are grouped by
        azimuth sector and each group is compared against that sector's
        horizon row, so the only full-size transient is the boolean result
        itself (8x smaller).
        """
        elevation = np.asarray(sun_elevation_deg, dtype=float)
        azimuth = np.asarray(sun_azimuth_deg, dtype=float)
        if elevation.shape != azimuth.shape:
            raise GISError("elevation and azimuth must have the same shape")

        if sector_groups is None:
            sector_groups = self.sector_time_groups(azimuth)
        horizon_cells = self._cells_horizon(rows, cols)  # (n_sectors, n_cells)
        lit = np.empty((elevation.shape[0], horizon_cells.shape[1]), dtype=bool)
        for sector, steps in sector_groups:
            lit[steps] = elevation[steps, None] > horizon_cells[sector][None, :]
        lit &= (elevation > 0.0)[:, None]
        return lit

    def sky_view_for_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sky-view factor of the cells at DSM indices ``(rows, cols)``.

        The isotropic ``mean_over_sectors(cos^2(horizon))``, equal bit for
        bit to that whole-window map at those cells, without evaluating the
        rest of the window.  The sectors are summed one after the other, the
        order ``np.mean`` takes along the sector axis of such a map; for a
        single cell, or a gathered column, it would switch to pairwise
        summation.
        """
        horizon_rad = np.clip(self._cells_horizon(rows, cols), 0.0, 90.0) * DEG2RAD
        cos_squared = np.cos(horizon_rad) ** 2
        total = cos_squared[0].copy()
        for sector in cos_squared[1:]:
            total += sector
        return total / self.n_sectors

    def _cells_horizon(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Horizon angles ``(n_sectors, n_cells)`` of cells given in DSM indices."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.shape != cols.shape:
            raise GISError("rows and cols must have the same shape")
        local_rows = rows - self.origin[0]
        local_cols = cols - self.origin[1]
        if rows.size and (
            local_rows.min() < 0
            or local_cols.min() < 0
            or local_rows.max() >= self.shape[0]
            or local_cols.max() >= self.shape[1]
        ):
            raise GISError(
                f"cells outside the horizon window at {self.origin} of shape {self.shape}"
            )
        return self.horizon_deg[:, local_rows, local_cols]


def cells_window(
    rows: np.ndarray, cols: np.ndarray
) -> "tuple[tuple[int, int], tuple[int, int]] | None":
    """Bounding window ``((row_start, row_stop), (col_start, col_stop))`` of DSM cells.

    The half-open ranges :func:`compute_horizon_map` takes as ``window``;
    ``None`` (the whole tile) when there are no cells.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.size == 0:
        return None
    return (
        (int(rows.min()), int(rows.max()) + 1),
        (int(cols.min()), int(cols.max()) + 1),
    )


#: Rows and columns of the window blocks whose ray steps are gathered at once.
#: One sector's steps over a block are a ``(steps, 16, 64)`` float64 array,
#: about 1.2 MB at the 150 steps of a 60 m ray on a 0.4 m DSM.  Smaller
#: blocks pay more per-call overhead; much larger ones fall out of cache.
_BLOCK_SHAPE = (16, 64)


def _sector_steps(
    azimuth_deg: float,
    distances: np.ndarray,
    pitch: float,
    shape: tuple[int, int],
    window: tuple[tuple[int, int], tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicated ``(d_row, d_col, distance)`` steps of one sector.

    Several consecutive radial distances round to the same integer cell
    offset; for a fixed offset the obstruction height difference ``dz`` is
    fixed and ``arctan2(dz, distance)`` is decreasing in ``distance`` when
    ``dz > 0`` (the only case that can contribute to the clamped-at-zero
    horizon), so keeping only the *smallest* marching distance per offset
    preserves the final horizon map exactly.  Each offset component is
    monotone in the distance, so equal offsets are consecutive along the ray
    and comparing each offset with the one before it finds every repeat.
    Steps whose obstruction lies outside the tile for every cell of the
    ``window`` are dropped, as is the zero offset.
    """
    az_rad = azimuth_deg * DEG2RAD
    # Unit vector pointing from the cell towards the obstruction
    # (x = east, y = north); azimuth 0 = South, positive towards West.
    ux = -np.sin(az_rad)
    uy = -np.cos(az_rad)
    # The same element-wise float operations as a per-distance scalar round,
    # so the offsets are identical.
    offsets = np.round(distances[:, None] * np.array([uy, ux]) / pitch).astype(int)
    keep = np.any(offsets != 0, axis=1)
    keep[1:] &= np.any(offsets[1:] != offsets[:-1], axis=1)
    keep &= _in_tile(offsets[:, 0], offsets[:, 1], shape, window)
    return offsets[keep, 0], offsets[keep, 1], distances[keep]


def _in_tile(
    d_row: np.ndarray,
    d_col: np.ndarray,
    shape: tuple[int, int],
    window: tuple[tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """Mask of the offsets whose obstruction is in the tile for some window cell."""
    n_rows, n_cols = shape
    (row_lo, row_hi), (col_lo, col_hi) = window
    return (
        (np.maximum(row_lo, -d_row) < np.minimum(row_hi, n_rows - d_row))
        & (np.maximum(col_lo, -d_col) < np.minimum(col_hi, n_cols - d_col))
    )


def _region_maxima(elevation: np.ndarray) -> np.ndarray:
    """Highest elevation of every :data:`_BLOCK_SHAPE` region of the tile.

    ``elevation`` is the tile with ``-inf`` NaN holes.  With ``(h, w)`` the
    block shape, entry ``[i + h - 1, j + w - 1]`` is the maximum over the
    tile cells of rows ``i <= r < i + h`` and columns ``j <= c < j + w``
    (``-inf`` where none is finite), for every region that overlaps the
    tile.  A running maximum along each axis over a ``-inf`` border of
    ``h - 1`` rows and ``w - 1`` columns builds it, each pass doubling the
    run it covers.
    """
    block_rows, block_cols = _BLOCK_SHAPE
    n_rows, n_cols = elevation.shape
    maxima = np.full((n_rows + 2 * block_rows - 2, n_cols + 2 * block_cols - 2), -np.inf)
    maxima[block_rows - 1 :, block_cols - 1 :][:n_rows, :n_cols] = elevation
    for size in _BLOCK_SHAPE:
        covered = 1
        while covered < size:
            shift = min(covered, size - covered)
            maxima = np.maximum(maxima[:-shift], maxima[shift:])
            covered += shift
        maxima = maxima.T
    return maxima


def _block_horizon(
    padded: np.ndarray,
    view: np.ndarray,
    base: np.ndarray,
    target: np.ndarray,
    steps: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    weights: np.ndarray,
    out: np.ndarray,
) -> None:
    """Horizon angles of one sector over one window block, written into ``out``.

    ``padded`` is the whole DSM with a ``-inf`` border and ``-inf`` NaN
    holes, so no obstruction outside the tile wins; ``view`` its sliding
    ``(h, w)`` view from the block on; ``base`` the flat ``padded`` index of
    each block cell; ``target`` the block's elevations, ``+inf`` (no
    obstruction) where the DSM is NaN.  ``steps`` holds each live step's
    ``view`` row and column, flat ``padded`` offset and distance;
    ``weights`` a row of step indices and a row of ones.

    The steps' obstruction heights are gathered in one ``(K, h, w)`` copy
    and turned into ratios ``dz / distance`` in place; one ``arctan2`` of
    each cell's winning ``(dz, distance)`` then equals the reference's
    running maximum of per-step angles bit for bit.  Exactly tied positive
    ratios (common on planar synthetic DSMs) can carry angles one ulp apart,
    and the reference keeps the larger, so tied cells compare the angles of
    every tied step.
    """
    view_rows, view_cols, offsets, distances = steps
    n_steps = distances.shape[0]
    ratio = view[view_rows, view_cols]
    np.subtract(ratio, target, out=ratio)
    np.divide(ratio, distances[:, None, None], out=ratio)
    best = np.max(ratio, axis=0)
    # One small matrix product gives, per cell, the number of steps reaching
    # the best ratio and the sum of their indices, which is the winner's
    # index where only one does (float32 is exact for these integers).  It
    # costs a fraction of an ``argmax`` along the step axis.
    is_best = (ratio == best).astype(np.float32).reshape(n_steps, -1)
    index_sum, count = (weights[:, :n_steps] @ is_best).reshape((2,) + target.shape)
    # A cell whose best ratio is not positive clamps to 0 whichever step it reads.
    winner = np.where(count == 1, index_sum, 0).astype(np.intp)
    elevation = padded.ravel()
    np.arctan2(elevation[base + offsets[winner]] - target, distances[winner], out=out)
    tied = (count > 1) & (best > 0.0)
    if tied.any():
        dz = elevation[base[tied] + offsets[:, None]] - target[tied]
        column = distances[:, None]
        angles = np.where(dz / column == best[tied], np.arctan2(dz, column), -np.inf)
        out[tied] = angles.max(axis=0)
    out *= RAD2DEG
    np.maximum(out, 0.0, out=out)


def compute_horizon_map(
    dsm: Raster,
    n_sectors: int = 36,
    max_distance: float = 60.0,
    min_step: float | None = None,
    window: "tuple[tuple[int, int], tuple[int, int]] | None" = None,
) -> HorizonMap:
    """Compute the horizon map of a DSM, or of a window of it.

    Parameters
    ----------
    dsm:
        Digital surface model (cell values are elevations in metres).
    n_sectors:
        Number of azimuth sectors; 36 gives a 10 degree resolution, which at
        15-minute time steps keeps the sector quantisation error below the
        solar disc motion between consecutive samples.
    max_distance:
        Maximum obstruction distance considered [m].  For rooftop-scale
        shading (chimneys, dormers, parapets, adjacent buildings within the
        DSM tile) a few tens of metres suffice.
    min_step:
        Radial marching step [m]; defaults to the DSM pitch.
    window:
        Half-open DSM index ranges ``((row_start, row_stop), (col_start,
        col_stop))`` of the cells whose horizon is computed (the roof's
        cells, see :func:`cells_window`); ``None`` computes the whole tile.
        Obstructions are still read from the whole tile, so every cell's
        horizon equals the whole-tile map's bit for bit.

    Raises
    ------
    GISError
        On fewer than 4 sectors, a non-positive ``max_distance``, or a
        window that is empty or reaches outside the tile.

    Notes
    -----
    For each sector the radial steps are first reduced to the distinct cell
    offsets that reach the tile (:func:`_sector_steps`), and the sectors'
    steps are concatenated into one list.  The window is then cut into
    blocks of at most ``16 x 64`` cells.  Each block keeps the steps that
    reach the tile from it and whose obstruction region is higher than the
    block's lowest cell (a height bound read from :func:`_region_maxima`),
    with one mask and one gather over every sector's steps.  Then per
    sector, all its kept steps are taken at once (:func:`_block_horizon`):
    one gather of the obstruction heights from the ``-inf``-padded DSM, the
    ratios ``dz / distance``, the winning step of each cell and one
    ``arctan2`` per cell.

    The bound is exact.  A skipped step has ``dz <= 0`` for every cell of
    the block, so it is neither a positive best nor a tied positive best;
    a cell whose best is not positive clamps to 0 whichever steps it saw,
    and a block and sector left with no step keeps its zeros.  The result
    is bit-for-bit identical to the matching cells of the per-step
    reference in ``tests/oracles/horizon.py``.

    The cost is a few whole-tile passes for the bound, a fixed few numpy
    calls per block and per block and sector with a kept step, plus work
    proportional to cells x kept steps.  Over the roof windows of the five
    ``cold-roofs`` seed-0 roofs the bound cuts the gathered step x cell
    elements from 22.2 M to 13.5 M.  Whole tiles, windows and
    :func:`~repro.solar.irradiance_map.roof_horizon_map` all run this one
    kernel.

    Blocks and sectors are marched one after another in the calling thread;
    parallelism lives in batch ``--jobs`` and worker fleets, which run whole
    points.
    """
    if n_sectors < 4:
        raise GISError("at least 4 azimuth sectors are required")
    if max_distance <= 0:
        raise GISError("max_distance must be positive")
    pitch = dsm.pitch
    step = pitch if min_step is None else max(float(min_step), 1e-6)
    n_rows, n_cols = dsm.shape
    elevation = dsm.data
    if window is None:
        window = ((0, n_rows), (0, n_cols))
    (row_lo, row_hi), (col_lo, col_hi) = window
    if not (0 <= row_lo < row_hi <= n_rows and 0 <= col_lo < col_hi <= n_cols):
        raise GISError(f"horizon window {window} is empty or outside the {n_rows}x{n_cols} DSM")

    sector_azimuths = -180.0 + (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
    horizon = np.zeros((n_sectors, row_hi - row_lo, col_hi - col_lo), dtype=float)

    n_steps = max(1, int(np.ceil(max_distance / step)))
    distances = (np.arange(1, n_steps + 1)) * step
    sector_steps = [
        _sector_steps(float(azimuth), distances, pitch, (n_rows, n_cols), window)
        for azimuth in sector_azimuths
    ]
    # Every sector's steps in one list; sector s owns entries
    # sector_starts[s] .. sector_starts[s + 1].
    d_row, d_col, step_distances = (
        np.concatenate([steps[part] for steps in sector_steps]) for part in range(3)
    )
    sector_starts = np.cumsum([0] + [steps[0].shape[0] for steps in sector_steps])
    # The border covers the largest offset any step reads, which is not
    # max_distance / pitch when min_step differs from the pitch.
    pad_rows = int(np.abs(d_row).max(initial=0))
    pad_cols = int(np.abs(d_col).max(initial=0))
    padded = np.full((n_rows + 2 * pad_rows, n_cols + 2 * pad_cols), -np.inf)
    padded[pad_rows : pad_rows + n_rows, pad_cols : pad_cols + n_cols] = elevation
    padded[np.isnan(padded)] = -np.inf
    target = np.where(np.isnan(elevation), np.inf, elevation)
    padded_cols = padded.shape[1]
    max_live = int(np.diff(sector_starts).max())
    weights = np.stack([np.arange(max_live), np.ones(max_live)]).astype(np.float32)
    # Per step: its view row and column and its flat offsets in ``padded``
    # and in the region maxima.
    step_reads = np.stack([d_row + pad_rows, d_col + pad_cols, d_row * padded_cols + d_col])
    maxima = _region_maxima(padded[pad_rows : pad_rows + n_rows, pad_cols : pad_cols + n_cols])
    maxima_cols = maxima.shape[1]
    maxima_offsets = d_row * maxima_cols + d_col
    maxima = maxima.ravel()

    block_rows, block_cols = _BLOCK_SHAPE
    for r0 in range(row_lo, row_hi, block_rows):
        r1 = min(r0 + block_rows, row_hi)
        for c0 in range(col_lo, col_hi, block_cols):
            c1 = min(c0 + block_cols, col_hi)
            block_target = target[r0:r1, c0:c1]
            live = np.flatnonzero(_in_tile(d_row, d_col, (n_rows, n_cols), ((r0, r1), (c0, c1))))
            # The region a step reads for this block starts at DSM cell
            # (r0 + d_row, c0 + d_col); its highest cell sits in ``maxima``
            # at that index plus the block shape minus one, which stays in
            # the array for every step reaching the tile.  (An edge block's
            # region is a full block, a looser but still safe bound.)  A step
            # whose region is nowhere higher than the block's lowest cell has
            # dz <= 0 for every cell, so it cannot win a positive horizon; a
            # cell whose best is not positive clamps to 0 anyway.
            corner = (r0 + block_rows - 1) * maxima_cols + c0 + block_cols - 1
            live = live[maxima[corner + maxima_offsets[live]] > block_target.min()]
            if not live.size:
                continue
            reads = step_reads[:, live]
            live_distances = step_distances[live]
            splits = np.searchsorted(live, sector_starts).tolist()
            view = np.lib.stride_tricks.sliding_window_view(padded, (r1 - r0, c1 - c0))[r0:, c0:]
            base = (
                np.arange(r0 + pad_rows, r1 + pad_rows)[:, None] * padded_cols
                + np.arange(c0 + pad_cols, c1 + pad_cols)
            )
            for s, (lo, hi) in enumerate(zip(splits[:-1], splits[1:])):
                if lo == hi:
                    continue
                _block_horizon(
                    padded,
                    view,
                    base,
                    block_target,
                    (reads[0, lo:hi], reads[1, lo:hi], reads[2, lo:hi], live_distances[lo:hi]),
                    weights,
                    horizon[s, r0 - row_lo : r1 - row_lo, c0 - col_lo : c1 - col_lo],
                )

    return HorizonMap(
        sector_azimuths_deg=sector_azimuths,
        horizon_deg=horizon,
        pitch=pitch,
        origin=(int(row_lo), int(col_lo)),
    )
