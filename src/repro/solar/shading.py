"""DSM-based shading: horizon maps, shadow masks, sky-view factors.

The paper's GIS flow estimates "the evolution of shadows over the roof over
one year, with 15 minutes intervals" from a high-resolution Digital Surface
Model.  Re-computing a shadow map by ray casting at every one of the ~35,000
time steps would be prohibitively slow, so this module uses the classic
``r.sun`` / ``r.horizon`` strategy:

1. **Horizon map** -- for every DSM cell and for a discrete set of azimuth
   sectors, pre-compute the elevation angle of the local horizon (the
   highest obstruction seen from that cell in that direction).  This is a
   one-off O(cells x sectors x ray-length) computation, fully vectorised
   over the cells.  The solar stage only needs the cells under the roof, so
   it computes the map for their bounding window of the DSM, reading
   obstructions from the whole tile.
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

    def horizon_at(self, azimuth_deg: float) -> np.ndarray:
        """Horizon angle map [deg] for one sun azimuth."""
        idx = int(self.sector_index(np.asarray([azimuth_deg]))[0])
        return self.horizon_deg[idx]

    def shadow_mask(self, sun_elevation_deg: float, sun_azimuth_deg: float) -> np.ndarray:
        """Boolean map: True where the cell is shaded for the given sun position."""
        if sun_elevation_deg <= 0.0:
            return np.ones(self.shape, dtype=bool)
        return self.horizon_at(sun_azimuth_deg) > sun_elevation_deg

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
        itself (8x smaller).  :meth:`lit_fraction_for_cells` wraps it for
        callers that still need the float 0/1 matrix.
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

    def lit_fraction_for_cells(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        sun_elevation_deg: np.ndarray,
        sun_azimuth_deg: np.ndarray,
    ) -> np.ndarray:
        """Direct-beam visibility (1.0 lit / 0.0 shaded) as float64.

        Float compatibility wrapper over :meth:`lit_mask_for_cells`; callers
        that only need the mask should use the boolean fast path directly
        (8x less transient memory).
        """
        return self.lit_mask_for_cells(
            rows, cols, sun_elevation_deg, sun_azimuth_deg
        ).astype(float)

    def sky_view_factor(self) -> np.ndarray:
        """Sky-view factor per cell of the window (visible sky dome, 0..1).

        Uses the standard isotropic approximation
        ``SVF = mean_over_sectors(cos^2(horizon))``.
        """
        horizon_rad = np.clip(self.horizon_deg, 0.0, 90.0) * DEG2RAD
        return np.mean(np.cos(horizon_rad) ** 2, axis=0)

    def sky_view_for_cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Sky-view factor of the cells at DSM indices ``(rows, cols)``.

        Equal, bit for bit, to :meth:`sky_view_factor` of a multi-cell map
        at those cells, without evaluating the rest of the window.  The
        sectors are summed one after the other, the order ``np.mean`` takes
        along the sector axis of such a map; for a single cell, or a gathered
        column, it would switch to pairwise summation.
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


def _sector_steps(
    azimuth_deg: float,
    distances: np.ndarray,
    pitch: float,
    shape: tuple[int, int],
    window: tuple[tuple[int, int], tuple[int, int]],
) -> list[tuple[float, tuple, tuple, tuple]]:
    """Deduplicated ``(distance, src, dst, scratch)`` steps of one sector.

    Several consecutive radial distances round to the same integer cell
    offset; for a fixed offset the obstruction height difference ``dz`` is
    fixed and ``arctan2(dz, distance)`` is decreasing in ``distance`` when
    ``dz > 0`` (the only case that can contribute to the clamped-at-zero
    horizon), so keeping only the *smallest* marching distance per offset
    preserves the final horizon map exactly.  ``src`` addresses the shifted
    obstruction region in the whole DSM ``shape``; ``dst`` the destination
    cells, relative to the window's origin; ``scratch`` the matching
    scratch-buffer region.  A step whose destination misses the window is
    dropped.  All slice arithmetic is hoisted out of the hot loop.
    """
    az_rad = azimuth_deg * DEG2RAD
    # Unit vector pointing from the cell towards the obstruction
    # (x = east, y = north); azimuth 0 = South, positive towards West.
    ux = -np.sin(az_rad)
    uy = -np.cos(az_rad)
    # The same element-wise float operations as a per-distance scalar round,
    # so the offsets are identical.
    offsets = np.round(distances[:, None] * np.array([uy, ux]) / pitch).astype(int)
    n_rows, n_cols = shape
    (win_row_lo, win_row_hi), (win_col_lo, win_col_hi) = window
    steps: list[tuple[float, tuple, tuple, tuple]] = []
    seen: set[tuple[int, int]] = set()
    for distance, (d_row, d_col) in zip(distances.tolist(), offsets.tolist()):
        if (d_col == 0 and d_row == 0) or (d_row, d_col) in seen:
            continue
        seen.add((d_row, d_col))
        # Destination cells of the window whose obstruction lies in the tile.
        dst_row_lo = max(win_row_lo, -d_row)
        dst_row_hi = min(win_row_hi, n_rows - d_row)
        dst_col_lo = max(win_col_lo, -d_col)
        dst_col_hi = min(win_col_hi, n_cols - d_col)
        if dst_row_lo >= dst_row_hi or dst_col_lo >= dst_col_hi:
            continue
        src = (
            slice(dst_row_lo + d_row, dst_row_hi + d_row),
            slice(dst_col_lo + d_col, dst_col_hi + d_col),
        )
        dst = (
            slice(dst_row_lo - win_row_lo, dst_row_hi - win_row_lo),
            slice(dst_col_lo - win_col_lo, dst_col_hi - win_col_lo),
        )
        scratch = (
            slice(0, dst_row_hi - dst_row_lo),
            slice(0, dst_col_hi - dst_col_lo),
        )
        steps.append((distance, src, dst, scratch))
    return steps


class _SectorScratch:
    """Preallocated buffers of the horizon kernel.

    One set of window-sized buffers is reused across every radial step of
    every sector, replacing the per-step ``np.full_like``
    allocation churn of the straightforward implementation.
    """

    def __init__(self, shape: tuple[int, int]):
        self.dz = np.empty(shape, dtype=float)
        self.ratio = np.empty(shape, dtype=float)
        self.mask = np.empty(shape, dtype=bool)
        self.tie_mask = np.empty(shape, dtype=bool)
        self.best_ratio = np.empty(shape, dtype=float)
        self.best_dz = np.empty(shape, dtype=float)
        self.best_distance = np.empty(shape, dtype=float)

    def reset(self) -> None:
        # The initial (dz=-1, distance=1) pair maps to a -45 deg angle, which
        # the final clamp turns into the same 0 deg the reference gives for
        # cells with no obstruction candidate at all.
        self.best_ratio.fill(-np.inf)
        self.best_dz.fill(-1.0)
        self.best_distance.fill(1.0)


def _sector_horizon(
    elevation: np.ndarray,
    target: np.ndarray,
    steps: list[tuple[float, tuple, tuple, tuple]],
    out: np.ndarray,
    scratch: _SectorScratch,
) -> None:
    """Horizon angles of one sector, written into ``out`` (a window-sized view).

    ``elevation`` is the whole DSM the obstructions are read from; ``target``
    is its view over the window whose cells receive a horizon.

    The running maximum is tracked in tangent space (``dz / distance``) --
    cheap elementwise arithmetic -- and the single expensive ``arctan2`` pass
    runs once at the end on the winning ``(dz, distance)`` pair of each cell,
    reproducing the reference per-step ``arctan2`` result bit for bit.
    Exactly tied positive ratios (proportional ``(dz, d)`` pairs, common on
    the perfectly planar regions of synthetic DSMs) can carry ``arctan2``
    values differing in the last ulp; the reference keeps the larger one, so
    the rare tied cells are resolved by comparing the actual angles.
    """
    scratch.reset()
    best_ratio = scratch.best_ratio
    best_dz = scratch.best_dz
    best_distance = scratch.best_distance
    for distance, src, dst, region in steps:
        dz = scratch.dz[region]
        ratio = scratch.ratio[region]
        mask = scratch.mask[region]
        tie = scratch.tie_mask[region]
        stored_ratio = best_ratio[dst]
        np.subtract(elevation[src], target[dst], out=dz)
        np.divide(dz, distance, out=ratio)
        # Tie candidates: exactly equal ratio AND an actual obstruction
        # (dz > 0; zero/negative angles are clamped away identically).
        np.equal(ratio, stored_ratio, out=tie)
        np.greater(dz, 0.0, out=mask)
        tie &= mask
        # NaN ratios (out-of-tile obstructions on a DSM with NaN holes)
        # compare False and are skipped, like the reference's NaN -> -90 path.
        np.greater(ratio, stored_ratio, out=mask)
        if mask.any():
            np.copyto(stored_ratio, ratio, where=mask)
            np.copyto(best_dz[dst], dz, where=mask)
            np.copyto(best_distance[dst], distance, where=mask)
        if tie.any():
            tie_rows, tie_cols = np.nonzero(tie)
            dst_rows = tie_rows + dst[0].start
            dst_cols = tie_cols + dst[1].start
            tied_dz = dz[tie_rows, tie_cols]
            candidate_angle = np.arctan2(tied_dz, distance)
            stored_angle = np.arctan2(
                best_dz[dst_rows, dst_cols],
                best_distance[dst_rows, dst_cols],
            )
            wins = candidate_angle > stored_angle
            if np.any(wins):
                best_dz[dst_rows[wins], dst_cols[wins]] = tied_dz[wins]
                best_distance[dst_rows[wins], dst_cols[wins]] = distance
    with np.errstate(invalid="ignore"):
        np.arctan2(best_dz, best_distance, out=out)
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
    The computation marches rays outwards from every cell of the window
    simultaneously: for a fixed azimuth sector and a fixed radial distance
    the candidate obstruction heights for *all* cells are read through a
    single shifted view of the DSM array, so the inner loop is pure numpy.
    Radial steps that round to the same cell offset are deduplicated, one
    set of preallocated scratch buffers serves every sector, and the
    per-step transcendental is avoided by maximising in tangent space (see
    :func:`_sector_horizon`); the result is bit-for-bit identical to the
    matching cells of the per-step reference in ``tests/oracles/horizon.py``.
    The cost scales with the window's cell count, which for a roof is a
    fraction of its tile.

    Sectors are marched one after another in the calling thread.  A radial
    step is about eight numpy calls on a window of a few thousand cells,
    too small to overlap under the GIL, so threads only added overhead;
    parallelism lives in batch ``--jobs`` and worker fleets, which run
    whole points.
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
    target = elevation[row_lo:row_hi, col_lo:col_hi]

    sector_azimuths = -180.0 + (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
    horizon = np.zeros((n_sectors,) + target.shape, dtype=float)

    n_steps = max(1, int(np.ceil(max_distance / step)))
    distances = (np.arange(1, n_steps + 1)) * step

    scratch = _SectorScratch(target.shape)
    for s, azimuth in enumerate(sector_azimuths):
        steps = _sector_steps(float(azimuth), distances, pitch, (n_rows, n_cols), window)
        _sector_horizon(elevation, target, steps, horizon[s], scratch)

    return HorizonMap(
        sector_azimuths_deg=sector_azimuths,
        horizon_deg=horizon,
        pitch=pitch,
        origin=(int(row_lo), int(col_lo)),
    )


def shadow_fraction_map(
    horizon_map: HorizonMap,
    sun_elevation_deg: np.ndarray,
    sun_azimuth_deg: np.ndarray,
) -> np.ndarray:
    """Fraction of the given time samples during which each cell of the map is shaded.

    Only samples with the sun above the horizon contribute to the fraction;
    if the sun never rises in the provided series the result is 1 everywhere.

    A cell is shaded at a sample exactly when the sun elevation falls below
    the cell's horizon angle in the sun's azimuth sector, so the per-sample
    loop reduces to one sorted-search per *sector*: sort the sun elevations
    that land in the sector and count, for every cell, how many of them lie
    strictly below the cell's horizon angle.
    """
    elevation = np.asarray(sun_elevation_deg, dtype=float)
    azimuth = np.asarray(sun_azimuth_deg, dtype=float)
    up = elevation > 0.0
    if not np.any(up):
        return np.ones(horizon_map.shape, dtype=float)
    up_elevation = elevation[up]
    sectors = horizon_map.sector_index(azimuth[up])
    shaded_count = np.zeros(horizon_map.shape, dtype=float)
    for sector in np.unique(sectors):
        sector_elevations = np.sort(up_elevation[sectors == sector])
        horizon = horizon_map.horizon_deg[sector]
        counts = np.searchsorted(sector_elevations, horizon.ravel(), side="left")
        shaded_count += counts.reshape(horizon_map.shape)
    return shaded_count / float(np.count_nonzero(up))
