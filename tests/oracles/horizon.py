"""Per-step oracle of :func:`repro.solar.shading.compute_horizon_map`.

For every azimuth sector and every radial distance, shifts a whole copy of
the DSM and takes the running maximum of the ``arctan2`` elevation angle --
the ``r.horizon`` ray march written as directly as numpy allows.  Also the
whole-window sky-view map that :meth:`HorizonMap.sky_view_for_cells` must
reproduce per cell.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEG2RAD, RAD2DEG
from repro.errors import GISError
from repro.geometry import Raster
from repro.solar.shading import HorizonMap


def compute_horizon_map_reference(
    dsm: Raster,
    n_sectors: int = 36,
    max_distance: float = 60.0,
    min_step: float | None = None,
) -> HorizonMap:
    """Straightforward horizon-map computation, kept as the ground truth.

    This is the original per-(sector, distance) shifted-copy implementation;
    :func:`repro.solar.shading.compute_horizon_map` must reproduce its
    output bit for bit (the equivalence tests and the kernel benchmark both
    rely on it).
    """
    if n_sectors < 4:
        raise GISError("at least 4 azimuth sectors are required")
    if max_distance <= 0:
        raise GISError("max_distance must be positive")
    pitch = dsm.pitch
    step = pitch if min_step is None else max(float(min_step), 1e-6)
    n_rows, n_cols = dsm.shape
    elevation = dsm.data

    sector_azimuths = -180.0 + (np.arange(n_sectors) + 0.5) * (360.0 / n_sectors)
    horizon = np.zeros((n_sectors, n_rows, n_cols), dtype=float)

    n_steps = max(1, int(np.ceil(max_distance / step)))
    distances = (np.arange(1, n_steps + 1)) * step

    for s, azimuth in enumerate(sector_azimuths):
        az_rad = azimuth * DEG2RAD
        ux = -np.sin(az_rad)
        uy = -np.cos(az_rad)
        best = np.full((n_rows, n_cols), -90.0)
        for distance in distances:
            d_col = int(np.round(distance * ux / pitch))
            d_row = int(np.round(distance * uy / pitch))
            if d_col == 0 and d_row == 0:
                continue
            shifted = _shifted_elevation(elevation, d_row, d_col)
            with np.errstate(invalid="ignore"):
                angle = np.arctan2(shifted - elevation, distance) * RAD2DEG
            best = np.maximum(best, np.where(np.isnan(angle), -90.0, angle))
        horizon[s] = np.maximum(best, 0.0)

    return HorizonMap(
        sector_azimuths_deg=sector_azimuths, horizon_deg=horizon, pitch=pitch
    )


def _shifted_elevation(elevation: np.ndarray, d_row: int, d_col: int) -> np.ndarray:
    """Elevation array shifted so cell (r, c) reads the value at (r+d_row, c+d_col).

    Cells whose source falls outside the DSM read NaN (treated as "no
    obstruction" by the caller).
    """
    n_rows, n_cols = elevation.shape
    out = np.full_like(elevation, np.nan)

    src_row_lo = max(0, d_row)
    src_row_hi = min(n_rows, n_rows + d_row)
    src_col_lo = max(0, d_col)
    src_col_hi = min(n_cols, n_cols + d_col)
    if src_row_lo >= src_row_hi or src_col_lo >= src_col_hi:
        return out

    dst_row_lo = src_row_lo - d_row
    dst_row_hi = src_row_hi - d_row
    dst_col_lo = src_col_lo - d_col
    dst_col_hi = src_col_hi - d_col
    out[dst_row_lo:dst_row_hi, dst_col_lo:dst_col_hi] = elevation[
        src_row_lo:src_row_hi, src_col_lo:src_col_hi
    ]
    return out


def sky_view_factor_reference(horizon_map: HorizonMap) -> np.ndarray:
    """Sky-view factor of every cell of the window, the isotropic
    ``mean_over_sectors(cos^2(horizon))`` taken along the sector axis."""
    horizon_rad = np.clip(horizon_map.horizon_deg, 0.0, 90.0) * DEG2RAD
    return np.mean(np.cos(horizon_rad) ** 2, axis=0)
