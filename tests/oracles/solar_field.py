"""Dense oracle of :func:`repro.solar.irradiance_map.compute_roof_solar_field`.

Builds the full float64 ``(n_time, Ng)`` shadow matrix and broadcasts the
plane-of-array components over it, night rows included -- the solar-field
assembly written as directly as numpy allows.  Its field keeps every time
step (an all-True daylight mask) and one column per valid cell (an identity
column index), so the matrix stays dense and per cell.  It shares the front
half (sun positions, plane-of-array components, horizon) with the kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SolarModelError
from repro.gis.gridding import RoofGrid
from repro.gis.synthetic import RoofScene
from repro.solar.irradiance_map import (
    STORE_DTYPE,
    RoofSolarField,
    SolarSimulationConfig,
    _poa_and_shading_inputs,
)
from repro.solar.shading import HorizonMap
from repro.solar.time_series import CompressedTimeGrid
from repro.weather.records import WeatherSeries


def irradiance_for_cells(solar: RoofSolarField, cells: np.ndarray) -> np.ndarray:
    """Full-axis float64 irradiance of grid elements ``cells`` (``(k, 2)``),
    shape ``(n_time, k)``: one series per element, shared columns repeated.

    Raises :class:`SolarModelError` if any element is not a valid cell.
    """
    cells_arr = np.asarray(cells, dtype=int).reshape(-1, 2)
    indices = solar.cell_lookup[cells_arr[:, 0], cells_arr[:, 1]]
    invalid = indices < 0
    if np.any(invalid):
        row, col = cells_arr[int(np.argmax(invalid))]
        raise SolarModelError(f"grid element ({row}, {col}) is not a valid cell")
    columns = solar.column_index[indices]
    return solar.daylight.expand(np.asarray(solar.irradiance[:, columns], dtype=float))


def lit_fraction_for_cells(
    horizon_map: HorizonMap,
    rows: np.ndarray,
    cols: np.ndarray,
    sun_elevation_deg: np.ndarray,
    sun_azimuth_deg: np.ndarray,
) -> np.ndarray:
    """Direct-beam visibility (1.0 lit / 0.0 shaded) as a float64
    ``(n_time, n_cells)`` matrix: :meth:`HorizonMap.lit_mask_for_cells` cast."""
    return horizon_map.lit_mask_for_cells(
        rows, cols, sun_elevation_deg, sun_azimuth_deg
    ).astype(float)


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
    compressed :func:`repro.solar.irradiance_map.compute_roof_solar_field`
    must expand to its ``irradiance`` bit for bit (the equivalence tests and
    the solar-field benchmark rely on this).
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
    sky_view = horizon_map.sky_view_for_cells(cell_dsm_rows, cell_dsm_cols)

    lit = lit_fraction_for_cells(
        horizon_map, cell_dsm_rows, cell_dsm_cols, position.elevation_deg, position.azimuth_deg
    )

    irradiance = (
        poa.beam[:, None] * lit
        + poa.sky_diffuse[:, None] * sky_view[None, :]
        + poa.ground_reflected[:, None]
    ).astype(STORE_DTYPE)

    return RoofSolarField(
        grid=grid,
        time_grid=time_grid,
        cells=cells,
        irradiance=irradiance,
        # One column per cell: the kernel's shared columns are a storage
        # detail the oracle does not reproduce.
        column_index=np.arange(cells.shape[0]),
        temperature=np.asarray(weather.temperature, dtype=float),
        sky_view=np.asarray(sky_view, dtype=float),
        # Every step is kept: the night rows stay in the matrix as zeros.
        daylight=CompressedTimeGrid.from_mask(time_grid, np.ones(time_grid.n_samples, bool)),
    )
