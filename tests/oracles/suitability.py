"""Dense-block oracle of :func:`repro.core.suitability.compute_suitability`.

Expands every block of grid cells to the dense float64 ``(n_time, c)``
matrix, night zeros included, and reduces it with ``np.percentile`` or a
time-ordered mean along the time axis -- the paper's statistic written as
directly as numpy allows.  It reads one series per grid cell through
:func:`oracles.solar_field.irradiance_for_cells`, so cells that share a stored
column are reduced separately.
"""

from __future__ import annotations

import numpy as np

from repro.constants import STC_TEMPERATURE
from repro.core.suitability import SuitabilityConfig, SuitabilityMap
from repro.pv.module import EmpiricalModuleModel, paper_module_model
from repro.solar.irradiance_map import RoofSolarField

from .solar_field import irradiance_for_cells

#: Grid cells per dense block.
_BLOCK_CELLS = 256


def _cell_blocks(solar: RoofSolarField):
    """``(cell_slice, (n_time, c))`` float64 blocks, one column per grid cell."""
    for start in range(0, solar.n_cells, _BLOCK_CELLS):
        sl = slice(start, min(start + _BLOCK_CELLS, solar.n_cells))
        yield sl, irradiance_for_cells(solar, solar.cells[sl])


def _mean(block: np.ndarray) -> np.ndarray:
    # The running sum's last row: the time-ordered total for any block width
    # (``np.mean`` switches to pairwise summation for a one-column block).
    return np.cumsum(block, axis=0)[-1] / block.shape[0]


def compute_suitability_reference(
    solar: RoofSolarField,
    config: SuitabilityConfig | None = None,
    module_model: EmpiricalModuleModel | None = None,
) -> SuitabilityMap:
    """The suitability map computed on dense float64 column blocks."""
    cfg = config if config is not None else SuitabilityConfig()
    model = module_model if module_model is not None else paper_module_model()

    ambient = np.asarray(solar.temperature, dtype=float)[:, None]
    g_stat = np.empty(solar.n_cells)
    t_stat = np.empty(solar.n_cells) if cfg.use_temperature_correction else None
    for sl, block in _cell_blocks(solar):
        if cfg.statistic == "percentile":
            g_stat[sl] = np.percentile(block, cfg.percentile, axis=0)
        else:
            g_stat[sl] = _mean(block)
        if t_stat is not None:
            cell_temperature = model.cell_temperature(block, ambient)
            if cfg.statistic == "percentile":
                t_stat[sl] = np.percentile(cell_temperature, cfg.percentile, axis=0)
            else:
                t_stat[sl] = _mean(cell_temperature)

    if t_stat is not None:
        factor = 1.0 + model.datasheet.gamma_p_per_k * (t_stat - STC_TEMPERATURE)
        factor = np.maximum(factor, 0.0)
    else:
        factor = np.ones_like(g_stat)

    full = np.full(solar.grid.shape, np.nan)
    stat_full = np.full(solar.grid.shape, np.nan)
    factor_full = np.full(solar.grid.shape, np.nan)
    rows, cols = solar.cells[:, 0], solar.cells[:, 1]
    full[rows, cols] = g_stat * factor
    stat_full[rows, cols] = g_stat
    factor_full[rows, cols] = factor
    return SuitabilityMap(
        values=full,
        irradiance_statistic=stat_full,
        temperature_factor=factor_full,
        config=cfg,
    )


def percentile_map_reference(solar: RoofSolarField, q: float) -> np.ndarray:
    """``RoofSolarField.percentile_map`` on dense float64 column blocks."""
    values = np.empty(solar.n_cells)
    for sl, block in _cell_blocks(solar):
        values[sl] = np.percentile(block, q, axis=0)
    grid_map = np.full(solar.grid.shape, np.nan)
    grid_map[solar.cells[:, 0], solar.cells[:, 1]] = values
    return grid_map
