"""Dense-block oracle of :func:`repro.core.suitability.compute_suitability`.

Expands every cell block to the dense float64 ``(n_time, c)`` matrix, night
zeros included, and reduces it with ``np.percentile`` / ``np.mean`` along
the time axis -- the paper's statistic written as directly as numpy allows.
"""

from __future__ import annotations

import numpy as np

from repro.constants import STC_TEMPERATURE
from repro.core.suitability import SuitabilityConfig, SuitabilityMap
from repro.pv.module import EmpiricalModuleModel, paper_module_model
from repro.solar.irradiance_map import RoofSolarField


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
    for sl, block in solar.iter_dense_blocks():
        if cfg.statistic == "percentile":
            g_stat[sl] = np.percentile(block, cfg.percentile, axis=0)
        else:
            g_stat[sl] = np.mean(block, axis=0)
        if t_stat is not None:
            cell_temperature = model.cell_temperature(block, ambient)
            if cfg.statistic == "percentile":
                t_stat[sl] = np.percentile(cell_temperature, cfg.percentile, axis=0)
            else:
                t_stat[sl] = np.mean(cell_temperature, axis=0)

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
    for sl, block in solar.iter_dense_blocks():
        values[sl] = np.percentile(block, q, axis=0)
    grid_map = np.full(solar.grid.shape, np.nan)
    grid_map[solar.cells[:, 0], solar.cells[:, 1]] = values
    return grid_map
