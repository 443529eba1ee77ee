"""Suitability metric (paper Section III-C).

The greedy floorplanner ranks candidate grid elements by a *suitability*
value that distils the per-cell temporal irradiance/temperature traces into
one number.  The paper argues that the mean is a poor signature because the
distributions are strongly skewed towards small values, and uses instead the
75th percentile of the irradiance, corrected by a temperature factor that
tracks dPmax/dT:

    s_ij = p75(G_ij) * f(T_ij)

Because the ambient temperature is spatially uniform while the *module*
temperature ``Tact = T + k*G`` is not, the correction factor is evaluated on
the percentile of the cell's module temperature, which is how the metric
distinguishes otherwise equally irradiated cells.

The module also provides the alternative signatures (plain mean, percentile
without temperature correction) used by the ablation benchmark E10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEFAULT_SUITABILITY_PERCENTILE, STC_TEMPERATURE
from ..errors import PlacementError, PVModelError
from ..pv.module import EmpiricalModuleModel, paper_module_model
from ..solar.irradiance_map import RoofSolarField, select_percentile


@dataclass(frozen=True)
class SuitabilityConfig:
    """Options of the suitability computation."""

    percentile: float = DEFAULT_SUITABILITY_PERCENTILE
    use_temperature_correction: bool = True
    statistic: str = "percentile"  # "percentile" or "mean"

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 100.0:
            raise PlacementError("percentile must be in (0, 100)")
        if self.statistic not in ("percentile", "mean"):
            raise PlacementError(f"unknown suitability statistic: {self.statistic!r}")


@dataclass(frozen=True)
class SuitabilityMap:
    """Per-cell suitability values over the roof grid.

    Attributes
    ----------
    values:
        Full-grid array ``(n_rows, n_cols)``; NaN marks invalid cells.
    irradiance_statistic:
        The raw irradiance statistic (before temperature correction).
    temperature_factor:
        The per-cell correction factor f(T) actually applied.
    config:
        The configuration that produced the map.
    """

    values: np.ndarray
    irradiance_statistic: np.ndarray
    temperature_factor: np.ndarray
    config: SuitabilityConfig

    def value_at(self, row: int, col: int) -> float:
        """Suitability of one grid element (NaN for invalid elements)."""
        return float(self.values[row, col])

    def ranked_cells(self) -> np.ndarray:
        """Valid cells sorted by non-increasing suitability, shape ``(Ng, 2)``."""
        valid = ~np.isnan(self.values)
        rows, cols = np.nonzero(valid)
        order = np.argsort(-self.values[rows, cols], kind="stable")
        return np.stack([rows[order], cols[order]], axis=1)

    def normalised(self) -> np.ndarray:
        """Suitability rescaled to [0, 1] over the valid cells (NaN elsewhere)."""
        valid = ~np.isnan(self.values)
        values = self.values.copy()
        finite = values[valid]
        if finite.size == 0:
            return values
        lo, hi = float(finite.min()), float(finite.max())
        if hi - lo < 1e-12:
            values[valid] = 1.0
            return values
        values[valid] = (finite - lo) / (hi - lo)
        return values


def compute_suitability(
    solar: RoofSolarField,
    config: SuitabilityConfig | None = None,
    module_model: EmpiricalModuleModel | None = None,
) -> SuitabilityMap:
    """Compute the suitability map of a roof solar field.

    Parameters
    ----------
    solar:
        Per-cell irradiance and ambient temperature series.
    config:
        Metric options (percentile value, temperature correction, statistic).
    module_model:
        Module model providing the dPmax/dT slope for the temperature
        correction factor (the paper module by default).
    """
    cfg = config if config is not None else SuitabilityConfig()
    model = module_model if module_model is not None else paper_module_model()

    # The statistics are taken over the *full* time axis -- for a
    # daylight-compressed field the night zeros (and the real night ambient
    # temperatures) are part of the distribution the paper's percentile is
    # defined on.  Both are handled per block of cells, so no full
    # (n_time, Ng) copy is ever materialised.
    if cfg.statistic == "percentile":
        g_stat, t_stat = _percentile_statistics(
            solar, cfg.percentile, model if cfg.use_temperature_correction else None
        )
    else:
        g_stat, t_stat = _mean_statistics(solar, model if cfg.use_temperature_correction else None)

    if t_stat is not None:
        factor = 1.0 + model.datasheet.gamma_p_per_k * (t_stat - STC_TEMPERATURE)
        factor = np.maximum(factor, 0.0)
    else:
        factor = np.ones_like(g_stat)

    suitability_values = g_stat * factor

    full = np.full(solar.grid.shape, np.nan)
    stat_full = np.full(solar.grid.shape, np.nan)
    factor_full = np.full(solar.grid.shape, np.nan)
    full[solar.cells[:, 0], solar.cells[:, 1]] = suitability_values
    stat_full[solar.cells[:, 0], solar.cells[:, 1]] = g_stat
    factor_full[solar.cells[:, 0], solar.cells[:, 1]] = factor

    return SuitabilityMap(
        values=full,
        irradiance_statistic=stat_full,
        temperature_factor=factor_full,
        config=cfg,
    )


def _check_irradiance(block: np.ndarray) -> None:
    if np.any(block < 0):
        raise PVModelError("irradiance must be non-negative")


def _percentile_statistics(
    solar: RoofSolarField, q: float, model: EmpiricalModuleModel | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-cell q-th percentiles of irradiance and module temperature.

    Selected from the stored daylight rows of each cell block: the night
    irradiance rows are exact zeros, so :func:`select_percentile` takes them
    implicitly.  The night module temperature equals the night ambient
    temperature for every cell (no irradiance heats the module), so it is
    computed once and prepended to each block's daylight temperatures.  The
    temperatures are computed before the irradiance block is partitioned,
    which reorders its time samples.
    """
    g_stat = np.empty(solar.n_cells)
    t_stat = None if model is None else np.empty(solar.n_cells)
    n_night = solar.n_time - solar.n_daylight
    if model is not None:
        kept = np.arange(solar.n_time) if solar.daylight is None else solar.daylight.indices
        night_ambient = np.delete(np.asarray(solar.temperature, dtype=float), kept)
        night_temperature = model.cell_temperature(np.zeros(n_night), night_ambient)
        day_ambient = solar.axis_temperature
    for sl, block in solar.iter_daylight_blocks():
        _check_irradiance(block)
        if t_stat is not None:
            # Per-cell module temperature percentile; the f(T) factor follows
            # the dPmax/dT slope of the module model (Figure 3, middle plot).
            temperature = np.empty((block.shape[0], solar.n_time))
            temperature[:, :n_night] = night_temperature
            temperature[:, n_night:] = model.cell_temperature(block, day_ambient)
            t_stat[sl] = select_percentile(temperature, q)
        g_stat[sl] = select_percentile(block, q, n_zeros=n_night)
    return g_stat, t_stat


def _mean_statistics(
    solar: RoofSolarField, model: EmpiricalModuleModel | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-cell full-axis means of irradiance and module temperature (E10)."""
    ambient = np.asarray(solar.temperature, dtype=float)[:, None]
    g_stat = np.empty(solar.n_cells)
    t_stat = None if model is None else np.empty(solar.n_cells)
    for sl, block in solar.iter_dense_blocks():
        _check_irradiance(block)
        g_stat[sl] = np.mean(block, axis=0)
        if t_stat is not None:
            t_stat[sl] = np.mean(model.cell_temperature(block, ambient), axis=0)
    return g_stat, t_stat


def footprint_suitability(
    suitability: SuitabilityMap,
    anchor_row: int,
    anchor_col: int,
    cells_h: int,
    cells_w: int,
    aggregate: str = "mean",
) -> float:
    """Aggregate suitability of a module footprint anchored at (row, col).

    Returns NaN when any covered cell is invalid (NaN), so callers can use
    the result both as a score and as a feasibility indicator.
    """
    window = suitability.values[
        anchor_row : anchor_row + cells_h, anchor_col : anchor_col + cells_w
    ]
    if window.shape != (cells_h, cells_w) or np.any(np.isnan(window)):
        return float("nan")
    if aggregate == "mean":
        return float(np.mean(window))
    if aggregate == "min":
        return float(np.min(window))
    if aggregate == "anchor":
        return float(window[0, 0])
    raise PlacementError(f"unknown footprint aggregate: {aggregate!r}")
