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
from .problem import FloorplanProblem


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

    # The statistics are taken over the *full* time axis: the night zeros
    # the field does not store, and the real night ambient temperatures,
    # are part of the distribution the paper's percentile is defined on.
    # Both are handled per block of columns, so no full (n_time, Ng) copy
    # is ever materialised.
    #
    # A column is a distinct DSM cell; the per-column values are gathered
    # to the grid cells through the field's column index.
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

    return SuitabilityMap(
        values=solar.scatter_columns(g_stat * factor),
        irradiance_statistic=solar.scatter_columns(g_stat),
        temperature_factor=solar.scatter_columns(factor),
        config=cfg,
    )


def problem_suitability(problem: FloorplanProblem) -> SuitabilityMap:
    """The map a placer ranks by when it is handed none: the problem's
    percentile, corrected with its module model."""
    return compute_suitability(
        problem.solar,
        SuitabilityConfig(percentile=problem.suitability_percentile),
        problem.module_model,
    )


def _check_irradiance(block: np.ndarray) -> None:
    if np.any(block < 0):
        raise PVModelError("irradiance must be non-negative")


def _percentile_statistics(
    solar: RoofSolarField, q: float, model: EmpiricalModuleModel | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-column q-th percentiles of irradiance and module temperature.

    Selected from the stored daylight rows of each column block: the night
    irradiance rows are exact zeros, so :func:`select_percentile` takes them
    implicitly.  The night module temperature equals the night ambient
    temperature for every column (no irradiance heats the module), so it is
    computed once and copied into the front of one reused ``(c, n_time)``
    buffer per block; the module's thermal model writes the daylight
    temperatures behind it in place.  The temperatures are computed before
    the irradiance block is partitioned, which reorders its time samples.
    """
    g_stat = np.empty(solar.n_columns)
    t_stat = None if model is None else np.empty(solar.n_columns)
    n_night = solar.n_time - solar.n_daylight
    temperature = None
    if model is not None:
        night_ambient = np.delete(
            np.asarray(solar.temperature, dtype=float), solar.daylight.indices
        )
        night_temperature = model.cell_temperature(np.zeros(n_night), night_ambient)
        day_ambient = solar.axis_temperature
    for sl, block in solar.iter_daylight_blocks():
        _check_irradiance(block)
        if t_stat is not None:
            # Per-column module temperature percentile; the f(T) factor
            # follows the dPmax/dT slope of the module model (Figure 3,
            # middle plot).  The selection reorders the buffer, so the night
            # part is rewritten for every block.
            if temperature is None:
                temperature = np.empty((block.shape[0], solar.n_time))
            rows = temperature[: block.shape[0]]
            rows[:, :n_night] = night_temperature
            model.thermal.write_cell_temperature(rows[:, n_night:], day_ambient, block)
            t_stat[sl] = select_percentile(rows, q)
        g_stat[sl] = select_percentile(block, q, n_zeros=n_night)
    return g_stat, t_stat


def _sequential_mean(block: np.ndarray) -> np.ndarray:
    """Column means of a ``(n, c)`` block, each summed in time order.

    ``np.mean(block, axis=0)`` sums a C-ordered block row after row when
    ``c > 1`` but pairwise when ``c == 1``, so its last bits would depend on
    how many columns share the block.  The last row of the running sum is
    the row-after-row total for every ``c``.
    """
    return np.cumsum(block, axis=0)[-1] / block.shape[0]


def _mean_statistics(
    solar: RoofSolarField, model: EmpiricalModuleModel | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-column full-axis means of irradiance and module temperature (E10)."""
    ambient = np.asarray(solar.temperature, dtype=float)[:, None]
    g_stat = np.empty(solar.n_columns)
    t_stat = None if model is None else np.empty(solar.n_columns)
    for sl, block in solar.iter_dense_blocks():
        _check_irradiance(block)
        g_stat[sl] = _sequential_mean(block)
        if t_stat is not None:
            t_stat[sl] = _sequential_mean(model.cell_temperature(block, ambient))
    return g_stat, t_stat
