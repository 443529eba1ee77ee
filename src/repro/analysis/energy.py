"""Energy accounting helpers.

Small utilities layered on top of the core evaluator: the monthly
break-down of a power series and the capacity factor -- quantities a PV
installer would quote alongside the paper's yearly MWh figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..solar.time_series import TimeGrid

#: First day of year of each month (non-leap year).
_MONTH_STARTS = np.array([1, 32, 60, 91, 121, 152, 182, 213, 244, 274, 305, 335, 366])

MONTH_NAMES = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


@dataclass(frozen=True)
class MonthlyEnergy:
    """Monthly energy break-down [Wh] of a power series."""

    monthly_wh: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.monthly_wh).shape != (12,):
            raise ReproError("monthly energy must contain 12 values")

    def as_dict(self) -> dict:
        """Mapping month name -> energy [Wh]."""
        return {name: float(value) for name, value in zip(MONTH_NAMES, self.monthly_wh)}


def month_of_day(day_of_year: np.ndarray) -> np.ndarray:
    """Month index (0..11) of each day of year."""
    day = np.asarray(day_of_year, dtype=float)
    return np.clip(np.searchsorted(_MONTH_STARTS, day, side="right") - 1, 0, 11)


def monthly_energy(time_grid: TimeGrid, power_w: np.ndarray) -> MonthlyEnergy:
    """Split the energy of a power series into calendar months.

    The day-stride scaling of the time grid is applied so subsampled
    simulations still produce full-month estimates.
    """
    power = np.asarray(power_w, dtype=float)
    if power.shape[0] != time_grid.n_samples:
        raise ReproError("power series length must match the time grid")
    months = month_of_day(time_grid.days_of_year)
    totals = np.zeros(12)
    for month in range(12):
        mask = months == month
        totals[month] = np.sum(power[mask]) * time_grid.step_hours * time_grid.annual_scale
    return MonthlyEnergy(monthly_wh=totals)


def capacity_factor(annual_energy_wh: float, nameplate_w: float) -> float:
    """Capacity factor over one year."""
    if nameplate_w <= 0:
        raise ReproError("nameplate power must be positive")
    return annual_energy_wh / (nameplate_w * 8760.0)
