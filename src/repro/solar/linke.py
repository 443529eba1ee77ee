"""Linke turbidity handling.

The Linke turbidity factor TL summarises the attenuation of the clear-sky
beam radiation due to water vapour and aerosols (air pollution), and is the
parameter the paper cites (via PVGIS [11]) to account for atmospheric
attenuation.  Monthly climatological values are commonly used; this module
provides a monthly profile type with smooth interpolation over the day of
year, plus a default profile representative of a mid-latitude urban site
such as Turin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DAYS_PER_YEAR, TURIN_LINKE_TURBIDITY
from ..errors import SolarModelError

#: Mid-month day-of-year anchors used for interpolation.
_MONTH_MID_DOY = np.array(
    [15.5, 45.0, 74.5, 105.0, 135.5, 166.0, 196.5, 227.5, 258.0, 288.5, 319.0, 349.5]
)


@dataclass(frozen=True)
class LinkeTurbidityProfile:
    """Monthly Linke turbidity climatology with periodic interpolation."""

    monthly_values: tuple

    def __post_init__(self) -> None:
        if len(self.monthly_values) != 12:
            raise SolarModelError("a Linke turbidity profile needs exactly 12 monthly values")
        if any(v <= 0 for v in self.monthly_values):
            raise SolarModelError("Linke turbidity values must be positive")

    @classmethod
    def turin_default(cls) -> "LinkeTurbidityProfile":
        """Representative monthly climatology for the Po valley (hazier summers)."""
        return cls(TURIN_LINKE_TURBIDITY)

    def value_for_day(self, day_of_year: np.ndarray) -> np.ndarray:
        """Interpolated turbidity for each day of year (periodic)."""
        day = np.asarray(day_of_year, dtype=float)
        values = np.asarray(self.monthly_values, dtype=float)
        # Periodic linear interpolation: extend the anchors by one month on
        # each side so days before mid-January / after mid-December wrap.
        anchors = np.concatenate(
            (
                [_MONTH_MID_DOY[-1] - DAYS_PER_YEAR],
                _MONTH_MID_DOY,
                [_MONTH_MID_DOY[0] + DAYS_PER_YEAR],
            )
        )
        extended = np.concatenate(([values[-1]], values, [values[0]]))
        return np.interp(day, anchors, extended)
