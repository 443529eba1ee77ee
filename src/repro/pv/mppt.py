"""Maximum Power Point Tracking (MPPT) efficiency model.

The paper assumes "each module extracts the maximum power" thanks to MPPT
(Section II-B / III-B1).  For the energy evaluation this reduces to an
efficiency factor applied to the aggregated panel power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PVModelError


@dataclass(frozen=True)
class MPPTModel:
    """Static MPPT efficiency model.

    Attributes
    ----------
    tracking_efficiency:
        Fraction of the theoretical maximum power actually extracted
        (modern trackers exceed 0.99).
    converter_efficiency:
        DC-DC / inverter conversion efficiency applied downstream of the
        tracker.  Set to 1.0 to study the DC side only (the paper reports
        DC energy).
    """

    tracking_efficiency: float = 1.0
    converter_efficiency: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tracking_efficiency", "converter_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise PVModelError(f"{name} must be in (0, 1], got {value}")

    @property
    def overall_efficiency(self) -> float:
        """Combined tracking and conversion efficiency."""
        return self.tracking_efficiency * self.converter_efficiency

    def extracted_power(self, mpp_power_w: np.ndarray) -> np.ndarray:
        """Power delivered downstream of the MPPT stage [W]."""
        power = np.asarray(mpp_power_w, dtype=float)
        if np.any(power < 0):
            raise PVModelError("MPP power must be non-negative")
        return power * self.overall_efficiency
