"""Maximum Power Point Tracking (MPPT) models.

The paper assumes "each module extracts the maximum power" thanks to MPPT
(Section II-B / III-B1).  For the energy evaluation this reduces to an
efficiency factor applied to the aggregated panel power; for completeness
(and for validating the assumption) a classic perturb-and-observe tracker
operating on an I-V curve is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class PerturbObserveResult:
    """Trace of a perturb-and-observe tracking run."""

    voltages: np.ndarray
    powers: np.ndarray
    converged_voltage: float
    converged_power: float
    n_steps: int


def perturb_and_observe(
    power_at_voltage: Callable[[float], float],
    v_start: float,
    v_min: float,
    v_max: float,
    step: float = 0.1,
    n_steps: int = 200,
) -> PerturbObserveResult:
    """Classic perturb-and-observe MPPT on a static power-voltage curve.

    Parameters
    ----------
    power_at_voltage:
        Callable returning the array/panel power at a terminal voltage.
    v_start:
        Initial operating voltage [V].
    v_min, v_max:
        Allowed voltage window [V].
    step:
        Perturbation step [V].
    n_steps:
        Number of tracking iterations.

    Returns
    -------
    PerturbObserveResult
        The visited voltages/powers and the final operating point.
    """
    if v_max <= v_min:
        raise PVModelError("v_max must exceed v_min")
    if not v_min <= v_start <= v_max:
        raise PVModelError("v_start must lie inside [v_min, v_max]")
    if step <= 0 or n_steps < 1:
        raise PVModelError("step must be positive and n_steps >= 1")

    voltages = np.empty(n_steps + 1)
    powers = np.empty(n_steps + 1)
    voltage = float(v_start)
    power = float(power_at_voltage(voltage))
    voltages[0] = voltage
    powers[0] = power
    direction = 1.0
    for k in range(1, n_steps + 1):
        candidate = float(np.clip(voltage + direction * step, v_min, v_max))
        candidate_power = float(power_at_voltage(candidate))
        if candidate_power < power:
            direction = -direction
        voltage, power = candidate, candidate_power
        voltages[k] = voltage
        powers[k] = power
    best = int(np.argmax(powers))
    return PerturbObserveResult(
        voltages=voltages,
        powers=powers,
        converged_voltage=float(voltages[best]),
        converged_power=float(powers[best]),
        n_steps=n_steps,
    )
