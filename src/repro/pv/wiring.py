"""Wiring-overhead model (paper Section III-B2 and V-C).

A sparse placement needs longer string cabling than a compact one.  For the
series connection of consecutive modules the extra wiring is the rectilinear
(x + y) displacement between the modules' terminals minus the length of the
default connector that would be used anyway; parallel strings are combined
in a combiner box, so their overhead is neglected (as in the paper).

Knowing the cable's resistance per metre and the string current, the extra
length translates into a resistive power loss (R * I^2), a yearly energy
loss, and an installation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import (
    DEFAULT_CONNECTOR_LENGTH,
    DEFAULT_WIRE_COST_PER_M,
    DEFAULT_WIRE_RESISTANCE_PER_M,
    HOURS_PER_DAY,
    DAYS_PER_YEAR,
    OVERHEAD_DUTY_FACTOR,
    OVERHEAD_REFERENCE_CURRENT,
)
from ..errors import PVModelError
from ..geometry import Point2D


@dataclass(frozen=True)
class WiringSpec:
    """Electrical and economic characteristics of the string cable."""

    resistance_per_m: float = DEFAULT_WIRE_RESISTANCE_PER_M
    cost_per_m: float = DEFAULT_WIRE_COST_PER_M
    connector_length_m: float = DEFAULT_CONNECTOR_LENGTH

    def __post_init__(self) -> None:
        if self.resistance_per_m <= 0:
            raise PVModelError("cable resistance per metre must be positive")
        if self.cost_per_m < 0:
            raise PVModelError("cable cost per metre must be non-negative")
        if self.connector_length_m < 0:
            raise PVModelError("connector length must be non-negative")


@dataclass(frozen=True)
class WiringOverheadReport:
    """Overhead of one placement's string wiring."""

    per_string_extra_m: tuple
    total_extra_m: float
    power_loss_w: float
    annual_energy_loss_wh: float
    extra_cost: float
    reference_current_a: float


def string_extra_length(
    module_positions: Sequence[Point2D], spec: WiringSpec | None = None
) -> float:
    """Extra cable length [m] of one series string.

    Parameters
    ----------
    module_positions:
        Positions (roof-plane coordinates of the module reference corners or
        centres) of the string's modules *in series order*.
    spec:
        Wiring characteristics (for the default connector length).

    Notes
    -----
    For each consecutive pair the rectilinear displacement ``d_h + d_v`` is
    charged, minus the default connector length ``L`` (never going negative):
    a compact, abutting placement therefore has zero overhead.
    """
    wiring = spec if spec is not None else WiringSpec()
    positions = list(module_positions)
    if len(positions) < 2:
        return 0.0
    extra = 0.0
    for first, second in zip(positions[:-1], positions[1:]):
        displacement = first.manhattan_distance_to(second)
        extra += max(0.0, displacement - wiring.connector_length_m)
    return extra


def resistive_power_loss(
    extra_length_m: float, current_a: float, spec: WiringSpec | None = None
) -> float:
    """Resistive loss R*I^2 [W] of the extra cable at the given string current."""
    wiring = spec if spec is not None else WiringSpec()
    if extra_length_m < 0:
        raise PVModelError("extra cable length must be non-negative")
    if current_a < 0:
        raise PVModelError("string current must be non-negative")
    return wiring.resistance_per_m * extra_length_m * current_a**2


def annual_energy_loss_wh(
    extra_length_m: float,
    current_a: float = OVERHEAD_REFERENCE_CURRENT,
    duty_factor: float = OVERHEAD_DUTY_FACTOR,
    spec: WiringSpec | None = None,
) -> float:
    """Yearly energy dissipated in the extra cable [Wh].

    Mirrors the paper's conservative estimate: a constant string current
    (4 A, i.e. ~600 W/m^2 of irradiance) flowing for ``duty_factor`` of the
    year (50 %, accounting for the dark hours).
    """
    if not 0.0 <= duty_factor <= 1.0:
        raise PVModelError("duty factor must be in [0, 1]")
    loss_w = resistive_power_loss(extra_length_m, current_a, spec)
    return loss_w * HOURS_PER_DAY * DAYS_PER_YEAR * duty_factor


def wiring_overhead_report(
    strings_positions: Sequence[Sequence[Point2D]],
    current_a: float = OVERHEAD_REFERENCE_CURRENT,
    duty_factor: float = OVERHEAD_DUTY_FACTOR,
    spec: WiringSpec | None = None,
) -> WiringOverheadReport:
    """Full overhead assessment of a placement.

    Parameters
    ----------
    strings_positions:
        One sequence of module positions per series string (series order).
    current_a:
        String current used for the resistive-loss estimate [A].
    duty_factor:
        Fraction of the year spent at that current.
    """
    wiring = spec if spec is not None else WiringSpec()
    per_string = tuple(
        string_extra_length(positions, wiring) for positions in strings_positions
    )
    total = float(np.sum(per_string)) if per_string else 0.0
    power_loss = sum(resistive_power_loss(length, current_a, wiring) for length in per_string)
    energy_loss = sum(
        annual_energy_loss_wh(length, current_a, duty_factor, wiring) for length in per_string
    )
    return WiringOverheadReport(
        per_string_extra_m=per_string,
        total_extra_m=total,
        power_loss_w=float(power_loss),
        annual_energy_loss_wh=float(energy_loss),
        extra_cost=float(total * wiring.cost_per_m),
        reference_current_a=float(current_a),
    )
