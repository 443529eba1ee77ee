"""Small unit-conversion helpers.

The library works internally in SI units (metres, watts, seconds, degrees
Celsius for temperatures, W/m^2 for irradiance).  These helpers exist so that
conversions are explicit and named at call sites instead of scattered
arithmetic.
"""

from __future__ import annotations


def wh_to_mwh(energy_wh: float) -> float:
    """Convert an energy from watt-hours to megawatt-hours."""
    return energy_wh / 1e6
