"""Module thermal model.

The paper corrects the ambient temperature with an irradiance-dependent term
(Section III-B1, step 3): the actual module temperature is

    Tact = T + k * G,    k = alpha / h_c

where ``alpha`` is the absorptivity of the roof and ``h_c`` a combined
convective and radiative heat-exchange coefficient (15 W/(K m^2), refs
[12][13]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEFAULT_HEAT_EXCHANGE_COEFFICIENT, DEFAULT_ROOF_ABSORPTIVITY
from ..errors import PVModelError


@dataclass(frozen=True)
class CellTemperatureModel:
    """Irradiance-driven cell/module temperature model (paper formulation)."""

    absorptivity: float = DEFAULT_ROOF_ABSORPTIVITY
    heat_exchange_coefficient: float = DEFAULT_HEAT_EXCHANGE_COEFFICIENT

    def __post_init__(self) -> None:
        if not 0.0 < self.absorptivity <= 1.0:
            raise PVModelError("absorptivity must be in (0, 1]")
        if self.heat_exchange_coefficient <= 0:
            raise PVModelError("heat exchange coefficient must be positive")

    @property
    def k(self) -> float:
        """The ratio k = alpha / h_c [K m^2 / W]."""
        return self.absorptivity / self.heat_exchange_coefficient

    def cell_temperature(self, ambient_c: np.ndarray, irradiance: np.ndarray) -> np.ndarray:
        """Actual module temperature Tact = T + k*G [degC]."""
        ambient = np.asarray(ambient_c, dtype=float)
        g = np.asarray(irradiance, dtype=float)
        if np.any(g < 0):
            raise PVModelError("irradiance must be non-negative")
        return ambient + self.k * g

    def write_cell_temperature(
        self, out: np.ndarray, ambient_c: np.ndarray, irradiance: np.ndarray
    ) -> None:
        """Write Tact = T + k*G into the float64 array ``out``, in place.

        The operations are those of :meth:`cell_temperature`, in the same
        order, so the values are bit-identical; no temporary is allocated,
        and the check for negative irradiance is left to the caller.
        """
        out[...] = irradiance
        out *= self.k
        out += ambient_c
