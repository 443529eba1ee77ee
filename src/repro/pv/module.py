"""Empirical PV-module electrical model (paper Section III-B1).

The paper derives, from the PV-MF165EB3 datasheet plots (Figure 3), simple
closed-form expressions of the module's maximum-power operating point as a
function of plane-of-array irradiance ``G`` and actual module temperature
``Tact``:

    Pmodule(G, Tact) = Pref * (1 + gamma_p * (Tact - 25)) * G / 1000
    Vmodule(G, Tact) = Vmpp_ref * (1 + beta_v * (Tact - 25)) * (0.875 + 0.000125 * G)
    Imodule(G, Tact) = Pmodule / Vmodule
    Tact             = T_ambient + k * G

with the maximum-power voltage taken as ~80 % of Voc and roughly independent
of irradiance (hence the weak linear G-term), and the module always assumed
to operate at its maximum power point (per-module MPPT).  The placement
evaluator (:class:`repro.core.evaluation.PlacementEvaluator`) computes this
operating point in closed form for every module and time step at once.

The printed coefficients of the paper (0.048 and 0.34 per degC) contain an
obvious decimal slip -- they would make power and voltage negative at 25
degC -- so this implementation uses the standard per-degC coefficients that
reproduce the datasheet STC anchors exactly (see DESIGN.md, "Model
interpretation notes"); the structural form of the equations is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..constants import STC_IRRADIANCE, STC_TEMPERATURE
from ..errors import PVModelError
from .datasheet import PV_MF165EB3, ModuleDatasheet
from .thermal import CellTemperatureModel


@dataclass(frozen=True)
class EmpiricalModuleModel:
    """Closed-form module model parameterised by a datasheet.

    Attributes
    ----------
    datasheet:
        Reference STC values and temperature coefficients.
    thermal:
        Ambient-to-cell temperature model (``Tact = T + k*G`` by default).
    voltage_irradiance_slope:
        Slope of the weak linear dependence of the MPP voltage on
        irradiance; the paper's fit is ``0.875 + 0.000125*G`` which equals 1
        at STC, so the slope default is 0.000125 with intercept 0.875.
    """

    datasheet: ModuleDatasheet = PV_MF165EB3
    thermal: CellTemperatureModel = field(default_factory=CellTemperatureModel)
    voltage_irradiance_intercept: float = 0.875
    voltage_irradiance_slope: float = 0.000125

    def __post_init__(self) -> None:
        stc_factor = (
            self.voltage_irradiance_intercept + self.voltage_irradiance_slope * STC_IRRADIANCE
        )
        if not 0.95 <= stc_factor <= 1.05:
            raise PVModelError(
                "the voltage-irradiance correction must be ~1 at STC "
                f"(got {stc_factor:.3f}); check intercept/slope"
            )

    # -- cell temperature ---------------------------------------------------------

    def cell_temperature(self, irradiance: np.ndarray, ambient_c: np.ndarray) -> np.ndarray:
        """Actual module temperature Tact [degC]."""
        return self.thermal.cell_temperature(ambient_c, irradiance)

    # -- electrical quantities at a given *cell* temperature ------------------------

    def power_at_cell_temperature(
        self, irradiance: np.ndarray, cell_temperature_c: np.ndarray
    ) -> np.ndarray:
        """Maximum power [W] for given irradiance and cell temperature."""
        g = self._validated_irradiance(irradiance)
        t = np.asarray(cell_temperature_c, dtype=float)
        temperature_factor = 1.0 + self.datasheet.gamma_p_per_k * (t - STC_TEMPERATURE)
        return np.maximum(
            self.datasheet.p_max_ref * temperature_factor * g / STC_IRRADIANCE, 0.0
        )

    # -- datasheet-style characteristics (Figure 3 reproductions) ---------------------

    def open_circuit_voltage(
        self, irradiance: np.ndarray, cell_temperature_c: np.ndarray
    ) -> np.ndarray:
        """Open-circuit voltage Voc(G, T) [V] (linearised datasheet model)."""
        g = self._validated_irradiance(irradiance)
        t = np.asarray(cell_temperature_c, dtype=float)
        temperature_factor = 1.0 + self.datasheet.beta_voc_per_k * (t - STC_TEMPERATURE)
        irradiance_factor = (
            self.voltage_irradiance_intercept + self.voltage_irradiance_slope * g
        )
        return np.where(
            g > 0.0,
            np.maximum(self.datasheet.v_oc_ref * temperature_factor * irradiance_factor, 0.0),
            0.0,
        )

    def short_circuit_current(
        self, irradiance: np.ndarray, cell_temperature_c: np.ndarray
    ) -> np.ndarray:
        """Short-circuit current Isc(G, T) [A] (proportional to irradiance)."""
        g = self._validated_irradiance(irradiance)
        t = np.asarray(cell_temperature_c, dtype=float)
        temperature_factor = 1.0 + self.datasheet.alpha_isc_per_k * (t - STC_TEMPERATURE)
        return self.datasheet.i_sc_ref * temperature_factor * g / STC_IRRADIANCE

    def normalized_characteristics(
        self, irradiance: np.ndarray, cell_temperature_c: float = STC_TEMPERATURE
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voc, Isc, Pmax normalised to their STC reference values.

        This reproduces the rightmost plot of the paper's Figure 3 (values
        relative to the STC anchors as a function of irradiance).
        """
        g = self._validated_irradiance(irradiance)
        t = np.full_like(np.asarray(g, dtype=float), float(cell_temperature_c))
        voc = self.open_circuit_voltage(g, t) / self.datasheet.v_oc_ref
        isc = self.short_circuit_current(g, t) / self.datasheet.i_sc_ref
        pmax = self.power_at_cell_temperature(g, t) / self.datasheet.p_max_ref
        return voc, isc, pmax

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _validated_irradiance(irradiance: np.ndarray) -> np.ndarray:
        g = np.asarray(irradiance, dtype=float)
        if np.any(g < 0):
            raise PVModelError("irradiance must be non-negative")
        return g


def paper_module_model() -> EmpiricalModuleModel:
    """The exact module model used in the paper's experiments."""
    return EmpiricalModuleModel(datasheet=PV_MF165EB3)
