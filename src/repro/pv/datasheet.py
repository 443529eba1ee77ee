"""PV module datasheets.

The empirical module model of the paper (Section III-B1) is anchored to the
datasheet of the Mitsubishi PV-MF165EB3 module: reference open-circuit
voltage, short-circuit current and maximum power at standard test conditions
(1000 W/m^2, 25 degC), plus the module's physical size (160 cm x 80 cm in
the paper's placement grid).  :class:`ModuleDatasheet` captures those
figures; additional common modules are provided for the examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PVModelError


@dataclass(frozen=True)
class ModuleDatasheet:
    """Reference electrical and mechanical data of a PV module.

    All electrical values refer to standard test conditions (STC):
    1000 W/m^2 irradiance, 25 degC cell temperature, AM1.5 spectrum.

    Attributes
    ----------
    name:
        Commercial name of the module.
    p_max_ref:
        Maximum power at STC [W].
    v_oc_ref, i_sc_ref:
        Open-circuit voltage [V] and short-circuit current [A] at STC.
    v_mpp_ref, i_mpp_ref:
        Voltage [V] and current [A] at the maximum power point at STC.
    gamma_p_per_k:
        Relative power temperature coefficient [1/K] (negative).
    beta_voc_per_k:
        Relative open-circuit-voltage temperature coefficient [1/K].
    alpha_isc_per_k:
        Relative short-circuit-current temperature coefficient [1/K].
    width_m, height_m:
        Mechanical footprint of the module [m].
    n_cells:
        Number of series-connected cells inside the module.
    noct_c:
        Nominal operating cell temperature [degC].
    """

    name: str
    p_max_ref: float
    v_oc_ref: float
    i_sc_ref: float
    v_mpp_ref: float
    i_mpp_ref: float
    gamma_p_per_k: float
    beta_voc_per_k: float
    alpha_isc_per_k: float
    width_m: float
    height_m: float
    n_cells: int
    noct_c: float = 45.5

    def __post_init__(self) -> None:
        if self.p_max_ref <= 0 or self.v_oc_ref <= 0 or self.i_sc_ref <= 0:
            raise PVModelError("reference power, Voc and Isc must be positive")
        if self.v_mpp_ref <= 0 or self.i_mpp_ref <= 0:
            raise PVModelError("reference MPP voltage and current must be positive")
        if self.v_mpp_ref >= self.v_oc_ref:
            raise PVModelError("Vmpp must be smaller than Voc")
        if self.i_mpp_ref > self.i_sc_ref:
            raise PVModelError("Impp cannot exceed Isc")
        if self.width_m <= 0 or self.height_m <= 0:
            raise PVModelError("module dimensions must be positive")
        if self.n_cells < 1:
            raise PVModelError("a module has at least one cell")
        if self.gamma_p_per_k >= 0:
            raise PVModelError("the power temperature coefficient must be negative")


#: The module used throughout the paper's experiments.
PV_MF165EB3 = ModuleDatasheet(
    name="Mitsubishi PV-MF165EB3",
    p_max_ref=165.0,
    v_oc_ref=30.4,
    i_sc_ref=7.36,
    v_mpp_ref=24.2,
    i_mpp_ref=6.83,
    gamma_p_per_k=-0.0048,
    beta_voc_per_k=-0.0034,
    alpha_isc_per_k=0.00057,
    width_m=1.60,
    height_m=0.80,
    n_cells=50,
    noct_c=45.5,
)

#: A typical modern 60-cell residential module, used in the examples.
GENERIC_300W = ModuleDatasheet(
    name="Generic 300 W mono",
    p_max_ref=300.0,
    v_oc_ref=39.9,
    i_sc_ref=9.76,
    v_mpp_ref=32.6,
    i_mpp_ref=9.21,
    gamma_p_per_k=-0.0039,
    beta_voc_per_k=-0.0029,
    alpha_isc_per_k=0.0005,
    width_m=1.60,
    height_m=1.00,
    n_cells=60,
    noct_c=44.0,
)

#: A compact high-efficiency module (small roofs, examples only).
COMPACT_200W = ModuleDatasheet(
    name="Compact 200 W",
    p_max_ref=200.0,
    v_oc_ref=24.8,
    i_sc_ref=10.5,
    v_mpp_ref=20.4,
    i_mpp_ref=9.8,
    gamma_p_per_k=-0.0035,
    beta_voc_per_k=-0.0027,
    alpha_isc_per_k=0.0005,
    width_m=1.20,
    height_m=0.80,
    n_cells=40,
    noct_c=43.0,
)

#: Registry of the bundled datasheets, keyed by a short identifier.
DATASHEETS = {
    "pv-mf165eb3": PV_MF165EB3,
    "generic-300": GENERIC_300W,
    "compact-200": COMPACT_200W,
}


def get_datasheet(key: str) -> ModuleDatasheet:
    """Look up a bundled datasheet by its short identifier."""
    try:
        return DATASHEETS[key.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(DATASHEETS))
        raise PVModelError(f"unknown module datasheet {key!r}; known: {known}") from exc
