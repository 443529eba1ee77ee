"""Global-horizontal irradiance decomposition models.

Weather stations (paper ref. [16]) typically record only the global
horizontal irradiance (GHI).  The solar-data extraction flow (Section IV)
needs the direct (beam) and diffuse components separately to project them on
the tilted roof plane and to apply shading, so a *decomposition model*
estimating the diffuse fraction from the clearness index is required
(the paper cites Engerer 2015, ref. [18]).  The reproduction uses one
model, the classical Erbs et al. (1982) correlation.

This module provides:

* :func:`clearness_index` -- kt from GHI and extraterrestrial horizontal
  irradiance;
* :func:`erbs_diffuse_fraction` -- the Erbs piecewise correlation;
* :func:`decompose_ghi` -- convenience wrapper returning DNI and DHI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEG2RAD
from ..errors import SolarModelError


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a GHI decomposition [W/m^2, except the dimensionless columns]."""

    dni: np.ndarray
    dhi: np.ndarray
    diffuse_fraction: np.ndarray
    clearness_index: np.ndarray


def extraterrestrial_horizontal(
    extraterrestrial_normal: np.ndarray, elevation_deg: np.ndarray
) -> np.ndarray:
    """Extraterrestrial irradiance on a horizontal plane [W/m^2]."""
    i0 = np.asarray(extraterrestrial_normal, dtype=float)
    elevation = np.asarray(elevation_deg, dtype=float)
    return i0 * np.maximum(np.sin(np.maximum(elevation, 0.0) * DEG2RAD), 0.0)


def clearness_index(
    ghi: np.ndarray, extraterrestrial_normal: np.ndarray, elevation_deg: np.ndarray
) -> np.ndarray:
    """Clearness index kt = GHI / extraterrestrial horizontal irradiance.

    Samples with the sun below the horizon return 0.
    """
    ghi_arr = np.asarray(ghi, dtype=float)
    ext_h = extraterrestrial_horizontal(extraterrestrial_normal, elevation_deg)
    with np.errstate(divide="ignore", invalid="ignore"):
        kt = np.where(ext_h > 1.0, ghi_arr / np.maximum(ext_h, 1.0), 0.0)
    return np.clip(kt, 0.0, 1.2)


def erbs_diffuse_fraction(kt: np.ndarray) -> np.ndarray:
    """Diffuse fraction kd from the Erbs et al. (1982) correlation."""
    kt_arr = np.clip(np.asarray(kt, dtype=float), 0.0, 1.2)
    low = 1.0 - 0.09 * kt_arr
    mid = (
        0.9511
        - 0.1604 * kt_arr
        + 4.388 * kt_arr**2
        - 16.638 * kt_arr**3
        + 12.336 * kt_arr**4
    )
    high = np.full_like(kt_arr, 0.165)
    kd = np.where(kt_arr <= 0.22, low, np.where(kt_arr <= 0.80, mid, high))
    return np.clip(kd, 0.0, 1.0)


def decompose_ghi(
    ghi: np.ndarray,
    extraterrestrial_normal: np.ndarray,
    elevation_deg: np.ndarray,
) -> DecompositionResult:
    """Split GHI into direct-normal (DNI) and diffuse-horizontal (DHI).

    The diffuse fraction comes from the Erbs correlation
    (:func:`erbs_diffuse_fraction`) of the clearness index.

    Parameters
    ----------
    ghi:
        Measured global horizontal irradiance [W/m^2].
    extraterrestrial_normal:
        Extraterrestrial normal irradiance per sample [W/m^2].
    elevation_deg:
        Solar elevation per sample [deg].
    """
    ghi_arr = np.asarray(ghi, dtype=float)
    elevation = np.asarray(elevation_deg, dtype=float)
    if ghi_arr.shape != elevation.shape:
        raise SolarModelError("ghi and elevation arrays must have the same shape")
    kt = clearness_index(ghi_arr, extraterrestrial_normal, elevation)
    kd = erbs_diffuse_fraction(kt)

    dhi = kd * ghi_arr
    sin_h = np.sin(np.maximum(elevation, 0.0) * DEG2RAD)
    with np.errstate(divide="ignore", invalid="ignore"):
        dni = np.where(sin_h > 1e-3, (ghi_arr - dhi) / np.maximum(sin_h, 1e-3), 0.0)
    dni = np.clip(dni, 0.0, 1500.0)
    dhi = np.where(elevation > 0.0, dhi, 0.0)
    dni = np.where(elevation > 0.0, dni, 0.0)
    return DecompositionResult(dni=dni, dhi=dhi, diffuse_fraction=kd, clearness_index=kt)
