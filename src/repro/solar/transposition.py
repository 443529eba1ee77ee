"""Transposition of irradiance components onto the tilted roof plane.

Given the direct-normal and diffuse-horizontal irradiance, the plane-of-array
(POA) irradiance on a surface of given tilt and azimuth is the sum of three
terms: beam projected through the incidence angle, sky diffuse, and
ground-reflected diffuse.  The sky diffuse term uses one model, the
Hay-Davies anisotropic sky: it captures the circumsolar brightening that
makes the spatial variance of irradiance over a partly shaded roof larger --
the effect the paper's floorplanner exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEG2RAD, DEFAULT_ALBEDO
from ..errors import SolarModelError


@dataclass(frozen=True)
class PlaneOfArrayIrradiance:
    """Per-sample POA irradiance split into its three components [W/m^2]."""

    beam: np.ndarray
    sky_diffuse: np.ndarray
    ground_reflected: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """Total plane-of-array irradiance."""
        return self.beam + self.sky_diffuse + self.ground_reflected


def incidence_cosine(
    surface_tilt_deg: float,
    surface_azimuth_deg: float,
    solar_elevation_deg: np.ndarray,
    solar_azimuth_deg: np.ndarray,
) -> np.ndarray:
    """Cosine of the angle between the sun direction and the surface normal.

    Azimuths follow the library convention (0 = South, positive towards
    West).  Negative cosines (sun behind the surface) are clamped to zero.
    """
    if not 0.0 <= surface_tilt_deg <= 90.0:
        raise SolarModelError("surface tilt must be within [0, 90] degrees")
    tilt = surface_tilt_deg * DEG2RAD
    saz = surface_azimuth_deg * DEG2RAD
    elev = np.asarray(solar_elevation_deg, dtype=float) * DEG2RAD
    az = np.asarray(solar_azimuth_deg, dtype=float) * DEG2RAD
    cos_inc = np.sin(elev) * np.cos(tilt) + np.cos(elev) * np.sin(tilt) * np.cos(az - saz)
    return np.maximum(cos_inc, 0.0)


def beam_on_plane(
    dni: np.ndarray,
    surface_tilt_deg: float,
    surface_azimuth_deg: float,
    solar_elevation_deg: np.ndarray,
    solar_azimuth_deg: np.ndarray,
) -> np.ndarray:
    """Beam component on the tilted plane [W/m^2]."""
    cos_inc = incidence_cosine(
        surface_tilt_deg, surface_azimuth_deg, solar_elevation_deg, solar_azimuth_deg
    )
    return np.asarray(dni, dtype=float) * cos_inc


def hay_davies_sky_diffuse(
    dhi: np.ndarray,
    dni: np.ndarray,
    extraterrestrial_normal: np.ndarray,
    surface_tilt_deg: float,
    surface_azimuth_deg: float,
    solar_elevation_deg: np.ndarray,
    solar_azimuth_deg: np.ndarray,
) -> np.ndarray:
    """Hay-Davies anisotropic sky diffuse irradiance on the tilted plane.

    Splits the diffuse radiation into a circumsolar part (treated like beam)
    and an isotropic background, weighted by the anisotropy index
    ``A = DNI / I0``.
    """
    dhi_arr = np.asarray(dhi, dtype=float)
    dni_arr = np.asarray(dni, dtype=float)
    i0 = np.asarray(extraterrestrial_normal, dtype=float)
    elevation = np.asarray(solar_elevation_deg, dtype=float)

    with np.errstate(divide="ignore", invalid="ignore"):
        anisotropy = np.where(i0 > 1.0, dni_arr / np.maximum(i0, 1.0), 0.0)
    anisotropy = np.clip(anisotropy, 0.0, 1.0)

    cos_inc = incidence_cosine(
        surface_tilt_deg, surface_azimuth_deg, elevation, solar_azimuth_deg
    )
    sin_elev = np.sin(np.maximum(elevation, 0.0) * DEG2RAD)
    with np.errstate(divide="ignore", invalid="ignore"):
        rb = np.where(sin_elev > 1e-2, cos_inc / np.maximum(sin_elev, 1e-2), 0.0)
    rb = np.clip(rb, 0.0, 10.0)

    tilt = surface_tilt_deg * DEG2RAD
    isotropic_vf = (1.0 + np.cos(tilt)) / 2.0
    circumsolar = dhi_arr * anisotropy * rb
    background = dhi_arr * (1.0 - anisotropy) * isotropic_vf
    return circumsolar + background


def ground_reflected(
    ghi: np.ndarray, surface_tilt_deg: float, albedo: float = DEFAULT_ALBEDO
) -> np.ndarray:
    """Ground-reflected irradiance on the tilted plane [W/m^2]."""
    if not 0.0 <= albedo <= 1.0:
        raise SolarModelError("albedo must be within [0, 1]")
    tilt = surface_tilt_deg * DEG2RAD
    view_factor = (1.0 - np.cos(tilt)) / 2.0
    return np.asarray(ghi, dtype=float) * albedo * view_factor


def plane_of_array(
    dni: np.ndarray,
    dhi: np.ndarray,
    ghi: np.ndarray,
    extraterrestrial_normal: np.ndarray,
    surface_tilt_deg: float,
    surface_azimuth_deg: float,
    solar_elevation_deg: np.ndarray,
    solar_azimuth_deg: np.ndarray,
    albedo: float = DEFAULT_ALBEDO,
) -> PlaneOfArrayIrradiance:
    """Full plane-of-array transposition with the Hay-Davies sky diffuse."""
    beam = beam_on_plane(
        dni, surface_tilt_deg, surface_azimuth_deg, solar_elevation_deg, solar_azimuth_deg
    )
    sky = hay_davies_sky_diffuse(
        dhi,
        dni,
        extraterrestrial_normal,
        surface_tilt_deg,
        surface_azimuth_deg,
        solar_elevation_deg,
        solar_azimuth_deg,
    )
    ground = ground_reflected(ghi, surface_tilt_deg, albedo)
    return PlaneOfArrayIrradiance(beam=beam, sky_diffuse=sky, ground_reflected=ground)
