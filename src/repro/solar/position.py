"""Solar geometry: declination, hour angle, elevation, azimuth.

Implements a standard NOAA/Spencer-style solar position algorithm, accurate
to a fraction of a degree, which is sufficient for irradiance and shading
simulation at 15-minute resolution.  All functions are vectorised over numpy
arrays of day-of-year and local solar hour, matching the
:class:`repro.solar.time_series.TimeGrid` representation.

Angle conventions
-----------------
* ``declination``, ``elevation`` in degrees.
* ``azimuth`` in degrees measured from South, positive towards West
  (the same convention used for roof azimuths throughout the library).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import DEG2RAD, RAD2DEG, SOLAR_CONSTANT
from ..errors import SolarModelError


@dataclass(frozen=True)
class SolarPosition:
    """Sun position samples for a time grid at a fixed site."""

    elevation_deg: np.ndarray
    azimuth_deg: np.ndarray
    declination_deg: np.ndarray
    hour_angle_deg: np.ndarray
    extraterrestrial_normal: np.ndarray


def solar_declination(day_of_year: np.ndarray) -> np.ndarray:
    """Solar declination [deg] using Spencer's Fourier expansion."""
    day = np.asarray(day_of_year, dtype=float)
    gamma = 2.0 * np.pi * (day - 1.0) / 365.0
    decl_rad = (
        0.006918
        - 0.399912 * np.cos(gamma)
        + 0.070257 * np.sin(gamma)
        - 0.006758 * np.cos(2 * gamma)
        + 0.000907 * np.sin(2 * gamma)
        - 0.002697 * np.cos(3 * gamma)
        + 0.00148 * np.sin(3 * gamma)
    )
    return decl_rad * RAD2DEG


def eccentricity_correction(day_of_year: np.ndarray) -> np.ndarray:
    """Earth-sun distance correction factor (dimensionless, ~1 +- 0.033)."""
    day = np.asarray(day_of_year, dtype=float)
    gamma = 2.0 * np.pi * (day - 1.0) / 365.0
    return (
        1.00011
        + 0.034221 * np.cos(gamma)
        + 0.00128 * np.sin(gamma)
        + 0.000719 * np.cos(2 * gamma)
        + 0.000077 * np.sin(2 * gamma)
    )


def hour_angle(solar_hour: np.ndarray) -> np.ndarray:
    """Hour angle [deg]: 0 at solar noon, negative in the morning."""
    hour = np.asarray(solar_hour, dtype=float)
    return 15.0 * (hour - 12.0)


def solar_elevation_azimuth(
    latitude_deg: float,
    day_of_year: np.ndarray,
    solar_hour: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solar elevation and azimuth for a site at ``latitude_deg``.

    Parameters
    ----------
    latitude_deg:
        Site latitude in degrees (positive north).
    day_of_year, solar_hour:
        Arrays of equal length describing the samples (local *solar* time).

    Returns
    -------
    (elevation_deg, azimuth_deg, declination_deg, hour_angle_deg)
        Azimuth is measured from South, positive towards West.
    """
    if not -90.0 <= latitude_deg <= 90.0:
        raise SolarModelError("latitude must be within [-90, 90] degrees")
    day = np.asarray(day_of_year, dtype=float)
    hour = np.asarray(solar_hour, dtype=float)
    if day.shape != hour.shape:
        raise SolarModelError("day_of_year and solar_hour must have the same shape")

    decl_deg = solar_declination(day)
    ha_deg = hour_angle(hour)

    lat = latitude_deg * DEG2RAD
    decl = decl_deg * DEG2RAD
    ha = ha_deg * DEG2RAD

    sin_elev = np.sin(lat) * np.sin(decl) + np.cos(lat) * np.cos(decl) * np.cos(ha)
    sin_elev = np.clip(sin_elev, -1.0, 1.0)
    elevation = np.arcsin(sin_elev)

    # Azimuth from South, positive towards West.
    cos_elev = np.cos(elevation)
    # Guard against division by zero at the zenith.
    safe_cos_elev = np.where(np.abs(cos_elev) < 1e-9, 1e-9, cos_elev)
    sin_az = np.cos(decl) * np.sin(ha) / safe_cos_elev
    # The textbook numerator sin(elev)*sin(lat) - sin(decl) carries a
    # cos(lat) factor that cancels against the cos(lat) of the denominator;
    # expanding the product analytically removes the division by cos(lat)
    # altogether, so the expression stays finite and well-conditioned at the
    # poles.  (A scalar 1e-9 clamp of the denominator used to drop the
    # safe_cos_elev factor entirely within ~1e-7 degrees of |lat| = 90,
    # corrupting the azimuth there.)
    cos_az = (
        np.cos(decl) * np.sin(lat) * np.cos(ha) - np.sin(decl) * np.cos(lat)
    ) / safe_cos_elev
    sin_az = np.clip(sin_az, -1.0, 1.0)
    cos_az = np.clip(cos_az, -1.0, 1.0)
    azimuth = np.arctan2(sin_az, cos_az)

    return (
        elevation * RAD2DEG,
        azimuth * RAD2DEG,
        decl_deg,
        ha_deg,
    )


def compute_solar_position(
    latitude_deg: float,
    day_of_year: np.ndarray,
    solar_hour: np.ndarray,
) -> SolarPosition:
    """Compute the full :class:`SolarPosition` record for a set of samples."""
    elevation, azimuth, declination, ha = solar_elevation_azimuth(
        latitude_deg, day_of_year, solar_hour
    )
    extraterrestrial = SOLAR_CONSTANT * eccentricity_correction(day_of_year)
    return SolarPosition(
        elevation_deg=elevation,
        azimuth_deg=azimuth,
        declination_deg=declination,
        hour_angle_deg=ha,
        extraterrestrial_normal=extraterrestrial,
    )
