"""Roof-facet extraction from a DSM.

The synthetic scene generator already knows its roof plane exactly, but the
full GIS flow (paper refs [1], [8]) starts from the DSM alone: it must locate
planar roof facets, estimate their slope and aspect, and flag the cells that
deviate from the fitted plane (obstacles).  This module implements that
analysis path so the pipeline can also be run on externally supplied DSM
rasters (e.g. loaded through :mod:`repro.io.asc_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import RAD2DEG
from ..errors import GISError
from ..geometry import Point3D, Polygon, RoofPlaneFrame
from .dsm import DigitalSurfaceModel


@dataclass(frozen=True)
class FittedRoofPlane:
    """Least-squares plane fitted to a DSM region.

    The plane is ``z = a*x + b*y + c`` in world coordinates; derived tilt and
    aspect follow the library's azimuth convention (0 = South, positive
    towards West).
    """

    a: float
    b: float
    c: float
    tilt_deg: float
    azimuth_deg: float
    rms_residual_m: float
    n_cells: int

    def elevation_at(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Plane elevation at the given world coordinates."""
        return self.a * np.asarray(x, dtype=float) + self.b * np.asarray(y, dtype=float) + self.c

    def frame(self, origin_x: float, origin_y: float) -> RoofPlaneFrame:
        """Build a :class:`RoofPlaneFrame` anchored at ``(origin_x, origin_y)``."""
        origin_z = float(self.elevation_at(np.asarray([origin_x]), np.asarray([origin_y]))[0])
        return RoofPlaneFrame(
            origin=Point3D(origin_x, origin_y, origin_z),
            azimuth_deg=self.azimuth_deg,
            tilt_deg=self.tilt_deg,
        )


def fit_roof_plane(dsm: DigitalSurfaceModel, region: Polygon) -> FittedRoofPlane:
    """Fit a plane to the DSM cells covered by ``region`` (world coordinates).

    A straightforward least-squares fit is adequate because roof facets are
    planar by construction; obstacle cells inflate the residual and are
    handled afterwards by :func:`obstacle_mask_from_plane`.
    """
    mask = dsm.raster.mask_from_polygon(region)
    if np.count_nonzero(mask) < 3:
        raise GISError("the region must cover at least 3 DSM cells to fit a plane")

    rows, cols = np.nonzero(mask)
    spec = dsm.raster.spec
    x = spec.origin_x + (cols + 0.5) * spec.pitch
    y = spec.origin_y + (rows + 0.5) * spec.pitch
    z = dsm.data[rows, cols]

    design = np.column_stack([x, y, np.ones_like(x)])
    coefficients, _, _, _ = np.linalg.lstsq(design, z, rcond=None)
    a, b, c = (float(v) for v in coefficients)

    residuals = z - (a * x + b * y + c)
    rms = float(np.sqrt(np.mean(residuals**2)))

    slope = float(np.arctan(np.hypot(a, b)) * RAD2DEG)
    if np.hypot(a, b) < 1e-9:
        azimuth = 0.0
    else:
        # Downhill direction is -(a, b); azimuth measured from South (=-y)
        # positive towards West (=-x).
        azimuth = float(np.arctan2(a, b) * RAD2DEG)
    return FittedRoofPlane(
        a=a,
        b=b,
        c=c,
        tilt_deg=slope,
        azimuth_deg=azimuth,
        rms_residual_m=rms,
        n_cells=int(np.count_nonzero(mask)),
    )


def obstacle_mask_from_plane(
    dsm: DigitalSurfaceModel,
    region: Polygon,
    plane: FittedRoofPlane,
    threshold_m: float = 0.25,
) -> np.ndarray:
    """Cells of ``region`` standing higher than ``threshold_m`` above the plane.

    Returns a boolean array of the DSM shape; True marks detected obstacles.
    """
    if threshold_m <= 0:
        raise GISError("threshold_m must be positive")
    mask = dsm.raster.mask_from_polygon(region)
    spec = dsm.raster.spec
    rows, cols = np.nonzero(mask)
    x = spec.origin_x + (cols + 0.5) * spec.pitch
    y = spec.origin_y + (rows + 0.5) * spec.pitch
    deviation = dsm.data[rows, cols] - plane.elevation_at(x, y)
    obstacle = np.zeros(dsm.shape, dtype=bool)
    obstacle[rows, cols] = deviation > threshold_m
    return obstacle
