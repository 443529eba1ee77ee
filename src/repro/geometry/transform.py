"""Roof-plane coordinate frames.

Two coordinate frames appear throughout the reproduction:

* the *world* frame: a local metric east/north/up frame anchored near the
  building (what the DSM is expressed in);
* the *roof* frame: a 2D frame lying in the inclined roof plane, with the
  u axis running along the eave (horizontal) and the v axis running up the
  slope.  The virtual placement grid of the paper lives in this frame, so
  that module sizes and the 20 cm pitch are true lengths *on the roof
  surface*, not their horizontal projections.

:class:`RoofPlaneFrame` maps roof (u, v) coordinates to world (x, y, z)
coordinates given the roof origin, azimuth, and tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..constants import DEG2RAD
from ..errors import GeometryError
from .point import Point2D, Point3D


@dataclass(frozen=True)
class RoofPlaneFrame:
    """Coordinate frame of an inclined planar roof facet.

    Parameters
    ----------
    origin:
        World coordinates (x, y, z) of the roof-frame origin, typically the
        south-western corner of the facet at eave height.
    azimuth_deg:
        Direction the roof *faces* (the downhill direction of the outward
        normal projected on the horizontal plane).  Convention: 0 deg =
        south, positive towards west, negative towards east.
    tilt_deg:
        Inclination of the roof plane with respect to horizontal, in
        degrees.  0 = flat, 90 = vertical.
    """

    origin: Point3D
    azimuth_deg: float
    tilt_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tilt_deg < 90.0:
            raise GeometryError("roof tilt must be in [0, 90) degrees")

    # The roof u axis runs along the eave (horizontal, to the "right" when
    # looking at the facade), the v axis runs up the slope.

    def _axes(self) -> Tuple[Point3D, Point3D, Point3D]:
        """Unit vectors (u, v, n) of the roof frame expressed in world axes."""
        az = self.azimuth_deg * DEG2RAD
        tilt = self.tilt_deg * DEG2RAD
        # Horizontal downhill direction (pointing away from the ridge):
        # azimuth 0 -> south (0, -1, 0); positive azimuth rotates towards west.
        downhill = Point3D(-math.sin(az), -math.cos(az), 0.0)
        # Eave (u) axis: horizontal, perpendicular to downhill: rotate +90 deg.
        u_axis = Point3D(-downhill.y, downhill.x, 0.0)
        # Up-slope (v) axis: opposite of downhill, raised by the tilt.
        v_axis = Point3D(
            -downhill.x * math.cos(tilt), -downhill.y * math.cos(tilt), math.sin(tilt)
        )
        normal = u_axis.cross(v_axis)
        return u_axis, v_axis, normal

    @property
    def normal(self) -> Point3D:
        """Outward unit normal of the roof plane (world frame)."""
        return self._axes()[2].normalized()

    def roof_to_world(self, point: Point2D) -> Point3D:
        """Map roof-plane coordinates ``(u, v)`` to world ``(x, y, z)``."""
        u_axis, v_axis, _ = self._axes()
        return Point3D(
            self.origin.x + point.x * u_axis.x + point.y * v_axis.x,
            self.origin.y + point.x * u_axis.y + point.y * v_axis.y,
            self.origin.z + point.x * u_axis.z + point.y * v_axis.z,
        )
