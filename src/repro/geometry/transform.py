"""Planar affine transforms and roof-plane coordinate frames.

Two coordinate frames appear throughout the reproduction:

* the *world* frame: a local metric east/north/up frame anchored near the
  building (what the DSM is expressed in);
* the *roof* frame: a 2D frame lying in the inclined roof plane, with the
  u axis running along the eave (horizontal) and the v axis running up the
  slope.  The virtual placement grid of the paper lives in this frame, so
  that module sizes and the 20 cm pitch are true lengths *on the roof
  surface*, not their horizontal projections.

:class:`AffineTransform2D` is a small general-purpose 2D affine matrix;
:class:`RoofPlaneFrame` maps between roof (u, v) coordinates and world
(x, y, z) coordinates given the roof origin, azimuth, and tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..constants import DEG2RAD
from ..errors import GeometryError
from .point import Point2D, Point3D


@dataclass(frozen=True)
class AffineTransform2D:
    """2D affine transform ``p' = A p + t`` stored as the six coefficients.

    The transform maps ``(x, y)`` to ``(a*x + b*y + tx, c*x + d*y + ty)``.
    """

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float

    @classmethod
    def identity(cls) -> "AffineTransform2D":
        """The identity transform."""
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @classmethod
    def translation(cls, dx: float, dy: float) -> "AffineTransform2D":
        """Pure translation by ``(dx, dy)``."""
        return cls(1.0, 0.0, 0.0, 1.0, dx, dy)

    @classmethod
    def rotation(cls, angle_rad: float) -> "AffineTransform2D":
        """Counter-clockwise rotation about the origin."""
        cos_a = math.cos(angle_rad)
        sin_a = math.sin(angle_rad)
        return cls(cos_a, -sin_a, sin_a, cos_a, 0.0, 0.0)

    @classmethod
    def scaling(cls, sx: float, sy: float | None = None) -> "AffineTransform2D":
        """Axis-aligned scaling (isotropic when ``sy`` is omitted)."""
        if sy is None:
            sy = sx
        if sx == 0 or sy == 0:
            raise GeometryError("scale factors must be non-zero")
        return cls(sx, 0.0, 0.0, sy, 0.0, 0.0)

    def apply(self, point: Point2D) -> Point2D:
        """Apply the transform to a point."""
        return Point2D(
            self.a * point.x + self.b * point.y + self.tx,
            self.c * point.x + self.d * point.y + self.ty,
        )

    def compose(self, other: "AffineTransform2D") -> "AffineTransform2D":
        """Return the transform equivalent to applying ``other`` then ``self``."""
        return AffineTransform2D(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.a * other.tx + self.b * other.ty + self.tx,
            self.c * other.tx + self.d * other.ty + self.ty,
        )

    def determinant(self) -> float:
        """Determinant of the linear part."""
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "AffineTransform2D":
        """Inverse transform.

        Raises
        ------
        GeometryError
            If the transform is singular.
        """
        det = self.determinant()
        if abs(det) < 1e-15:
            raise GeometryError("cannot invert a singular affine transform")
        ia = self.d / det
        ib = -self.b / det
        ic = -self.c / det
        id_ = self.a / det
        itx = -(ia * self.tx + ib * self.ty)
        ity = -(ic * self.tx + id_ * self.ty)
        return AffineTransform2D(ia, ib, ic, id_, itx, ity)


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

    def world_to_roof(self, point: Point3D) -> Point2D:
        """Project world coordinates onto the roof frame (u, v).

        The input point does not need to lie exactly on the roof plane; the
        out-of-plane component is discarded.
        """
        u_axis, v_axis, _ = self._axes()
        delta = point - self.origin
        return Point2D(delta.dot(u_axis), delta.dot(v_axis))

    def slope_distance(self, horizontal_distance: float) -> float:
        """Length measured along the slope for a given horizontal run."""
        return horizontal_distance / math.cos(self.tilt_deg * DEG2RAD)

    def horizontal_distance(self, slope_distance: float) -> float:
        """Horizontal run corresponding to a length measured along the slope."""
        return slope_distance * math.cos(self.tilt_deg * DEG2RAD)

    def elevation_gain(self, slope_distance: float) -> float:
        """Vertical rise corresponding to a length measured up the slope."""
        return slope_distance * math.sin(self.tilt_deg * DEG2RAD)
