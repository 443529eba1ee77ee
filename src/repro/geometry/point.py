"""2D/3D point and vector primitives.

These light-weight immutable value types replace the subset of ``shapely``
geometry the reproduction needs.  They are deliberately simple: plain
dataclasses with the handful of operations (distance, arithmetic, rotation)
used by the GIS and floorplanning layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class Point2D:
    """A point (or free vector) in the local metric plane.

    Coordinates are expressed in metres in a local east/north frame unless
    stated otherwise by the caller.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point2D") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance_to(self, other: "Point2D") -> float:
        """L1 (rectilinear) distance to another point.

        The wiring-overhead model of the paper routes cables along the x/y
        directions, so rectilinear distance is the relevant metric there.
        """
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point2D":
        """Return a copy translated by ``(dx, dy)``."""
        return Point2D(self.x + dx, self.y + dy)

    def scaled(self, factor: float) -> "Point2D":
        """Return a copy with both coordinates multiplied by ``factor``."""
        return Point2D(self.x * factor, self.y * factor)

    def rotated(self, angle_rad: float, about: "Point2D | None" = None) -> "Point2D":
        """Return a copy rotated counter-clockwise by ``angle_rad``.

        Parameters
        ----------
        angle_rad:
            Rotation angle in radians.
        about:
            Centre of rotation; the origin when omitted.
        """
        cx, cy = (about.x, about.y) if about is not None else (0.0, 0.0)
        cos_a = math.cos(angle_rad)
        sin_a = math.sin(angle_rad)
        dx = self.x - cx
        dy = self.y - cy
        return Point2D(cx + dx * cos_a - dy * sin_a, cy + dx * sin_a + dy * cos_a)

    def __add__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x - other.x, self.y - other.y)

    def __mul__(self, factor: float) -> "Point2D":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def cross(self, other: "Point2D") -> float:
        """Z component of the cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length of the vector from the origin to this point."""
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Point2D":
        """Return the unit vector pointing in the same direction.

        Raises
        ------
        ZeroDivisionError
            If the vector has zero length.
        """
        length = self.norm()
        if length == 0.0:
            raise ZeroDivisionError("cannot normalise a zero-length vector")
        return Point2D(self.x / length, self.y / length)


@dataclass(frozen=True, order=True)
class Point3D:
    """A point in 3D space (east, north, elevation), in metres."""

    x: float
    y: float
    z: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    def distance_to(self, other: "Point3D") -> float:
        """Euclidean distance to another 3D point."""
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )

    def horizontal(self) -> Point2D:
        """Project onto the horizontal plane, dropping the elevation."""
        return Point2D(self.x, self.y)

    def __add__(self, other: "Point3D") -> "Point3D":
        return Point3D(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3D") -> "Point3D":
        return Point3D(self.x - other.x, self.y - other.y, self.z - other.z)

    def cross(self, other: "Point3D") -> "Point3D":
        """Vector cross product."""
        return Point3D(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        """Euclidean length of the vector from the origin to this point."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Point3D":
        """Return the unit vector pointing in the same direction."""
        length = self.norm()
        if length == 0.0:
            raise ZeroDivisionError("cannot normalise a zero-length vector")
        return Point3D(self.x / length, self.y / length, self.z / length)
