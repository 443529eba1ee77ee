"""Simple polygon type with the operations the GIS layer needs.

Implements the small subset of computational geometry the reproduction
requires instead of depending on ``shapely``:

* signed area / centroid / perimeter,
* point-in-polygon (ray casting),
* axis-aligned bounding boxes,
* convex clipping (Sutherland-Hodgman) against rectangles,
* rasterisation onto a regular grid (cell-centre sampling).

Polygons are simple (non self-intersecting) rings described by their vertex
list; the ring is implicitly closed (the last vertex connects back to the
first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .point import Point2D


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        """Area of the box."""
        return self.width * self.height

    def contains_point(self, point: Point2D) -> bool:
        """True when the point lies inside or on the boundary of the box."""
        return self.xmin <= point.x <= self.xmax and self.ymin <= point.y <= self.ymax

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the two boxes overlap (boundary touch counts)."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """Return a copy grown by ``margin`` on every side."""
        return BoundingBox(
            self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin
        )


class Polygon:
    """A simple polygon in the local metric plane."""

    def __init__(self, vertices: Sequence[Point2D | Tuple[float, float]]):
        points: List[Point2D] = []
        for vertex in vertices:
            if isinstance(vertex, Point2D):
                points.append(vertex)
            else:
                points.append(Point2D(float(vertex[0]), float(vertex[1])))
        # Drop an explicit closing vertex if the caller provided one.
        if len(points) > 1 and points[0] == points[-1]:
            points = points[:-1]
        if len(points) < 3:
            raise GeometryError(
                f"a polygon needs at least 3 distinct vertices, got {len(points)}"
            )
        self._vertices: Tuple[Point2D, ...] = tuple(points)

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> Tuple[Point2D, ...]:
        """The polygon vertices as an (open) ring."""
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Polygon({len(self._vertices)} vertices, area={self.area():.3f})"

    @classmethod
    def rectangle(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "Polygon":
        """Build an axis-aligned rectangle from its corner coordinates."""
        if xmax <= xmin or ymax <= ymin:
            raise GeometryError("rectangle requires xmax > xmin and ymax > ymin")
        return cls(
            [
                Point2D(xmin, ymin),
                Point2D(xmax, ymin),
                Point2D(xmax, ymax),
                Point2D(xmin, ymax),
            ]
        )

    @classmethod
    def regular(cls, centre: Point2D, radius: float, sides: int) -> "Polygon":
        """Build a regular polygon with ``sides`` vertices around ``centre``."""
        if sides < 3:
            raise GeometryError("a regular polygon needs at least 3 sides")
        if radius <= 0:
            raise GeometryError("radius must be positive")
        vertices = [
            Point2D(
                centre.x + radius * math.cos(2 * math.pi * k / sides),
                centre.y + radius * math.sin(2 * math.pi * k / sides),
            )
            for k in range(sides)
        ]
        return cls(vertices)

    # -- metric properties -------------------------------------------------

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise rings)."""
        total = 0.0
        n = len(self._vertices)
        for i in range(n):
            a = self._vertices[i]
            b = self._vertices[(i + 1) % n]
            total += a.x * b.y - b.x * a.y
        return 0.5 * total

    def area(self) -> float:
        """Unsigned polygon area in square metres."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total length of the polygon boundary."""
        n = len(self._vertices)
        return sum(
            self._vertices[i].distance_to(self._vertices[(i + 1) % n]) for i in range(n)
        )

    def centroid(self) -> Point2D:
        """Area centroid of the polygon."""
        signed = self.signed_area()
        if abs(signed) < 1e-12:
            # Degenerate ring: fall back to the vertex average.
            xs = sum(v.x for v in self._vertices) / len(self._vertices)
            ys = sum(v.y for v in self._vertices) / len(self._vertices)
            return Point2D(xs, ys)
        cx = 0.0
        cy = 0.0
        n = len(self._vertices)
        for i in range(n):
            a = self._vertices[i]
            b = self._vertices[(i + 1) % n]
            cross = a.x * b.y - b.x * a.y
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        factor = 1.0 / (6.0 * signed)
        return Point2D(cx * factor, cy * factor)

    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of the polygon."""
        xs = [v.x for v in self._vertices]
        ys = [v.y for v in self._vertices]
        return BoundingBox(min(xs), min(ys), max(xs), max(ys))

    def is_counter_clockwise(self) -> bool:
        """True when the vertex ring is ordered counter-clockwise."""
        return self.signed_area() > 0.0

    def reversed(self) -> "Polygon":
        """Return a copy with the opposite vertex orientation."""
        return Polygon(tuple(reversed(self._vertices)))

    # -- predicates ---------------------------------------------------------

    def contains_point(self, point: Point2D, include_boundary: bool = True) -> bool:
        """Ray-casting point-in-polygon test.

        Parameters
        ----------
        point:
            Query point.
        include_boundary:
            When True (default) points lying exactly on an edge count as
            inside.
        """
        x, y = point.x, point.y
        n = len(self._vertices)
        inside = False
        for i in range(n):
            a = self._vertices[i]
            b = self._vertices[(i + 1) % n]
            if _point_on_segment(point, a, b):
                return include_boundary
            intersects = (a.y > y) != (b.y > y)
            if intersects:
                x_cross = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
                if x < x_cross:
                    inside = not inside
        return inside

    def translated(self, dx: float, dy: float) -> "Polygon":
        """Return a copy translated by ``(dx, dy)``."""
        return Polygon([v.translated(dx, dy) for v in self._vertices])

    def scaled(self, factor: float, about: Point2D | None = None) -> "Polygon":
        """Return a copy scaled by ``factor`` about ``about`` (default centroid)."""
        if factor <= 0:
            raise GeometryError("scale factor must be positive")
        origin = about if about is not None else self.centroid()
        return Polygon(
            [
                Point2D(
                    origin.x + (v.x - origin.x) * factor,
                    origin.y + (v.y - origin.y) * factor,
                )
                for v in self._vertices
            ]
        )

    def rotated(self, angle_rad: float, about: Point2D | None = None) -> "Polygon":
        """Return a copy rotated counter-clockwise by ``angle_rad``."""
        origin = about if about is not None else self.centroid()
        return Polygon([v.rotated(angle_rad, origin) for v in self._vertices])

    # -- clipping ------------------------------------------------------------

    def clip_to_box(self, box: BoundingBox) -> "Polygon | None":
        """Clip the polygon to an axis-aligned box (Sutherland-Hodgman).

        Returns ``None`` when the intersection is empty or degenerate.
        The algorithm is exact for convex clip windows, which is all the GIS
        layer needs (roof extents and grid cells are rectangles).
        """
        edges = (
            lambda p: p.x >= box.xmin,
            lambda p: p.x <= box.xmax,
            lambda p: p.y >= box.ymin,
            lambda p: p.y <= box.ymax,
        )
        intersectors = (
            lambda a, b: _intersect_vertical(a, b, box.xmin),
            lambda a, b: _intersect_vertical(a, b, box.xmax),
            lambda a, b: _intersect_horizontal(a, b, box.ymin),
            lambda a, b: _intersect_horizontal(a, b, box.ymax),
        )
        ring: List[Point2D] = list(self._vertices)
        for inside, intersect in zip(edges, intersectors):
            if not ring:
                return None
            output: List[Point2D] = []
            n = len(ring)
            for i in range(n):
                current = ring[i]
                previous = ring[i - 1]
                if inside(current):
                    if not inside(previous):
                        output.append(intersect(previous, current))
                    output.append(current)
                elif inside(previous):
                    output.append(intersect(previous, current))
            ring = output
        if len(ring) < 3:
            return None
        clipped = Polygon(ring)
        if clipped.area() < 1e-12:
            return None
        return clipped

    # -- rasterisation -------------------------------------------------------

    def rasterize(
        self,
        origin: Point2D,
        pitch: float,
        n_cols: int,
        n_rows: int,
        mode: str = "center",
    ) -> np.ndarray:
        """Rasterise the polygon onto a regular grid.

        Parameters
        ----------
        origin:
            World coordinates of the lower-left corner of cell ``(row=0, col=0)``.
        pitch:
            Cell side length in metres.
        n_cols, n_rows:
            Grid dimensions.
        mode:
            ``"center"`` marks a cell when its centre falls inside the
            polygon; ``"touch"`` marks a cell when any of its four corners or
            its centre falls inside.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(n_rows, n_cols)`` with ``True`` for
            covered cells.  Row 0 is the southernmost (lowest-y) row.
        """
        if pitch <= 0:
            raise GeometryError("raster pitch must be positive")
        if mode not in ("center", "touch"):
            raise GeometryError(f"unknown rasterisation mode: {mode!r}")
        mask = np.zeros((n_rows, n_cols), dtype=bool)
        bbox = self.bounding_box()
        col_lo = max(0, int(math.floor((bbox.xmin - origin.x) / pitch)) - 1)
        col_hi = min(n_cols, int(math.ceil((bbox.xmax - origin.x) / pitch)) + 1)
        row_lo = max(0, int(math.floor((bbox.ymin - origin.y) / pitch)) - 1)
        row_hi = min(n_rows, int(math.ceil((bbox.ymax - origin.y) / pitch)) + 1)
        if col_lo >= col_hi or row_lo >= row_hi:
            return mask  # the polygon lies wholly outside the raster
        # Cell corners and centres of the window, with the same float
        # operations per cell as the scalar form (x0 + pitch, not the next
        # cell's x0), so every point equals the one contains_point would see.
        x0 = origin.x + np.arange(col_lo, col_hi) * pitch
        y0 = (origin.y + np.arange(row_lo, row_hi) * pitch)[:, None]
        covered = self._contains_points(x0 + pitch / 2.0, y0 + pitch / 2.0)
        if mode == "touch":
            for x in (x0, x0 + pitch):
                for y in (y0, y0 + pitch):
                    covered |= self._contains_points(x, y)
        mask[row_lo:row_hi, col_lo:col_hi] = covered
        return mask

    def _contains_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`contains_point` (boundary included) over broadcast point arrays.

        Loops over the edges only, with the per-point float operations of
        ``contains_point`` and ``_point_on_segment``: a point on any edge is
        covered whatever the crossing parity, and horizontal edges, which
        never cross the ray, are never divided by.
        """
        on_edge = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=bool)
        inside = np.zeros_like(on_edge)
        tol = _SEGMENT_TOL
        n = len(self._vertices)
        for i in range(n):
            a = self._vertices[i]
            b = self._vertices[(i + 1) % n]
            dx, dy = b.x - a.x, b.y - a.y
            ux, uy = x - a.x, y - a.y
            cross = dx * uy - dy * ux
            dot = ux * dx + uy * dy
            on_edge |= (
                ~(np.abs(cross) > tol * max(1.0, a.distance_to(b)))
                & ~(dot < -tol)
                & (dot <= dx**2 + dy**2 + tol)
            )
            if a.y != b.y:
                crosses = (a.y > y) != (b.y > y)
                inside ^= crosses & (x < a.x + uy * dx / dy)
        return on_edge | inside


#: Absolute tolerance of the on-segment test.
_SEGMENT_TOL = 1e-9


def _point_on_segment(p: Point2D, a: Point2D, b: Point2D, tol: float = _SEGMENT_TOL) -> bool:
    """True when ``p`` lies on the segment ``a``-``b`` within tolerance."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > tol * max(1.0, a.distance_to(b)):
        return False
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    if dot < -tol:
        return False
    squared_len = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return dot <= squared_len + tol


def _intersect_vertical(a: Point2D, b: Point2D, x: float) -> Point2D:
    """Intersection of segment ``a``-``b`` with the vertical line ``X = x``."""
    t = (x - a.x) / (b.x - a.x)
    return Point2D(x, a.y + t * (b.y - a.y))


def _intersect_horizontal(a: Point2D, b: Point2D, y: float) -> Point2D:
    """Intersection of segment ``a``-``b`` with the horizontal line ``Y = y``."""
    t = (y - a.y) / (b.y - a.y)
    return Point2D(a.x + t * (b.x - a.x), y)


def union_bounding_box(polygons: Iterable[Polygon]) -> BoundingBox:
    """Bounding box enclosing every polygon in ``polygons``.

    Raises
    ------
    GeometryError
        If the iterable is empty.
    """
    boxes = [p.bounding_box() for p in polygons]
    if not boxes:
        raise GeometryError("cannot compute the bounding box of zero polygons")
    return BoundingBox(
        min(b.xmin for b in boxes),
        min(b.ymin for b in boxes),
        max(b.xmax for b in boxes),
        max(b.ymax for b in boxes),
    )
