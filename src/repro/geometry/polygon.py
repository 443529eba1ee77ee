"""Simple polygon type with the operations the GIS layer needs.

Implements the small subset of computational geometry the reproduction
requires instead of depending on ``shapely``:

* signed area / centroid,
* axis-aligned bounding boxes,
* rasterisation onto a regular grid (point-in-polygon by ray casting at
  cell centres or corners).

Polygons are simple (non self-intersecting) rings described by their vertex
list; the ring is implicitly closed (the last vertex connects back to the
first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..errors import GeometryError
from .point import Point2D

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

# numpy is imported by the two array methods only, so a roof description
# (polygons of points) loads without it.


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

    def reversed(self) -> "Polygon":
        """Return a copy with the opposite vertex orientation."""
        return Polygon(tuple(reversed(self._vertices)))

    # -- transformations -----------------------------------------------------

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
        import numpy as np

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
        # operations per cell as a per-cell scalar test (x0 + pitch, not the
        # next cell's x0), so every point equals the one that test would see.
        x0 = origin.x + np.arange(col_lo, col_hi) * pitch
        y0 = (origin.y + np.arange(row_lo, row_hi) * pitch)[:, None]
        points = [(x0 + pitch / 2.0, y0 + pitch / 2.0)]
        if mode == "touch":
            points += [(x0, y0), (x0 + pitch, y0), (x0, y0 + pitch), (x0 + pitch, y0 + pitch)]
        # All points as one (points, rows, cols) broadcast: one pass over the edges.
        xs = np.stack([x for x, _ in points])[:, None, :]
        ys = np.stack([y for _, y in points])
        covered = self._contains_points(xs, ys).any(axis=0)
        mask[row_lo:row_hi, col_lo:col_hi] = covered
        return mask

    def _contains_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ray-casting point-in-polygon test (boundary included) over
        broadcast point arrays.

        Loops over the edges only, with the float operations of the scalar
        per-point test: a point on any edge (within :data:`_SEGMENT_TOL`) is
        covered whatever the crossing parity, and horizontal edges, which
        never cross the ray, are never divided by.  The crossing abscissa is
        computed only for the points within an edge's y-span, where it is a
        position on the edge; elsewhere a near-horizontal edge's tiny ``dy``
        would overflow it.
        """
        import numpy as np

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
                offset = np.divide(uy * dx, dy, out=np.zeros_like(uy, dtype=float), where=crosses)
                inside ^= crosses & (x < a.x + offset)
        return on_edge | inside


#: Absolute tolerance of the on-segment test.
_SEGMENT_TOL = 1e-9
