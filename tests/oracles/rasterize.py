"""Per-cell oracle of :meth:`repro.geometry.polygon.Polygon.rasterize`.

Visits every cell of the polygon's bounding-box window and asks the scalar
ray-casting predicate :func:`contains_point` about its centre (and, in
``"touch"`` mode, its four corners).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Point2D
from repro.geometry.polygon import _SEGMENT_TOL, Polygon


def _point_on_segment(p: Point2D, a: Point2D, b: Point2D) -> bool:
    """True when ``p`` lies on the segment ``a``-``b`` within tolerance."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > _SEGMENT_TOL * max(1.0, a.distance_to(b)):
        return False
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    if dot < -_SEGMENT_TOL:
        return False
    squared_len = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return dot <= squared_len + _SEGMENT_TOL


def contains_point(polygon: Polygon, point: Point2D, include_boundary: bool = True) -> bool:
    """Ray-casting point-in-polygon test; on-edge points count as
    ``include_boundary``."""
    x, y = point.x, point.y
    vertices = polygon.vertices
    n = len(vertices)
    inside = False
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if _point_on_segment(point, a, b):
            return include_boundary
        if (a.y > y) != (b.y > y):
            x_cross = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x < x_cross:
                inside = not inside
    return inside


def rasterize_reference(
    polygon: Polygon,
    origin: Point2D,
    pitch: float,
    n_cols: int,
    n_rows: int,
    mode: str = "center",
) -> np.ndarray:
    """Boolean ``(n_rows, n_cols)`` coverage mask, one ``contains_point`` per point."""
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    bbox = polygon.bounding_box()
    col_lo = max(0, int(math.floor((bbox.xmin - origin.x) / pitch)) - 1)
    col_hi = min(n_cols, int(math.ceil((bbox.xmax - origin.x) / pitch)) + 1)
    row_lo = max(0, int(math.floor((bbox.ymin - origin.y) / pitch)) - 1)
    row_hi = min(n_rows, int(math.ceil((bbox.ymax - origin.y) / pitch)) + 1)
    for row in range(row_lo, row_hi):
        for col in range(col_lo, col_hi):
            x0 = origin.x + col * pitch
            y0 = origin.y + row * pitch
            centre = Point2D(x0 + pitch / 2.0, y0 + pitch / 2.0)
            if mode == "center":
                covered = contains_point(polygon, centre)
            else:
                corners = (
                    centre,
                    Point2D(x0, y0),
                    Point2D(x0 + pitch, y0),
                    Point2D(x0, y0 + pitch),
                    Point2D(x0 + pitch, y0 + pitch),
                )
                covered = any(contains_point(polygon, p) for p in corners)
            if covered:
                mask[row, col] = True
    return mask
