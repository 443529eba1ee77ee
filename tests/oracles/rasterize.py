"""Per-cell oracle of :meth:`repro.geometry.polygon.Polygon.rasterize`.

Visits every cell of the polygon's bounding-box window and asks the scalar
predicate :meth:`Polygon.contains_point` about its centre (and, in
``"touch"`` mode, its four corners).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Point2D
from repro.geometry.polygon import Polygon


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
                covered = polygon.contains_point(centre)
            else:
                corners = (
                    centre,
                    Point2D(x0, y0),
                    Point2D(x0 + pitch, y0),
                    Point2D(x0, y0 + pitch),
                    Point2D(x0 + pitch, y0 + pitch),
                )
                covered = any(polygon.contains_point(p) for p in corners)
            if covered:
                mask[row, col] = True
    return mask
