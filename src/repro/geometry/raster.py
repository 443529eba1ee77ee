"""Regular raster grids with a world transform.

A :class:`Raster` couples a 2D numpy array of cell values with the affine
information needed to map between array indices and world coordinates:
origin of the lower-left corner, cell pitch, and (implicitly) axis-aligned
orientation.  This is the minimal replacement for the rasterio/geopandas
raster handling used by GIS tooling, and it is what the Digital Surface
Model, shadow maps, and irradiance maps are built on.

Index convention
----------------
``data[row, col]`` where ``row`` grows northwards (towards +y) and ``col``
grows eastwards (towards +x).  ``row = 0`` is the southernmost row.  World
coordinates of the *centre* of cell ``(row, col)`` are::

    x = origin_x + (col + 0.5) * pitch
    y = origin_y + (row + 0.5) * pitch
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GeometryError
from .polygon import BoundingBox


@dataclass(frozen=True)
class RasterSpec:
    """Geometric description of a raster grid (no cell values)."""

    origin_x: float
    origin_y: float
    pitch: float
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.pitch <= 0:
            raise GeometryError("raster pitch must be positive")
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise GeometryError("raster dimensions must be positive")

    @property
    def shape(self) -> Tuple[int, int]:
        """Array shape ``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def width(self) -> float:
        """East-west extent in metres."""
        return self.n_cols * self.pitch

    @property
    def height(self) -> float:
        """North-south extent in metres."""
        return self.n_rows * self.pitch

    def bounding_box(self) -> BoundingBox:
        """World-coordinate bounding box covered by the raster."""
        return BoundingBox(
            self.origin_x,
            self.origin_y,
            self.origin_x + self.width,
            self.origin_y + self.height,
        )


class Raster:
    """A 2D array of values with world-coordinate georeferencing."""

    def __init__(self, spec: RasterSpec, data: np.ndarray | None = None, fill: float = 0.0):
        self._spec = spec
        if data is None:
            self._data = np.full(spec.shape, fill, dtype=float)
        else:
            array = np.asarray(data, dtype=float)
            if array.shape != spec.shape:
                raise GeometryError(
                    f"data shape {array.shape} does not match raster spec shape {spec.shape}"
                )
            self._data = array.copy()

    # -- accessors -----------------------------------------------------------

    @property
    def spec(self) -> RasterSpec:
        """Geometric description of the grid."""
        return self._spec

    @property
    def data(self) -> np.ndarray:
        """The underlying 2D value array (mutable view)."""
        return self._data

    @property
    def pitch(self) -> float:
        """Cell side length in metres."""
        return self._spec.pitch

    @property
    def shape(self) -> Tuple[int, int]:
        """Array shape ``(n_rows, n_cols)``."""
        return self._spec.shape

    def copy(self) -> "Raster":
        """Deep copy of spec and data."""
        return Raster(self._spec, self._data.copy())

    # -- transformations -----------------------------------------------------

    def window(self, row0: int, col0: int, n_rows: int, n_cols: int) -> "Raster":
        """Extract a rectangular sub-raster (copies data)."""
        if (
            row0 < 0
            or col0 < 0
            or row0 + n_rows > self._spec.n_rows
            or col0 + n_cols > self._spec.n_cols
        ):
            raise GeometryError("window exceeds raster bounds")
        sub_spec = RasterSpec(
            self._spec.origin_x + col0 * self._spec.pitch,
            self._spec.origin_y + row0 * self._spec.pitch,
            self._spec.pitch,
            n_rows,
            n_cols,
        )
        return Raster(sub_spec, self._data[row0 : row0 + n_rows, col0 : col0 + n_cols])

    # -- statistics ------------------------------------------------------------

    def min(self) -> float:
        """Minimum cell value."""
        return float(np.min(self._data))

    def max(self) -> float:
        """Maximum cell value."""
        return float(np.max(self._data))

    def mean(self) -> float:
        """Mean cell value."""
        return float(np.mean(self._data))

    def percentile(self, q: float) -> float:
        """q-th percentile of the cell values."""
        return float(np.percentile(self._data, q))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Raster(shape={self.shape}, pitch={self.pitch}, "
            f"min={self.min():.3f}, max={self.max():.3f})"
        )
