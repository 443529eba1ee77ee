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
from .point import Point2D
from .polygon import BoundingBox, Polygon


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

    def cell_center(self, row: int, col: int) -> Point2D:
        """World coordinates of the centre of cell ``(row, col)``."""
        self._check_index(row, col)
        return Point2D(
            self.origin_x + (col + 0.5) * self.pitch,
            self.origin_y + (row + 0.5) * self.pitch,
        )

    def index_of(self, point: Point2D) -> Tuple[int, int]:
        """Return the ``(row, col)`` of the cell containing ``point``.

        Raises
        ------
        GeometryError
            If the point falls outside the raster extent.
        """
        col = int(np.floor((point.x - self.origin_x) / self.pitch))
        row = int(np.floor((point.y - self.origin_y) / self.pitch))
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise GeometryError(
                f"point ({point.x:.3f}, {point.y:.3f}) is outside the raster extent"
            )
        return row, col

    def _check_index(self, row: int, col: int) -> None:
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise GeometryError(
                f"cell index ({row}, {col}) outside raster of shape {self.shape}"
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

    def value_at(self, point: Point2D) -> float:
        """Value of the cell containing ``point``."""
        row, col = self._spec.index_of(point)
        return float(self._data[row, col])

    def sample_bilinear(self, point: Point2D) -> float:
        """Bilinearly interpolated value at ``point``.

        Uses cell centres as interpolation nodes and clamps at the raster
        border (nearest-neighbour extrapolation outside the centre lattice).
        """
        fx = (point.x - self._spec.origin_x) / self._spec.pitch - 0.5
        fy = (point.y - self._spec.origin_y) / self._spec.pitch - 0.5
        col0 = int(np.floor(fx))
        row0 = int(np.floor(fy))
        tx = fx - col0
        ty = fy - row0
        col0c = int(np.clip(col0, 0, self._spec.n_cols - 1))
        col1c = int(np.clip(col0 + 1, 0, self._spec.n_cols - 1))
        row0c = int(np.clip(row0, 0, self._spec.n_rows - 1))
        row1c = int(np.clip(row0 + 1, 0, self._spec.n_rows - 1))
        v00 = self._data[row0c, col0c]
        v01 = self._data[row0c, col1c]
        v10 = self._data[row1c, col0c]
        v11 = self._data[row1c, col1c]
        top = v00 * (1 - tx) + v01 * tx
        bottom = v10 * (1 - tx) + v11 * tx
        return float(top * (1 - ty) + bottom * ty)

    # -- transformations -----------------------------------------------------

    def resampled(self, new_pitch: float) -> "Raster":
        """Return a copy resampled to a different pitch (bilinear).

        The output covers the same world extent; the number of rows/columns
        is rounded to fully cover it.
        """
        if new_pitch <= 0:
            raise GeometryError("new pitch must be positive")
        n_cols = max(1, int(np.ceil(self._spec.width / new_pitch)))
        n_rows = max(1, int(np.ceil(self._spec.height / new_pitch)))
        new_spec = RasterSpec(
            self._spec.origin_x, self._spec.origin_y, new_pitch, n_rows, n_cols
        )
        out = Raster(new_spec)
        for row in range(n_rows):
            for col in range(n_cols):
                centre = new_spec.cell_center(row, col)
                x_max = self._spec.origin_x + self._spec.width - 1e-9
                y_max = self._spec.origin_y + self._spec.height - 1e-9
                clamped = Point2D(
                    min(max(centre.x, self._spec.origin_x), x_max),
                    min(max(centre.y, self._spec.origin_y), y_max),
                )
                out.data[row, col] = self.sample_bilinear(clamped)
        return out

    def mask_from_polygon(self, polygon: Polygon, mode: str = "center") -> np.ndarray:
        """Boolean mask of the cells covered by ``polygon``."""
        return polygon.rasterize(
            Point2D(self._spec.origin_x, self._spec.origin_y),
            self._spec.pitch,
            self._spec.n_cols,
            self._spec.n_rows,
            mode=mode,
        )

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
