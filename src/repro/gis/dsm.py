"""Digital Surface Model (DSM) handling.

A DSM is a raster whose cell values are surface elevations in metres: the
terrain plus everything standing on it (buildings, roof obstacles, trees).
The paper's GIS flow starts from a LiDAR-derived DSM with sub-metre
resolution; here the :class:`DigitalSurfaceModel` wraps the generic
:class:`repro.geometry.Raster` and checks that every elevation is finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GISError
from ..geometry import Polygon, Raster


class DigitalSurfaceModel:
    """A georeferenced elevation raster with surface-analysis helpers."""

    def __init__(self, raster: Raster):
        if raster.data.ndim != 2:
            raise GISError("a DSM must wrap a 2D raster")
        if np.any(~np.isfinite(raster.data)):
            raise GISError("a DSM must not contain NaN or infinite elevations")
        self._raster = raster

    # -- accessors -------------------------------------------------------------

    @property
    def raster(self) -> Raster:
        """The underlying raster."""
        return self._raster

    @property
    def data(self) -> np.ndarray:
        """The elevation array [m] (mutable view)."""
        return self._raster.data

    @property
    def pitch(self) -> float:
        """Cell size [m]."""
        return self._raster.pitch

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(n_rows, n_cols)``."""
        return self._raster.shape

    def copy(self) -> "DigitalSurfaceModel":
        """Deep copy."""
        return DigitalSurfaceModel(self._raster.copy())


@dataclass(frozen=True)
class ObstacleFootprint:
    """A roof encumbrance: its footprint on the roof plane and its height.

    Attributes
    ----------
    name:
        Human-readable label ("chimney", "pipe rack", ...).
    polygon:
        Footprint polygon expressed in *roof-plane* coordinates (u, v) [m].
    height_m:
        Height of the obstacle above the roof surface [m].
    clearance_m:
        Additional keep-out margin around the footprint where modules must
        not be placed (maintenance access, shadow penumbra).
    """

    name: str
    polygon: Polygon
    height_m: float
    clearance_m: float = 0.2

    def __post_init__(self) -> None:
        if self.height_m <= 0:
            raise GISError("obstacle height must be positive")
        if self.clearance_m < 0:
            raise GISError("obstacle clearance must be non-negative")
