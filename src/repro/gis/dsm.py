"""Digital Surface Model (DSM) handling.

A DSM is a raster whose cell values are surface elevations in metres: the
terrain plus everything standing on it (buildings, roof obstacles, trees).
The paper's GIS flow starts from a LiDAR-derived DSM with sub-metre
resolution; here the :class:`DigitalSurfaceModel` wraps the generic
:class:`repro.geometry.Raster` and checks that every elevation is finite.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GISError
from ..geometry.raster import Raster
from .roof import ObstacleFootprint

__all__ = ["DigitalSurfaceModel", "ObstacleFootprint"]

# Cached scene pickles name the class ``repro.gis.dsm.ObstacleFootprint``.
# Its ``__module__`` is this module's own ``__name__`` string, which the
# pickler writes once and shares with ``DigitalSurfaceModel``, so scene
# entries keep their bytes and checksums.
ObstacleFootprint.__module__ = __name__


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
