"""Geometry kernel: points, polygons, rasters, and coordinate frames.

This subpackage replaces the subset of ``shapely`` / ``rasterio``
functionality the reproduction needs, implemented on top of numpy.  The
names below load on first use (PEP 562); points, polygons and frames
import numpy only where they compute on arrays.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".point": ("Point2D", "Point3D"),
        ".polygon": ("BoundingBox", "Polygon"),
        ".raster": ("Raster", "RasterSpec"),
        ".transform": ("RoofPlaneFrame",),
    },
)
