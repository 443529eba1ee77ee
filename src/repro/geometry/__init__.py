"""Geometry kernel: points, polygons, rasters, and coordinate frames.

This subpackage replaces the subset of ``shapely`` / ``rasterio``
functionality the reproduction needs, implemented on top of numpy.
"""

from .point import Point2D, Point3D
from .polygon import BoundingBox, Polygon
from .raster import Raster, RasterSpec
from .transform import RoofPlaneFrame

__all__ = [
    "Point2D",
    "Point3D",
    "BoundingBox",
    "Polygon",
    "Raster",
    "RasterSpec",
    "RoofPlaneFrame",
]
