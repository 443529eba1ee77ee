"""Unit tests for the geometry kernel (points, polygons, rasters, frames)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    BoundingBox,
    Point2D,
    Point3D,
    Polygon,
    Raster,
    RasterSpec,
    RoofPlaneFrame,
)

from repro.geometry.polygon import _SEGMENT_TOL

from oracles.rasterize import contains_point


class TestPoint2D:
    def test_distance(self):
        assert Point2D(0, 0).distance_to(Point2D(3, 4)) == pytest.approx(5.0)

    def test_manhattan_distance(self):
        assert Point2D(1, 1).manhattan_distance_to(Point2D(4, -1)) == pytest.approx(5.0)

    def test_addition_and_subtraction(self):
        assert Point2D(1, 2) + Point2D(3, 4) == Point2D(4, 6)
        assert Point2D(3, 4) - Point2D(1, 2) == Point2D(2, 2)

    def test_scalar_multiplication(self):
        assert 2 * Point2D(1.5, -2.0) == Point2D(3.0, -4.0)

    def test_rotation_quarter_turn(self):
        rotated = Point2D(1, 0).rotated(math.pi / 2)
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_rotation_about_center(self):
        rotated = Point2D(2, 1).rotated(math.pi, about=Point2D(1, 1))
        assert rotated.x == pytest.approx(0.0, abs=1e-12)
        assert rotated.y == pytest.approx(1.0)

    def test_cross(self):
        assert Point2D(1, 0).cross(Point2D(0, 1)) == pytest.approx(1.0)

    def test_normalized(self):
        unit = Point2D(3, 4).normalized()
        assert unit.norm() == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Point2D(0, 0).normalized()

    def test_iteration_unpacking(self):
        x, y = Point2D(7, 8)
        assert (x, y) == (7, 8)


class TestPoint3D:
    def test_distance(self):
        assert Point3D(0, 0, 0).distance_to(Point3D(1, 2, 2)) == pytest.approx(3.0)

    def test_cross_product_orthogonality(self):
        a, b = Point3D(1, 0, 0), Point3D(0, 1, 0)
        cross = a.cross(b)
        assert tuple(cross) == (0, 0, 1)

    def test_horizontal_projection(self):
        assert Point3D(1, 2, 3).horizontal() == Point2D(1, 2)

    def test_normalized_length(self):
        assert Point3D(2, 3, 6).normalized().norm() == pytest.approx(1.0)


class TestBoundingBox:
    def test_dimensions(self):
        box = BoundingBox(0, 0, 4, 3)
        assert box.width == 4 and box.height == 3 and box.area == 12

    def test_expanded(self):
        grown = BoundingBox(0, 0, 1, 1).expanded(0.5)
        assert grown.xmin == -0.5 and grown.xmax == 1.5


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_rectangle_area(self):
        rect = Polygon.rectangle(0, 0, 4, 3)
        assert rect.area() == pytest.approx(12.0)

    def test_closing_vertex_dropped(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(poly) == 3

    def test_signed_area_orientation(self):
        ccw = Polygon([(0, 0), (1, 0), (1, 1)])
        assert ccw.signed_area() == pytest.approx(0.5)
        assert ccw.reversed().signed_area() == pytest.approx(-0.5)

    def test_centroid_of_rectangle(self):
        rect = Polygon.rectangle(0, 0, 2, 4)
        centroid = rect.centroid()
        assert centroid.x == pytest.approx(1.0)
        assert centroid.y == pytest.approx(2.0)

    def test_contains_point(self):
        rect = Polygon.rectangle(0, 0, 2, 2)
        assert contains_point(rect, Point2D(1, 1))
        assert contains_point(rect, Point2D(0, 1))  # boundary
        assert not contains_point(rect, Point2D(3, 1))
        assert not contains_point(rect, Point2D(0, 1), include_boundary=False)

    def test_translation(self):
        rect = Polygon.rectangle(0, 0, 1, 1).translated(5, 5)
        assert rect.bounding_box() == BoundingBox(5, 5, 6, 6)

    def test_scaled_area(self):
        rect = Polygon.rectangle(0, 0, 2, 2).scaled(2.0)
        assert rect.area() == pytest.approx(16.0)

    def test_scaled_invalid_factor(self):
        with pytest.raises(GeometryError):
            Polygon.rectangle(0, 0, 1, 1).scaled(0.0)

    def test_rotation_preserves_area(self):
        rect = Polygon.rectangle(0, 0, 3, 1)
        assert rect.rotated(0.7).area() == pytest.approx(rect.area())

    def test_rasterize_center_mode(self):
        rect = Polygon.rectangle(0, 0, 1, 1)
        mask = rect.rasterize(Point2D(0, 0), 0.5, 4, 4, mode="center")
        assert mask.sum() == 4
        assert mask[:2, :2].all()

    def test_rasterize_touch_mode_is_superset(self):
        rect = Polygon.rectangle(0.1, 0.1, 0.9, 0.9)
        center = rect.rasterize(Point2D(0, 0), 0.5, 4, 4, mode="center")
        touch = rect.rasterize(Point2D(0, 0), 0.5, 4, 4, mode="touch")
        assert touch.sum() >= center.sum()

    def test_rasterize_invalid_mode(self):
        with pytest.raises(GeometryError):
            Polygon.rectangle(0, 0, 1, 1).rasterize(Point2D(0, 0), 0.5, 2, 2, mode="weird")


def _crossing_parity_everywhere(polygon: Polygon, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ray-casting test with the crossing abscissa taken at every point.

    The form ``Polygon._contains_points`` had before it skipped the points
    outside an edge's y-span; the abscissa there may overflow, but the
    ``crosses &`` mask discards it.
    """
    on_edge = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=bool)
    inside = np.zeros_like(on_edge)
    vertices = polygon.vertices
    tol = _SEGMENT_TOL
    with np.errstate(over="ignore"):
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
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


_coordinate = st.one_of(
    st.floats(min_value=-5.0, max_value=15.0),
    st.floats(min_value=-1e12, max_value=1e12),
    st.sampled_from([0.0, 1e-300, -1e-300, 5e-324, 1e10, -1e10]),
)


@settings(max_examples=60, deadline=None)
@given(
    dy=st.sampled_from([1e-300, -1e-300, 5e-324, 1e-200, 1e-30]),
    points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40),
)
def test_near_horizontal_edge_contains_points_without_overflow(dy, points):
    """A tiny-``dy`` edge raises no float warning and keeps every mask bit."""
    polygon = Polygon([(0.0, 0.0), (10.0, dy), (10.0, 5.0), (0.0, 5.0)])
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        covered = polygon._contains_points(x, y)
    np.testing.assert_array_equal(covered, _crossing_parity_everywhere(polygon, x, y))
    # Broadcast (rows, cols) point grids as ``rasterize`` passes them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = polygon._contains_points(x[None, :], y[:, None])
    np.testing.assert_array_equal(
        grid, _crossing_parity_everywhere(polygon, x[None, :], y[:, None])
    )


def test_near_horizontal_edge_far_point_is_outside():
    polygon = Polygon([(0.0, 0.0), (10.0, 1e-300), (10.0, 5.0), (0.0, 5.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        covered = polygon._contains_points(np.array([1.0, 5.0]), np.array([1e10, 2.0]))
    assert covered.tolist() == [False, True]


class TestRaster:
    def spec(self) -> RasterSpec:
        return RasterSpec(origin_x=10.0, origin_y=20.0, pitch=0.5, n_rows=4, n_cols=6)

    def test_spec_dimensions(self):
        spec = self.spec()
        assert spec.shape == (4, 6)
        assert spec.width == pytest.approx(3.0)
        assert spec.height == pytest.approx(2.0)

    def test_invalid_spec(self):
        with pytest.raises(GeometryError):
            RasterSpec(0, 0, -1.0, 2, 2)
        with pytest.raises(GeometryError):
            RasterSpec(0, 0, 1.0, 0, 2)

    def test_data_shape_validation(self):
        with pytest.raises(GeometryError):
            Raster(self.spec(), np.zeros((2, 2)))

    def test_window_extraction(self):
        spec = RasterSpec(0, 0, 1.0, 4, 4)
        raster = Raster(spec, np.arange(16, dtype=float).reshape(4, 4))
        window = raster.window(1, 1, 2, 2)
        assert window.shape == (2, 2)
        assert window.data[0, 0] == 5.0

    def test_window_out_of_bounds(self):
        raster = Raster(self.spec())
        with pytest.raises(GeometryError):
            raster.window(3, 5, 2, 2)

    def test_statistics(self):
        raster = Raster(self.spec(), np.arange(24, dtype=float).reshape(4, 6))
        assert raster.min() == 0.0 and raster.max() == 23.0
        assert raster.mean() == pytest.approx(11.5)
        assert raster.percentile(50) == pytest.approx(11.5)


class TestRoofPlaneFrame:
    def frame(self, azimuth=0.0, tilt=30.0) -> RoofPlaneFrame:
        return RoofPlaneFrame(origin=Point3D(0, 0, 5), azimuth_deg=azimuth, tilt_deg=tilt)

    def test_invalid_tilt(self):
        with pytest.raises(GeometryError):
            RoofPlaneFrame(origin=Point3D(0, 0, 0), azimuth_deg=0.0, tilt_deg=95.0)

    def test_normal_is_unit_and_points_up(self):
        normal = self.frame().normal
        assert normal.norm() == pytest.approx(1.0)
        assert normal.z > 0

    def test_south_facing_normal_direction(self):
        normal = self.frame(azimuth=0.0, tilt=30.0).normal
        # South-facing: the horizontal part of the normal points south (-y).
        assert normal.y < 0
        assert abs(normal.x) < 1e-9

    def test_origin_maps_to_origin(self):
        frame = self.frame()
        world = frame.roof_to_world(Point2D(0, 0))
        assert tuple(world) == pytest.approx((0.0, 0.0, 5.0))

    def test_u_axis_is_horizontal(self):
        frame = self.frame()
        along_eave = frame.roof_to_world(Point2D(1, 0))
        assert along_eave.z == pytest.approx(5.0)

    def test_v_axis_climbs_the_slope(self):
        frame = self.frame(tilt=30.0)
        up_slope = frame.roof_to_world(Point2D(0, 2))
        assert up_slope.z == pytest.approx(5.0 + 2 * math.sin(math.radians(30)))
