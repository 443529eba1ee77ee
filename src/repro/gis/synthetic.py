"""Synthetic DSM / roof-scene generation.

The three industrial roofs of the paper come from a proprietary LiDAR DSM of
Turin that is not publicly available.  This module builds the closest
synthetic equivalent: a parametric lean-to roof of configurable size, tilt
and azimuth, standing on a flat terrain, populated with the typical roof
encumbrances the paper mentions (chimneys, dormers, pipe racks, antennas,
parapets) and optional adjacent structures that cast shadows onto it.

The generated :class:`RoofScene` bundles everything the downstream pipeline
needs: the DSM (for shading), the roof-plane frame (for the virtual grid),
the roof outline, and the obstacle footprints (for suitable-area masking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GISError
from ..geometry.point import Point2D, Point3D
from ..geometry.polygon import Polygon
from ..geometry.raster import Raster, RasterSpec
from ..geometry.transform import RoofPlaneFrame
from .dsm import DigitalSurfaceModel
from .roof import (
    AdjacentStructure,
    ObstacleFootprint,
    RoofSpec,
    antenna,
    chimney,
    dormer,
    hvac_unit,
    pipe_rack,
    skylight_row,
    vent,
)

__all__ = [
    "AdjacentStructure",
    "ObstacleFootprint",
    "RoofScene",
    "RoofSpec",
    "antenna",
    "build_roof_scene",
    "chimney",
    "dormer",
    "hvac_unit",
    "pipe_rack",
    "random_obstacle_set",
    "scattered_vents",
    "simple_residential_roof",
    "skylight_row",
    "vent",
]

# Cached scene pickles name these classes ``repro.gis.synthetic.*``.  Their
# ``__module__`` is this module's own ``__name__`` string, which the pickler
# writes once and shares with ``RoofScene``, so scene entries keep their
# bytes and checksums.
AdjacentStructure.__module__ = RoofSpec.__module__ = __name__

# ---------------------------------------------------------------------------
# Seeded obstacle fields (the plain factories live in repro.gis.roof)
# ---------------------------------------------------------------------------


def scattered_vents(
    width_m: float,
    depth_m: float,
    n_vents: int,
    seed: int = 0,
    margin_m: float = 1.0,
    height_range_m: Tuple[float, float] = (0.5, 1.1),
) -> Tuple[ObstacleFootprint, ...]:
    """Scatter small vent stacks over the roof.

    Industrial roofs carry dozens of small penetrations (exhausts, conduits,
    drains) whose shadow trails are what makes the fine-grain irradiance map
    of the paper's Figure 6(b) so mottled.  The vents are placed on a jittered
    grid so they spread over the whole facet instead of clustering.
    """
    if n_vents < 0:
        raise GISError("n_vents must be non-negative")
    if n_vents == 0:
        return ()
    rng = np.random.default_rng(seed)
    n_cols = int(np.ceil(np.sqrt(n_vents * width_m / max(depth_m, 1e-6))))
    n_rows = int(np.ceil(n_vents / max(n_cols, 1)))
    cell_w = (width_m - 2 * margin_m) / max(n_cols, 1)
    cell_d = (depth_m - 2 * margin_m) / max(n_rows, 1)
    vents = []
    for index in range(n_vents):
        grid_row = index // n_cols
        grid_col = index % n_cols
        u = margin_m + (grid_col + rng.uniform(0.2, 0.8)) * cell_w
        v = margin_m + (grid_row + rng.uniform(0.2, 0.8)) * cell_d
        height = float(rng.uniform(*height_range_m))
        side = float(rng.uniform(0.3, 0.5))
        vents.append(vent(float(u), float(v), side_m=side, height_m=height))
    return tuple(vents)


# ---------------------------------------------------------------------------
# Scene description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoofScene:
    """A synthetic scene: DSM + roof frame + outline + obstacles."""

    spec: RoofSpec
    dsm: DigitalSurfaceModel
    frame: RoofPlaneFrame
    roof_polygon: Polygon
    obstacles: Tuple[ObstacleFootprint, ...] = ()

    @property
    def name(self) -> str:
        """Name of the underlying roof specification."""
        return self.spec.name


# ---------------------------------------------------------------------------
# Scene construction
# ---------------------------------------------------------------------------


def build_roof_scene(
    spec: RoofSpec,
    dsm_pitch: float = 0.4,
    margin_m: float = 8.0,
    ground_elevation: float = 0.0,
) -> RoofScene:
    """Rasterise a :class:`RoofSpec` into a DSM and assemble the scene.

    Parameters
    ----------
    spec:
        Roof description (size, tilt, azimuth, obstacles, neighbours).
    dsm_pitch:
        DSM cell size [m].  0.4 m resolves all obstacle footprints used by
        the case studies while keeping horizon-map computation fast; the
        virtual placement grid keeps its own (finer) pitch.
    margin_m:
        Flat terrain margin added around the building footprint so shadows
        of adjacent structures are fully contained in the raster.
    ground_elevation:
        Elevation of the surrounding terrain [m].
    """
    if dsm_pitch <= 0:
        raise GISError("dsm_pitch must be positive")
    if margin_m < 0:
        raise GISError("margin_m must be non-negative")

    frame = RoofPlaneFrame(
        origin=Point3D(0.0, 0.0, spec.eave_height_m),
        azimuth_deg=spec.azimuth_deg,
        tilt_deg=spec.tilt_deg,
    )

    roof_polygon = Polygon.rectangle(0.0, 0.0, spec.width_m, spec.depth_m)

    # World-space footprints (horizontal projections).
    roof_world = _roof_polygon_to_world(roof_polygon, frame)
    obstacle_world = [
        (_roof_polygon_to_world(obstacle.polygon, frame), obstacle.height_m)
        for obstacle in spec.obstacles
    ]
    adjacent_world = [
        (_roof_polygon_to_world(structure.polygon, frame), structure.height_m)
        for structure in spec.adjacent_structures
    ]

    # Raster extent: bounding box of everything plus the margin.
    all_polygons = [roof_world] + [p for p, _ in obstacle_world] + [p for p, _ in adjacent_world]
    xs = [v.x for poly in all_polygons for v in poly.vertices]
    ys = [v.y for poly in all_polygons for v in poly.vertices]
    xmin, xmax = min(xs) - margin_m, max(xs) + margin_m
    ymin, ymax = min(ys) - margin_m, max(ys) + margin_m

    n_cols = int(np.ceil((xmax - xmin) / dsm_pitch))
    n_rows = int(np.ceil((ymax - ymin) / dsm_pitch))
    raster_spec = RasterSpec(xmin, ymin, dsm_pitch, n_rows, n_cols)
    elevation = np.full((n_rows, n_cols), float(ground_elevation))

    # Every footprint below becomes DSM cells through Polygon.rasterize,
    # which tests the cell points of the polygon's bounding box as arrays.
    origin = Point2D(xmin, ymin)

    # 1. Roof surface (optionally textured with LiDAR-like roughness: ducts,
    #    conduits, roofing seams -- the fine-grain structure a real DSM shows).
    roof_mask = roof_world.rasterize(origin, dsm_pitch, n_cols, n_rows, mode="center")
    roof_heights = _roof_surface_elevation(raster_spec, frame)
    if spec.surface_roughness_m > 0:
        roof_heights = roof_heights + _correlated_roughness(
            raster_spec,
            amplitude_m=spec.surface_roughness_m,
            correlation_m=spec.roughness_correlation_m,
            seed=spec.roughness_seed,
        )
    elevation = np.where(roof_mask, np.maximum(elevation, roof_heights), elevation)

    # 2. Obstacles standing on the roof.
    for polygon, height in obstacle_world:
        mask = polygon.rasterize(origin, dsm_pitch, n_cols, n_rows, mode="touch")
        elevation = np.where(mask, np.maximum(elevation, roof_heights + height), elevation)

    # 3. Adjacent structures (prisms referenced to the eave elevation).
    for polygon, height in adjacent_world:
        mask = polygon.rasterize(origin, dsm_pitch, n_cols, n_rows, mode="touch")
        elevation = np.where(
            mask, np.maximum(elevation, spec.eave_height_m + height), elevation
        )

    dsm = DigitalSurfaceModel(Raster(raster_spec, elevation))
    return RoofScene(
        spec=spec,
        dsm=dsm,
        frame=frame,
        roof_polygon=roof_polygon,
        obstacles=tuple(spec.obstacles),
    )


def _roof_polygon_to_world(polygon: Polygon, frame: RoofPlaneFrame) -> Polygon:
    """Horizontal projection of a roof-plane polygon into world coordinates."""
    return Polygon(
        [frame.roof_to_world(vertex).horizontal() for vertex in polygon.vertices]
    )


def _correlated_roughness(
    spec: RasterSpec, amplitude_m: float, correlation_m: float, seed: int
) -> np.ndarray:
    """Spatially correlated height texture added to the roof surface.

    A coarse random lattice with the requested correlation length is
    bilinearly up-sampled to the DSM grid and a small cell-level jitter is
    superimposed; the result is scaled so its standard deviation equals
    ``amplitude_m``.  This mimics both the roofing equipment too small to be
    modelled explicitly (ducts, conduits, seams) and LiDAR measurement noise.
    """
    rng = np.random.default_rng(seed)
    coarse_pitch = max(correlation_m, spec.pitch)
    coarse_cols = max(2, int(np.ceil(spec.width / coarse_pitch)) + 1)
    coarse_rows = max(2, int(np.ceil(spec.height / coarse_pitch)) + 1)
    coarse = rng.normal(0.0, 1.0, size=(coarse_rows, coarse_cols))

    rows = np.arange(spec.n_rows) * spec.pitch / coarse_pitch
    cols = np.arange(spec.n_cols) * spec.pitch / coarse_pitch
    row0 = np.clip(np.floor(rows).astype(int), 0, coarse_rows - 2)
    col0 = np.clip(np.floor(cols).astype(int), 0, coarse_cols - 2)
    tr = (rows - row0)[:, None]
    tc = (cols - col0)[None, :]
    r0 = row0[:, None]
    c0 = col0[None, :]
    smooth = (
        coarse[r0, c0] * (1 - tr) * (1 - tc)
        + coarse[r0, c0 + 1] * (1 - tr) * tc
        + coarse[r0 + 1, c0] * tr * (1 - tc)
        + coarse[r0 + 1, c0 + 1] * tr * tc
    )
    jitter = rng.normal(0.0, 0.35, size=(spec.n_rows, spec.n_cols))
    texture = smooth + jitter
    std = float(np.std(texture))
    if std < 1e-12:
        return np.zeros((spec.n_rows, spec.n_cols))
    return texture / std * amplitude_m


def _roof_surface_elevation(spec: RasterSpec, frame: RoofPlaneFrame) -> np.ndarray:
    """Elevation of the roof plane evaluated at every DSM cell centre."""
    cols = np.arange(spec.n_cols)
    rows = np.arange(spec.n_rows)
    x = spec.origin_x + (cols + 0.5) * spec.pitch
    y = spec.origin_y + (rows + 0.5) * spec.pitch
    grid_x, grid_y = np.meshgrid(x, y)

    normal = frame.normal
    origin = frame.origin
    if abs(normal.z) < 1e-9:
        raise GISError("roof plane is vertical; cannot express elevation as z(x, y)")
    return origin.z - (
        normal.x * (grid_x - origin.x) + normal.y * (grid_y - origin.y)
    ) / normal.z


# ---------------------------------------------------------------------------
# Convenience generators
# ---------------------------------------------------------------------------


def random_obstacle_set(
    width_m: float,
    depth_m: float,
    n_obstacles: int,
    seed: int = 0,
) -> Tuple[ObstacleFootprint, ...]:
    """Scatter a plausible mix of obstacles over a roof of the given size."""
    if n_obstacles < 0:
        raise GISError("n_obstacles must be non-negative")
    rng = np.random.default_rng(seed)
    factories = (chimney, hvac_unit, antenna, dormer)
    obstacles = []
    for _ in range(n_obstacles):
        factory = factories[rng.integers(0, len(factories))]
        u = float(rng.uniform(1.5, max(width_m - 1.5, 1.6)))
        v = float(rng.uniform(1.0, max(depth_m - 1.0, 1.1)))
        obstacles.append(factory(u, v))
    return tuple(obstacles)


def simple_residential_roof(
    name: str = "residential",
    width_m: float = 10.0,
    depth_m: float = 6.0,
    tilt_deg: float = 30.0,
    azimuth_deg: float = 0.0,
    n_obstacles: int = 2,
    seed: int = 0,
) -> RoofSpec:
    """A small residential roof spec used by examples and tests."""
    return RoofSpec(
        name=name,
        width_m=width_m,
        depth_m=depth_m,
        tilt_deg=tilt_deg,
        azimuth_deg=azimuth_deg,
        eave_height_m=5.0,
        obstacles=random_obstacle_set(width_m, depth_m, n_obstacles, seed),
    )
