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
from ..geometry import Point2D, Point3D, Polygon, Raster, RasterSpec, RoofPlaneFrame
from .dsm import DigitalSurfaceModel, ObstacleFootprint

# ---------------------------------------------------------------------------
# Obstacle factories (footprints are expressed in roof-plane coordinates)
# ---------------------------------------------------------------------------


def chimney(u: float, v: float, side_m: float = 0.8, height_m: float = 1.5) -> ObstacleFootprint:
    """A square masonry chimney."""
    half = side_m / 2.0
    return ObstacleFootprint(
        name="chimney",
        polygon=Polygon.rectangle(u - half, v - half, u + half, v + half),
        height_m=height_m,
        clearance_m=0.3,
    )


def dormer(
    u: float, v: float, width_m: float = 2.0, depth_m: float = 1.6, height_m: float = 1.8
) -> ObstacleFootprint:
    """A dormer window volume protruding from the roof plane."""
    return ObstacleFootprint(
        name="dormer",
        polygon=Polygon.rectangle(
            u - width_m / 2, v - depth_m / 2, u + width_m / 2, v + depth_m / 2
        ),
        height_m=height_m,
        clearance_m=0.4,
    )


def pipe_rack(
    u: float, v: float, length_m: float = 10.0, width_m: float = 1.6, height_m: float = 1.2
) -> ObstacleFootprint:
    """A run of service pipes on a raised rack (dominant encumbrance on Roof 1)."""
    return ObstacleFootprint(
        name="pipe_rack",
        polygon=Polygon.rectangle(u, v, u + length_m, v + width_m),
        height_m=height_m,
        clearance_m=0.4,
    )


def hvac_unit(u: float, v: float, side_m: float = 2.4, height_m: float = 1.6) -> ObstacleFootprint:
    """A rooftop HVAC / ventilation unit."""
    half = side_m / 2.0
    return ObstacleFootprint(
        name="hvac",
        polygon=Polygon.rectangle(u - half, v - half, u + half, v + half),
        height_m=height_m,
        clearance_m=0.4,
    )


def antenna(u: float, v: float, side_m: float = 0.3, height_m: float = 3.0) -> ObstacleFootprint:
    """A slender antenna mast (small footprint, long shadow)."""
    half = side_m / 2.0
    return ObstacleFootprint(
        name="antenna",
        polygon=Polygon.rectangle(u - half, v - half, u + half, v + half),
        height_m=height_m,
        clearance_m=0.2,
    )


def skylight_row(
    u: float, v: float, length_m: float = 6.0, width_m: float = 1.2, height_m: float = 0.5
) -> ObstacleFootprint:
    """A row of skylights: low, but panels cannot be installed over them."""
    return ObstacleFootprint(
        name="skylight",
        polygon=Polygon.rectangle(u, v, u + length_m, v + width_m),
        height_m=height_m,
        clearance_m=0.3,
    )


def vent(u: float, v: float, side_m: float = 0.4, height_m: float = 0.8) -> ObstacleFootprint:
    """A small vent pipe / exhaust stack (tiny footprint, noticeable shadow trail)."""
    half = side_m / 2.0
    return ObstacleFootprint(
        name="vent",
        polygon=Polygon.rectangle(u - half, v - half, u + half, v + half),
        height_m=height_m,
        clearance_m=0.2,
    )


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
class AdjacentStructure:
    """A neighbouring volume that casts shadows but carries no panels.

    The footprint is expressed in *roof-plane* coordinates so structures can
    be conveniently anchored relative to the roof (e.g. a taller building
    section rising just beyond the high edge of the facet).  ``height_m`` is
    the height of the structure's top surface above the *roof origin*
    elevation (eave height).
    """

    name: str
    polygon: Polygon
    height_m: float


@dataclass(frozen=True)
class RoofSpec:
    """Parametric description of a lean-to roof facet and its surroundings."""

    name: str
    width_m: float
    depth_m: float
    tilt_deg: float
    azimuth_deg: float
    eave_height_m: float = 6.0
    edge_setback_m: float = 0.4
    obstacles: Tuple[ObstacleFootprint, ...] = ()
    adjacent_structures: Tuple[AdjacentStructure, ...] = ()
    surface_roughness_m: float = 0.0
    roughness_correlation_m: float = 2.0
    roughness_seed: int = 0

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.depth_m <= 0:
            raise GISError("roof width and depth must be positive")
        if not 0.0 <= self.tilt_deg < 90.0:
            raise GISError("roof tilt must be in [0, 90)")
        if self.edge_setback_m < 0:
            raise GISError("edge setback must be non-negative")
        if self.surface_roughness_m < 0:
            raise GISError("surface roughness must be non-negative")
        if self.roughness_correlation_m <= 0:
            raise GISError("roughness correlation length must be positive")

    @property
    def area_m2(self) -> float:
        """Area of the roof facet measured on the inclined plane [m^2]."""
        return self.width_m * self.depth_m


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
