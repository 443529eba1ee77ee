"""The roof description: a lean-to facet, its obstacles and its neighbours.

A :class:`RoofSpec` is the document form of a roof -- plain numbers and
polygons in roof-plane coordinates -- that :func:`repro.gis.synthetic.build_roof_scene`
rasterises into a DSM.  The obstacle factories here draw no random numbers;
the seeded generators (:func:`~repro.gis.synthetic.scattered_vents`,
:func:`~repro.gis.synthetic.random_obstacle_set`) stay with the scene
builder.  Nothing here imports numpy, so a scenario document loads, digests
and serialises without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import GISError
from ..geometry.polygon import Polygon

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


# ---------------------------------------------------------------------------
# The roof and its surroundings
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

