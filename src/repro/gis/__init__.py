"""GIS substrate: DSM container, synthetic scenes, suitable area, gridding."""

from .dsm import DigitalSurfaceModel, ObstacleFootprint
from .gridding import RoofGrid, make_roof_grid
from .suitable_area import (
    SuitableAreaConfig,
    SuitableAreaResult,
    apply_suitable_area,
    compute_suitable_area,
    suitable_grid_for_scene,
)
from .synthetic import (
    AdjacentStructure,
    RoofScene,
    RoofSpec,
    antenna,
    build_roof_scene,
    chimney,
    dormer,
    hvac_unit,
    pipe_rack,
    random_obstacle_set,
    scattered_vents,
    simple_residential_roof,
    skylight_row,
    vent,
)

__all__ = [
    "DigitalSurfaceModel",
    "ObstacleFootprint",
    "RoofGrid",
    "make_roof_grid",
    "SuitableAreaConfig",
    "SuitableAreaResult",
    "apply_suitable_area",
    "compute_suitable_area",
    "suitable_grid_for_scene",
    "AdjacentStructure",
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
