"""GIS substrate: DSM container, synthetic scenes, suitable area, gridding.

The names below load on first use (PEP 562).  The roof description --
:class:`RoofSpec`, its obstacles and neighbours, and the obstacle
factories that draw no random numbers -- lives in :mod:`repro.gis.roof`,
which imports no numpy.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".dsm": ("DigitalSurfaceModel",),
        ".gridding": ("RoofGrid", "make_roof_grid"),
        ".roof": (
            "AdjacentStructure",
            "ObstacleFootprint",
            "RoofSpec",
            "antenna",
            "chimney",
            "dormer",
            "hvac_unit",
            "pipe_rack",
            "skylight_row",
            "vent",
        ),
        ".suitable_area": (
            "SuitableAreaConfig",
            "SuitableAreaResult",
            "apply_suitable_area",
            "compute_suitable_area",
            "suitable_grid_for_scene",
        ),
        ".synthetic": (
            "RoofScene",
            "build_roof_scene",
            "random_obstacle_set",
            "scattered_vents",
            "simple_residential_roof",
        ),
    },
)
