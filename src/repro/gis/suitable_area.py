"""Suitable-area identification.

Section IV of the paper: "The DSM allows to recognize encumbrances over the
roof (e.g. chimneys and dormers), that prevent the deployment of PV panels
[...]  The result is the identification of the suitable area, i.e., of the
area of the roof that can be used for the placement of PV panels.  The area
is then aligned to the virtual grid to obtain the inputs for the placement
algorithm, i.e., the dimension of the area (parameters W and H) and the
valid grid elements (Ng)."

Grid elements covered by an obstacle footprint (expanded by the obstacle's
clearance margin) or lying within the edge setback of the facet are
invalid.  Shading excludes nothing here: a shaded element stays valid and
its low suitability keeps the placers away from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GISError
from ..geometry import Point2D, Polygon
from .dsm import ObstacleFootprint
from .gridding import RoofGrid
from .synthetic import RoofScene


@dataclass(frozen=True)
class SuitableAreaConfig:
    """Parameters of the suitable-area extraction."""

    edge_setback_m: float = 0.4

    def __post_init__(self) -> None:
        if self.edge_setback_m < 0:
            raise GISError("edge setback must be non-negative")


@dataclass(frozen=True)
class SuitableAreaResult:
    """Outcome of the suitable-area extraction."""

    valid_mask: np.ndarray
    n_valid: int
    n_total: int
    excluded_by_obstacles: int
    excluded_by_setback: int


def _expanded_footprint(obstacle: ObstacleFootprint) -> Polygon:
    """Obstacle footprint grown by its clearance margin (bounding-box growth)."""
    if obstacle.clearance_m <= 0:
        return obstacle.polygon
    box = obstacle.polygon.bounding_box().expanded(obstacle.clearance_m)
    return Polygon.rectangle(box.xmin, box.ymin, box.xmax, box.ymax)


def compute_suitable_area(
    grid: RoofGrid,
    obstacles: Sequence[ObstacleFootprint],
    config: SuitableAreaConfig | None = None,
) -> SuitableAreaResult:
    """Determine which grid elements can host PV modules.

    Parameters
    ----------
    grid:
        The roof virtual grid (its current mask is the starting point).
    obstacles:
        Roof encumbrances in roof-plane coordinates.
    config:
        Extraction parameters; defaults to a 0.4 m edge setback.
    """
    cfg = config if config is not None else SuitableAreaConfig()

    mask = grid.valid_mask.copy()
    n_total = grid.n_cells

    # 1. Edge setback: elements whose centre is too close to the facet border.
    setback_removed = 0
    if cfg.edge_setback_m > 0:
        u = (np.arange(grid.n_cols) + 0.5) * grid.pitch
        v = (np.arange(grid.n_rows) + 0.5) * grid.pitch
        grid_u, grid_v = np.meshgrid(u, v)
        inside = (
            (grid_u >= cfg.edge_setback_m)
            & (grid_u <= grid.width_m - cfg.edge_setback_m)
            & (grid_v >= cfg.edge_setback_m)
            & (grid_v <= grid.depth_m - cfg.edge_setback_m)
        )
        setback_removed = int(np.count_nonzero(mask & ~inside))
        mask &= inside

    # 2. Obstacle footprints (with clearance).
    obstacle_removed = 0
    if obstacles:
        covered = np.zeros_like(mask)
        for obstacle in obstacles:
            footprint = _expanded_footprint(obstacle)
            covered |= footprint.rasterize(
                Point2D(0.0, 0.0), grid.pitch, grid.n_cols, grid.n_rows, mode="touch"
            )
        obstacle_removed = int(np.count_nonzero(mask & covered))
        mask &= ~covered

    return SuitableAreaResult(
        valid_mask=mask,
        n_valid=int(np.count_nonzero(mask)),
        n_total=n_total,
        excluded_by_obstacles=obstacle_removed,
        excluded_by_setback=setback_removed,
    )


def apply_suitable_area(grid: RoofGrid, result: SuitableAreaResult) -> RoofGrid:
    """Return a copy of ``grid`` restricted to the suitable area."""
    return grid.with_mask(result.valid_mask)


def suitable_grid_for_scene(scene: RoofScene, grid: RoofGrid) -> RoofGrid:
    """Compute and apply the suitable area of a scene.

    The edge setback is the scene's own ``edge_setback_m``.
    """
    config = SuitableAreaConfig(edge_setback_m=scene.spec.edge_setback_m)
    return apply_suitable_area(grid, compute_suitable_area(grid, scene.obstacles, config))
