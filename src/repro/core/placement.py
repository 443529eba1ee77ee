"""Placement data structures.

A *placement* assigns each of the N modules an anchor grid element and an
orientation on the roof's virtual grid.  The module then covers a
``k_w x k_h`` block of grid elements (Section III-A: all covered elements
become unusable for other modules).  Placements also record the
series/parallel topology so the evaluator and the wiring model know which
modules belong to which string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from ..errors import PlacementError
from ..geometry import Point2D
from ..pv.array import SeriesParallelTopology


@dataclass(frozen=True)
class ModuleFootprint:
    """Size of a module expressed in grid elements.

    ``cells_w`` counts elements along the eave (grid columns), ``cells_h``
    along the slope (grid rows).
    """

    cells_w: int
    cells_h: int

    def __post_init__(self) -> None:
        if self.cells_w < 1 or self.cells_h < 1:
            raise PlacementError("module footprint must span at least one cell per side")

    @property
    def n_cells(self) -> int:
        """Number of grid elements covered by one module (k1 * k2)."""
        return self.cells_w * self.cells_h

    def rotated(self) -> "ModuleFootprint":
        """The footprint of the module rotated by 90 degrees."""
        return ModuleFootprint(cells_w=self.cells_h, cells_h=self.cells_w)


@dataclass(frozen=True)
class ModulePlacement:
    """One module's position: anchor element (row, col) and orientation.

    The anchor is the module's lowest-row / lowest-column corner; the module
    covers rows ``row .. row + footprint.cells_h - 1`` and columns
    ``col .. col + footprint.cells_w - 1``.
    """

    module_index: int
    row: int
    col: int
    rotated: bool = False

    def footprint(self, base: ModuleFootprint) -> ModuleFootprint:
        """Effective footprint given the module's orientation."""
        return base.rotated() if self.rotated else base

    def covered_cells(self, base: ModuleFootprint) -> np.ndarray:
        """Array ``(k, 2)`` of the (row, col) elements covered by the module."""
        footprint = self.footprint(base)
        rows = np.arange(self.row, self.row + footprint.cells_h)
        cols = np.arange(self.col, self.col + footprint.cells_w)
        grid_r, grid_c = np.meshgrid(rows, cols, indexing="ij")
        return np.stack([grid_r.ravel(), grid_c.ravel()], axis=1)

    def center_roof(self, base: ModuleFootprint, pitch: float) -> Point2D:
        """Roof-plane coordinates of the module centre [m]."""
        footprint = self.footprint(base)
        u = (self.col + footprint.cells_w / 2.0) * pitch
        v = (self.row + footprint.cells_h / 2.0) * pitch
        return Point2D(u, v)


@dataclass(frozen=True)
class Placement:
    """A complete floorplan: N placed modules plus their electrical topology."""

    modules: Tuple[ModulePlacement, ...]
    footprint: ModuleFootprint
    topology: SeriesParallelTopology
    grid_pitch: float
    label: str = "unnamed"
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.modules) != self.topology.n_modules:
            raise PlacementError(
                f"placement has {len(self.modules)} modules but the topology "
                f"expects {self.topology.n_modules}"
            )
        if self.grid_pitch <= 0:
            raise PlacementError("grid pitch must be positive")
        indices = sorted(m.module_index for m in self.modules)
        if indices != list(range(len(self.modules))):
            raise PlacementError("module indices must be 0..N-1 without repetition")

    # -- iteration ------------------------------------------------------------------

    @property
    def n_modules(self) -> int:
        """Number of placed modules."""
        return len(self.modules)

    def __iter__(self) -> Iterator[ModulePlacement]:
        return iter(sorted(self.modules, key=lambda m: m.module_index))

    def module(self, index: int) -> ModulePlacement:
        """The placement record of module ``index``."""
        for placed in self.modules:
            if placed.module_index == index:
                return placed
        raise PlacementError(f"module {index} is not part of this placement")

    # -- geometry --------------------------------------------------------------------

    def covered_cells(self) -> np.ndarray:
        """All grid elements covered by any module, shape ``(N * k, 2)``."""
        return np.concatenate([m.covered_cells(self.footprint) for m in self], axis=0)

    def covered_cells_by_module(self) -> List[np.ndarray]:
        """Per-module covered elements, in module-index order."""
        return [m.covered_cells(self.footprint) for m in self]

    def module_centers(self) -> List[Point2D]:
        """Roof-plane centres of the modules, in module-index order."""
        return [m.center_roof(self.footprint, self.grid_pitch) for m in self]

    def string_positions(self) -> List[List[Point2D]]:
        """Module centres grouped by series string (series order within each)."""
        centers = self.module_centers()
        strings: List[List[Point2D]] = []
        for string_index in range(self.topology.n_parallel):
            member_indices = self.topology.modules_of_string(string_index)
            strings.append([centers[i] for i in member_indices])
        return strings

    def occupancy_map(self, shape: Tuple[int, int]) -> np.ndarray:
        """Integer map of the grid: -1 = free, otherwise the covering module index."""
        occupancy = np.full(shape, -1, dtype=int)
        for placed in self:
            cells = placed.covered_cells(self.footprint)
            occupancy[cells[:, 0], cells[:, 1]] = placed.module_index
        return occupancy

    def string_map(self, shape: Tuple[int, int]) -> np.ndarray:
        """Integer map of the grid: -1 = free, otherwise the covering string index."""
        strings = np.full(shape, -1, dtype=int)
        for placed in self:
            cells = placed.covered_cells(self.footprint)
            strings[cells[:, 0], cells[:, 1]] = self.topology.string_of(placed.module_index)
        return strings

    def bounding_box_cells(self) -> Tuple[int, int, int, int]:
        """Bounding box of the covered cells ``(row_min, col_min, row_max, col_max)``."""
        cells = self.covered_cells()
        return (
            int(cells[:, 0].min()),
            int(cells[:, 1].min()),
            int(cells[:, 0].max()),
            int(cells[:, 1].max()),
        )

    def dispersion_m(self) -> float:
        """Mean distance of the module centres from their centroid [m].

        A compactness measure used by reports: the traditional placement has
        the smallest possible dispersion for a given N, the paper's sparse
        placement a somewhat larger one.
        """
        centers = self.module_centers()
        cx = float(np.mean([c.x for c in centers]))
        cy = float(np.mean([c.y for c in centers]))
        centroid = Point2D(cx, cy)
        return float(np.mean([c.distance_to(centroid) for c in centers]))


def footprint_from_module(
    module_width_m: float, module_height_m: float, grid_pitch: float
) -> ModuleFootprint:
    """Module footprint in grid cells, enforcing the paper's divisibility rule."""
    k_w = module_width_m / grid_pitch
    k_h = module_height_m / grid_pitch
    if abs(k_w - round(k_w)) > 1e-6 or abs(k_h - round(k_h)) > 1e-6:
        raise PlacementError(
            "module sides must be integer multiples of the grid pitch "
            f"(got {module_width_m} x {module_height_m} m on a {grid_pitch} m grid)"
        )
    return ModuleFootprint(cells_w=int(round(k_w)), cells_h=int(round(k_h)))
