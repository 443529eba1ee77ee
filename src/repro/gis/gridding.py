"""Virtual placement grid on the roof plane.

Section III-A of the paper aligns the usable roof area to a virtual grid of
square elements of side ``s`` (20 cm) lying *on the roof plane*; module
sizes are integer multiples of ``s`` and grid points are the candidate
anchor positions for module placement.  :class:`RoofGrid` implements this
grid: it lives in roof-plane (u, v) coordinates, knows which of its elements
are valid for placement, and can map each element to the DSM cell that
provides its shading information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..constants import DEFAULT_GRID_PITCH
from ..errors import GISError
from ..geometry import RoofPlaneFrame
from .dsm import DigitalSurfaceModel
from .synthetic import RoofScene


@dataclass
class RoofGrid:
    """The virtual placement grid of a roof facet.

    Attributes
    ----------
    frame:
        Roof-plane coordinate frame (maps grid coordinates to world space).
    pitch:
        Grid element side ``s`` [m], measured on the roof plane.
    n_rows, n_cols:
        Grid dimensions: columns run along the eave (u axis, "W" in the
        paper's Table I), rows run up the slope (v axis, "L"/"H").
    valid_mask:
        Boolean array ``(n_rows, n_cols)``; True marks elements available
        for module placement (the paper's ``Ng`` valid grid elements).
    """

    frame: RoofPlaneFrame
    pitch: float
    n_rows: int
    n_cols: int
    valid_mask: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.pitch <= 0:
            raise GISError("grid pitch must be positive")
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise GISError("grid dimensions must be positive")
        mask = np.asarray(self.valid_mask, dtype=bool)
        if mask.shape != (self.n_rows, self.n_cols):
            raise GISError(
                f"valid_mask shape {mask.shape} does not match grid "
                f"({self.n_rows}, {self.n_cols})"
            )
        self.valid_mask = mask

    # -- sizes -------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def n_cells(self) -> int:
        """Total number of grid elements (W x H)."""
        return self.n_rows * self.n_cols

    @property
    def n_valid(self) -> int:
        """Number of valid grid elements (the paper's ``Ng``)."""
        return int(np.count_nonzero(self.valid_mask))

    @property
    def width_m(self) -> float:
        """Extent along the eave [m]."""
        return self.n_cols * self.pitch

    @property
    def depth_m(self) -> float:
        """Extent up the slope [m]."""
        return self.n_rows * self.pitch

    # -- coordinates --------------------------------------------------------------

    def valid_cells(self) -> np.ndarray:
        """Indices of the valid elements as an ``(Ng, 2)`` array of (row, col)."""
        rows, cols = np.nonzero(self.valid_mask)
        return np.stack([rows, cols], axis=1)

    # -- DSM mapping ----------------------------------------------------------------

    def dsm_indices(self, dsm: DigitalSurfaceModel) -> Tuple[np.ndarray, np.ndarray]:
        """DSM (row, col) index of every grid element, shape ``(n_rows, n_cols)``.

        Grid elements whose world position falls outside the DSM are clamped
        to the nearest DSM border cell (this only happens for sub-pitch
        rounding at the raster edge).
        """
        u = (np.arange(self.n_cols) + 0.5) * self.pitch
        v = (np.arange(self.n_rows) + 0.5) * self.pitch
        grid_u, grid_v = np.meshgrid(u, v)

        axes_u, axes_v, _ = self.frame._axes()  # noqa: SLF001 - internal reuse
        world_x = self.frame.origin.x + grid_u * axes_u.x + grid_v * axes_v.x
        world_y = self.frame.origin.y + grid_u * axes_u.y + grid_v * axes_v.y

        spec = dsm.raster.spec
        cols = np.floor((world_x - spec.origin_x) / spec.pitch).astype(int)
        rows = np.floor((world_y - spec.origin_y) / spec.pitch).astype(int)
        cols = np.clip(cols, 0, spec.n_cols - 1)
        rows = np.clip(rows, 0, spec.n_rows - 1)
        return rows, cols

    # -- editing ---------------------------------------------------------------------

    def with_mask(self, mask: np.ndarray) -> "RoofGrid":
        """Return a copy of the grid with a different validity mask."""
        return RoofGrid(
            frame=self.frame,
            pitch=self.pitch,
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            valid_mask=np.asarray(mask, dtype=bool).copy(),
        )


def make_roof_grid(
    scene: RoofScene,
    pitch: float = DEFAULT_GRID_PITCH,
    valid_mask: np.ndarray | None = None,
) -> RoofGrid:
    """Align the roof facet of ``scene`` to a virtual grid of side ``pitch``.

    The grid covers the full facet rectangle; the validity mask defaults to
    "everything valid" and is normally refined afterwards by
    :func:`repro.gis.suitable_area.compute_suitable_area`.
    """
    if pitch <= 0:
        raise GISError("grid pitch must be positive")
    n_cols = int(np.floor(scene.spec.width_m / pitch + 1e-9))
    n_rows = int(np.floor(scene.spec.depth_m / pitch + 1e-9))
    if n_cols < 1 or n_rows < 1:
        raise GISError("roof facet is smaller than a single grid element")
    if valid_mask is None:
        mask = np.ones((n_rows, n_cols), dtype=bool)
    else:
        mask = np.asarray(valid_mask, dtype=bool)
    return RoofGrid(
        frame=scene.frame, pitch=pitch, n_rows=n_rows, n_cols=n_cols, valid_mask=mask
    )
