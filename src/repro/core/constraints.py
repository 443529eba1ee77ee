"""Geometric feasibility helpers shared by the placement algorithms.

These utilities answer the questions every placer needs: "can a module be
anchored at this grid element?", "which anchors are currently feasible?",
"is this candidate too far from the modules already placed?".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import PlacementError
from ..geometry import Point2D
from .placement import ModuleFootprint


def feasible_anchor_mask(
    valid_mask: np.ndarray, occupied: np.ndarray, footprint: ModuleFootprint
) -> np.ndarray:
    """Boolean map of anchors where the footprint fits entirely.

    Computed with a 2D sliding-window "all true" reduction implemented as a
    summed-area table, so the cost is independent of the footprint size.
    """
    free = valid_mask & ~occupied
    n_rows, n_cols = free.shape
    kh, kw = footprint.cells_h, footprint.cells_w
    result = np.zeros_like(free)
    if kh > n_rows or kw > n_cols:
        return result
    integral = np.zeros((n_rows + 1, n_cols + 1), dtype=np.int64)
    integral[1:, 1:] = np.cumsum(np.cumsum(free.astype(np.int64), axis=0), axis=1)
    window_sum = (
        integral[kh:, kw:]
        - integral[:-kh, kw:]
        - integral[kh:, :-kw]
        + integral[:-kh, :-kw]
    )
    result[: n_rows - kh + 1, : n_cols - kw + 1] = window_sum == kh * kw
    return result


def mark_occupied(
    occupied: np.ndarray, row: int, col: int, footprint: ModuleFootprint
) -> None:
    """Mark the cells covered by a module anchored at (row, col) as occupied."""
    occupied[row : row + footprint.cells_h, col : col + footprint.cells_w] = True


def sliding_window_sum(array: np.ndarray, cells_h: int, cells_w: int) -> np.ndarray:
    """Sum of every ``cells_h x cells_w`` window, via a summed-area table.

    Returns an array of shape ``(n_rows - cells_h + 1, n_cols - cells_w + 1)``
    whose ``(r, c)`` entry is the sum of ``array[r:r+cells_h, c:c+cells_w]``.
    Shared by the greedy and traditional placers' footprint scoring.
    """
    n_rows, n_cols = array.shape
    integral = np.zeros((n_rows + 1, n_cols + 1), dtype=float)
    integral[1:, 1:] = np.cumsum(np.cumsum(array, axis=0), axis=1)
    return (
        integral[cells_h:, cells_w:]
        - integral[:-cells_h, cells_w:]
        - integral[cells_h:, :-cells_w]
        + integral[:-cells_h, :-cells_w]
    )


@dataclass
class DistanceThreshold:
    """The greedy algorithm's dispersion filter (paper Fig. 5, line 5).

    The paper rejects candidate positions that are "quite far apart from the
    already placed modules", using "twice the average distance of the already
    placed modules" as an empirical threshold.  The filter below implements
    that rule as: a candidate is accepted when its distance from the centroid
    of the placed modules does not exceed ``factor`` times the placed
    modules' average spread around that centroid.

    A literal reading would make the threshold collapse to (almost) zero
    right after the first two adjacent modules are placed, degenerating the
    algorithm into a compact packer -- clearly not what the paper's sparse
    placements of Figure 7 do.  The filter therefore applies a *floor*
    (``min_radius_m``, a few module diagonals by default): the threshold only
    starts to bind once the placement has a meaningful extent, and its role
    is what the paper intends -- vetoing extreme outliers that would blow up
    the wiring overhead.
    """

    factor: float = 2.0
    min_radius_m: float = 8.0
    fallback_distance_m: float = float("inf")

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise PlacementError("distance-threshold factor must be positive")
        if self.min_radius_m < 0:
            raise PlacementError("min_radius_m must be non-negative")

    def threshold_around(
        self, centroid: Tuple[float, float], xs: np.ndarray, ys: np.ndarray
    ) -> float:
        """Current threshold value [m] for placed module centres ``(xs, ys)``.

        ``centroid`` is their mean, which the greedy placer has already
        computed for the candidate distances.
        """
        if len(xs) < 2:
            return self.fallback_distance_m
        cx, cy = centroid
        mean_spread = float(
            np.mean([math.hypot(x - cx, y - cy) for x, y in zip(xs.tolist(), ys.tolist())])
        )
        if mean_spread < 1e-9:
            return self.fallback_distance_m
        return max(self.factor * mean_spread, self.min_radius_m)


def anchor_center(
    row: int, col: int, footprint: ModuleFootprint, pitch: float
) -> Point2D:
    """Roof-plane centre of a module anchored at grid element (row, col)."""
    return Point2D(
        (col + footprint.cells_w / 2.0) * pitch,
        (row + footprint.cells_h / 2.0) * pitch,
    )
