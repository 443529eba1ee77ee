"""Simulation time base.

The paper simulates one year at 15-minute resolution (Section IV).  The
:class:`TimeGrid` class represents such a sampling of the year without
depending on calendar/timezone machinery: every sample is identified by its
day of year (1..365) and its local solar hour (0..24).  A ``day_stride``
option allows the benchmarks to subsample the year (e.g. every 7th day)
while keeping energy totals comparable through :attr:`TimeGrid.annual_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

from ..constants import DAYS_PER_YEAR, DEFAULT_TIME_STEP_MINUTES
from ..errors import SolarModelError


@dataclass(frozen=True)
class TimeGrid:
    """A regular sampling of one reference year.

    Parameters
    ----------
    step_minutes:
        Interval between consecutive samples within a simulated day.
    day_stride:
        Simulate every ``day_stride``-th day of the year (1 = every day).
        Energy accumulated on the simulated days is multiplied by
        ``day_stride`` (see :attr:`annual_scale`) so that yearly totals stay
        an unbiased estimate of the full-resolution simulation.
    """

    step_minutes: float = DEFAULT_TIME_STEP_MINUTES
    day_stride: int = 1
    days_of_year: np.ndarray = field(init=False, repr=False, compare=False)
    hours: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.step_minutes <= 0 or self.step_minutes > 24 * 60:
            raise SolarModelError("step_minutes must be in (0, 1440]")
        if self.day_stride < 1 or self.day_stride > DAYS_PER_YEAR:
            raise SolarModelError("day_stride must be in [1, 365]")
        steps_per_day = int(round(24 * 60 / self.step_minutes))
        if abs(steps_per_day * self.step_minutes - 24 * 60) > 1e-9:
            raise SolarModelError("step_minutes must divide 24 hours exactly")
        days = np.arange(1, DAYS_PER_YEAR + 1, self.day_stride, dtype=float)
        hours_in_day = (np.arange(steps_per_day, dtype=float) + 0.5) * self.step_minutes / 60.0
        day_grid = np.repeat(days, steps_per_day)
        hour_grid = np.tile(hours_in_day, len(days))
        object.__setattr__(self, "days_of_year", day_grid)
        object.__setattr__(self, "hours", hour_grid)

    # -- size and scaling ----------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Total number of time samples."""
        return int(self.days_of_year.shape[0])

    @property
    def step_hours(self) -> float:
        """Sample interval expressed in hours."""
        return self.step_minutes / 60.0

    @property
    def steps_per_day(self) -> int:
        """Number of samples per simulated day."""
        return int(round(24 * 60 / self.step_minutes))

    @property
    def n_days(self) -> int:
        """Number of simulated days."""
        return self.n_samples // self.steps_per_day

    @property
    def annual_scale(self) -> float:
        """Factor converting simulated-day totals into full-year totals.

        It accounts for the day subsampling only; the intra-day integration
        already uses :attr:`step_hours` as quadrature weight.
        """
        return DAYS_PER_YEAR / float(self.n_days)

    # -- iteration helpers -----------------------------------------------------

    def __len__(self) -> int:
        return self.n_samples

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        for day, hour in zip(self.days_of_year, self.hours):
            yield float(day), float(hour)

    def integrate_energy_wh(self, power_w: np.ndarray) -> "float | np.ndarray":
        """Integrate power series [W] over the year along axis 0, returning Wh.

        Applies the step width and the annual day-stride scaling, so the
        result estimates the full-year energy even on a subsampled grid.
        A 1-D series yields a float; a ``(n_time, k)`` batch yields the ``k``
        per-column energies in one call.  Accumulation is always float64,
        so reduced-precision (float32) storage integrates without a full
        upcast copy.
        """
        series = np.asarray(power_w)
        if series.ndim == 0 or series.shape[0] != self.n_samples:
            raise SolarModelError(
                f"power series has {np.shape(power_w)[0] if np.ndim(power_w) else 0} "
                f"samples, expected {self.n_samples}"
            )
        totals = np.sum(series, axis=0, dtype=np.float64) * self.step_hours * self.annual_scale
        if series.ndim == 1:
            return float(totals)
        return totals


@dataclass(frozen=True, eq=False)
class CompressedTimeGrid:
    """A daylight-compressed view of a :class:`TimeGrid`.

    At the paper's 15-minute annual resolution roughly half of the ~35,000
    samples are night-time rows in which every irradiance value is exactly
    zero.  A :class:`CompressedTimeGrid` keeps only the *kept* (sun-up /
    non-zero) sample positions plus the mapping back to the full grid, so a
    field stored on the compressed axis can be expanded exactly -- the
    dropped rows are zero by construction -- while every reduction
    (integration, gathers, operating-point evaluation) runs on half the
    rows.

    Parameters
    ----------
    full:
        The underlying full-resolution time grid.
    indices:
        Strictly increasing positions (into the full grid) of the kept
        samples.  May be empty (polar night / all-dark series).
    """

    full: TimeGrid
    indices: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.intp).reshape(-1)
        if indices.size:
            if indices[0] < 0 or indices[-1] >= self.full.n_samples:
                raise SolarModelError(
                    "compressed time indices must lie inside the full grid"
                )
            if np.any(np.diff(indices) <= 0):
                raise SolarModelError(
                    "compressed time indices must be strictly increasing"
                )
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_mask(cls, full: TimeGrid, keep: np.ndarray) -> "CompressedTimeGrid":
        """Build the compressed axis from a per-sample boolean keep mask."""
        mask = np.asarray(keep, dtype=bool)
        if mask.shape != (full.n_samples,):
            raise SolarModelError(
                f"keep mask has shape {mask.shape}, expected ({full.n_samples},)"
            )
        return cls(full=full, indices=np.nonzero(mask)[0])

    # -- sizes ---------------------------------------------------------------

    @property
    def n_daylight(self) -> int:
        """Number of kept (compressed-axis) samples."""
        return int(self.indices.shape[0])

    @property
    def n_full(self) -> int:
        """Number of samples of the underlying full grid."""
        return self.full.n_samples

    def __len__(self) -> int:
        return self.n_daylight

    # -- axis conversion -----------------------------------------------------

    def expand(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Scatter a compressed-axis array back to the full axis (axis 0).

        Dropped rows are filled with ``fill`` (0 for irradiance/power, the
        exact value of the rows the compression removed).
        """
        series = np.asarray(values)
        if series.ndim == 0 or series.shape[0] != self.n_daylight:
            raise SolarModelError(
                f"compressed series has shape {np.shape(values)}, expected "
                f"{self.n_daylight} leading samples"
            )
        out_shape = (self.n_full,) + series.shape[1:]
        if fill == 0.0:
            out = np.zeros(out_shape, dtype=series.dtype)
        else:
            out = np.full(out_shape, fill, dtype=series.dtype)
        out[self.indices] = series
        return out

    # -- quadrature ----------------------------------------------------------

    @property
    def step_hours(self) -> float:
        """Sample interval of the underlying grid, in hours."""
        return self.full.step_hours

    @property
    def annual_scale(self) -> float:
        """Day-stride scaling of the underlying grid."""
        return self.full.annual_scale

    def integrate_energy_wh(self, power_w: np.ndarray) -> "float | np.ndarray":
        """Integrate a compressed-axis power series [W] over the year, in Wh.

        Exact for series whose dropped rows are zero (irradiance, PV power):
        night steps contribute no energy, so summing the kept rows with the
        full grid's quadrature weights reproduces the dense integral.
        """
        series = np.asarray(power_w)
        if series.ndim == 0 or series.shape[0] != self.n_daylight:
            raise SolarModelError(
                f"power series has {np.shape(power_w)[0] if np.ndim(power_w) else 0} "
                f"samples, expected {self.n_daylight}"
            )
        totals = np.sum(series, axis=0, dtype=np.float64) * self.step_hours * self.annual_scale
        if series.ndim == 1:
            return float(totals)
        return totals


def paper_time_grid() -> TimeGrid:
    """The paper's time base: one full year at 15-minute resolution."""
    return TimeGrid(step_minutes=15.0, day_stride=1)
