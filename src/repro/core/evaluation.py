"""Energy evaluation of a placement.

Evaluation is where the paper's central modelling choice lives: the energy
of a floorplan is *not* the sum of the individual module energies; every
time step is aggregated through the series/parallel panel model, so a string
containing one poorly irradiated module is throttled to that module's
current (the "weak module" bottleneck discussed in Section V-B).  Wiring
losses of the sparse placement are accounted for by dissipating each
string's extra cable resistance at the string's instantaneous current.

The hot path is :class:`PlacementEvaluator`: it precomputes every
per-problem invariant once (cells-to-column lookup, per-orientation
substring grouping, the ambient-only parts of the module temperature
factors) and evaluates each placement with one gather + reduction over
*all* modules, taken in row tiles, so the exhaustive and ablation flows
that score hundreds of placements on one problem pay the setup cost once.
The module-level functions (:func:`evaluate_placement`,
:func:`compare_placements`) are thin wrappers that build a throwaway
evaluator.  The original per-module loop implementations are the tests'
oracles, which the evaluator must agree with to within 1e-9 relative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..constants import STC_IRRADIANCE, STC_TEMPERATURE
from ..errors import PlacementError
from ..pv.wiring import WiringSpec, string_extra_length, wiring_overhead_report
from ..units import wh_to_mwh
from .placement import ModuleFootprint, Placement
from .problem import FloorplanProblem


#: Byte budget of one row tile of the evaluator's column gather.
_GATHER_TILE_BYTES = 1 << 20

#: Bypass-diode substrings of a module, along its long side.
_N_SUBSTRINGS = 2

#: Cable characteristics of the wiring-loss model.
_WIRING = WiringSpec()


@dataclass(frozen=True)
class PlacementEvaluation:
    """Energy accounting of one placement over the simulated year."""

    placement_label: str
    annual_energy_wh: float
    gross_energy_wh: float
    wiring_loss_wh: float
    wiring_extra_length_m: float
    wiring_extra_cost: float
    mean_mismatch_loss: float
    peak_power_w: float
    capacity_factor: float
    power_series_w: Optional[np.ndarray] = None

    @property
    def annual_energy_mwh(self) -> float:
        """Net yearly energy in MWh (the unit of the paper's Table I)."""
        return wh_to_mwh(self.annual_energy_wh)

    @property
    def wiring_loss_fraction(self) -> float:
        """Wiring loss as a fraction of the gross yearly energy."""
        if self.gross_energy_wh <= 0:
            return 0.0
        return self.wiring_loss_wh / self.gross_energy_wh

    def summary(self) -> dict:
        """Flat dictionary for reports."""
        return {
            "placement": self.placement_label,
            "annual_energy_mwh": self.annual_energy_mwh,
            "gross_energy_mwh": wh_to_mwh(self.gross_energy_wh),
            "wiring_loss_wh": self.wiring_loss_wh,
            "wiring_loss_fraction": self.wiring_loss_fraction,
            "wiring_extra_length_m": self.wiring_extra_length_m,
            "wiring_extra_cost": self.wiring_extra_cost,
            "mean_mismatch_loss": self.mean_mismatch_loss,
            "peak_power_w": self.peak_power_w,
            "capacity_factor": self.capacity_factor,
        }


# ---------------------------------------------------------------------------
# Precomputed evaluation context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OrientationGather:
    """Per-orientation gather pattern of the cells covered by a module.

    The offsets are permuted so the cells of each bypass-diode substring are
    contiguous, which turns the per-substring means into one
    ``np.add.reduceat`` over the cell axis.
    """

    offset_rows: np.ndarray  # (k,) anchor-relative row of each covered cell
    offset_cols: np.ndarray  # (k,)
    group_starts: np.ndarray  # (g,) start of each substring within the k cells
    group_counts: np.ndarray  # (g,) cells per substring
    cells_h: int
    cells_w: int


@functools.lru_cache(maxsize=32)
def _orientation_gather(base: ModuleFootprint, rotated: bool) -> _OrientationGather:
    """The gather pattern of one orientation of ``base``, shared read-only.

    Every evaluator of a footprint shares one pattern per orientation, so a
    sweep that builds an evaluator per point builds the patterns once.
    """
    footprint = base.rotated() if rotated else base
    grid_r, grid_c = np.meshgrid(
        np.arange(footprint.cells_h), np.arange(footprint.cells_w), indexing="ij"
    )
    offset_rows = grid_r.ravel()
    offset_cols = grid_c.ravel()
    # Substrings run along the module's long side.
    if footprint.cells_w >= footprint.cells_h:
        long_coord = offset_cols
        n_long = footprint.cells_w
    else:
        long_coord = offset_rows
        n_long = footprint.cells_h
    groups = np.minimum(
        (long_coord * _N_SUBSTRINGS) // max(n_long, 1), _N_SUBSTRINGS - 1
    )
    order = np.argsort(groups, kind="stable")
    _, counts = np.unique(groups[order], return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    gather = _OrientationGather(
        offset_rows=offset_rows[order],
        offset_cols=offset_cols[order],
        group_starts=starts.astype(np.intp),
        group_counts=counts.astype(np.intp),
        cells_h=footprint.cells_h,
        cells_w=footprint.cells_w,
    )
    for array in (gather.offset_rows, gather.offset_cols, gather.group_starts, gather.group_counts):
        array.flags.writeable = False
    return gather


class PlacementEvaluator:
    """Vectorised evaluation context bound to one floorplanning problem.

    Construction precomputes everything that does not depend on the
    placement being scored:

    * the full-grid cells-to-irradiance-column lookup,
    * the covered-cell gather pattern and the two bypass-diode substrings of
      both module orientations,
    * the ambient-only parts of the paper's module model (Section III-B1:
      ``P = Pref * (1 + gamma * (Tact - 25)) * G / 1000``,
      ``Tact = T + k * G``) for the problem's datasheet; the
      irradiance-dependent parts are a rank-1 correction applied per
      evaluation.

    ``evaluate`` then scores a placement with one fancy-indexed gather over
    all modules, one substring reduction, and a *single* module operating
    point computation shared by the panel aggregation and the mismatch-loss
    figure (the original per-module loop computed it three times).  Every
    module runs at its maximum power point, as the paper assumes, and the
    resistive loss of the extra string cabling is subtracted.

    Example
    -------
    Hold one evaluator per problem and score as many placements as needed
    through it (ablations, custom searches, solver comparisons):

    >>> from repro import TimeGrid, plan_roof
    >>> from repro.core import PlacementEvaluator
    >>> from repro.gis import RoofSpec
    >>> from repro.runner import solve
    >>> roof = RoofSpec(name="doc-roof", width_m=6.0, depth_m=4.0,
    ...                 tilt_deg=30.0, azimuth_deg=0.0)
    >>> problem = plan_roof(roof, n_modules=2, n_series=2, grid_pitch=0.4,
    ...     time_grid=TimeGrid(step_minutes=240.0, day_stride=45)).problem
    >>> evaluator = PlacementEvaluator(problem)   # precomputation happens here
    >>> baseline = solve(problem, "traditional")
    >>> proposed = solve(problem, "greedy", suitability=baseline.suitability)
    >>> comparison = evaluator.compare(baseline.placement, proposed.placement)
    >>> comparison.baseline.annual_energy_mwh > 0
    True
    """

    def __init__(self, problem: FloorplanProblem):
        self.problem = problem
        self.array = problem.array

        solar = problem.solar
        self._solar = solar
        # All per-time work runs on the field's storage axis, the kept
        # (sun-up) rows only -- the dropped rows have zero irradiance, hence
        # zero module power, zero string current and zero wiring loss, so
        # they contribute nothing to any figure this evaluator reports.
        # ``daylight`` integrates storage-aligned series with the full-year
        # quadrature.
        self._time_axis = solar.daylight
        # Placements are checked on the per-cell lookup and gathered through
        # the column index: grid cells on one DSM cell share a column, so
        # only cell indices tell two covered cells apart.
        self._lookup = solar.cell_lookup
        self._column_index = solar.column_index
        self._irradiance = solar.irradiance  # stored dtype, typically float32
        self._ambient = solar.axis_temperature
        self._gathers: Dict[bool, _OrientationGather] = {
            rotated: _orientation_gather(problem.footprint, rotated)
            for rotated in (False, True)
        }
        # A module's effective irradiance depends only on its own anchor and
        # orientation, so the per-anchor series is memoised: flows that score
        # many overlapping placements on one problem (exhaustive search,
        # baseline comparisons, ablations) reuse almost every anchor.  The
        # cache is capped at ~32 MB so long-running evaluators on fine time
        # grids cannot grow without bound.
        self._series_cache: Dict[Tuple[int, int, bool], np.ndarray] = {}
        n_time = max(int(self._irradiance.shape[0]), 1)
        self._series_cache_cap = max(2 * problem.n_modules, 33_554_432 // (8 * n_time))

        # Module operating point: with Tact = T + k*G, the paper's power and
        # voltage are affine-in-G corrections of ambient-only factors:
        #   P(G) = max(G * (pa(t) + pb * G), 0)
        #   V(G) = max((va(t) + vb * G) * (c0 + c1 * G), 0)  where G > 0
        # with pa, va depending on the ambient temperature series only.
        model = problem.module_model
        self._model = model
        sheet = model.datasheet
        k_thermal = model.thermal.k
        ambient_delta = self._ambient - STC_TEMPERATURE
        self._power_base = (sheet.p_max_ref / STC_IRRADIANCE) * (
            1.0 + sheet.gamma_p_per_k * ambient_delta
        )
        self._power_slope = (sheet.p_max_ref / STC_IRRADIANCE) * (
            sheet.gamma_p_per_k * k_thermal
        )
        self._voltage_base = sheet.v_mpp_ref * (1.0 + sheet.beta_voc_per_k * ambient_delta)
        self._voltage_slope = sheet.v_mpp_ref * sheet.beta_voc_per_k * k_thermal

    # -- placement decomposition -------------------------------------------------

    def _placement_arrays(
        self, placement: Placement
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        modules = sorted(placement.modules, key=lambda m: m.module_index)
        n = len(modules)
        rows = np.fromiter((m.row for m in modules), dtype=np.intp, count=n)
        cols = np.fromiter((m.col for m in modules), dtype=np.intp, count=n)
        rotated = np.fromiter((m.rotated for m in modules), dtype=bool, count=n)
        return rows, cols, rotated

    def _validated_columns(
        self, placement: Placement
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Covered-cell irradiance columns per module, shape ``(N, k)``.

        Performs the full placement validation (bounds, valid cells, module
        overlaps) on the covered cells' indices, with vectorised checks
        equivalent to :meth:`Placement.validate`, raising the same
        :class:`PlacementError` categories; only then are the cells mapped
        to their irradiance columns.
        """
        if placement.footprint != self.problem.footprint:
            # The gather patterns are precomputed from the problem's module
            # footprint; silently evaluating a placement defined on another
            # footprint would return wrong energies.
            raise PlacementError(
                f"placement footprint {placement.footprint} does not match "
                f"the problem's module footprint {self.problem.footprint}"
            )
        rows, cols, rotated = self._placement_arrays(placement)
        n_rows, n_cols = self.problem.grid.shape
        n_modules = rows.shape[0]
        k = self.problem.footprint.n_cells
        covered = np.empty((n_modules, k), dtype=np.intp)
        for orientation in (False, True):
            selected = np.nonzero(rotated == orientation)[0]
            if selected.size == 0:
                continue
            gather = self._gathers[orientation]
            sel_rows = rows[selected]
            sel_cols = cols[selected]
            out_of_bounds = (
                (sel_rows < 0)
                | (sel_cols < 0)
                | (sel_rows + gather.cells_h > n_rows)
                | (sel_cols + gather.cells_w > n_cols)
            )
            if np.any(out_of_bounds):
                offender = int(selected[int(np.argmax(out_of_bounds))])
                raise PlacementError(f"module {offender} exceeds the grid bounds")
            covered[selected] = self._lookup[
                sel_rows[:, None] + gather.offset_rows[None, :],
                sel_cols[:, None] + gather.offset_cols[None, :],
            ]
        invalid = covered < 0
        if np.any(invalid):
            offender = int(np.argmax(np.any(invalid, axis=1)))
            raise PlacementError(
                f"module {offender} covers invalid (unsuitable) cells"
            )
        flat = covered.ravel()
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        duplicate = sorted_flat[1:] == sorted_flat[:-1]
        if np.any(duplicate):
            # First module (in index order) that covers an already-used cell.
            offender = int(np.min(order[1:][duplicate]) // k)
            raise PlacementError(
                f"module {offender} overlaps a previously placed module"
            )
        return self._column_index[covered], rows, cols, rotated

    # -- per-module irradiance ---------------------------------------------------

    def _series_from_columns(
        self,
        columns: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        rotated: np.ndarray,
    ) -> np.ndarray:
        n_time = self._irradiance.shape[0]
        n_modules = columns.shape[0]
        series = np.empty((n_time, n_modules), dtype=float)
        cache = self._series_cache
        missing = []
        for index in range(n_modules):
            key = (int(rows[index]), int(cols[index]), bool(rotated[index]))
            cached = cache.get(key)
            if cached is None:
                missing.append((index, key))
            else:
                series[:, index] = cached
        if missing:
            miss_idx = np.array([index for index, _ in missing], dtype=np.intp)
            self._compute_series(columns[miss_idx], rotated[miss_idx], series, miss_idx)
            for index, key in missing:
                if len(cache) >= self._series_cache_cap:
                    break
                cache[key] = series[:, index].copy()
        return series

    def _compute_series(
        self,
        columns: np.ndarray,
        rotated: np.ndarray,
        series: np.ndarray,
        out_indices: np.ndarray,
    ) -> None:
        """Vectorised gather + reduction of the uncached modules.

        The gather runs over row tiles of about :data:`_GATHER_TILE_BYTES`,
        so a paper-resolution field never materialises the whole
        ``(n_time, N * k)`` block.  Every reduction is per time row, so the
        tiling leaves each value's summation order, hence its bits, as is.
        """
        n_time = self._irradiance.shape[0]
        k = columns.shape[1]
        for orientation in (False, True):
            selected = np.nonzero(rotated == orientation)[0]
            if selected.size == 0:
                continue
            gather = self._gathers[orientation]
            n_selected = selected.size
            n_groups = gather.group_starts.shape[0]
            gathered = columns[selected].ravel()
            targets = out_indices[selected]
            equal_groups = bool(np.all(gather.group_counts == gather.group_counts[0]))
            tile_rows = max(1, _GATHER_TILE_BYTES // (self._irradiance.itemsize * gathered.size))
            for start in range(0, n_time, tile_rows):
                rows = slice(start, start + tile_rows)
                block = self._irradiance[rows, gathered]
                n_rows = block.shape[0]
                if equal_groups:
                    # Equal-sized substrings (an even long side): the grouped
                    # means are a plain reshape + mean, cheaper than a reduceat.
                    group_size = int(gather.group_counts[0])
                    values = block.reshape(n_rows, n_selected, n_groups, group_size).mean(
                        axis=3, dtype=np.float64
                    ).min(axis=2)
                else:
                    # An odd long side splits unevenly (4 + 3 of 7 cells): the
                    # group sums are one reduceat over the group boundaries.
                    boundaries = (
                        np.arange(n_selected, dtype=np.intp)[:, None] * k
                        + gather.group_starts[None, :]
                    ).ravel()
                    sums = np.add.reduceat(block, boundaries, axis=1, dtype=np.float64)
                    means = sums / np.tile(gather.group_counts, n_selected)[None, :]
                    values = means.reshape(n_rows, n_selected, n_groups).min(axis=2)
                series[rows, targets] = values

    # -- module operating point --------------------------------------------------

    def _module_operating_point(
        self, irradiance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-module (power, voltage, current) over time, computed once."""
        g = irradiance
        power = np.maximum((self._power_base[:, None] + self._power_slope * g) * g, 0.0)
        irradiance_factor = (
            self._model.voltage_irradiance_intercept
            + self._model.voltage_irradiance_slope * g
        )
        voltage = (self._voltage_base[:, None] + self._voltage_slope * g) * irradiance_factor
        voltage = np.where(g > 0.0, np.maximum(voltage, 0.0), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            current = np.where(voltage > 1e-9, power / np.maximum(voltage, 1e-9), 0.0)
        return power, voltage, current

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self, placement: Placement, store_power_series: bool = False
    ) -> PlacementEvaluation:
        """Compute the yearly energy of a placement on the bound problem."""
        if placement.n_modules != self.problem.n_modules:
            raise PlacementError(
                "placement and problem disagree on the number of modules "
                f"({placement.n_modules} vs {self.problem.n_modules})"
            )
        columns, rows, cols, rotated = self._validated_columns(placement)
        irradiance = self._series_from_columns(columns, rows, cols, rotated)

        module_power, module_voltage, module_current = self._module_operating_point(
            irradiance
        )
        panel = self.array.aggregate(module_voltage, module_current)
        gross_power = panel.power_w

        # Wiring loss: each string dissipates R * L_extra * I_string(t)^2.
        string_positions = placement.string_positions()
        extra_lengths = np.array(
            [string_extra_length(positions, _WIRING) for positions in string_positions]
        )
        loss_power = np.sum(
            _WIRING.resistance_per_m
            * extra_lengths[None, :]
            * panel.string_currents_a**2,
            axis=1,
        )
        net_power = np.maximum(gross_power - loss_power, 0.0)

        time_axis = self._time_axis
        gross_energy = time_axis.integrate_energy_wh(gross_power)
        net_energy = time_axis.integrate_energy_wh(net_power)
        wiring_loss = time_axis.integrate_energy_wh(loss_power)

        # Mismatch loss from the same operating point (the per-module loop
        # recomputed both the ideal and the aggregate a second time).
        ideal_power = np.sum(module_power, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mismatch = np.where(
                ideal_power > 1e-9,
                1.0 - panel.power_w / np.maximum(ideal_power, 1e-9),
                0.0,
            )
        daylight = panel.power_w > 1.0
        mean_mismatch = float(np.mean(mismatch[daylight])) if np.any(daylight) else 0.0

        peak_power = float(np.max(net_power)) if net_power.size else 0.0
        hours_per_year = 8760.0
        capacity_factor = (
            net_energy / (self.problem.nameplate_power_w * hours_per_year)
            if self.problem.nameplate_power_w > 0
            else 0.0
        )

        overhead = wiring_overhead_report(string_positions, spec=_WIRING)

        return PlacementEvaluation(
            placement_label=placement.label,
            annual_energy_wh=float(net_energy),
            gross_energy_wh=float(gross_energy),
            wiring_loss_wh=float(wiring_loss),
            wiring_extra_length_m=float(overhead.total_extra_m),
            wiring_extra_cost=float(overhead.extra_cost),
            mean_mismatch_loss=mean_mismatch,
            peak_power_w=peak_power,
            capacity_factor=float(capacity_factor),
            power_series_w=(
                self._solar.daylight.expand(net_power) if store_power_series else None
            ),
        )

    def compare(
        self, baseline: Placement, candidate: Placement
    ) -> "PlacementComparison":
        """Evaluate two placements through the shared context and compare.

        When the candidate *is* the baseline (a plain ``traditional`` run
        compared with itself), the deterministic evaluation runs once.
        """
        first = self.evaluate(baseline)
        second = first if candidate is baseline else self.evaluate(candidate)
        return PlacementComparison(baseline=first, candidate=second)


# ---------------------------------------------------------------------------
# Module-level convenience wrappers
# ---------------------------------------------------------------------------


def evaluate_placement(
    problem: FloorplanProblem, placement: Placement, store_power_series: bool = False
) -> PlacementEvaluation:
    """Compute the yearly energy of a placement on a problem instance.

    Parameters
    ----------
    problem:
        The floorplanning instance (grid, solar data, module, topology).
    placement:
        The floorplan to evaluate; it is validated against the grid first.
    store_power_series:
        Keep the full panel power series in the result (memory permitting).

    A module's effective irradiance is the *minimum* of the means of its two
    bypass-diode substrings along its long side: a shadow trail crossing
    part of a module throttles the whole module to its worst substring (the
    series-cell mismatch of the paper's Section II-B).  The wiring loss of
    the extra string cabling is subtracted.

    One-shot wrapper over :class:`PlacementEvaluator`; callers scoring many
    placements on the same problem should hold an evaluator instead.
    """
    return PlacementEvaluator(problem).evaluate(placement, store_power_series=store_power_series)


@dataclass(frozen=True)
class PlacementComparison:
    """Side-by-side comparison of two placements on the same problem."""

    baseline: PlacementEvaluation
    candidate: PlacementEvaluation

    @property
    def energy_gain_wh(self) -> float:
        """Absolute yearly energy gain of the candidate over the baseline."""
        return self.candidate.annual_energy_wh - self.baseline.annual_energy_wh

    @property
    def improvement_percent(self) -> float:
        """Relative improvement in percent (the paper's Table I last column)."""
        if self.baseline.annual_energy_wh <= 0:
            return 0.0
        return 100.0 * self.energy_gain_wh / self.baseline.annual_energy_wh

    def summary(self) -> dict:
        """Flat dictionary for reports."""
        return {
            "baseline_mwh": self.baseline.annual_energy_mwh,
            "candidate_mwh": self.candidate.annual_energy_mwh,
            "improvement_percent": self.improvement_percent,
        }


def compare_placements(
    problem: FloorplanProblem, baseline: Placement, candidate: Placement
) -> PlacementComparison:
    """Evaluate two placements under identical conditions and compare them."""
    return PlacementEvaluator(problem).compare(baseline, candidate)
