"""Per-module-loop oracles of :class:`repro.core.evaluation.PlacementEvaluator`.

The original evaluation flow: each module's irradiance series is gathered
and reduced on its own, and the module operating point is recomputed for
the panel aggregation and for both sides of the mismatch figure.  The
vectorised evaluator must agree with it to within 1e-9 relative.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import PlacementEvaluation
from repro.core.placement import Placement
from repro.core.problem import FloorplanProblem
from repro.errors import PlacementError
from repro.gis.gridding import RoofGrid
from repro.pv.array import PanelOperatingPoint, PVArray
from repro.pv.mppt import MPPTModel
from repro.pv.wiring import WiringSpec, string_extra_length, wiring_overhead_report

from .solar_field import irradiance_for_cells


def validate_placement(placement: Placement, grid: RoofGrid) -> None:
    """Raise :class:`PlacementError` if a module of ``placement`` exceeds the
    grid bounds, covers an invalid cell, or overlaps another module."""
    seen = np.zeros(grid.shape, dtype=bool)
    for placed in placement:
        cells = placed.covered_cells(placement.footprint)
        if (
            cells[:, 0].min() < 0
            or cells[:, 1].min() < 0
            or cells[:, 0].max() >= grid.n_rows
            or cells[:, 1].max() >= grid.n_cols
        ):
            raise PlacementError(f"module {placed.module_index} exceeds the grid bounds")
        if not np.all(grid.valid_mask[cells[:, 0], cells[:, 1]]):
            raise PlacementError(
                f"module {placed.module_index} covers invalid (unsuitable) cells"
            )
        if np.any(seen[cells[:, 0], cells[:, 1]]):
            raise PlacementError(
                f"module {placed.module_index} overlaps a previously placed module"
            )
        seen[cells[:, 0], cells[:, 1]] = True


def operating_point_from_conditions(
    array: PVArray, irradiance: np.ndarray, ambient_c: np.ndarray
) -> PanelOperatingPoint:
    """Panel operating point from per-module irradiance ``(..., N)`` and an
    ambient temperature broadcastable against it without its last axis."""
    g = np.asarray(irradiance, dtype=float)
    ambient = np.asarray(ambient_c, dtype=float)
    if ambient.ndim == g.ndim - 1:
        ambient = ambient[..., None]
    point = array.module_model.operating_point(g, ambient)
    return array.aggregate(point.voltage_v, point.current_a)


def mismatch_loss_fraction(
    array: PVArray, irradiance: np.ndarray, ambient_c: np.ndarray
) -> np.ndarray:
    """Relative mismatch loss (0 = perfectly matched strings): the gap between
    the sum of the module maximum powers and the series/parallel aggregate."""
    g = np.asarray(irradiance, dtype=float)
    ambient = np.asarray(ambient_c, dtype=float)
    if ambient.ndim == g.ndim - 1:
        ambient = ambient[..., None]
    ideal = np.sum(array.module_model.operating_point(g, ambient).power_w, axis=-1)
    actual = operating_point_from_conditions(array, irradiance, ambient_c).power_w
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ideal > 1e-9, 1.0 - actual / np.maximum(ideal, 1e-9), 0.0)


def module_irradiance_series_reference(
    problem: FloorplanProblem,
    placement: Placement,
    aggregation: str = "substring-min",
    n_substrings: int = 2,
) -> np.ndarray:
    """Original per-module-loop irradiance aggregation (ground truth).

    Kept verbatim so the equivalence tests can check the vectorised
    evaluator's per-module series against it and the evaluator benchmark
    can measure the speedup.
    """
    if aggregation not in ("substring-min", "mean"):
        raise PlacementError(f"unknown module aggregation {aggregation!r}")
    if n_substrings < 1:
        raise PlacementError("n_substrings must be >= 1")
    solar = problem.solar
    series = np.empty((solar.n_time, placement.n_modules), dtype=float)
    for module in placement:
        cells = module.covered_cells(placement.footprint)
        cell_series = irradiance_for_cells(solar, cells)
        if aggregation == "mean" or n_substrings == 1:
            series[:, module.module_index] = np.mean(cell_series, axis=1)
            continue
        # Split the cells into substrings along the module's long side.  The
        # covered_cells array enumerates rows x cols of the footprint in
        # C-order, so grouping by the long-axis coordinate is a reshape.
        footprint = module.footprint(placement.footprint)
        long_axis_is_cols = footprint.cells_w >= footprint.cells_h
        if long_axis_is_cols:
            long_coord = cells[:, 1] - cells[:, 1].min()
            n_long = footprint.cells_w
        else:
            long_coord = cells[:, 0] - cells[:, 0].min()
            n_long = footprint.cells_h
        groups = np.minimum(
            (long_coord * n_substrings) // max(n_long, 1), n_substrings - 1
        )
        substring_means = np.stack(
            [
                np.mean(cell_series[:, groups == g], axis=1)
                for g in range(n_substrings)
                if np.any(groups == g)
            ],
            axis=1,
        )
        series[:, module.module_index] = np.min(substring_means, axis=1)
    return series


def evaluate_placement_reference(
    problem: FloorplanProblem,
    placement: Placement,
    include_wiring_loss: bool = True,
    mppt: MPPTModel | None = None,
    wiring_spec: WiringSpec | None = None,
    store_power_series: bool = False,
    module_aggregation: str = "substring-min",
) -> PlacementEvaluation:
    """Original evaluation flow (ground truth for the vectorised evaluator).

    Recomputes the module operating point three times (panel aggregation +
    both sides of the mismatch figure), exactly like the seed implementation
    did; :meth:`PlacementEvaluator.evaluate` must agree with it to within
    1e-9 relative on every reported figure.
    """
    validate_placement(placement, problem.grid)
    if placement.n_modules != problem.n_modules:
        raise PlacementError(
            "placement and problem disagree on the number of modules "
            f"({placement.n_modules} vs {problem.n_modules})"
        )

    array = problem.array
    tracker = mppt if mppt is not None else MPPTModel()
    wiring = wiring_spec if wiring_spec is not None else WiringSpec()
    time_grid = problem.solar.time_grid

    irradiance = module_irradiance_series_reference(
        problem, placement, aggregation=module_aggregation
    )
    ambient = problem.solar.temperature

    operating = operating_point_from_conditions(array, irradiance, ambient)
    gross_power = tracker.extracted_power(operating.power_w)

    string_positions = placement.string_positions()
    extra_lengths = np.array(
        [string_extra_length(positions, wiring) for positions in string_positions]
    )
    string_currents = operating.string_currents_a  # (n_time, n_parallel)
    loss_power = np.sum(
        wiring.resistance_per_m * extra_lengths[None, :] * string_currents**2, axis=1
    )
    if include_wiring_loss:
        net_power = np.maximum(gross_power - loss_power, 0.0)
    else:
        net_power = gross_power

    gross_energy = time_grid.integrate_energy_wh(gross_power)
    net_energy = time_grid.integrate_energy_wh(net_power)
    wiring_loss = time_grid.integrate_energy_wh(loss_power) if include_wiring_loss else 0.0

    mismatch = mismatch_loss_fraction(array, irradiance, ambient)
    daylight = operating.power_w > 1.0
    mean_mismatch = float(np.mean(mismatch[daylight])) if np.any(daylight) else 0.0

    peak_power = float(np.max(net_power)) if net_power.size else 0.0
    hours_per_year = 8760.0
    capacity_factor = (
        net_energy / (problem.nameplate_power_w * hours_per_year)
        if problem.nameplate_power_w > 0
        else 0.0
    )

    overhead = wiring_overhead_report(string_positions, spec=wiring)

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
        power_series_w=net_power if store_power_series else None,
    )
