"""Per-module-loop oracles of :class:`repro.core.evaluation.PlacementEvaluator`.

The original evaluation flow: each module's irradiance series is gathered
and reduced on its own, and the module operating point is recomputed for
the panel aggregation and for both sides of the mismatch figure.  The
vectorised evaluator must agree with it to within 1e-9 relative.

The operating point is the paper's closed form (Section III-B1), written
step by step from the module model's parts: the cell temperature
``Tact = T + k*G``, then power and voltage at that temperature.  The
evaluator folds the same formulas into ambient-only factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import STC_TEMPERATURE
from repro.core.evaluation import PlacementEvaluation
from repro.core.placement import Placement
from repro.core.problem import FloorplanProblem
from repro.errors import PlacementError
from repro.gis.gridding import RoofGrid
from repro.pv.array import PanelOperatingPoint, PVArray
from repro.pv.module import EmpiricalModuleModel, paper_module_model
from repro.pv.wiring import WiringSpec, string_extra_length, wiring_overhead_report

from .solar_field import irradiance_for_cells


@dataclass(frozen=True)
class OperatingPoint:
    """Maximum-power operating point of a module (arrays or scalars)."""

    power_w: np.ndarray
    voltage_v: np.ndarray
    current_a: np.ndarray
    cell_temperature_c: np.ndarray


def voltage_at_cell_temperature(
    model: EmpiricalModuleModel, irradiance: np.ndarray, cell_temperature_c: np.ndarray
) -> np.ndarray:
    """Maximum-power voltage [V] for given irradiance and cell temperature."""
    g = model._validated_irradiance(irradiance)
    t = np.asarray(cell_temperature_c, dtype=float)
    temperature_factor = 1.0 + model.datasheet.beta_voc_per_k * (t - STC_TEMPERATURE)
    irradiance_factor = model.voltage_irradiance_intercept + model.voltage_irradiance_slope * g
    voltage = model.datasheet.v_mpp_ref * temperature_factor * irradiance_factor
    return np.where(g > 0.0, np.maximum(voltage, 0.0), 0.0)


def module_operating_point(
    model: EmpiricalModuleModel, irradiance: np.ndarray, ambient_c: np.ndarray
) -> OperatingPoint:
    """Full MPP operating point from irradiance and *ambient* temperature."""
    g = model._validated_irradiance(irradiance)
    t_cell = model.cell_temperature(g, ambient_c)
    power = model.power_at_cell_temperature(g, t_cell)
    voltage = voltage_at_cell_temperature(model, g, t_cell)
    with np.errstate(divide="ignore", invalid="ignore"):
        current = np.where(voltage > 1e-9, power / np.maximum(voltage, 1e-9), 0.0)
    return OperatingPoint(
        power_w=power, voltage_v=voltage, current_a=current, cell_temperature_c=t_cell
    )


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


def _module_points(
    model: EmpiricalModuleModel | None, irradiance: np.ndarray, ambient_c: np.ndarray
) -> OperatingPoint:
    g = np.asarray(irradiance, dtype=float)
    ambient = np.asarray(ambient_c, dtype=float)
    if ambient.ndim == g.ndim - 1:
        ambient = ambient[..., None]
    return module_operating_point(model or paper_module_model(), g, ambient)


def operating_point_from_conditions(
    array: PVArray,
    irradiance: np.ndarray,
    ambient_c: np.ndarray,
    model: EmpiricalModuleModel | None = None,
) -> PanelOperatingPoint:
    """Panel operating point from per-module irradiance ``(..., N)`` and an
    ambient temperature broadcastable against it without its last axis
    (``model``: the paper's module by default)."""
    point = _module_points(model, irradiance, ambient_c)
    return array.aggregate(point.voltage_v, point.current_a)


def mismatch_loss_fraction(
    array: PVArray,
    irradiance: np.ndarray,
    ambient_c: np.ndarray,
    model: EmpiricalModuleModel | None = None,
) -> np.ndarray:
    """Relative mismatch loss (0 = perfectly matched strings): the gap between
    the sum of the module maximum powers and the series/parallel aggregate."""
    ideal = np.sum(_module_points(model, irradiance, ambient_c).power_w, axis=-1)
    actual = operating_point_from_conditions(array, irradiance, ambient_c, model).power_w
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ideal > 1e-9, 1.0 - actual / np.maximum(ideal, 1e-9), 0.0)


def module_irradiance_series_reference(
    problem: FloorplanProblem, placement: Placement
) -> np.ndarray:
    """Original per-module-loop irradiance aggregation (ground truth): the
    minimum of the means of the module's two bypass-diode substrings.

    Kept verbatim so the equivalence tests can check the vectorised
    evaluator's per-module series against it and the evaluator benchmark
    can measure the speedup.
    """
    solar = problem.solar
    series = np.empty((solar.n_time, placement.n_modules), dtype=float)
    for module in placement:
        cells = module.covered_cells(placement.footprint)
        cell_series = irradiance_for_cells(solar, cells)
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
        groups = np.minimum((long_coord * 2) // max(n_long, 1), 1)
        substring_means = np.stack(
            [
                np.mean(cell_series[:, groups == g], axis=1)
                for g in range(2)
                if np.any(groups == g)
            ],
            axis=1,
        )
        series[:, module.module_index] = np.min(substring_means, axis=1)
    return series


def evaluate_placement_reference(
    problem: FloorplanProblem,
    placement: Placement,
    store_power_series: bool = False,
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
    model = problem.module_model
    wiring = WiringSpec()
    time_grid = problem.solar.time_grid

    irradiance = module_irradiance_series_reference(problem, placement)
    ambient = problem.solar.temperature

    operating = operating_point_from_conditions(array, irradiance, ambient, model)
    gross_power = operating.power_w

    string_positions = placement.string_positions()
    extra_lengths = np.array(
        [string_extra_length(positions, wiring) for positions in string_positions]
    )
    string_currents = operating.string_currents_a  # (n_time, n_parallel)
    loss_power = np.sum(
        wiring.resistance_per_m * extra_lengths[None, :] * string_currents**2, axis=1
    )
    net_power = np.maximum(gross_power - loss_power, 0.0)

    gross_energy = time_grid.integrate_energy_wh(gross_power)
    net_energy = time_grid.integrate_energy_wh(net_power)
    wiring_loss = time_grid.integrate_energy_wh(loss_power)

    mismatch = mismatch_loss_fraction(array, irradiance, ambient, model)
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
