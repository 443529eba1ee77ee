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
from repro.pv.mppt import MPPTModel
from repro.pv.wiring import WiringSpec, string_extra_length, wiring_overhead_report


def module_irradiance_series_reference(
    problem: FloorplanProblem,
    placement: Placement,
    aggregation: str = "substring-min",
    n_substrings: int = 2,
) -> np.ndarray:
    """Original per-module-loop irradiance aggregation (ground truth).

    Kept verbatim so the equivalence tests can check the vectorised
    :meth:`PlacementEvaluator.module_irradiance_series` against it and the
    evaluator benchmark can measure the speedup.
    """
    if aggregation not in ("substring-min", "mean"):
        raise PlacementError(f"unknown module aggregation {aggregation!r}")
    if n_substrings < 1:
        raise PlacementError("n_substrings must be >= 1")
    solar = problem.solar
    series = np.empty((solar.n_time, placement.n_modules), dtype=float)
    for module in placement:
        cells = module.covered_cells(placement.footprint)
        cell_series = solar.irradiance_for_cells(cells)
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
    placement.validate(problem.grid)
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

    operating = array.operating_point_from_conditions(irradiance, ambient)
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

    mismatch = array.mismatch_loss_fraction(irradiance, ambient)
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
