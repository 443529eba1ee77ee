#!/usr/bin/env python3
"""Case study: reproduce one row of the paper's Table I on an industrial roof.

Prepares the synthetic reconstruction of Roof 2 (the largest of the paper's
three industrial roofs), runs the solar-data extraction flow, and compares
the traditional and proposed placements for N = 32 modules in strings of 8 --
the configuration of the paper's Figure 7(b)/(e).

Run with:  python examples/roof_case_study.py          (reduced resolution)
           python examples/roof_case_study.py --full   (hourly, every day)
"""

from __future__ import annotations

import argparse

from repro.analysis import placement_ascii, spatial_variation_coefficient, string_uniformity
from repro.core import build_problem, compare_placements, greedy_floorplan, traditional_floorplan
from repro.experiments import CaseStudyConfig, prepare_case_study, roof2_spec
from repro.io import save_placement


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="hourly samples of every day")
    parser.add_argument("--modules", type=int, default=32, help="number of modules to place")
    parser.add_argument(
        "--save", type=str, default="", help="write the proposed placement JSON here"
    )
    args = parser.parse_args()

    config = CaseStudyConfig(
        scale=1.0,
        time_step_minutes=60.0,
        day_stride=1 if args.full else 7,
    )
    print("Preparing Roof 2 (DSM, shading, weather, irradiance field)...")
    study = prepare_case_study(roof2_spec(), config)
    print(
        f"  grid {study.grid.n_cols} x {study.grid.n_rows} elements of "
        f"{study.grid.pitch * 100:.0f} cm, Ng = {study.grid.n_valid} valid"
    )
    p75 = study.solar.percentile_map(75)
    p75_variation = spatial_variation_coefficient(p75)
    print(f"  spatial variation of the p75 irradiance map: CV = {p75_variation:.3f}")

    problem = build_problem(study.solar, args.modules, 8, label=f"{study.name}-N{args.modules}")
    print(
        f"\nPlacing N = {args.modules} modules "
        f"({problem.topology.n_series} in series per string)..."
    )
    traditional = traditional_floorplan(problem)
    greedy = greedy_floorplan(problem, suitability=traditional.suitability)
    comparison = compare_placements(problem, traditional.placement, greedy.placement)

    baseline = comparison.baseline
    candidate = comparison.candidate
    print(f"  traditional ({traditional.strategy}): {baseline.annual_energy_mwh:7.3f} MWh/year")
    print(
        f"  proposed (greedy, {greedy.runtime_s * 1e3:.0f} ms):  "
        f"{candidate.annual_energy_mwh:7.3f} MWh/year"
    )
    print(f"  improvement: {comparison.improvement_percent:+.2f} %  (paper row: +23.6 %)")
    print(
        f"  wiring: {candidate.wiring_extra_length_m:.1f} m extra cable, "
        f"{candidate.wiring_loss_fraction * 100:.3f} % of the yearly energy"
    )

    uniformity_trad = string_uniformity(traditional.placement, traditional.suitability)
    uniformity_greedy = string_uniformity(greedy.placement, traditional.suitability)
    print(
        f"  string uniformity (min/mean suitability per string): "
        f"{uniformity_trad.mean_ratio:.3f} -> {uniformity_greedy.mean_ratio:.3f}"
    )

    shape = problem.grid.shape
    print("\nTraditional placement (letters = series strings):")
    print(placement_ascii(traditional.placement, shape, max_rows=12, max_cols=76))
    print("\nProposed placement:")
    print(placement_ascii(greedy.placement, shape, max_rows=12, max_cols=76))

    if args.save:
        save_placement(greedy.placement, args.save)
        print(f"\nProposed placement written to {args.save}")


if __name__ == "__main__":
    main()
