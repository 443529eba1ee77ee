#!/usr/bin/env python3
"""Quickstart: optimal PV floorplanning of a small residential roof.

Builds a synthetic 10 m x 6 m south-facing roof with a couple of obstacles,
simulates one year of spatio-temporal irradiance, and compares the
traditional compact placement against the paper's sparse greedy placement
(the scenario of the paper's Figure 1, on a residential scale).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import TimeGrid, plan_roof
from repro.analysis import ascii_heatmap, placement_ascii
from repro.gis import simple_residential_roof


def main() -> None:
    roof = simple_residential_roof(
        name="residential-quickstart",
        width_m=10.0,
        depth_m=6.0,
        tilt_deg=30.0,
        azimuth_deg=0.0,  # facing due south
        n_obstacles=3,
        seed=7,
    )

    # Hourly samples of every 7th day: a fast, unbiased estimate of the year.
    result = plan_roof(
        roof,
        n_modules=8,
        n_series=4,
        time_grid=TimeGrid(step_minutes=60.0, day_stride=7),
        weather_seed=1,
    )

    print("=" * 72)
    print("Quickstart: residential roof, 8 x PV-MF165EB3 (4 in series, 2 strings)")
    print("=" * 72)
    print(result.report())

    print("\n75th-percentile irradiance map (brighter = better):")
    print(ascii_heatmap(result.problem.solar.percentile_map(75), max_rows=14, max_cols=50))

    shape = result.problem.grid.shape
    print("\nTraditional compact placement (letters = series strings):")
    print(placement_ascii(result.baseline.placement, shape, max_rows=14, max_cols=50))
    print("\nProposed sparse placement:")
    print(placement_ascii(result.proposed.placement, shape, max_rows=14, max_cols=50))

    candidate = result.comparison.candidate
    print(
        f"\nWiring overhead of the sparse placement: "
        f"{candidate.wiring_extra_length_m:.1f} m of extra cable, "
        f"{candidate.wiring_loss_fraction * 100:.3f} % of the yearly energy, "
        f"${candidate.wiring_extra_cost:.0f} of material."
    )


if __name__ == "__main__":
    main()
