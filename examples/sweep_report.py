#!/usr/bin/env python3
"""Sweep demo: a latitude x module-count grid rendered as a Markdown report.

Takes one small residential scenario, sweeps it across three site latitudes
and two installation sizes through the declarative sweep engine, and renders
the aggregated table -- including the per-stage cache-reuse accounting -- as
a Markdown report artifact.

The interesting part is the accounting: the 3 x 2 = 6 points need only
*three* solar-field computations, because the module-count axis does not
touch the solar content key and the stage cache collapses the rest.

Run with:  python examples/sweep_report.py [--output sweep-report.md]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.gis import RoofSpec, chimney
from repro.scenario import ScenarioSpec, SolarSpec, TimeSpec
from repro.sweep import SweepAxis, SweepPlan, run_sweep
from repro.sweep.report import sweep_report


def base_scenario() -> ScenarioSpec:
    """A small residential scenario, coarse enough to sweep in seconds."""
    roof = RoofSpec(
        name="sweep-demo-roof",
        width_m=9.0,
        depth_m=5.0,
        tilt_deg=30.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.3,
        obstacles=(chimney(2.0, 3.5, side_m=0.8, height_m=1.5),),
    )
    return ScenarioSpec(
        name="sweep-demo",
        roof=roof,
        n_modules=4,
        n_series=2,
        grid_pitch=0.4,
        dsm_pitch=0.5,
        time=TimeSpec(step_minutes=120.0, day_stride=30),
        solar=SolarSpec(n_horizon_sectors=24, horizon_max_distance_m=40.0),
        description="Latitude x module-count sweep demo",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="", help="also write the Markdown report here")
    args = parser.parse_args()

    plan = SweepPlan(
        name="latitude-x-modules",
        base=base_scenario(),
        axes=(
            SweepAxis("weather.latitude_deg", (25.0, 45.0, 65.0)),
            SweepAxis("n_modules", (2, 4)),
        ),
    )
    print(f"sweep {plan.name!r}: {plan.n_points} points "
          f"({' x '.join(axis.name for axis in plan.axes)})")

    # A throwaway cache directory keeps the demo hermetic while still
    # demonstrating the within-run stage reuse across the grid.
    with tempfile.TemporaryDirectory(prefix="repro-sweep-demo-") as cache_dir:
        sweep = run_sweep(plan, cache=cache_dir, jobs=1)

    artifact = sweep_report(sweep, title="Latitude x module-count sweep")
    print()
    print(artifact.markdown)

    recomputed = sweep.stage_recompute_counts()
    print(f"solar fields computed: {recomputed.get('solar', 0)} for "
          f"{sweep.n_points} points (module-count axis reuses the cache)")

    pivot = sweep.pivot("latitude_deg", "n_modules", "annual_energy_mwh")
    print("\nannual energy [MWh/y], latitude (rows) x modules (columns):")
    header = "  lat    " + "".join(f"N={label:<8}" for label in pivot.col_labels)
    print(header)
    for label, row in zip(pivot.row_labels, pivot.values):
        cells = "".join(f"{value:<10.3f}" for value in row)
        print(f"  {label:<7}{cells}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(artifact.markdown)
        print(f"\nreport written to {args.output}")


if __name__ == "__main__":
    main()
