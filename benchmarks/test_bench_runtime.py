"""E8 -- Section V-B runtime claim.

The paper reports that the placement "required less than 120 s under all
configurations" on an 8-core i7, with runtime proportional to the number of
valid grid elements and to the number of modules.  This bench measures the
greedy placer on the full-size Roof 2 instance (the largest Ng) and on a
sweep of smaller synthetic roofs to expose the scaling.
"""

from __future__ import annotations

from repro.core import build_problem, greedy_floorplan
from repro.experiments import runtime_sweep, summarize_runtime


def test_bench_placement_runtime_paper_roof(benchmark, case_studies, table1_config):
    """Greedy placement runtime on the largest paper roof (N = 32)."""
    study = case_studies["roof2"]
    problem = build_problem(study.solar, 32, table1_config.series_length)

    result = benchmark(lambda: greedy_floorplan(problem))
    print(
        f"\n[Sec V-B] roof2 N=32: Ng={study.grid.n_valid}, "
        f"placement runtime {result.runtime_s * 1e3:.1f} ms (paper budget: 120 s)"
    )
    assert result.runtime_s < 120.0


def test_bench_runtime_scaling(benchmark):
    """Runtime sweep across roof sizes and module counts."""
    samples = benchmark.pedantic(
        lambda: runtime_sweep(
            roof_widths_m=(12.0, 20.0, 32.0),
            module_counts=(8, 16),
            grid_pitch=0.2,
            time_step_minutes=240.0,
            day_stride=45,
        ),
        rounds=1,
        iterations=1,
    )
    summary = summarize_runtime(samples)
    print("\n[Sec V-B] runtime sweep (placement only):")
    for sample in samples:
        print(
            f"    width={sample.roof_width_m:5.1f} m  Ng={sample.n_valid_cells:6d}  "
            f"N={sample.n_modules:2d}  placement={sample.placement_runtime_s * 1e3:7.1f} ms"
        )
    assert summary["max_placement_runtime_s"] < summary["paper_budget_s"]
    # Larger instances take longer (proportionality claim, loosely checked).
    small = [s.placement_runtime_s for s in samples if s.roof_width_m == 12.0]
    large = [s.placement_runtime_s for s in samples if s.roof_width_m == 32.0]
    assert max(large) >= min(small)
