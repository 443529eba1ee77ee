"""E6 -- Figure 7: traditional vs proposed placements for N = 32.

Regenerates the placement layouts of the paper's Figure 7 on each roof
(colour-coded by series string in the paper, letter-coded here) and checks
their qualitative properties: the proposed placement is sparser, overlaps the
same general area as the traditional one, and keeps its series strings more
uniformly irradiated (the topology-awareness argument of Section V-B).
"""

from __future__ import annotations

from repro.analysis import overlap_fraction, placement_shape_metrics, string_uniformity
from repro.core import compute_suitability
from repro.experiments import figure7_placements


def test_bench_figure7_placements(benchmark, case_studies):
    """Figure 7 (d-f) vs (a-c): layouts of the two placements on every roof."""

    def build_figures():
        return {
            name: figure7_placements(study, n_modules=32)
            for name, study in case_studies.items()
        }

    figures = benchmark.pedantic(build_figures, rounds=1, iterations=1)

    print("\n[Fig 7] placements for N = 32 (letters = series strings):")
    for name, figure in figures.items():
        print(f"  {name}: improvement {figure.improvement_percent:+.2f} %")
        print("    traditional:")
        print("\n".join("      " + line for line in figure.traditional_ascii.splitlines()[:6]))
        print("    proposed:")
        print("\n".join("      " + line for line in figure.proposed_ascii.splitlines()[:6]))

    for name, study in case_studies.items():
        figure = figures[name]
        # Both placements cover exactly 32 modules.
        assert (figure.traditional_map >= 0).sum() == (figure.proposed_map >= 0).sum()
        assert figure.improvement_percent > -5.0


def test_bench_figure7_structure(case_studies, table1_config):
    """Structural properties behind Figure 7: dispersion and string uniformity."""
    from repro.core import build_problem, greedy_floorplan, traditional_floorplan

    print("\n[Fig 7] structural metrics (N = 32):")
    for name, study in case_studies.items():
        problem = build_problem(study.solar, 32, table1_config.series_length)
        suitability = compute_suitability(problem.solar)
        traditional = traditional_floorplan(problem, suitability=suitability)
        greedy = greedy_floorplan(problem, suitability=suitability)

        shape_traditional = placement_shape_metrics(traditional.placement, suitability)
        shape_greedy = placement_shape_metrics(greedy.placement, suitability)
        uniformity_traditional = string_uniformity(traditional.placement, suitability)
        uniformity_greedy = string_uniformity(greedy.placement, suitability)
        overlap = overlap_fraction(
            traditional.placement, greedy.placement, problem.grid.shape
        )
        print(
            f"    {name}: dispersion {shape_traditional.dispersion_m:5.2f} -> "
            f"{shape_greedy.dispersion_m:5.2f} m, string min/mean "
            f"{uniformity_traditional.mean_ratio:.3f} -> {uniformity_greedy.mean_ratio:.3f}, "
            f"overlap {overlap:.2f}"
        )
        # The proposed placement is sparser...
        assert shape_greedy.dispersion_m >= shape_traditional.dispersion_m - 0.5
        # ...its modules sit on better cells on average...
        assert (
            shape_greedy.mean_footprint_suitability
            >= shape_traditional.mean_footprint_suitability - 1e-6
        )
        # ...and its series strings are at least as uniformly irradiated.
        assert uniformity_greedy.mean_ratio >= uniformity_traditional.mean_ratio - 0.05
