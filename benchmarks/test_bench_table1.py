"""E7 -- Table I: yearly production of traditional vs proposed placements.

Runs the full reproduction of the paper's headline experiment: for each of
the three roofs and N in {16, 32} modules (strings of 8), the compact
baseline and the greedy floorplan are generated and evaluated over the
simulated year.  Absolute MWh differ from the paper (synthetic DSM/weather);
the asserted properties are the comparison's *shape*: the proposed placement
never loses significantly, the N = 32 improvements fall in the paper's
10-30 % band, and the wiring overhead stays negligible.  The rows come from
the object-level oracle (``tests/oracles/table1.py``), whose entries keep
the comparisons the checks read.
"""

from __future__ import annotations

from repro.experiments import PAPER_TABLE1

from oracles.table1 import table1_reference


def test_bench_table1_reproduction(benchmark, table1_config, case_studies):
    """Full Table I sweep (3 roofs x N in {16, 32})."""
    results = benchmark.pedantic(
        lambda: table1_reference(table1_config, case_studies=case_studies),
        rounds=1,
        iterations=1,
    )

    print("\n[Table I] reproduction (synthetic roofs/weather):")
    print(results.report.render())
    print("\n[Table I] paper reference:")
    for row in PAPER_TABLE1:
        print(
            f"    {row['roof']} N={row['N']:>2}: {row['traditional_mwh']:.3f} -> "
            f"{row['proposed_mwh']:.3f} MWh ({row['improvement_percent']:+.2f} %)"
        )

    by_key = {(entry.roof, entry.n_modules): entry for entry in results.entries}

    # Shape checks -- who wins and by roughly what factor.
    for (roof, n_modules), entry in by_key.items():
        improvement = entry.improvement_percent
        baseline = entry.comparison.baseline
        candidate = entry.comparison.candidate
        assert baseline.annual_energy_mwh > 0.5
        assert candidate.annual_energy_mwh > 0.5
        # The proposed placement never loses more than a few percent.
        assert improvement > -5.0, f"{roof} N={n_modules}: proposed placement lost badly"
        # Wiring overhead stays negligible, as in Section V-C.
        assert candidate.wiring_loss_fraction < 0.02

    # For the dense configurations (N = 32) the gains land in the paper's band.
    n32_improvements = [
        entry.improvement_percent for (roof, n), entry in by_key.items() if n == 32
    ]
    assert max(n32_improvements) > 8.0
    assert all(improvement < 40.0 for improvement in n32_improvements)

    # Per-panel production of the proposed placements is roughly uniform
    # across roofs (they all pick the best cells), as in the paper.
    per_panel = [
        entry.comparison.candidate.annual_energy_mwh / entry.n_modules
        for entry in results.entries
    ]
    assert max(per_panel) / min(per_panel) < 1.6
