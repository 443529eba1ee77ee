"""Object-level oracle of the sweep-built Table I (:func:`run_table1_sweep`).

Builds every (roof, N) row by hand from the prepared case studies: the
floorplanning problem, the traditional placement and the configured solver's
placement through :func:`repro.runner.solvers.solve`, and their comparison.
The sweep-driven report must match its rows exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.report import Table1Report, Table1Row
from repro.core import FloorplanProblem, build_problem, compare_placements
from repro.core.evaluation import PlacementComparison
from repro.experiments import CaseStudy, Table1Config, prepare_all_case_studies
from repro.runner.solvers import SolverOutcome, solve


@dataclass
class Table1Entry:
    """The objects behind one (roof, N) row."""

    roof: str
    n_modules: int
    problem: FloorplanProblem
    traditional: SolverOutcome
    proposed: SolverOutcome
    comparison: PlacementComparison

    @property
    def improvement_percent(self) -> float:
        return self.comparison.improvement_percent


@dataclass
class Table1Oracle:
    entries: List[Table1Entry]
    report: Table1Report


def table1_reference(
    config: Table1Config | None = None,
    roofs: Optional[Iterable[str]] = None,
    case_studies: Optional[Dict[str, CaseStudy]] = None,
) -> Table1Oracle:
    """Table I, roofs outer and module counts inner, one problem per row."""
    cfg = config if config is not None else Table1Config()
    studies = case_studies
    if studies is None:
        studies = prepare_all_case_studies(cfg.case_study)
    entries: List[Table1Entry] = []
    report = Table1Report()
    for roof in roofs if roofs is not None else studies:
        study = studies[roof]
        for n_modules in cfg.module_counts:
            problem = build_problem(
                study.solar,
                n_modules,
                cfg.series_length,
                cfg.datasheet,
                label=f"{roof}-N{n_modules}",
            )
            traditional = solve(problem, "traditional")
            proposed = solve(problem, cfg.solver, suitability=traditional.suitability)
            comparison = compare_placements(problem, traditional.placement, proposed.placement)
            entries.append(Table1Entry(roof, n_modules, problem, traditional, proposed, comparison))
            report.add_row(
                Table1Row(
                    roof=roof,
                    grid_w=study.grid.n_cols,
                    grid_h=study.grid.n_rows,
                    n_valid=study.grid.n_valid,
                    n_modules=n_modules,
                    traditional_mwh=comparison.baseline.annual_energy_mwh,
                    proposed_mwh=comparison.candidate.annual_energy_mwh,
                )
            )
    return Table1Oracle(entries=entries, report=report)
