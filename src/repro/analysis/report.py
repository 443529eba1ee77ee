"""Tabular reports in the style of the paper's Table I.

The report builder collects, for each (roof, N) configuration, the yearly
production of the traditional and proposed placements and the relative
improvement, and renders them as an aligned plain-text table or as a list of
dictionaries for programmatic consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import ReproError


@dataclass(frozen=True)
class Table1Row:
    """One row of the Table-I style report."""

    roof: str
    grid_w: int
    grid_h: int
    n_valid: int
    n_modules: int
    traditional_mwh: float
    proposed_mwh: float

    @property
    def improvement_percent(self) -> float:
        """Relative improvement of the proposed placement over the baseline."""
        if self.traditional_mwh <= 0:
            return 0.0
        return 100.0 * (self.proposed_mwh - self.traditional_mwh) / self.traditional_mwh

    def as_dict(self) -> dict:
        """Flat dictionary representation."""
        return {
            "roof": self.roof,
            "WxL": f"{self.grid_w}x{self.grid_h}",
            "Ng": self.n_valid,
            "N": self.n_modules,
            "traditional_mwh": round(self.traditional_mwh, 3),
            "proposed_mwh": round(self.proposed_mwh, 3),
            "improvement_percent": round(self.improvement_percent, 2),
        }


@dataclass
class Table1Report:
    """Collection of Table-I rows with text rendering."""

    rows: List[Table1Row] = field(default_factory=list)

    def add_row(self, row: Table1Row) -> None:
        """Append a configuration row."""
        self.rows.append(row)

    def as_dicts(self) -> List[dict]:
        """All rows as dictionaries (stable order)."""
        return [row.as_dict() for row in self.rows]

    def render(self) -> str:
        """Aligned plain-text rendering of the table."""
        if not self.rows:
            raise ReproError("the report has no rows")
        header = (
            f"{'Roof':<10} {'WxL':>9} {'Ng':>7} {'N':>4} "
            f"{'Trad MWh':>10} {'Prop MWh':>10} {'Improv %':>9}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.roof:<10} {row.grid_w:>4}x{row.grid_h:<4} {row.n_valid:>7} "
                f"{row.n_modules:>4} {row.traditional_mwh:>10.3f} "
                f"{row.proposed_mwh:>10.3f} {row.improvement_percent:>8.2f}%"
            )
        return "\n".join(lines)


def format_comparison_table(
    labels: Sequence[str], values: Sequence[Sequence[float]], columns: Sequence[str]
) -> str:
    """Generic aligned table used by the ablation and sensitivity benches."""
    if len(labels) != len(values):
        raise ReproError("labels and value rows must have the same length")
    widths = [max(12, len(c) + 2) for c in columns]
    header = f"{'config':<24}" + "".join(f"{c:>{w}}" for c, w in zip(columns, widths))
    lines = [header, "-" * len(header)]
    for label, row in zip(labels, values):
        if len(row) != len(columns):
            raise ReproError("each value row must match the number of columns")
        cells = "".join(f"{v:>{w}.3f}" for v, w in zip(row, widths))
        lines.append(f"{label:<24}" + cells)
    return "\n".join(lines)
