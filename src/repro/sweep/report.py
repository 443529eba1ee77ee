"""Deterministic report artifacts (Markdown / CSV) for sweeps and presets.

Rendering is plain string assembly with explicit column formats -- no
timestamps, no environment-dependent content -- so re-generating a report
from the same inputs is byte-identical.  That determinism is what lets the
CI docs job regenerate the generated artifacts and fail on any diff.

Two *presets* reproduce the paper-level artifacts:

``table1``
    The paper's Table I (three roofs x N in {16, 32}), driven end-to-end
    through the sweep engine by :func:`repro.experiments.run_table1_sweep`.
``catalog``
    A summary of every built-in scenario (also the table behind the
    generated ``docs/scenarios.md``).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .aggregate import SweepResult

#: Column formats (printf-style) used when a column holds floats.
FloatFormats = Mapping[str, str]


def _format_cell(value: Any, fmt: Optional[str] = None) -> str:
    if value is None:
        return ""
    if fmt is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
        return fmt % value
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def render_markdown_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[Tuple[str, str]],
    formats: Optional[FloatFormats] = None,
) -> str:
    """Render rows as a GitHub-flavoured Markdown table.

    ``columns`` lists ``(row_key, header)`` pairs in display order;
    ``formats`` optionally maps row keys to printf-style float formats
    (e.g. ``{"proposed_mwh": "%.3f"}``).

    >>> print(render_markdown_table(
    ...     [{"n": 4, "e": 1.25}, {"n": 8, "e": 2.5}],
    ...     columns=[("n", "N"), ("e", "Energy [MWh]")],
    ...     formats={"e": "%.3f"},
    ... ))
    | N | Energy [MWh] |
    | --- | --- |
    | 4 | 1.250 |
    | 8 | 2.500 |
    """
    if not columns:
        raise ConfigurationError("a markdown table needs at least one column")
    fmts = dict(formats or {})
    lines = [
        "| " + " | ".join(header for _, header in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        cells = [_format_cell(row.get(key), fmts.get(key)) for key, _ in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render_csv(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[Tuple[str, str]],
    formats: Optional[FloatFormats] = None,
) -> str:
    """Render rows as CSV text (header from the column display names)."""
    if not columns:
        raise ConfigurationError("a CSV table needs at least one column")
    fmts = dict(formats or {})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([header for _, header in columns])
    for row in rows:
        writer.writerow([_format_cell(row.get(key), fmts.get(key)) for key, _ in columns])
    return buffer.getvalue()


@dataclass(frozen=True)
class ReportArtifact:
    """One rendered report: the rows plus their Markdown and CSV forms."""

    name: str
    title: str
    rows: Tuple[dict, ...]
    markdown: str
    csv: str

    def text(self, fmt: str = "markdown") -> str:
        """The artifact in the requested format (``markdown`` or ``csv``)."""
        if fmt == "markdown":
            return self.markdown
        if fmt == "csv":
            return self.csv
        raise ConfigurationError(f"unknown report format {fmt!r}")


def _artifact(
    name: str,
    title: str,
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[Tuple[str, str]],
    formats: Optional[FloatFormats] = None,
    preamble: Sequence[str] = (),
    footer: Sequence[str] = (),
) -> ReportArtifact:
    body = render_markdown_table(rows, columns, formats)
    parts = [f"# {title}", ""]
    parts.extend(preamble)
    if preamble:
        parts.append("")
    parts.append(body)
    if footer:
        parts.append("")
        parts.extend(footer)
    markdown = "\n".join(parts) + "\n"
    return ReportArtifact(
        name=name,
        title=title,
        rows=tuple(dict(row) for row in rows),
        markdown=markdown,
        csv=render_csv(rows, columns, formats),
    )


# ---------------------------------------------------------------------------
# Generic sweep reports
# ---------------------------------------------------------------------------


def sweep_report(
    sweep: SweepResult,
    title: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
) -> ReportArtifact:
    """Render a sweep outcome: axis columns, metric columns, cache accounting.

    The footer records the per-stage cache-reuse accounting of the run, so
    a stored report documents how much of the grid was served from cache.
    """
    from .aggregate import DEFAULT_METRICS

    chosen = tuple(metrics) if metrics is not None else DEFAULT_METRICS
    rows = sweep.table(chosen)
    columns: List[Tuple[str, str]] = [("point", "point")]
    columns += [(key, key) for key in sweep.axis_keys]
    columns += [(metric, metric) for metric in chosen]
    formats = {metric: "%.4f" for metric in chosen if metric != "runtime_s"}
    formats["runtime_s"] = "%.2f"
    recomputes = sweep.stage_recompute_counts()
    hits = sweep.cache_hit_counts()
    stages = sorted(set(recomputes) | set(hits))
    accounting = ", ".join(
        f"{stage}: {hits.get(stage, 0)} cached / {recomputes.get(stage, 0)} computed"
        for stage in stages
    )
    footer = [
        f"Points: {sweep.n_points} along axes {', '.join(sweep.axis_keys)}.",
        f"Stage cache reuse -- {accounting if accounting else 'no provenance recorded'}.",
    ]
    return _artifact(
        name=f"sweep-{sweep.plan_name}",
        title=title if title is not None else f"Sweep report: {sweep.plan_name}",
        rows=rows,
        columns=columns,
        formats=formats,
        footer=footer,
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Columns of the Table-I artifact, matching the paper's layout.
_TABLE1_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("roof", "Roof"),
    ("WxL", "W x L"),
    ("Ng", "Ng"),
    ("N", "N"),
    ("traditional_mwh", "Traditional [MWh/y]"),
    ("proposed_mwh", "Proposed [MWh/y]"),
    ("improvement_percent", "Improvement [%]"),
)

_TABLE1_FORMATS: FloatFormats = {
    "traditional_mwh": "%.3f",
    "proposed_mwh": "%.3f",
    "improvement_percent": "%.2f",
}


def table1_report(
    config: Any = None,
    roofs: Optional[Sequence[str]] = None,
    cache: Any = None,
    jobs: Optional[int] = None,
    use_cache: bool = True,
) -> ReportArtifact:
    """The paper's Table I, reproduced through the sweep engine.

    Takes a :class:`~repro.experiments.Table1Config` and runs it through
    :func:`repro.experiments.run_table1_sweep`.
    """
    from ..experiments.table1 import run_table1_sweep

    outcome = run_table1_sweep(
        config,
        roofs=roofs,
        cache=cache,
        jobs=jobs,
        use_cache=use_cache,
    )
    rows = outcome.report.as_dicts()
    # Note: no run-dependent content (timings, cache hit counts) may enter
    # the artifact -- regenerating it from the same inputs must be
    # byte-identical, warm or cold.  The reuse accounting stays available on
    # the SweepResult (outcome.sweep.stage_recompute_counts()).
    return _artifact(
        name="table1",
        title="Table I -- yearly production, traditional vs proposed placement",
        rows=rows,
        columns=_TABLE1_COLUMNS,
        formats=_TABLE1_FORMATS,
        preamble=[
            "Reproduction of Vinco et al. (DATE 2018), Table I: for each",
            "case-study roof and module count N, the yearly production of the",
            "traditional compact placement, the proposed placement, and the",
            "relative improvement.  Generated by the declarative sweep engine",
            "(`repro.sweep`) over the roof x N grid.",
        ],
        footer=[f"Sweep: {outcome.sweep.n_points} points."],
    )


_CATALOG_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("name", "Scenario"),
    ("solver", "Solver"),
    ("n_modules", "N"),
    ("n_series", "Series"),
    ("roof", "Roof"),
    ("size", "Facet [m]"),
    ("tags", "Tags"),
    ("description", "Description"),
)


def catalog_rows() -> List[dict]:
    """Flat summary rows of the built-in scenario catalog (catalog order)."""
    from ..scenario.catalog import builtin_scenarios

    rows = []
    for spec in builtin_scenarios().values():
        rows.append(
            {
                "name": spec.name,
                "solver": spec.solver.name,
                "n_modules": spec.n_modules,
                "n_series": spec.series_length(),
                "roof": spec.roof.name,
                "size": f"{spec.roof.width_m:g} x {spec.roof.depth_m:g}",
                "tags": ", ".join(spec.tags),
                "description": spec.description,
            }
        )
    return rows


def catalog_table_markdown() -> str:
    """Just the catalog summary table (embedded in ``docs/scenarios.md``)."""
    return render_markdown_table(catalog_rows(), _CATALOG_COLUMNS)


def catalog_report(**_: Any) -> ReportArtifact:
    """Summary of every built-in scenario (the ``catalog`` preset)."""
    rows = catalog_rows()
    return _artifact(
        name="catalog",
        title="Built-in scenario catalog",
        rows=rows,
        columns=_CATALOG_COLUMNS,
        preamble=[
            "Every named scenario bundled with `repro`, runnable as",
            "`repro run <name>` and sweepable as a `SweepPlan` base.  This",
            "table is the source of the generated `docs/scenarios.md`.",
        ],
        footer=[f"{len(rows)} scenarios."],
    )


#: Registered report presets: name -> builder accepting preset kwargs.
REPORT_PRESETS: Dict[str, Callable[..., ReportArtifact]] = {
    "table1": table1_report,
    "catalog": catalog_report,
}


def available_presets() -> List[str]:
    """Names of the registered report presets, sorted."""
    return sorted(REPORT_PRESETS)


def generate_report(preset: str, **kwargs: Any) -> ReportArtifact:
    """Build a registered preset artifact by name."""
    try:
        builder = REPORT_PRESETS[preset]
    except KeyError as exc:
        known = ", ".join(available_presets())
        raise ConfigurationError(f"unknown report preset {preset!r}; known: {known}") from exc
    return builder(**kwargs)
