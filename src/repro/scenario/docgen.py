"""Generator of the scenario catalog reference (``docs/scenarios.md``).

The catalog documentation is *generated*, never hand-edited: this module
renders every built-in scenario -- the summary table shared with the
``catalog`` report preset plus one detail section per scenario -- into
deterministic Markdown.  The CI docs job regenerates the file and fails on
any diff, so the document can never drift from the code.

Usage::

    python -m repro.scenario.docgen                      # write docs/scenarios.md
    python -m repro.scenario.docgen --output PATH        # write elsewhere
    python -m repro.scenario.docgen --check              # exit 1 when stale
    python -m repro.scenario.docgen --stdout             # print instead
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .catalog import builtin_scenarios
from .spec import ScenarioSpec

#: Marker embedded at the top of the generated document.
GENERATED_HEADER = (
    "<!-- Generated by `python -m repro.scenario.docgen`; do not edit by hand. -->"
)

#: Default output location, relative to the repository root.
DEFAULT_OUTPUT = Path("docs") / "scenarios.md"


def _scenario_section(spec: ScenarioSpec) -> List[str]:
    """The detail section of one scenario."""
    roof = spec.roof
    weather = spec.weather
    solver = spec.solver
    lines = [f"## `{spec.name}`", ""]
    if spec.description:
        lines += [spec.description, ""]
    options = (
        ", ".join(f"{k}={v!r}" for k, v in sorted(solver.options.items()))
        if solver.options
        else "defaults"
    )
    obstacles = ", ".join(o.name for o in roof.obstacles) if roof.obstacles else "none"
    neighbours = (
        ", ".join(s.name for s in roof.adjacent_structures)
        if roof.adjacent_structures
        else "none"
    )
    module = spec.module if isinstance(spec.module, str) else spec.module.get("name", "inline")
    lines += [
        f"- **Installation**: {spec.n_modules} x `{module}` modules, "
        f"{spec.series_length()} in series per string"
        + (", rotation allowed" if spec.allow_rotation else ""),
        f"- **Solver**: `{solver.name}` ({options})",
        f"- **Roof**: `{roof.name}`, {roof.width_m:g} x {roof.depth_m:g} m facet, "
        f"tilt {roof.tilt_deg:g} deg, azimuth {roof.azimuth_deg:g} deg, "
        f"setback {roof.edge_setback_m:g} m",
        f"- **Obstacles**: {obstacles}",
        f"- **Adjacent structures**: {neighbours}",
        f"- **Weather**: {weather.kind}, seed {weather.seed}, station "
        f"`{weather.station_name}` ({weather.latitude_deg:g} N, "
        f"{weather.longitude_deg:g} E, {weather.altitude_m:g} m)",
        f"- **Sampling**: every {spec.time.step_minutes:g} min of every "
        f"{spec.time.day_stride}th day; grid pitch {spec.grid_pitch:g} m, "
        f"DSM pitch {spec.dsm_pitch:g} m, {spec.solar.n_horizon_sectors} "
        f"horizon sectors",
    ]
    if spec.tags:
        lines.append(f"- **Tags**: {', '.join(spec.tags)}")
    lines.append("")
    return lines


def render_scenarios_markdown() -> str:
    """The full, deterministic content of ``docs/scenarios.md``."""
    from ..sweep.report import catalog_table_markdown

    lines = [
        GENERATED_HEADER,
        "",
        "# Scenario catalog reference",
        "",
        "Every scenario bundled with `repro`.  Run one with `repro run",
        "<name>`, a fleet of them with `repro campaign run`, sweep them with",
        "`repro sweep --base <name> --axis ...`, or dump one as a JSON starting",
        "point for a custom scenario with",
        "`ScenarioSpec.save()` (see `docs/cli.md`).",
        "",
        catalog_table_markdown(),
        "",
    ]
    for spec in builtin_scenarios().values():
        lines.extend(_scenario_section(spec))
    return "\n".join(lines).rstrip() + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.scenario.docgen``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario.docgen", description=__doc__
    )
    parser.add_argument(
        "--output",
        default=str(DEFAULT_OUTPUT),
        help=f"output path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 when the file on disk is stale",
    )
    parser.add_argument(
        "--stdout", action="store_true", help="print the document instead of writing"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    content = render_scenarios_markdown()
    if args.stdout:
        print(content, end="")
        return 0
    target = Path(args.output)
    if args.check:
        on_disk = target.read_text(encoding="utf-8") if target.exists() else None
        if on_disk != content:
            print(
                f"{target} is stale; regenerate with "
                "`python -m repro.scenario.docgen`",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
