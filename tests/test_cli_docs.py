"""The command-line reference documents what the code accepts.

``docs/cli.md`` lists, in its sweep-axis table, the ``solver.options`` keys
each solver takes.  The test parses that row and compares it with the
fields of the solvers' configuration dataclasses, so a key added to or
retired from a config fails here until the reference says the same.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.core import ExhaustiveConfig, GreedyConfig, ILPConfig

CLI_DOC = Path(__file__).resolve().parent.parent / "docs" / "cli.md"
ROW_PREFIX = "| `solver.name` / `solver.options.<key>` |"

#: The options each built-in solver accepts: its config's fields, or none.
SOLVER_OPTIONS = {
    "greedy": {field.name for field in dataclasses.fields(GreedyConfig)},
    "ilp": {field.name for field in dataclasses.fields(ILPConfig)},
    "exhaustive": {field.name for field in dataclasses.fields(ExhaustiveConfig)},
    "traditional": set(),
}


def documented_solver_options() -> dict:
    """``{solver: {key, ...}}`` as the ``solver.options`` row spells it."""
    (row,) = [
        line for line in CLI_DOC.read_text().splitlines() if line.startswith(ROW_PREFIX)
    ]
    cell = row[len(ROW_PREFIX) :].rsplit("|", 1)[0]
    listing = cell.split("knobs:", 1)[1].split(".  ", 1)[0]
    documented = {}
    for clause in listing.split(";"):
        match = re.fullmatch(r"\s*`(\w+)` takes (.+?)\s*", clause)
        assert match, f"unparsed clause {clause!r} in docs/cli.md"
        solver, keys = match.groups()
        documented[solver] = set() if keys == "none" else set(re.findall(r"`(\w+)`", keys))
    return documented


def test_solver_options_row_matches_the_configs():
    """Each solver's documented keys are its config's fields; traditional has none."""
    assert documented_solver_options() == SOLVER_OPTIONS
