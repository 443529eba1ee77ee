"""Doctest suite of the audited public API surface.

The documentation satellite of the sweep-engine PR requires every public
entry point of the headline API -- ``plan_roof``, ``PlacementEvaluator``,
``ScenarioSpec``, ``StageCache``, ``run_batch`` -- to carry an
example-bearing docstring.  This module executes those examples (plus the
sweep-engine ones) with ``doctest``, so the snippets users copy from the
docstrings are guaranteed to run and to print what they claim.

Equivalent to running ``pytest --doctest-modules`` on the listed modules,
expressed as a normal test so the tier-1 invocation picks it up without
extra flags.
"""

from __future__ import annotations

import doctest

import pytest

import repro.core.evaluation
import repro.plan
import repro.runner.batch
import repro.runner.cache
import repro.runner.store
import repro.scenario.spec
import repro.sweep.grid
import repro.sweep.report

#: module -> docstrings expected to carry at least one example.
AUDITED_MODULES = {
    repro.plan: ["plan_roof"],
    repro.core.evaluation: ["PlacementEvaluator"],
    repro.runner.batch: ["run_batch"],
    repro.runner.cache: ["StageCache"],
    repro.runner.store: ["ResultStore"],
    repro.scenario.spec: ["ScenarioSpec", "ScenarioSpec.with_overrides"],
    repro.sweep.grid: ["SweepPlan"],
    repro.sweep.report: ["render_markdown_table"],
}


@pytest.mark.parametrize(
    "module", list(AUDITED_MODULES), ids=lambda m: m.__name__
)
def test_module_doctests_pass(module):
    """Every doctest in the audited module runs and passes."""
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


@pytest.mark.parametrize(
    "module,names",
    [(module, names) for module, names in AUDITED_MODULES.items()],
    ids=lambda value: value.__name__ if hasattr(value, "__name__") else "names",
)
def test_audited_entry_points_have_examples(module, names):
    """The audited entry points carry example-bearing docstrings."""
    finder = doctest.DocTestFinder(exclude_empty=True)
    documented = {
        case.name.removeprefix(module.__name__ + ".")
        for case in finder.find(module)
        if case.examples
    }
    for name in names:
        assert name in documented, (
            f"{module.__name__}.{name} has no doctest example"
        )
