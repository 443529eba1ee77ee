"""Start-up import discipline: a ``repro`` process loads what its command runs.

Each probe runs in a fresh interpreter, because in this test process the
other tests have long since imported every subsystem.  Nothing here times
anything; the tests assert which modules are (not) loaded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.stages import ScenarioResult, run_scenario
from repro.scenario import builtin_scenarios

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a warm ``repro run`` of a greedy scenario has no use for.
NOT_FOR_RUN = (
    "scipy",
    "http.server",
    "repro.serve",
    "repro.sweep",
    "repro.runner.batch",
    "repro.runner.store",
)


def fresh(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            "PYTHONPATH": SRC,
            "PATH": "/usr/bin:/bin",
            "REPRO_STORE_PATH": str(tmp_path / "store.sqlite"),
        },
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def loaded(names) -> str:
    """Probe snippet printing which of ``names`` are in ``sys.modules``."""
    return f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.app", "repro.runner.worker"])
def test_importing_an_entry_point_does_not_load_scipy(module, tmp_path):
    assert fresh(f"import json, sys\nimport {module}\n{loaded(['scipy'])}", tmp_path) == []


def test_run_loads_no_solver_library_service_sweep_or_store(tmp_path):
    cache = str(tmp_path / "cache")
    code = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(2):  # cold, then warm\n"
        f"        assert main(['run', 'residential-south', '--cache-dir', {cache!r}]) == 0\n"
        f"{loaded(NOT_FOR_RUN)}"
    )
    assert fresh(code, tmp_path) == []


def test_runner_stages_does_not_load_the_execution_subsystems(tmp_path):
    heavy = [
        "repro.runner.batch",
        "repro.runner.store",
        "repro.runner.worker",
        "sqlite3",
        "concurrent.futures.process",
        "multiprocessing",
    ]
    code = f"import json, sys\nimport repro.runner.stages\n{loaded(heavy)}"
    assert fresh(code, tmp_path) == []


def test_ilp_scenario_imports_scipy_on_demand_and_matches_in_process(tmp_path):
    output = tmp_path / "ilp.json"
    code = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "before = 'scipy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['run', 'ilp-exact-mini', '--cache-dir', {str(tmp_path / 'cache')!r},\n"
        f"                 '--output', {str(output)!r}])\n"
        "print(json.dumps({'code': code, 'before': before, 'after': 'scipy' in sys.modules}))"
    )
    assert fresh(code, tmp_path) == {"code": 0, "before": False, "after": True}
    spawned = ScenarioResult.from_dict(json.loads(output.read_text()))
    in_process = run_scenario(builtin_scenarios()["ilp-exact-mini"], use_cache=False)
    assert spawned.solver == "ilp"
    assert spawned.fingerprint() == in_process.fingerprint()


def test_the_document_layer_loads_no_numpy(tmp_path):
    document = tmp_path / "scenario.json"
    builtin_scenarios()["industrial-clean"].save(document)
    code = (
        "import json, sys\n"
        "import repro.cli\n"
        "from repro.runner import scenario_content_digest\n"
        "from repro.scenario import ScenarioSpec, builtin_scenarios\n"
        "catalog = builtin_scenarios()\n"
        f"spec = ScenarioSpec.load({str(document)!r})\n"
        "digests = [scenario_content_digest(s) for s in (*catalog.values(), spec)]\n"
        f"{loaded(['numpy'])}"
    )
    assert fresh(code, tmp_path) == []


def test_a_known_document_runs_without_numpy(tmp_path):
    """The second ``repro run`` of a document answers from the stage cache."""
    document = tmp_path / "scenario.json"
    builtin_scenarios()["residential-south"].save(document)
    cache = str(tmp_path / "cache")
    outputs = [tmp_path / "first.json", tmp_path / "second.json"]
    probe = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['run', {str(document)!r}, '--cache-dir', {cache!r},\n"
        "                 '--output', OUTPUT]) == 0\n"
        f"{loaded(['numpy'])}"
    )
    computed, known = (probe.replace("OUTPUT", repr(str(output))) for output in outputs)
    assert fresh(computed, tmp_path) == ["numpy"]
    assert fresh(known, tmp_path) == []
    first, second = (
        ScenarioResult.from_dict(json.loads(output.read_text())) for output in outputs
    )
    assert second.stage_times_s == {}
    assert json.dumps(second.fingerprint(), sort_keys=True) == json.dumps(
        first.fingerprint(), sort_keys=True
    )


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.pv", "repro.geometry", "repro.gis", "repro.runner", "repro.scenario"],
)
def test_importing_a_package_loads_no_numpy(package, tmp_path):
    assert fresh(f"import json, sys\nimport {package}\n{loaded(['numpy'])}", tmp_path) == []


@pytest.mark.parametrize(
    "package", ["repro", "repro.runner", "repro.core", "repro.pv", "repro.geometry", "repro.gis"]
)
def test_every_public_name_resolves_from_a_fresh_import(package, tmp_path):
    code = (
        "import importlib, json\n"
        f"module = importlib.import_module({package!r})\n"
        "missing = []\n"
        "for name in module.__all__:\n"
        "    try:\n"
        "        getattr(module, name)\n"
        "    except AttributeError:\n"
        "        missing.append(name)\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "unbound = [name for name in module.__all__ if name not in namespace]\n"
        "print(json.dumps({'n': len(module.__all__), 'missing': missing, 'unbound': unbound}))"
    )
    report = fresh(code, tmp_path)
    assert report["n"] > 0
    assert report["missing"] == [] and report["unbound"] == []


def test_lazy_runner_names_are_the_defining_objects():
    import repro.runner as runner
    from repro.runner import batch, store, worker

    assert runner.run_batch is batch.run_batch
    assert runner.ResultStore is store.ResultStore
    assert runner.run_worker is worker.run_worker
    assert runner.DEFAULT_POLL_S == worker.DEFAULT_POLL_S
    with pytest.raises(AttributeError, match="no_such_name"):
        runner.no_such_name


def test_lazy_package_names_are_the_defining_objects():
    import repro
    import repro.geometry as geometry
    import repro.gis as gis
    import repro.pv as pv
    from repro import plan
    from repro.geometry import polygon
    from repro.gis import roof, synthetic
    from repro.pv import datasheet, module
    from repro.runner import result, stages
    from repro.solar import time_series

    assert repro.plan_roof is plan.plan_roof
    assert repro.RoofPlanResult is plan.RoofPlanResult
    assert repro.TimeGrid is time_series.TimeGrid
    assert pv.ModuleDatasheet is datasheet.ModuleDatasheet
    assert pv.EmpiricalModuleModel is module.EmpiricalModuleModel
    assert geometry.Polygon is polygon.Polygon
    assert gis.RoofSpec is roof.RoofSpec is synthetic.RoofSpec
    assert gis.chimney is roof.chimney is synthetic.chimney
    assert gis.scattered_vents is synthetic.scattered_vents
    assert stages.ScenarioResult is result.ScenarioResult
    assert stages.scenario_content_digest is result.scenario_content_digest
    assert {"plan_roof", "RoofSpec", "Polygon"} <= set(dir(repro)) | set(dir(gis)) | set(
        dir(geometry)
    )
    for package in (repro, pv, geometry, gis):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
