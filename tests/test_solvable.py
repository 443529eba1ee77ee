"""Documents whose solve can only fail are rejected before any work.

:func:`repro.runner.solvers.check_solvable` resolves the solver and its
fallbacks, builds the solver's config from its options and the string
topology.  Each of the three documents below parses, yet a worker could
only fail it.  ``POST /v1/plan`` answers 400 without a row or an
admission slot, ``repro campaign enroll`` exits 2 with nothing enrolled,
and ``run_scenario`` raises before any stage writes a cache entry.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.gis import RoofSpec
from repro.runner import ResultStore, StageCache, run_scenario
from repro.scenario import ScenarioSpec, TimeSpec
from repro.serve import ServeApp, open_serve_store


def _document(**changes) -> dict:
    spec = ScenarioSpec(
        name="unsolvable",
        roof=RoofSpec(
            name="unsolvable-roof", width_m=6.0, depth_m=4.0, tilt_deg=30.0, azimuth_deg=0.0
        ),
        n_modules=2,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
    )
    return {**spec.to_dict(), **changes}


UNSOLVABLE = {
    "unknown-solver": _document(solver={"name": "nosuch"}),
    "retired-option": _document(solver={"name": "greedy", "options": {"tie_tolerance": 0.05}}),
    "string-topology": _document(n_modules=5, n_series=3),
}


@pytest.fixture(params=sorted(UNSOLVABLE))
def document(request) -> dict:
    return UNSOLVABLE[request.param]


def test_serve_answers_400_without_a_row_or_a_slot(tmp_path, document):
    store = open_serve_store(tmp_path / "store.sqlite")
    try:
        app = ServeApp(store, max_queue=4)
        body = json.dumps({"scenario": document}).encode("utf-8")
        status, payload, _ = app.dispatch("POST", "/v1/plan", body)
        assert status == 400, payload
        assert "error" in payload
        assert store.queue_depth(app.campaign) == 0
        assert store.points(app.campaign) == []
        stats = app.admission.stats()
        assert (stats["misses"], stats["rejected"], stats["bad_requests"]) == (0, 0, 1)
    finally:
        store.close()


def test_enroll_exits_2_with_nothing_enrolled(tmp_path, capsys, document):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(document))
    store_path = tmp_path / "store.sqlite"
    assert main(["campaign", "enroll", "bad", str(path), "--store", str(store_path)]) == 2
    assert "error" in capsys.readouterr().err
    if store_path.exists():
        with ResultStore(store_path) as store:
            assert store.points("bad") == []


def test_run_scenario_raises_before_any_stage(tmp_path, document):
    spec = ScenarioSpec.from_dict(document)
    cache = StageCache(root=tmp_path / "cache")
    with pytest.raises(ConfigurationError):
        run_scenario(spec, cache=cache)
    assert not any(path.is_file() for path in cache.root.rglob("*"))
