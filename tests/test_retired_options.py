"""Retired model and solver values are rejected, never silently ignored.

The pipeline runs one irradiance model chain (Erbs decomposition, then
Hay-Davies transposition) and one rule per placer.  A scenario document
still carries ``solar.sky_model``, ``solar.decomposition_model`` and
``solar.linke_turbidity`` at their one value, so documents and their
content digests keep their form; any other value, and any ``solver.options``
key that used to select a deleted code path, fails with
:class:`~repro.errors.ConfigurationError` naming it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.runner import StageCache, run_scenario, scenario_content_digest
from repro.scenario import ScenarioSpec, SolverSpec, builtin_scenarios
from repro.serve import ServeApp, open_serve_store
from repro.solar.linke import LinkeTurbidityProfile

TURIN = list(LinkeTurbidityProfile.turin_default().monthly_values)

RETIRED_SOLAR = [
    ("sky_model", "isotropic"),
    ("decomposition_model", "engerer"),
    ("linke_turbidity", [3.0] * 12),
]

RETIRED_SOLVER_OPTIONS = [
    ("greedy", "tie_tolerance", 0.05),
    ("greedy", "footprint_aggregate", "anchor"),
    ("ilp", "footprint_aggregate", "min"),
    ("ilp", "max_anchors", 1),
    ("ilp", "mip_gap", 0.01),
    ("traditional", "modules_per_row", 2),
    ("traditional", "gap_cells", 1),
    ("exhaustive", "include_wiring_loss", False),
]


@pytest.fixture(scope="module")
def base():
    return builtin_scenarios()["residential-south"]


def _with_solar(spec: ScenarioSpec, **solar) -> dict:
    document = spec.to_dict()
    document["solar"] = {**document["solar"], **solar}
    return document


class TestRetiredSolarKeys:
    @pytest.mark.parametrize("key,value", RETIRED_SOLAR)
    def test_document_value_is_rejected_naming_the_key(self, base, key, value):
        with pytest.raises(ConfigurationError, match=f"solar.{key}"):
            ScenarioSpec.from_dict(_with_solar(base, **{key: value}))

    @pytest.mark.parametrize("key,value", RETIRED_SOLAR)
    def test_override_is_rejected_naming_the_key(self, base, key, value):
        with pytest.raises(ConfigurationError, match=f"solar.{key}"):
            base.with_overrides({f"solar.{key}": value})

    @pytest.mark.parametrize("key,value", RETIRED_SOLAR)
    def test_plan_request_is_400_naming_the_key(self, base, tmp_path, key, value):
        store = open_serve_store(tmp_path / "store.sqlite")
        try:
            app = ServeApp(store, max_queue=4)
            body = json.dumps({"scenario": _with_solar(base, **{key: value})}).encode()
            status, payload, _ = app.dispatch("POST", "/v1/plan", body)
        finally:
            store.close()
        assert status == 400
        assert f"solar.{key}" in payload["error"]

    @pytest.mark.parametrize(
        "solar",
        [
            {"sky_model": "haydavies", "decomposition_model": "erbs", "linke_turbidity": None},
            {"linke_turbidity": TURIN},
            {"linke_turbidity": [int(v) if v == int(v) else v for v in TURIN]},
        ],
        ids=["one-value", "turin-spelled-out", "turin-spelled-with-ints"],
    )
    def test_accepted_forms_keep_the_catalog_digest(self, base, solar):
        spec = ScenarioSpec.from_dict(_with_solar(base, **solar))
        assert scenario_content_digest(spec) == scenario_content_digest(base)
        assert spec.to_dict() == base.to_dict()

    @pytest.mark.parametrize("key", [key for key, _ in RETIRED_SOLAR])
    def test_absent_key_keeps_the_catalog_digest(self, base, key):
        document = base.to_dict()
        del document["solar"][key]
        spec = ScenarioSpec.from_dict(document)
        assert scenario_content_digest(spec) == scenario_content_digest(base)


class TestRetiredSolverOptions:
    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return StageCache(root=tmp_path_factory.mktemp("cache"))

    @pytest.mark.parametrize("solver,key,value", RETIRED_SOLVER_OPTIONS)
    def test_run_rejects_the_option_naming_the_solver(self, base, cache, solver, key, value):
        spec = replace(base, solver=SolverSpec(name=solver, options={key: value}))
        with pytest.raises(ConfigurationError, match=f"solver '{solver}'.*{key}"):
            run_scenario(spec, cache=cache)
