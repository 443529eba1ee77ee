"""Stage keys follow what each node reads.

Each node of :data:`repro.runner.stages.NODES` declares the document paths
its compute function reads, and :func:`~repro.runner.stages.node_keys`
digests those values with the node's inputs' keys.  The property below
changes one leaf of a drawn scenario document at a time, recomputes every
node uncached, and checks both directions of that contract:

* a node whose value changed has a new key (no stale hit is possible);
* a leaf outside the reads of a node and of every node upstream of it
  leaves that node's key unchanged (no needless recomputation);
* every declared read is needed: some leaf under it changes the node's
  value.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

from hypothesis import HealthCheck, given, settings

from repro.errors import ReproError
from repro.runner import StageCache, run_scenario
from repro.runner.stages import NODES, STAGE_SUITABILITY, node_keys, run_pipeline
from repro.scenario import ScenarioSpec, builtin_scenarios

from test_execution_mode import coarse_specs

BY_NAME = {node.name: node for node in NODES}


def _upstream_reads(name: str) -> set:
    """The reads of node ``name`` and of every node upstream of it."""
    node = BY_NAME[name]
    reads = set(node.reads)
    for upstream in node.inputs:
        reads |= _upstream_reads(upstream)
    return reads


def _under(path: str, read: str) -> bool:
    return path == read or path.startswith(read + ".")


def _document(spec: ScenarioSpec) -> dict:
    """The scenario document with ``module`` resolved to its datasheet."""
    document = spec.to_dict()
    document["module"] = dataclasses.asdict(spec.datasheet())
    return document


def _leaves(value, path=()):
    """``(path, value)`` of every scalar leaf and empty container."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(value, list) and value:
        for index, child in enumerate(value):
            yield from _leaves(child, path + (index,))
    else:
        yield path, value


def _changes(value):
    """Different values of the same kind for one leaf (none: leave it alone).

    A float is both grown and shrunk: some reads only matter one way (a
    longer horizon radius than the scene is wide changes nothing).
    """
    if isinstance(value, bool):
        return (not value,)
    if isinstance(value, int):
        return (value + 1,)
    if isinstance(value, float):
        return (value * 1.25, value * 0.25) if value else (0.5,)
    if isinstance(value, str):
        return ({"synthetic": "clearsky", "clearsky": "synthetic"}.get(value, value + "-x"),)
    if value == []:
        return (["x"],)
    if value == {}:
        return ({"x": 1},)
    return ()


def _values(spec: ScenarioSpec) -> dict:
    """Pickled value of every node, computed uncached."""
    values = run_pipeline(spec, STAGE_SUITABILITY, None, {}, {})
    return {name: pickle.dumps(value, pickle.HIGHEST_PROTOCOL) for name, value in values.items()}


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=coarse_specs(0))
def test_keys_change_exactly_with_what_the_nodes_read(spec):
    document = _document(spec)
    base_keys = node_keys(spec)
    base_values = _values(spec)
    needed = {(node.name, read) for node in NODES for read in node.reads}
    for path, value in _leaves(document):
        if path == ("format_version",):
            continue
        dotted = ".".join(str(part) for part in path)
        for new in _changes(value):
            changed = copy.deepcopy(document)
            target = changed
            for part in path[:-1]:
                target = target[part]
            target[path[-1]] = new
            try:
                variant = ScenarioSpec.from_dict(changed)
                values = _values(variant)
            except ReproError:
                continue  # a document the pipeline rejects has no key to check
            keys = node_keys(variant)
            for node in NODES:
                if values[node.name] != base_values[node.name]:
                    assert keys[node.name] != base_keys[node.name], (node.name, dotted)
                    needed -= {(node.name, read) for read in node.reads if _under(dotted, read)}
                if not any(_under(dotted, read) for read in _upstream_reads(node.name)):
                    assert keys[node.name] == base_keys[node.name], (node.name, dotted)
    assert needed == set(), "declared reads that changed no value"


def test_retired_solar_keys_are_in_no_key():
    retired = ("solar.sky_model", "solar.decomposition_model", "solar.linke_turbidity")
    for node in NODES:
        for read in node.reads:
            assert not any(_under(path, read) for path in retired), (node.name, read)


def test_a_module_p_max_ref_change_hits_suitability(tmp_path):
    spec = builtin_scenarios()["residential-south"]
    cache = StageCache(root=tmp_path / "cache")
    run_scenario(spec, cache=cache)
    other = spec.with_overrides({"module.p_max_ref": spec.datasheet().p_max_ref + 5.0})
    assert node_keys(other) == node_keys(spec)
    result = run_scenario(other, cache=cache)
    assert all(result.stage_cached.values()), result.stage_cached
