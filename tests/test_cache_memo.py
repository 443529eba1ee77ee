"""The stage cache's in-process memo of verified reads.

:meth:`StageCache.get` keeps every value it fully verified from disk and
serves it again, without reading the pickle, while the entry's files are
unchanged.  These tests pin down when it may serve (an unchanged entry, in
``fast`` mode), when it must fall back to the verified disk read (a
replaced, truncated or cleared entry, ``full`` mode), its bounds, the
read-only values it hands out, and that a store-backed pooled sweep run
twice in one process still matches cold, cache-less references.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.gis import RoofSpec
from repro.runner import StageCache, run_scenario
from repro.runner import cache as cache_module
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec
from repro.sweep import SweepAxis, SweepPlan, run_sweep


@dataclass
class Field:
    """A value with one array stored as a ``.npy`` sidecar."""

    label: str
    block: np.ndarray
    index: np.ndarray

    __cache_array_fields__ = ("block",)


def make_field(label: str = "f", fill: float = 1.0) -> Field:
    return Field(label, np.full((4, 3), fill, dtype=np.float32), np.arange(3))


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts with an empty process-wide memo of its own."""
    monkeypatch.setattr(cache_module, "_MEMO", cache_module._VerifiedMemo())


@pytest.fixture
def pickle_reads(monkeypatch):
    """Count the reads of entry pickles (``.pkl`` files) through ``Path.read_bytes``."""
    reads = []
    original = Path.read_bytes

    def counting(path):
        if path.suffix == ".pkl":
            reads.append(path)
        return original(path)

    monkeypatch.setattr(Path, "read_bytes", counting)
    return reads


def memo_entries():
    return cache_module._MEMO._entries


def test_second_get_is_served_without_reading_the_pickle(tmp_path, pickle_reads):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, make_field())
    assert not memo_entries()  # put does not fill the memo
    first, hit = cache.get("stage", {"k": 1})
    assert hit and len(pickle_reads) == 1
    second, hit = cache.get("stage", {"k": 1})
    assert hit and len(pickle_reads) == 1
    assert second is first
    assert cache.stats.as_dict() == {"hits": 2, "misses": 0, "writes": 1, "quarantined": 0}
    # A second handle on the same directory shares the memo.
    other = StageCache(root=tmp_path)
    assert other.get("stage", {"k": 1}) == (first, True)
    assert len(pickle_reads) == 1


def test_replaced_entry_reads_the_new_value(tmp_path, pickle_reads):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, make_field("old", 1.0))
    old, _ = cache.get("stage", {"k": 1})
    cache.put("stage", {"k": 1}, make_field("new", 2.0))
    new, hit = cache.get("stage", {"k": 1})
    assert hit and len(pickle_reads) == 2
    assert new.label == "new" and float(new.block[0, 0]) == 2.0
    assert old.label == "old"


def test_truncated_pickle_is_quarantined_after_a_memo_fill(tmp_path):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, make_field())
    assert cache.get("stage", {"k": 1})[1]
    path = cache.path_for("stage", {"k": 1})
    with open(path, "r+b") as handle:
        handle.truncate(path.stat().st_size // 2)
    assert cache.get("stage", {"k": 1}) == (None, False)
    assert cache.stats.quarantined == 1 and not path.exists()
    assert not memo_entries()


def test_truncated_sidecar_is_quarantined_after_a_memo_fill(tmp_path):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, make_field())
    value, hit = cache.get("stage", {"k": 1})
    assert hit
    del value  # its memory map would fault on the truncated file
    path = cache.path_for("stage", {"k": 1})
    sidecar = path.with_name(f"{path.stem}.block.npy")
    with open(sidecar, "r+b") as handle:
        handle.truncate(sidecar.stat().st_size - 4)
    assert cache.get("stage", {"k": 1}) == (None, False)
    assert cache.stats.quarantined == 1 and not sidecar.exists()


def test_clear_then_get_is_a_miss(tmp_path):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, "value")
    assert cache.get("stage", {"k": 1}) == ("value", True)
    assert memo_entries()
    assert cache.clear() == 1
    assert not memo_entries()
    assert cache.get("stage", {"k": 1}) == (None, False)


def test_full_verify_rehashes_on_every_get(tmp_path, pickle_reads, monkeypatch):
    hashed = []
    original = cache_module._file_sha256

    def counting(path):
        hashed.append(path)
        return original(path)

    monkeypatch.setattr(cache_module, "_file_sha256", counting)
    cache = StageCache(root=tmp_path, verify="full")
    cache.put("stage", {"k": 1}, make_field())
    for expected in (1, 2, 3):
        assert cache.get("stage", {"k": 1})[1]
        assert len(pickle_reads) == len(hashed) == expected
    # A fast handle may reuse what the full reads verified.
    assert StageCache(root=tmp_path, verify="fast").get("stage", {"k": 1})[1]
    assert len(pickle_reads) == 3


def test_memo_never_exceeds_either_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "MEMO_MAX_ENTRIES", 3)
    cache = StageCache(root=tmp_path)
    for key in range(6):
        cache.put("stage", {"k": key}, "x" * 100)
        cache.get("stage", {"k": key})
        assert len(memo_entries()) <= 3
    # The most recently used entries are the ones kept.
    assert list(memo_entries()) == [cache.path_for("stage", {"k": k}) for k in (3, 4, 5)]

    monkeypatch.setattr(cache_module, "MEMO_MAX_ENTRIES", 64)
    entry_bytes = memo_entries()[cache.path_for("stage", {"k": 5})].nbytes
    monkeypatch.setattr(cache_module, "MEMO_MAX_BYTES", 2 * entry_bytes + 1)
    for key in range(6, 12):
        cache.put("stage", {"k": key}, "x" * 100)
        cache.get("stage", {"k": key})
        entries = memo_entries()
        assert len(entries) <= 2
        assert sum(e.nbytes for e in entries.values()) == cache_module._MEMO._bytes
        assert cache_module._MEMO._bytes <= cache_module.MEMO_MAX_BYTES
    # An entry larger than the whole budget is served from disk, never kept.
    cache.put("stage", {"k": "big"}, "x" * (4 * entry_bytes))
    assert cache.get("stage", {"k": "big"}) == ("x" * (4 * entry_bytes), True)
    assert cache.path_for("stage", {"k": "big"}) not in memo_entries()


def test_threads_sharing_the_memo_keep_its_accounting(tmp_path, monkeypatch):
    """Concurrent lookups, fills and evictions lose no update of the LRU."""
    monkeypatch.setattr(cache_module, "MEMO_MAX_ENTRIES", 5)
    cache = StageCache(root=tmp_path)
    keys = range(8)
    for key in keys:
        cache.put("stage", {"k": key}, make_field(str(key), float(key)))
    errors = []

    def hammer(offset):
        handle = StageCache(root=tmp_path)
        try:
            for step in range(400):
                key = (offset + step) % len(keys)
                value, hit = handle.get("stage", {"k": key})
                assert hit and value.label == str(key)
        except BaseException as exc:  # reported below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    memo = cache_module._MEMO
    assert len(memo._entries) <= 5
    assert memo._bytes == sum(entry.nbytes for entry in memo._entries.values())
    assert cache.stats.quarantined == 0


def test_memoised_arrays_reject_in_place_writes(tmp_path):
    cache = StageCache(root=tmp_path)
    cache.put("stage", {"k": 1}, make_field())
    value, _ = cache.get("stage", {"k": 1})
    for array in (value.block, value.index):
        with pytest.raises(ValueError):
            array[0] = 7
    again, _ = cache.get("stage", {"k": 1})
    assert again is value
    np.testing.assert_array_equal(again.index, np.arange(3))


def tiny_spec(name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        roof=RoofSpec(
            name="memo-roof", width_m=6.0, depth_m=4.0, tilt_deg=30.0, azimuth_deg=0.0
        ),
        n_modules=2,
        n_series=2,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name="greedy"),
    )


def test_pooled_sweep_twice_matches_cold_references(tmp_path):
    plan = SweepPlan(
        name="memo-sweep",
        base=tiny_spec("memo"),
        axes=(
            SweepAxis("n_modules", (2, 4)),
            SweepAxis("solver.name", ("greedy", "traditional")),
        ),
    )
    references = {
        spec.name: run_scenario(spec, use_cache=False).fingerprint() for spec in plan.specs()
    }
    run_scenario(plan.base, cache=StageCache(root=tmp_path / "cache"))
    for campaign in ("first", "second"):
        sweep = run_sweep(
            plan,
            cache=StageCache(root=tmp_path / "cache"),
            jobs=2,
            store=str(tmp_path / "store.sqlite"),
            campaign=campaign,
        )
        results = sweep.results()
        assert len(results) == plan.n_points == 4
        for result in results:
            assert all(result.stage_cached.values())
            assert result.fingerprint() == references[result.scenario]
