"""Smoke tests of the ``repro`` command-line front-end."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import STAGE_RESULT, main
from repro.gis.synthetic import scattered_vents
from repro.runner import ResultStore, StageCache, run_batch, run_scenario
from repro.runner.result import CACHED_STAGES, ScenarioResult, scenario_content_digest
from repro.runner.stages import NODES
from repro.scenario import builtin_scenarios
from repro.scenario.catalog import _INDUSTRIAL_VENTS
from repro.telemetry import read_trace


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestListScenarios:
    def test_plain(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "residential-south" in out
        assert "built-in scenarios" in out

    def test_json(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) >= 10
        assert {"name", "solver", "n_modules", "description"} <= set(records[0])


class TestRun:
    def test_builtin_scenario(self, capsys, cache_dir, tmp_path):
        output = tmp_path / "result.json"
        code = main(
            ["run", "residential-south", "--cache-dir", cache_dir, "--output", str(output)]
        )
        assert code == 0
        assert "residential-south" in capsys.readouterr().out
        record = json.loads(output.read_text())
        assert record["scenario"] == "residential-south"
        assert record["annual_energy_mwh"] > 0

    def test_scenario_file_with_solver_override(self, capsys, cache_dir, tmp_path):
        path = tmp_path / "custom.json"
        builtin_scenarios()["residential-south"].save(path)
        code = main(["run", str(path), "--solver", "traditional", "--cache-dir", cache_dir])
        assert code == 0
        assert "solver=traditional" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err


def _run(argv, output) -> ScenarioResult:
    """``repro run`` in this process; the result it wrote to ``output``."""
    assert main([*argv, "--output", str(output)]) == 0
    return ScenarioResult.from_dict(json.loads(Path(output).read_text()))


def _fingerprint(result: ScenarioResult) -> str:
    return json.dumps(result.fingerprint(), sort_keys=True)


def _result_entries(cache_dir) -> list:
    return sorted((Path(cache_dir) / STAGE_RESULT).glob("*.pkl"))


class TestRunMemo:
    """A repeated ``repro run`` answers from its ``result/<point digest>`` entry."""

    def test_every_catalog_hit_matches_an_uncached_run(self, cache_dir, tmp_path, capsys):
        for name, spec in builtin_scenarios().items():
            computed = _run(["run", name, "--cache-dir", cache_dir], tmp_path / "a.json")
            capsys.readouterr()
            hit = _run(["run", name, "--cache-dir", cache_dir], tmp_path / "b.json")
            assert computed.stage_times_s and hit.stage_times_s == {}
            assert hit.stage_cached == dict.fromkeys(CACHED_STAGES, True)
            assert f"[cached: {', '.join(CACHED_STAGES)}]" in capsys.readouterr().out
            uncached = run_scenario(spec, use_cache=False)
            assert _fingerprint(hit) == _fingerprint(uncached), name
        assert len(_result_entries(cache_dir)) == len(builtin_scenarios())

    def test_cached_stages_are_nodes_in_execution_order(self):
        assert CACHED_STAGES == tuple(node.name for node in NODES if node.cached)
        assert [node.name for node in NODES if not node.cached] == ["weather", "horizon"]

    def test_entry_holds_the_document_output_writes(self, cache_dir, tmp_path, capsys):
        output = tmp_path / "a.json"
        _run(["run", "residential-south", "--cache-dir", cache_dir], output)
        key = scenario_content_digest(builtin_scenarios()["residential-south"])
        stored, hit = StageCache(root=cache_dir).get(STAGE_RESULT, key)
        assert hit and stored == output.read_text()

    def test_no_cache_neither_reads_nor_writes_the_entry(self, cache_dir, tmp_path, capsys):
        argv = ["run", "residential-south", "--cache-dir", cache_dir]
        bypassed = _run([*argv, "--no-cache"], tmp_path / "a.json")
        assert bypassed.stage_times_s and not Path(cache_dir).exists()
        _run(argv, tmp_path / "b.json")
        (entry,) = _result_entries(cache_dir)
        written = entry.stat().st_mtime_ns
        again = _run([*argv, "--no-cache"], tmp_path / "c.json")
        assert again.stage_times_s and not any(again.stage_cached.values())
        assert _result_entries(cache_dir) == [entry]
        assert entry.stat().st_mtime_ns == written

    def test_solver_override_has_its_own_entry(self, cache_dir, tmp_path, capsys):
        argv = ["run", "residential-south", "--cache-dir", cache_dir]
        _run(argv, tmp_path / "a.json")
        override = [*argv, "--solver", "traditional"]
        missed = _run(override, tmp_path / "b.json")
        hit = _run(override, tmp_path / "c.json")
        assert missed.stage_times_s and hit.stage_times_s == {}
        assert hit.solver == missed.solver == "traditional"
        assert _fingerprint(hit) == _fingerprint(missed)
        assert len(_result_entries(cache_dir)) == 2

    def test_truncated_entry_is_quarantined_and_recomputed(self, cache_dir, tmp_path, capsys):
        argv = ["run", "residential-south", "--cache-dir", cache_dir]
        computed = _run(argv, tmp_path / "a.json")
        (entry,) = _result_entries(cache_dir)
        entry.write_bytes(entry.read_bytes()[:10])
        recomputed = _run(argv, tmp_path / "b.json")
        assert recomputed.stage_times_s
        assert list((Path(cache_dir) / "_quarantine" / STAGE_RESULT).iterdir())
        assert _fingerprint(recomputed) == _fingerprint(computed)
        hit = _run(argv, tmp_path / "c.json")
        assert hit.stage_times_s == {} and _fingerprint(hit) == _fingerprint(computed)

    def test_only_repro_run_writes_the_entry(self, tmp_path):
        spec = builtin_scenarios()["residential-south"]
        cache = StageCache(root=tmp_path / "cache")
        run_scenario(spec, cache=cache)
        assert cache.stats.writes == 4
        run_batch([spec.with_solver("traditional")], cache=cache, jobs=1)
        assert not _result_entries(cache.root)

    def test_catalog_vents_are_the_seeded_field(self):
        def plain(obstacles):
            return [
                (o.name, [(p.x, p.y) for p in o.polygon.vertices], o.height_m, o.clearance_m)
                for o in obstacles
            ]

        seeded = plain(scattered_vents(18.0, 8.0, n_vents=6, seed=9))
        assert plain(_INDUSTRIAL_VENTS) == seeded
        for name in ("industrial-pipes", "industrial-clean"):
            assert plain(builtin_scenarios()[name].roof.obstacles[-6:]) == seeded


class TestBatch:
    """Fleet runs go through ``campaign run``; ``campaign export`` writes JSONL."""

    def test_subset_parallel_with_store(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        results = tmp_path / "results.jsonl"
        code = main(
            [
                "campaign",
                "run",
                "fleet",
                "fleet-a-n6",
                "fleet-b-n8",
                "--jobs",
                "2",
                "--store",
                store,
                "--cache-dir",
                cache_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign 'fleet': 2/2 done" in out
        code = main(["campaign", "export", "fleet", "--store", store, "--results", str(results)])
        assert code == 0
        lines = [json.loads(line) for line in results.read_text().splitlines() if line]
        assert [record["scenario"] for record in lines] == ["fleet-a-n6", "fleet-b-n8"]

    def test_serial_flag(self, capsys, cache_dir, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "campaign",
                "run",
                "serial",
                "residential-south",
                "--jobs",
                "1",
                "--store",
                str(tmp_path / "campaigns.sqlite"),
                "--cache-dir",
                cache_dir,
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        (batch_span,) = [
            e for e in read_trace(trace) if e.get("type") == "span" and e["name"] == "batch"
        ]
        assert batch_span["attrs"]["jobs"] == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "run", "c", "residential-south"],
            ["sweep", "--base", "residential-south", "--axis", "n_modules=3,6"],
            ["report", "--preset", "table1", "--roofs", "roof2", "--modules", "6"],
        ],
        ids=["campaign-run", "sweep", "report"],
    )
    def test_jobs_below_one_is_an_error(self, capsys, cache_dir, tmp_path, command, jobs):
        store = ["--store", str(tmp_path / "s.sqlite")] if command[0] != "report" else []
        code = main(command + store + ["--cache-dir", cache_dir, "--jobs", jobs])
        assert code == 2
        assert f"jobs must be >= 1 (got {jobs})" in capsys.readouterr().err


class TestCampaign:
    def test_run_status_export_rerun_noop(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        exported = tmp_path / "exported.jsonl"
        run_args = [
            "campaign",
            "run",
            "smoke",
            "fleet-a-n6",
            "fleet-b-n8",
            "--store",
            store,
            "--cache-dir",
            cache_dir,
            "--jobs",
            "1",
        ]
        assert main(run_args) == 0
        out = capsys.readouterr().out
        assert "campaign 'smoke': 2/2 done (computed 2, skipped 0" in out

        assert main(["campaign", "status", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out and "fleet-a-n6" in out

        assert main(["campaign", "status", "--store", store]) == 0
        assert "smoke" in capsys.readouterr().out

        code = main(
            ["campaign", "export", "smoke", "--store", store, "--results", str(exported)]
        )
        assert code == 0
        records = [json.loads(line) for line in exported.read_text().splitlines()]
        assert [record["scenario"] for record in records] == ["fleet-a-n6", "fleet-b-n8"]

        # Re-running the identical campaign is a pure no-op resume.
        assert main(run_args) == 0
        assert "computed 0, skipped 2" in capsys.readouterr().out

    def test_resume_from_store_alone(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "resumable",
                    "residential-south",
                    "--store",
                    store,
                    "--cache-dir",
                    cache_dir,
                    "--jobs",
                    "1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # A re-run needs no scenario arguments: the specs live in the store.
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "resumable",
                    "--store",
                    store,
                    "--cache-dir",
                    cache_dir,
                    "--jobs",
                    "1",
                ]
            )
            == 0
        )
        assert "computed 0, skipped 1" in capsys.readouterr().out

    def test_rerun_without_scenarios_keeps_a_non_catalog_campaign(
        self, capsys, cache_dir, tmp_path
    ):
        """A stored campaign re-runs its own points, not the whole catalog."""
        store = str(tmp_path / "campaigns.sqlite")
        spec_path = tmp_path / "custom.json"
        custom = builtin_scenarios()["residential-south"].with_overrides(
            {"solver": "traditional"}, name="custom-roof"
        )
        custom.save(spec_path)
        common = ["--store", store, "--cache-dir", cache_dir, "--jobs", "1"]
        assert main(["campaign", "run", "serve", str(spec_path)] + common) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "serve"] + common) == 0
        out = capsys.readouterr().out
        assert "campaign 'serve': 1/1 done (computed 0, skipped 1" in out
        with ResultStore(store) as result_store:
            assert [record.name for record in result_store.points("serve")] == [
                "custom-roof"
            ]

    def test_new_campaign_without_scenarios_runs_the_catalog(
        self, capsys, cache_dir, tmp_path, monkeypatch
    ):
        catalog = {"residential-south": builtin_scenarios()["residential-south"]}
        monkeypatch.setattr("repro.cli.builtin_scenarios", lambda: catalog)
        store = str(tmp_path / "campaigns.sqlite")
        args = ["campaign", "run", "nightly", "--store", store, "--cache-dir", cache_dir]
        assert main(args + ["--jobs", "1"]) == 0
        assert "campaign 'nightly': 1/1 done (computed 1" in capsys.readouterr().out

    def test_status_json_and_unknown_campaign(self, capsys, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        assert main(["campaign", "status", "nope", "--store", store]) == 2
        assert "no campaign" in capsys.readouterr().err
        assert main(["campaign", "export", "nope", "--store", store, "--results", "x"]) == 2
        capsys.readouterr()

    def test_store_none_rejected_for_campaigns(self, capsys, tmp_path):
        code = main(["campaign", "run", "c", "residential-south", "--store", "none"])
        assert code == 2
        assert "--store cannot be 'none'" in capsys.readouterr().err

    def test_sweep_uses_store_and_resumes(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        args = [
            "sweep",
            "--base",
            "residential-south",
            "--axis",
            "n_modules=3,6",
            "--jobs",
            "1",
            "--cache-dir",
            cache_dir,
            "--store",
            store,
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "computed 2, skipped 0" in captured.err
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "computed 0, skipped 2" in captured.err
        # The in-memory escape hatch still works.
        assert main(args[:-1] + ["none"]) == 0
        assert "campaign" not in capsys.readouterr().err


class TestCompare:
    def test_two_solvers(self, capsys, cache_dir):
        code = main(
            [
                "compare",
                "residential-south",
                "--solvers",
                "greedy,traditional",
                "--cache-dir",
                cache_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "traditional" in out and "vs best" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        """``python -m repro`` resolves to the CLI."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list-scenarios"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0
        assert "residential-south" in completed.stdout
