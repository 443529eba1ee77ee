"""Tests of the telemetry layer: spans, shard merging, metrics, CLI surface.

The contract under test is the observability one: tracing disabled is a
true no-op (no files, null spans), tracing enabled yields one coherent
span tree per scenario even across worker processes, rollups land in the
campaign store's metrics table, and the CLI can render and convert the
resulting traces.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import telemetry
from repro.cli import main
from repro.gis import RoofSpec
from repro.runner import PIPELINE_STAGES, ResultStore, run_batch, run_scenario
from repro.runner.store import (
    METRIC_KIND_COUNTER,
    METRIC_KIND_STAGE_RECOMPUTE_TIME,
    METRIC_KIND_STAGE_TIME,
    CampaignSummary,
)
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec
from repro.telemetry import (
    MetricStats,
    NULL_SPAN,
    Tracer,
    chrome_trace,
    merge_trace,
    quantile,
    read_trace,
    render_summary,
    shard_path_for,
    span,
    trace_event,
)


def tiny_spec(name: str, solver: str = "greedy", n_modules: int = 2) -> ScenarioSpec:
    """A seconds-scale scenario with a roof unique to ``name``."""
    return ScenarioSpec(
        name=name,
        roof=RoofSpec(
            name=f"{name}-roof",
            width_m=6.0,
            depth_m=4.0,
            tilt_deg=30.0,
            azimuth_deg=0.0,
        ),
        n_modules=n_modules,
        n_series=n_modules,
        grid_pitch=0.4,
        time=TimeSpec(step_minutes=240.0, day_stride=45),
        solver=SolverSpec(name=solver),
    )


@pytest.fixture()
def trace_path(tmp_path):
    """Enable tracing to a per-test path (the autouse fixture disables it after).

    ``set_env`` stays on (the default) because the environment variable is
    the propagation channel to worker processes.
    """
    path = tmp_path / "trace.jsonl"
    telemetry.configure(path)
    return path


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_is_null_span_and_touches_no_file(self, tmp_path):
        assert not telemetry.tracing_enabled()
        sp = span("anything", key="value")
        assert sp is NULL_SPAN
        assert sp.active is False
        with sp as inner:
            inner.set(more=1)
        trace_event("ignored", x=2)
        assert list(tmp_path.iterdir()) == []

    def test_spans_nest_and_record_parent_ids(self, trace_path):
        with span("outer", depth=0):
            with span("inner"):
                trace_event("tick", n=1)
        telemetry.merge_active_trace()
        events = read_trace(trace_path)
        by_name = {event["name"]: event for event in events}
        outer, inner, tick = by_name["outer"], by_name["inner"], by_name["tick"]
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert tick["parent"] == inner["id"]
        assert tick["type"] == "event" and tick["attrs"] == {"n": 1}
        pid = os.getpid()
        assert all(event["pid"] == pid for event in events)
        assert all(event["id"].startswith(f"{pid}-") for event in events)
        assert outer["dur"] >= inner["dur"] >= 0.0

    def test_exception_closes_span_with_error_attr_and_propagates(self, trace_path):
        with pytest.raises(ValueError, match="boom"):
            with span("failing", stage="solar"):
                raise ValueError("boom")
        # The span stack emptied, so the tracer flushed on exit.
        merge_trace(trace_path)
        (failing,) = read_trace(trace_path)
        assert failing["name"] == "failing"
        assert failing["attrs"]["error"] == "ValueError"
        assert failing["attrs"]["stage"] == "solar"
        # The context restored: new spans are roots again.
        with span("after"):
            pass
        merge_trace(trace_path)
        after = [e for e in read_trace(trace_path) if e["name"] == "after"]
        assert after[0]["parent"] is None

    def test_timestamps_are_monotonic_within_a_process(self, trace_path):
        for index in range(3):
            with span("step", index=index):
                pass
        merge_trace(trace_path)
        stamps = [event["ts"] for event in read_trace(trace_path)]
        assert stamps == sorted(stamps)

    def test_merge_is_idempotent_and_tolerates_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        shard = shard_path_for(path, 111)
        good = {"type": "span", "name": "a", "id": "111-1", "parent": None,
                "pid": 111, "ts": 1.0, "dur": 0.5}
        shard.write_text(json.dumps(good) + "\n{truncated", encoding="utf-8")
        assert merge_trace(path) == path
        assert not shard.exists()
        first = read_trace(path)
        assert merge_trace(path) == path
        assert read_trace(path) == first == [good]

    def test_merge_with_nothing_to_do_returns_none(self, tmp_path):
        assert merge_trace(tmp_path / "missing.jsonl") is None

    def test_configure_from_env_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv(telemetry.TRACE_ENV, str(path))
        tracer = telemetry.configure_from_env()
        assert tracer is not None and tracer.path == path
        # Idempotent: same env keeps the same tracer.
        assert telemetry.configure_from_env() is tracer
        monkeypatch.delenv(telemetry.TRACE_ENV)
        assert telemetry.configure_from_env() is None
        assert not telemetry.tracing_enabled()

    def test_shard_paths_are_per_pid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert shard_path_for(path, 42).name == "trace.jsonl.shard-42.jsonl"
        tracer = Tracer(path)
        assert tracer.shard_path == shard_path_for(path, os.getpid())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_quantile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert quantile(samples, 0.0) == 1.0
        assert quantile(samples, 1.0) == 4.0
        assert quantile(samples, 0.5) == pytest.approx(2.5)

    def test_stats_from_samples(self):
        stats = MetricStats.from_samples("solar", [0.1, 0.2, 0.3, 0.4])
        assert stats.count == 4
        assert stats.total == pytest.approx(1.0)
        assert stats.minimum == pytest.approx(0.1)
        assert stats.maximum == pytest.approx(0.4)
        assert stats.p50 == pytest.approx(0.25)
        assert stats.mean == pytest.approx(0.25)
        payload = stats.as_dict()
        assert payload["name"] == "solar" and payload["p99"] >= payload["p50"]


# ---------------------------------------------------------------------------
# Pipeline instrumentation
# ---------------------------------------------------------------------------


def _stage_spans(spans, root) -> list:
    """Sorted names of the stage spans anywhere under ``root``."""
    below, frontier = [], {root["id"]}
    while frontier:
        children = [s for s in spans if s["parent"] in frontier]
        below += children
        frontier = {s["id"] for s in children}
    return sorted(s["name"] for s in below if s["name"] in PIPELINE_STAGES)


class TestPipelineTracing:
    def test_run_scenario_emits_all_six_stage_spans(self, trace_path, tmp_path):
        result = run_scenario(tiny_spec("traced"), cache=tmp_path / "cache")
        merge_trace(trace_path)
        events = read_trace(trace_path)
        spans = [e for e in events if e.get("type") == "span"]
        (scenario,) = [s for s in spans if s["name"] == "scenario"]
        children = {s["name"]: s for s in spans if s["parent"] == scenario["id"]}
        # Six stages hang off the scenario; the missed solar field built its
        # two uncached inputs, so weather and horizon are its children.
        assert set(children) == set(PIPELINE_STAGES) - {"weather", "horizon"}
        under_solar = {s["name"] for s in spans if s["parent"] == children["solar"]["id"]}
        assert under_solar >= {"weather", "horizon"}
        assert _stage_spans(spans, scenario) == sorted(PIPELINE_STAGES)
        assert scenario["attrs"]["scenario"] == "traced"
        # Cache activity is recorded under the cacheable stages.
        assert any(s["name"] == "cache.put" for s in spans)
        # Stage wall times are measured regardless of tracing.
        assert set(result.stage_times_s) == set(PIPELINE_STAGES)
        assert all(v >= 0.0 for v in result.stage_times_s.values())

    def test_stage_times_survive_result_round_trip(self, tmp_path):
        result = run_scenario(tiny_spec("round-trip"), cache=tmp_path / "cache")
        clone = type(result).from_dict(result.to_dict())
        assert clone.stage_times_s == result.stage_times_s

    def test_parallel_batch_merges_one_tree_per_point(self, trace_path, tmp_path):
        specs = [tiny_spec(f"par-{i}") for i in range(3)]
        batch = run_batch(specs, cache=tmp_path / "cache", jobs=2)
        assert batch.n_scenarios == 3
        merge_trace(trace_path)  # fold the parent's own late shard
        events = read_trace(trace_path)
        spans = [e for e in events if e.get("type") == "span"]
        assert telemetry.shard_paths(trace_path) == []
        (batch_span,) = [s for s in spans if s["name"] == "batch"]
        scenarios = [s for s in spans if s["name"] == "scenario"]
        assert len(scenarios) == 3
        parent_pid = os.getpid()
        worker_pids = {s["pid"] for s in scenarios}
        assert parent_pid not in worker_pids
        for scenario in scenarios:
            # Forked workers inherit the batch span as parent: one tree.
            assert scenario["parent"] == batch_span["id"]
            assert _stage_spans(spans, scenario) == sorted(PIPELINE_STAGES)

    def test_campaign_records_metrics_rows(self, trace_path, tmp_path):
        specs = [tiny_spec(f"metrics-{i}") for i in range(2)]
        with ResultStore(tmp_path / "campaigns.sqlite") as store:
            run_batch(
                specs,
                cache=tmp_path / "cache",
                jobs=1,
                store=store,
                campaign="m",
            )
            assert store.latest_metrics_run("m") == 1
            rows = store.metrics("m")
            by_kind_name = {(r["kind"], r["name"]): r for r in rows}
            for stage in PIPELINE_STAGES:
                row = by_kind_name[(METRIC_KIND_STAGE_TIME, stage)]
                assert row["count"] == 2
                assert row["p50"] <= row["p99"] <= row["maximum"] + 1e-12
            assert by_kind_name[(METRIC_KIND_COUNTER, "computed")]["total"] == 2
            assert (METRIC_KIND_STAGE_RECOMPUTE_TIME, "solar") in by_kind_name
            # A second identical run skips every point: no new metrics row.
            run_batch(
                specs, cache=tmp_path / "cache", jobs=1, store=store, campaign="m"
            )
            assert store.latest_metrics_run("m") == 1

    def test_campaign_summary_round_trips_stage_times(self):
        summary = CampaignSummary(
            campaign="x",
            n_points=1,
            done=1,
            computed=1,
            stage_hits={"solar": 1},
            stage_recomputes={"scene": 1},
            stage_hit_time_s={"solar": 0.25},
            stage_recompute_time_s={"scene": 0.75},
        )
        clone = CampaignSummary.from_dict(summary.as_dict())
        assert clone.stage_hit_time_s == {"solar": 0.25}
        assert clone.stage_recompute_time_s == {"scene": 0.75}


# ---------------------------------------------------------------------------
# Summary rendering and chrome export
# ---------------------------------------------------------------------------


def synthetic_events():
    return [
        {"type": "span", "name": "batch", "id": "1-1", "parent": None,
         "pid": 1, "ts": 0.0, "dur": 3.0},
        {"type": "span", "name": "scenario", "id": "2-1", "parent": "1-1",
         "pid": 2, "ts": 0.1, "dur": 2.0, "attrs": {"scenario": "a"}},
        {"type": "span", "name": "solar", "id": "2-2", "parent": "2-1",
         "pid": 2, "ts": 0.2, "dur": 1.5},
        {"type": "event", "name": "greedy.step", "id": "2-3", "parent": "2-2",
         "pid": 2, "ts": 0.3, "attrs": {"module": 0}},
        {"type": "span", "name": "lost", "id": "9-9", "parent": "8-8",
         "pid": 9, "ts": 0.4, "dur": 0.25},
    ]


class TestSummaryRendering:
    def test_render_summary_tree_and_slowest(self):
        text = render_summary(synthetic_events(), slowest=2)
        lines = text.splitlines()
        assert lines[0] == "trace: 4 span(s), 1 event(s), 3 process(es)"
        assert any(line.strip().startswith("batch") for line in lines)
        # Children indent one level under their parents.
        assert any(line.startswith("  batch") for line in lines)
        assert any(line.startswith("    scenario") for line in lines)
        assert any(line.startswith("      solar") for line in lines)
        # The span with an unknown parent is grafted in, not dropped.
        assert any("lost" in line for line in lines)
        assert "slowest 2 span(s):" in text
        assert "1. batch 3.000s" in text

    def test_render_summary_empty(self):
        assert render_summary([]) == "trace: no spans recorded"

    def test_chrome_trace_format(self):
        payload = chrome_trace(synthetic_events())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == 5
        complete = [e for e in events if e["ph"] == "X"]
        instant = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 4 and len(instant) == 1
        # Timestamps are rebased to zero and scaled to microseconds.
        assert min(e["ts"] for e in events) == 0.0
        batch = next(e for e in complete if e["name"] == "batch")
        assert batch["dur"] == pytest.approx(3.0e6)
        assert json.loads(json.dumps(payload))  # serialisable as-is


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCliTracing:
    def run_traced_run(self, tmp_path, capsys):
        trace = tmp_path / "cli-trace.jsonl"
        spec_path = tmp_path / "spec.json"
        tiny_spec("cli-traced").save(spec_path)
        code = main(
            [
                "run",
                str(spec_path),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return trace

    def test_run_with_trace_flag_writes_merged_trace(self, tmp_path, capsys):
        trace = self.run_traced_run(tmp_path, capsys)
        assert trace.exists()
        assert telemetry.shard_paths(trace) == []
        spans = [e for e in read_trace(trace) if e.get("type") == "span"]
        assert {s["name"] for s in spans} >= set(PIPELINE_STAGES)
        # --trace is per-invocation: the tracer did not leak.
        assert not telemetry.tracing_enabled()
        assert telemetry.TRACE_ENV not in os.environ

    def test_trace_summary_command(self, tmp_path, capsys):
        trace = self.run_traced_run(tmp_path, capsys)
        assert main(["trace", "summary", str(trace), "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace:")
        assert "scenario" in out and "solar" in out
        assert "slowest 2 span(s):" in out

    def test_trace_export_command(self, tmp_path, capsys):
        trace = self.run_traced_run(tmp_path, capsys)
        output = tmp_path / "chrome.json"
        code = main(
            ["trace", "export", str(trace), "--format", "chrome", "--output", str(output)]
        )
        assert code == 0
        assert "written to" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["traceEvents"]
        # Without --output the JSON goes to stdout.
        assert main(["trace", "export", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["traceEvents"]

    def test_trace_commands_reject_missing_or_empty_files(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summary", str(empty)]) == 2
        assert "contains no events" in capsys.readouterr().err

    def test_campaign_status_prints_stage_latency_table(self, tmp_path, capsys):
        store = str(tmp_path / "campaigns.sqlite")
        spec_path = tmp_path / "spec.json"
        tiny_spec("lat").save(spec_path)
        args = [
            "campaign", "run", "lat", str(spec_path),
            "--store", store, "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "stage wall time (this run):" in out
        assert main(["campaign", "status", "lat", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "stage latency (metrics run 1):" in out
        for stage in PIPELINE_STAGES:
            assert stage in out

    def test_log_level_env_silences_progress_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(telemetry.LOG_LEVEL_ENV, "ERROR")
        assert main(["list-scenarios"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        # Errors still surface.
        assert main(["run", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err
        # Back at the default level output returns.
        monkeypatch.delenv(telemetry.LOG_LEVEL_ENV)
        assert main(["list-scenarios"]) == 0
        assert "built-in scenarios" in capsys.readouterr().out
