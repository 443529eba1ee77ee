"""Contract and integration tests of the ``repro serve`` planning service.

The contract level exercises :class:`~repro.serve.ServeApp` directly (no
sockets): status codes, structured error bodies, admission accounting.
The integration level runs the real threaded HTTP server in-process and,
for the drain test, a real ``repro campaign worker`` subprocess sharing
the store over its ``sqlite:///`` URL -- proving the service's core
promise end to end: memo hits never touch the pipeline, cache misses are
drained to ``done`` by the ordinary worker fleet.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import faults
from repro.errors import ConfigurationError, ReproError
from repro.gis import RoofSpec
from repro.runner import ResultStore, scenario_content_digest
from repro.runner.store import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    STATUS_DONE,
    STATUS_PENDING,
)
from repro.scenario import ScenarioSpec, SolverSpec, TimeSpec
from repro.serve import (
    AdmissionController,
    BadRequestError,
    ServeApp,
    ServeClient,
    create_server,
    normalize_priority,
    normalize_scenario_document,
    open_serve_store,
    run_traffic,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


def fake_result(spec: ScenarioSpec) -> dict:
    """A minimal result payload for rows completed without the pipeline."""
    return {"scenario": spec.name, "synthetic": True, "energy_kwh": 123.0}


def complete_point(store: ResultStore, campaign: str, spec: ScenarioSpec) -> str:
    """Enroll + mark one point ``done`` without running anything."""
    (record,) = store.enroll(campaign, [spec])
    store.mark_running(campaign, record.digest)
    store.mark_done(campaign, record.digest, fake_result(spec), wall_time_s=0.01)
    return record.digest


@pytest.fixture()
def make_service(tmp_path):
    """Factory for a live in-process serve stack (server thread + client)."""
    stacks = []

    def factory(max_queue: int = 8, campaign: str = "serve") -> SimpleNamespace:
        store_path = tmp_path / "store.sqlite"
        store = open_serve_store(store_path)
        app = ServeApp(store, campaign=campaign, max_queue=max_queue)
        server = create_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        stack = SimpleNamespace(
            app=app,
            store=store,
            store_path=store_path,
            base_url=f"http://{host}:{port}",
            client=ServeClient(f"http://{host}:{port}", timeout_s=15.0),
            server=server,
            thread=thread,
        )
        stacks.append(stack)
        return stack

    yield factory
    for stack in stacks:
        stack.server.shutdown()
        stack.thread.join(timeout=10.0)
        stack.server.server_close()
        stack.store.close()


def plan_body(spec: ScenarioSpec, priority: str = None) -> bytes:
    body = {"scenario": spec.to_dict()}
    if priority is not None:
        body["priority"] = priority
    return json.dumps(body).encode("utf-8")


# ---------------------------------------------------------------------------
# Contract level: ServeApp without sockets
# ---------------------------------------------------------------------------


class TestNormalization:
    def test_solver_string_shorthand_matches_dict_form(self):
        document = tiny_spec("n11n").to_dict()
        shorthand = dict(document)
        shorthand["solver"] = "greedy"
        explicit = normalize_scenario_document(document)
        short = normalize_scenario_document(shorthand)
        assert scenario_content_digest(explicit) == scenario_content_digest(short)

    def test_non_mapping_document_is_bad_request(self):
        for garbage in (None, 7, "roof", ["a"], True):
            with pytest.raises(BadRequestError):
                normalize_scenario_document(garbage)

    def test_solver_as_string_never_escapes_as_attribute_error(self):
        document = tiny_spec("attr").to_dict()
        document["solver"] = "greedy"
        spec = normalize_scenario_document(document)
        assert spec.solver.name == "greedy"

    def test_priority_default_and_validation(self):
        assert normalize_priority(None) == PRIORITY_INTERACTIVE
        assert normalize_priority("batch") == PRIORITY_BATCH
        with pytest.raises(BadRequestError):
            normalize_priority("urgent")
        with pytest.raises(BadRequestError):
            normalize_priority(3)


class TestAdmissionController:
    def test_rejects_at_max_queue_with_retry_after(self):
        controller = AdmissionController(max_queue=2, retry_after_s=1.5)
        assert controller.admit(1, PRIORITY_BATCH).admitted
        decision = controller.admit(2, PRIORITY_INTERACTIVE)
        assert not decision.admitted
        assert decision.retry_after_s == 1.5
        assert "full" in decision.reason
        stats = controller.stats()
        assert stats["admitted_by_priority"][PRIORITY_BATCH] == 1
        assert stats["rejected_by_priority"][PRIORITY_INTERACTIVE] == 1

    def test_hit_ratio(self):
        controller = AdmissionController(max_queue=4)
        assert controller.stats()["hit_ratio"] is None
        controller.record_hit()
        controller.record_hit()
        controller.admit(0, PRIORITY_INTERACTIVE)
        stats = controller.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(2 / 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ReproError):
            AdmissionController(max_queue=0)
        with pytest.raises(ReproError):
            AdmissionController(retry_after_s=0)


class TestServeAppContract:
    @pytest.fixture()
    def app(self, tmp_path):
        store = open_serve_store(tmp_path / "store.sqlite")
        yield ServeApp(store, max_queue=4)
        store.close()

    def test_malformed_json_body_is_structured_400(self, app):
        status, payload, _ = app.dispatch("POST", "/v1/plan", b"{not json")
        assert status == 400
        assert "error" in payload and "JSON" in payload["error"]
        assert app.admission.stats()["bad_requests"] == 1

    def test_missing_scenario_key_is_400(self, app):
        status, payload, _ = app.dispatch("POST", "/v1/plan", b'{"priority": "batch"}')
        assert status == 400
        assert "scenario" in payload["error"]

    def test_bad_priority_is_400(self, app):
        body = json.dumps(
            {"scenario": tiny_spec("p").to_dict(), "priority": "urgent"}
        ).encode()
        status, payload, _ = app.dispatch("POST", "/v1/plan", body)
        assert status == 400
        assert "priority" in payload["error"]

    def test_unknown_request_id_is_404(self, app):
        status, payload, _ = app.dispatch("GET", "/v1/requests/deadbeef")
        assert status == 404
        assert "error" in payload

    def test_unknown_path_404_and_wrong_method_405(self, app):
        assert app.dispatch("GET", "/v2/plan")[0] == 404
        status, _, headers = app.dispatch("GET", "/v1/plan")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert app.dispatch("POST", "/v1/stats")[0] == 405

    def test_miss_enqueues_with_digest_request_id(self, app):
        spec = tiny_spec("miss")
        status, payload, _ = app.dispatch("POST", "/v1/plan", plan_body(spec))
        assert status == 202
        assert payload["request_id"] == scenario_content_digest(spec)
        assert payload["status"] == STATUS_PENDING
        assert payload["priority"] == PRIORITY_INTERACTIVE
        assert payload["poll"] == f"/v1/requests/{payload['request_id']}"
        # Re-POST is idempotent: same id, no second enrollment, no 429.
        again_status, again, _ = app.dispatch("POST", "/v1/plan", plan_body(spec))
        assert again_status == 202
        assert again["request_id"] == payload["request_id"]
        assert app.store.queue_depth("serve") == 1

    def test_serve_campaign_name_must_be_non_empty(self, app):
        with pytest.raises(ConfigurationError):
            ServeApp(app.store, campaign="")


# ---------------------------------------------------------------------------
# Integration level: real HTTP server (and a real worker subprocess)
# ---------------------------------------------------------------------------


class TestWarmHit:
    def test_memo_hit_never_touches_the_pipeline(self, make_service, monkeypatch):
        """A done row (from *any* campaign) answers 200 with the pipeline
        booby-trapped: any stage execution would turn the response into a
        500 via the handler's failsafe, so the 200 + payload equality is
        proof the hit path is a pure store read."""
        service = make_service()
        spec = tiny_spec("warm")
        complete_point(service.store, "earlier-campaign", spec)

        def bomb(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("pipeline executed during a memo hit")

        monkeypatch.setattr("repro.runner.stages.run_scenario", bomb)
        monkeypatch.setattr("repro.runner.batch.execute_point", bomb)

        response = service.client.plan(spec.to_dict())
        assert response.status == 200
        assert response.payload["cached"] is True
        assert response.payload["status"] == STATUS_DONE
        assert response.payload["result"] == fake_result(spec)

        stats = service.client.stats().payload
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["hit_ratio"] == 1.0
        # Zero recompute side effects: nothing was enrolled in the serve
        # campaign, the queue never grew.
        assert stats["queue_depth"] == 0
        assert stats["status_counts"]["pending"] == 0

    def test_hit_is_representation_insensitive_over_http(self, make_service):
        service = make_service()
        spec = tiny_spec("shapes")
        complete_point(service.store, "earlier-campaign", spec)
        document = spec.to_dict()
        shorthand = dict(document)
        shorthand["solver"] = "greedy"  # string shorthand, same digest
        response = service.client.plan(shorthand)
        assert response.status == 200
        assert response.payload["cached"] is True


class TestMissAndWorkerDrain:
    def test_miss_202_then_real_worker_drains_to_done(self, make_service, tmp_path):
        service = make_service()
        spec = tiny_spec("drain")
        response = service.client.plan(spec.to_dict())
        assert response.status == 202
        request_id = response.payload["request_id"]
        assert request_id == scenario_content_digest(spec)
        assert response.payload["queue_depth"] == 1

        env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "REPRO_STORE_PATH": str(service.store_path),
        }
        env.pop(faults.FAULTS_ENV, None)
        env.pop(faults.FAULTS_STATE_ENV, None)
        worker = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "worker",
                "serve",
                "--id",
                "drain-worker",
                "--serial",
                "--store",
                f"sqlite://{service.store_path}",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--poll",
                "0.2",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert worker.returncode == 0, worker.stderr

        # The worker exited only after draining the queue: the point is done.
        final = service.client.request_status(request_id)
        assert final.status == 200
        assert final.payload["status"] == STATUS_DONE
        assert final.payload["result"]["scenario"] == spec.name
        assert final.payload["attempts"] == 1

        # The drained answer is now a memo hit for everyone.
        again = service.client.plan(spec.to_dict())
        assert again.status == 200
        assert again.payload["cached"] is True
        stats = service.client.stats().payload
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["status_counts"]["done"] == 1


class TestAdmissionOverHTTP:
    def test_429_past_max_queue_with_retry_after_header(self, make_service):
        service = make_service(max_queue=1)
        first = service.client.plan(tiny_spec("q-one").to_dict())
        assert first.status == 202
        second = service.client.plan(tiny_spec("q-two").to_dict())
        assert second.status == 429
        assert second.retry_after_s is not None and second.retry_after_s > 0
        assert "error" in second.payload
        # The in-flight request itself is never 429ed on re-POST.
        again = service.client.plan(tiny_spec("q-one").to_dict())
        assert again.status == 202
        stats = service.client.stats().payload
        assert stats["rejected"] == 1
        assert stats["rejected_by_priority"][PRIORITY_INTERACTIVE] == 1

    def test_malformed_scenario_json_is_structured_400_over_http(self, make_service):
        service = make_service()
        raw = service.client.plan_raw(b"}{ definitely not json")
        assert raw.status == 400
        assert "error" in raw.payload
        bad_doc = service.client.plan({"roof": "not really a roof"})
        assert bad_doc.status == 400
        assert "error" in bad_doc.payload
        assert service.client.stats().payload["bad_requests"] == 2

    def test_healthz_reports_queue_depth(self, make_service):
        service = make_service(max_queue=5)
        health = service.client.healthz()
        assert health.status == 200
        assert health.payload["status"] == "ok"
        assert health.payload["queue_depth"] == 0
        assert health.payload["max_queue"] == 5
        service.client.plan(tiny_spec("h").to_dict())
        assert service.client.healthz().payload["queue_depth"] == 1

    def test_keep_alive_requests_do_not_stall(self, make_service):
        """Requests reusing one connection answer without waiting for a
        delayed ACK: headers and body are written separately, so Nagle's
        algorithm would hold the body back for tens of milliseconds."""
        service = make_service()
        spec = tiny_spec("kept-alive")
        complete_point(service.store, "warm", spec)
        host, port = service.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=15.0)
        body = plan_body(spec)
        durations = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("POST", "/v1/plan", body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = json.loads(response.read())
                durations.append(time.perf_counter() - started)
                assert response.status == 200 and payload["cached"] is True
        finally:
            connection.close()
        assert statistics.median(durations) < 0.015, durations


class TestPriorityTiers:
    def test_interactive_claimed_before_earlier_batch_points(self, make_service):
        """Batch points enrolled *first* must still lose the claim race to
        a later interactive serve request -- the priority column, threaded
        through claim_next_pending, is what keeps a waiting caller ahead
        of bulk backfill."""
        service = make_service()
        batch_specs = [tiny_spec("bulk-a"), tiny_spec("bulk-b")]
        service.store.enroll("serve", batch_specs, priority=PRIORITY_BATCH)

        response = service.client.plan(
            tiny_spec("urgent").to_dict(), priority="interactive"
        )
        assert response.status == 202
        interactive_digest = response.payload["request_id"]

        with ResultStore(service.store_path) as claimer:
            first = claimer.claim_next_pending("serve", owner="w1")
            assert first.point.digest == interactive_digest
            assert first.point.priority == PRIORITY_INTERACTIVE
            # Batch points then drain in enrollment order.
            second = claimer.claim_next_pending("serve", owner="w1")
            third = claimer.claim_next_pending("serve", owner="w1")
            assert [second.point.name, third.point.name] == ["bulk-a", "bulk-b"]

    def test_batch_priority_is_opt_in_via_body(self, make_service):
        service = make_service()
        response = service.client.plan(
            tiny_spec("bg").to_dict(), priority="batch"
        )
        assert response.status == 202
        assert response.payload["priority"] == PRIORITY_BATCH


class TestTrafficGenerator:
    def test_closed_loop_traffic_on_warm_catalog_is_all_hits(self, make_service):
        service = make_service()
        specs = [tiny_spec(f"t{i}") for i in range(3)]
        for spec in specs:
            complete_point(service.store, "warm", spec)
        report = run_traffic(
            service.base_url,
            [spec.to_dict() for spec in specs],
            n_clients=3,
            requests_per_client=5,
        )
        assert report.n_requests == 15
        assert report.status_counts == {200: 15}
        stats = report.latency_stats()
        assert stats.count == 15
        assert 0 < stats.p50 <= stats.p99
        as_dict = report.as_dict()
        assert as_dict["status_counts"] == {"200": 15}
        assert as_dict["latency_s"]["p99"] >= as_dict["latency_s"]["p50"]

    def test_traffic_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            run_traffic("http://127.0.0.1:1", [], n_clients=1)
        with pytest.raises(ConfigurationError):
            run_traffic("http://127.0.0.1:1", [{"a": 1}], n_clients=0)


class TestServeCli:
    def test_serve_starts_answers_and_exits_zero_on_sigterm(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        with open_serve_store(store_path) as store:
            complete_point(store, "warm", tiny_spec("cli-warm"))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("REPRO_SERVE_PORT", None)
        process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                str(store_path),
                "--max-queue",
                "3",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner, banner
            base_url = banner.split("listening on ")[1].strip()
            client = ServeClient(base_url, timeout_s=15.0)
            assert client.healthz().payload["status"] == "ok"
            hit = client.plan(tiny_spec("cli-warm").to_dict())
            assert hit.status == 200 and hit.payload["cached"] is True
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=30)
            assert code == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
