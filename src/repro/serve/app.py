"""Planning-as-a-service: the ``repro serve`` HTTP/JSON front-end.

The service puts an HTTP face on the campaign store's content-digest memo:
``POST /v1/plan`` normalises the submitted scenario document, computes its
:func:`~repro.runner.stages.scenario_content_digest`, and answers ``200``
immediately when *any* campaign already holds a ``done`` row for that
digest -- a pure store read, the pipeline is never touched.  A miss whose
solver choice can only fail (an unknown solver, a bad option, an
impossible string topology) answers ``400``; any other miss
enrolls the point into a serve campaign and answers ``202`` with a request
id (the digest itself: identical scenarios share one request).  Execution
is deliberately **not** in-process: any ``repro campaign worker`` fleet
pointed at the same store URL drains the queue, so the service inherits
leasing, adoption, retries, timeouts and fault injection for free, and the
caller follows progress via ``GET /v1/requests/<id>`` -- useful before it
is optimal, in the anytime-reporting spirit.

Layering: :class:`ServeApp` is pure request logic -- each handler takes
parsed inputs and returns ``(status, payload, headers)`` tuples, so the
whole contract is unit-testable without opening a socket.  The
:class:`_Handler`/:func:`create_server` pair is the thin
``ThreadingHTTPServer`` skin; one :class:`~repro.runner.store.ResultStore`
connection (opened ``cross_thread=True``) is shared across request threads
behind a lock, SQLite's WAL mode keeps the concurrent worker fleet's
writes from ever blocking the service's reads for long.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..constants import DEFAULT_HOST, DEFAULT_MAX_QUEUE, DEFAULT_PORT, DEFAULT_SERVE_CAMPAIGN
from ..errors import ConfigurationError, ReproError
from ..runner.solvers import check_solvable
from ..runner.stages import scenario_content_digest
from ..runner.store import (
    STATUS_DONE,
    STATUS_PENDING,
    STATUS_RUNNING,
    PointRecord,
    ResultStore,
    _store_file,
)
from ..scenario.spec import ScenarioSpec
from ..telemetry import span
from .queue import (
    AdmissionController,
    BadRequestError,
    normalize_priority,
)

#: Environment variables read by the CLI for serve defaults.
SERVE_PORT_ENV = "REPRO_SERVE_PORT"
SERVE_MAX_QUEUE_ENV = "REPRO_SERVE_MAX_QUEUE"

#: Maximum accepted request body (bytes).  A scenario document is a few KB;
#: this guards the service against accidental uploads, not adversaries.
MAX_BODY_BYTES = 1 << 20

Headers = Dict[str, str]
Response = Tuple[int, Dict[str, Any], Headers]


def normalize_scenario_document(document: Any) -> ScenarioSpec:
    """Parse a client scenario document into a canonical :class:`ScenarioSpec`.

    Accepts the same shorthands the sweep engine does -- notably ``solver``
    as a plain string (``"greedy"`` == ``{"name": "greedy", "options": {}}``)
    -- and round-trips through :class:`ScenarioSpec`, whose ``to_dict``
    canonicalises defaults.  Two semantically identical documents (key
    reordering, shorthand vs. explicit form, defaults spelled out or
    omitted) therefore normalise to one spec and one content digest, which
    is what makes the memo representation-insensitive.

    Every malformed document raises :class:`BadRequestError` (mapped to
    HTTP 400); a garbage document must never surface as a 500.
    """
    if not isinstance(document, Mapping):
        raise BadRequestError(
            f"scenario document must be a JSON object, got {type(document).__name__}"
        )
    data = dict(document)
    solver = data.get("solver")
    if isinstance(solver, str):
        data["solver"] = {"name": solver, "options": {}}
    try:
        return ScenarioSpec.from_dict(data)
    except ReproError as exc:
        raise BadRequestError(str(exc)) from exc
    except Exception as exc:  # noqa: BLE001 -- any parse failure is the client's
        raise BadRequestError(f"malformed scenario specification: {exc}") from exc


def _point_payload(record: PointRecord, include_result: bool) -> Dict[str, Any]:
    """The JSON view of one store row served by the status endpoints."""
    payload: Dict[str, Any] = {
        "request_id": record.digest,
        "scenario": record.name,
        "status": record.status,
        "priority": record.priority,
        "attempts": record.attempts,
        "lease_owner": record.lease_owner,
        "wall_time_s": record.wall_time_s,
        "error": record.error,
        "created_at": record.created_at,
        "updated_at": record.updated_at,
    }
    if include_result and record.status == STATUS_DONE:
        payload["result"] = dict(record.result_dict or {})
    return payload


class ServeApp:
    """Request logic of the planning service, free of any HTTP plumbing.

    Handlers return ``(status_code, payload, headers)`` tuples; the
    :class:`_Handler` skin serialises the payload as JSON.  All store
    access happens under one lock: the store connection is shared by every
    request thread (``cross_thread=True``), and SQLite connections are not
    thread-safe by themselves.
    """

    def __init__(
        self,
        store: ResultStore,
        campaign: str = DEFAULT_SERVE_CAMPAIGN,
        max_queue: int = DEFAULT_MAX_QUEUE,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if not campaign:
            raise ConfigurationError("the serve campaign needs a non-empty name")
        self.store = store
        self.campaign = campaign
        self.admission = admission or AdmissionController(max_queue=max_queue)
        self._lock = threading.Lock()

    # -- endpoint handlers --------------------------------------------------------

    def handle_plan(self, raw_body: bytes) -> Response:
        """``POST /v1/plan``: memo hit -> 200, miss -> enqueue + 202 (or 429)."""
        with span("serve.request", endpoint="plan") as sp:
            try:
                return self._plan(raw_body, sp)
            except BadRequestError as exc:
                self.admission.record_bad_request()
                sp.set(status=400)
                return 400, {"error": str(exc)}, {}

    def _plan(self, raw_body: bytes, sp: Any) -> Response:
        try:
            body = json.loads(raw_body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, Mapping):
            raise BadRequestError(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        if "scenario" not in body:
            raise BadRequestError('request body is missing the "scenario" key')
        priority = normalize_priority(body.get("priority"))
        spec = normalize_scenario_document(body["scenario"])
        digest = scenario_content_digest(spec)
        sp.set(digest=digest[:12], priority=priority)

        with self._lock:
            # The memo: any campaign's done row answers -- a pure read.
            done = self.store.find_done(digest)
            if done is not None:
                self.admission.record_hit()
                sp.set(status=200, outcome="hit")
                payload = _point_payload(done, include_result=True)
                payload["cached"] = True
                return 200, payload, {}

            # Re-POST of an in-flight request: idempotent, never re-admitted
            # (and never 429ed -- the point is already in the queue).
            existing = self.store.find_point(self.campaign, digest)
            if existing is not None and existing.status in (
                STATUS_PENDING,
                STATUS_RUNNING,
            ):
                sp.set(status=202, outcome="pending")
                payload = _point_payload(existing, include_result=False)
                payload["poll"] = f"/v1/requests/{digest}"
                return 202, payload, {}

            # A document a worker can only fail takes no queue slot.
            try:
                check_solvable(spec)
            except ConfigurationError as exc:
                raise BadRequestError(str(exc)) from exc
            depth = self.store.queue_depth(self.campaign)
            decision = self.admission.admit(depth, priority)
            if not decision.admitted:
                sp.set(status=429, outcome="rejected")
                return (
                    429,
                    {"error": decision.reason, "retry_after_s": decision.retry_after_s},
                    {"Retry-After": f"{decision.retry_after_s:g}"},
                )

            if existing is not None:
                # A previously failed/timed-out serve point: the row stays
                # terminal until an operator resumes the campaign; report
                # its state instead of silently double-enrolling.
                sp.set(status=202, outcome=existing.status)
                payload = _point_payload(existing, include_result=False)
                payload["poll"] = f"/v1/requests/{digest}"
                return 202, payload, {}

            (record,) = self.store.enroll(self.campaign, [spec], priority=priority)
            sp.set(status=202, outcome="miss")
            payload = _point_payload(record, include_result=False)
            payload["poll"] = f"/v1/requests/{digest}"
            payload["queue_depth"] = depth + 1
            return 202, payload, {}

    def handle_request_status(self, request_id: str) -> Response:
        """``GET /v1/requests/<id>``: point state straight from the store."""
        with span("serve.request", endpoint="status") as sp:
            with self._lock:
                record = self.store.find_point(self.campaign, request_id)
                if record is None:
                    # Digests enrolled by other campaigns still resolve once
                    # done -- the memo is content-addressed, not per-campaign.
                    record = self.store.find_done(request_id)
            if record is None:
                sp.set(status=404)
                return 404, {"error": f"unknown request id {request_id!r}"}, {}
            sp.set(status=200, outcome=record.status)
            return 200, _point_payload(record, include_result=True), {}

    def handle_healthz(self) -> Response:
        """``GET /v1/healthz``: liveness plus the queue-depth headline."""
        with span("serve.request", endpoint="healthz"):
            with self._lock:
                depth = self.store.queue_depth(self.campaign)
            return (
                200,
                {
                    "status": "ok",
                    "campaign": self.campaign,
                    "queue_depth": depth,
                    "max_queue": self.admission.max_queue,
                    "store": str(self.store.path),
                },
                {},
            )

    def handle_stats(self) -> Response:
        """``GET /v1/stats``: admission counters + store status breakdown."""
        with span("serve.request", endpoint="stats"):
            with self._lock:
                depth = self.store.queue_depth(self.campaign)
                counts = self.store.status_counts(self.campaign)
            stats = self.admission.stats()
            stats.update(
                {
                    "campaign": self.campaign,
                    "queue_depth": depth,
                    "status_counts": counts,
                }
            )
            return 200, stats, {}

    # -- routing ------------------------------------------------------------------

    def dispatch(self, method: str, path: str, raw_body: bytes = b"") -> Response:
        """Route one request; unknown paths 404, wrong methods 405."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/v1/plan":
            if method != "POST":
                return 405, {"error": "use POST /v1/plan"}, {"Allow": "POST"}
            return self.handle_plan(raw_body)
        if path.startswith("/v1/requests/"):
            if method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            return self.handle_request_status(path[len("/v1/requests/") :])
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            return self.handle_healthz()
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "use GET"}, {"Allow": "GET"}
            return self.handle_stats()
        return 404, {"error": f"unknown endpoint {method} {path}"}, {}


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP skin over :meth:`ServeApp.dispatch` (JSON in, JSON out)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, a
    # keep-alive client would wait for the delayed ACK before the body.
    disable_nagle_algorithm = True

    # The owning server attaches the app here (see create_server).
    app: ServeApp

    def _respond(self, status: int, payload: Dict[str, Any], headers: Headers) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._respond(
                413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}, {}
            )
            return
        raw_body = self.rfile.read(length) if length else b""
        try:
            status, payload, headers = self.app.dispatch(method, self.path, raw_body)
        except Exception as exc:  # noqa: BLE001 -- the service must keep serving
            status, payload, headers = 500, {"error": f"internal error: {exc}"}, {}
        self._respond(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 -- http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging goes through telemetry spans, not stderr


def create_server(
    app: ServeApp, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT
) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server around ``app`` (call ``serve_forever``).

    Port ``0`` asks the OS for a free port (tests); the bound address is
    ``server.server_address``.  Threads are daemonic so an exiting process
    never hangs on a straggling keep-alive connection.
    """
    handler = type("ReproServeHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def open_serve_store(store: Union[str, "Path", None] = None) -> ResultStore:
    """Open the campaign store for the service (cross-thread connection).

    Takes the spellings every other ``--store`` flag takes: a filesystem
    path, a ``sqlite:///path`` URL, or ``None`` for the default location.
    The connection allows cross-thread use because the service serialises
    access behind :class:`ServeApp`'s lock.
    """
    return ResultStore(_store_file(store), cross_thread=True)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_SERVE_CAMPAIGN",
    "MAX_BODY_BYTES",
    "SERVE_MAX_QUEUE_ENV",
    "SERVE_PORT_ENV",
    "ServeApp",
    "create_server",
    "normalize_scenario_document",
    "open_serve_store",
]
