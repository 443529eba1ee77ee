"""Thin stdlib client for the ``repro serve`` HTTP API.

An :mod:`http.client` wrapper for the tests, benchmarks and examples.  Each
client keeps one persistent connection (guarded by a lock; parallel callers
hold one client each), drops it after a transport error or a closing
response, and retries once on a new connection a request whose *reused*
connection the server had closed while idle -- never one that timed out.
Every call returns a :class:`ServeResponse` and **never raises on HTTP error
statuses**; transport failures raise :class:`OSError` (refused, reset, timed
out) or :class:`http.client.HTTPException`.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Mapping, Optional
from urllib.parse import urlsplit


#: Default per-request socket timeout (seconds).
DEFAULT_TIMEOUT_S = 10.0


class ServeResponse:
    """One HTTP exchange: status code, JSON payload, selected headers."""

    __slots__ = ("status", "payload", "headers")

    def __init__(
        self, status: int, payload: Dict[str, Any], headers: Dict[str, str]
    ) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def retry_after_s(self) -> Optional[float]:
        """The ``Retry-After`` hint of a 429, if present."""
        value = self.headers.get("Retry-After")
        return None if value is None else float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServeResponse(status={self.status}, payload={self.payload!r})"


class ServeClient:
    """Client for one ``repro serve`` endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._connection: Optional[http.client.HTTPConnection] = None
        self._lock = threading.RLock()  # close() runs inside _exchange

    def close(self) -> None:
        """Close the kept connection; the next call reconnects."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def _request(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> ServeResponse:
        data = None if body is None else json.dumps(dict(body)).encode("utf-8")
        return self._exchange(method, path, data)

    def _exchange(self, method: str, path: str, data: Optional[bytes]) -> ServeResponse:
        headers = {"Content-Type": "application/json"} if data is not None else {}
        with self._lock:
            try:
                while True:  # at most twice: the retry runs on a new connection
                    reused = self._connection is not None
                    if not reused:
                        self._connection = http.client.HTTPConnection(
                            urlsplit(self.base_url).netloc, timeout=self.timeout_s
                        )
                    try:
                        self._connection.request(method, path, data, headers)
                        response = self._connection.getresponse()
                        break
                    except (ConnectionResetError, BrokenPipeError):  # or RemoteDisconnected
                        if not reused:
                            raise
                        self.close()  # the server hung up an idle connection: retry
                raw = response.read()
                if response.will_close:
                    self.close()
            except BaseException:
                self.close()
                raise
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": f"non-JSON response body ({len(raw)} bytes)"}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return ServeResponse(response.status, payload, dict(response.headers.items()))

    def plan(
        self, scenario: Mapping[str, Any], priority: Optional[str] = None
    ) -> ServeResponse:
        """``POST /v1/plan`` a scenario document (dict form)."""
        body: Dict[str, Any] = {"scenario": dict(scenario)}
        if priority is not None:
            body["priority"] = priority
        return self._request("POST", "/v1/plan", body)

    def plan_raw(self, body: bytes) -> ServeResponse:
        """``POST /v1/plan`` an arbitrary (possibly malformed) body."""
        return self._exchange("POST", "/v1/plan", body)

    def request_status(self, request_id: str) -> ServeResponse:
        """``GET /v1/requests/<id>``."""
        return self._request("GET", f"/v1/requests/{request_id}")

    def healthz(self) -> ServeResponse:
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")

    def stats(self) -> ServeResponse:
        """``GET /v1/stats``."""
        return self._request("GET", "/v1/stats")


__all__ = ["DEFAULT_TIMEOUT_S", "ServeClient", "ServeResponse"]
