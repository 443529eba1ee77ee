"""Thin stdlib client for the ``repro serve`` HTTP API.

A deliberately small urllib wrapper used by the test suite, the benchmark
traffic generator and example scripts.  Every call returns a
:class:`ServeResponse` -- status code, parsed JSON payload, selected
headers -- and **never raises on HTTP error statuses**: a ``429`` or
``400`` is a first-class protocol answer the caller inspects, not an
exception.  Only transport-level failures (connection refused, timeout)
propagate, as :class:`~urllib.error.URLError`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional


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

    # -- plumbing -----------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Mapping[str, Any]] = None
    ) -> ServeResponse:
        url = f"{self.base_url}{path}"
        data = None if body is None else json.dumps(dict(body)).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
                status = response.status
                headers = dict(response.headers.items())
        except urllib.error.HTTPError as exc:
            # 4xx/5xx: still a JSON protocol answer -- hand it back.
            raw = exc.read()
            status = exc.code
            headers = dict(exc.headers.items()) if exc.headers else {}
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": f"non-JSON response body ({len(raw)} bytes)"}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return ServeResponse(status, payload, headers)

    # -- endpoints ----------------------------------------------------------------

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
        request = urllib.request.Request(
            f"{self.base_url}/v1/plan",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
                status = response.status
                headers = dict(response.headers.items())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status = exc.code
            headers = dict(exc.headers.items()) if exc.headers else {}
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"error": "non-JSON response body"}
        return ServeResponse(status, payload, headers)

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
