"""Blocking HTTP client for the simulation service.

``ServeClient`` is what ``repro submit`` and the end-to-end tests use:
a thin stdlib :mod:`http.client` wrapper that speaks the service's
JSON protocol and surfaces its structured errors as
:class:`ServiceError` (status + machine-readable code + message +
``Retry-After`` when the service is shedding load).

Each call opens its own connection, so one client instance is safe to
share across threads (the concurrency tests hammer a single client from
a pool of threads).
"""

from __future__ import annotations

import http.client
import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.serve.protocol import canonical_json
from repro.workloads.spec import WorkloadSpec

__all__ = ["ServeClient", "ServiceError", "SimulateResponse"]


class ServiceError(RuntimeError):
    """A structured (non-2xx) answer from the service."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
        options: list[str] | None = None,
    ) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after
        #: Valid values for the rejected field, when the service
        #: enumerated them (e.g. the live design registry).
        self.options = options


@dataclass
class SimulateResponse:
    """One successful simulation answer.

    Attributes:
        body: the exact response bytes -- the canonical JSON of
            ``FrontendStats.to_dict()``, byte-identical to a direct
            harness caller's serialisation (tests pin this).
        result: the parsed body.
        outcome: cache outcome (``memo`` / ``disk`` / ``fresh``).
        batch_size: how many requests shared this request's micro-batch
            (1 for a memo hit answered at admission, outside every batch).
        request_id: the server-assigned correlation id
            (``X-Repro-Request-Id``) -- feed it to :meth:`ServeClient.
            debug_trace` to reconstruct the request's hop sequence.
        timing: server-reported per-hop latency decomposition in seconds
            (``batch_wait`` / ``queue`` / ``simulate``) from the
            ``X-Repro-*-Seconds`` headers.  A memo hit answered at
            admission reads 0 batch-wait and queue time, and its memo
            peek as ``simulate``.
    """

    body: bytes
    result: dict = field(default_factory=dict)
    outcome: str = ""
    batch_size: int = 1
    request_id: str = ""
    timing: dict = field(default_factory=dict)


class ServeClient:
    """Blocking client bound to one ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8337, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw transport -------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        extra_headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            if extra_headers:
                headers.update(extra_headers)
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            header_map = {name.lower(): value for name, value in response.getheaders()}
            return response.status, header_map, payload
        finally:
            connection.close()

    @staticmethod
    def _raise_for_error(status: int, headers: dict[str, str], payload: bytes) -> None:
        if status < 400:
            return
        code, message = "unknown", payload.decode("utf-8", "replace")
        options = None
        try:
            error = json.loads(payload)["error"]
            code, message = error["code"], error["message"]
            options = error.get("options")
        except (ValueError, KeyError, TypeError):
            pass
        retry_after = None
        if "retry-after" in headers:
            try:
                retry_after = float(headers["retry-after"])
            except ValueError:
                pass
        raise ServiceError(
            status, code, message, retry_after=retry_after, options=options
        )

    def _get_json(self, path: str) -> Any:
        status, headers, payload = self._request("GET", path)
        self._raise_for_error(status, headers, payload)
        return json.loads(payload)

    # -- the protocol --------------------------------------------------------

    def simulate(
        self,
        design: str,
        app: str | None = None,
        spec: WorkloadSpec | None = None,
        params: dict | None = None,
        warmup: float | None = None,
        scale: str | None = None,
    ) -> SimulateResponse:
        """Submit one simulation request and block for its answer.

        Exactly one of ``app`` (a suite workload name) or ``spec`` (an
        inline :class:`WorkloadSpec`) must be given, mirroring the wire
        protocol.  Raises :class:`ServiceError` on any structured
        rejection (400 validation, 429 queue-full, 503 draining).
        """
        request: dict[str, Any] = {"design": design}
        if app is not None:
            request["app"] = app
        if spec is not None:
            request["spec"] = asdict(spec)
        if params is not None:
            request["params"] = params
        if warmup is not None:
            request["warmup"] = warmup
        if scale is not None:
            request["scale"] = scale
        status, headers, payload = self._request(
            "POST", "/v1/simulate", canonical_json(request)
        )
        self._raise_for_error(status, headers, payload)
        timing = {}
        for hop, header in (
            ("batch_wait", "x-repro-batch-wait-seconds"),
            ("queue", "x-repro-queue-seconds"),
            ("simulate", "x-repro-simulate-seconds"),
        ):
            if header in headers:
                try:
                    timing[hop] = float(headers[header])
                except ValueError:
                    pass
        return SimulateResponse(
            body=payload,
            result=json.loads(payload),
            outcome=headers.get("x-repro-outcome", ""),
            batch_size=int(headers.get("x-repro-batch-size", "1")),
            request_id=headers.get("x-repro-request-id", ""),
            timing=timing,
        )

    def health(self) -> dict:
        return self._get_json("/healthz")

    def stats(self) -> dict:
        return self._get_json("/v1/stats")

    def metrics(self) -> dict:
        return self._get_json("/metrics")

    def metrics_text(self) -> str:
        """The ``/metrics`` snapshot in Prometheus text exposition
        format (the server switches on ``Accept: text/plain``)."""
        status, headers, payload = self._request(
            "GET", "/metrics", extra_headers={"Accept": "text/plain"}
        )
        self._raise_for_error(status, headers, payload)
        return payload.decode()

    def debug_trace(
        self,
        rid: str | None = None,
        limit: int | None = None,
        event: str | None = None,
    ) -> dict:
        """The service's recent request-event ring (``/debug/trace``).

        With ``rid``, only that request's hop records; otherwise the
        recent window, optionally filtered by event name / capped.
        """
        params = []
        if rid is not None:
            params.append(f"rid={rid}")
        if limit is not None:
            params.append(f"limit={limit}")
        if event is not None:
            params.append(f"event={event}")
        path = "/debug/trace" + ("?" + "&".join(params) if params else "")
        return self._get_json(path)

    def designs(self) -> list[str]:
        return self._get_json("/v1/designs")

    def apps(self, scale: str | None = None) -> list[str]:
        path = "/v1/apps" + (f"?scale={scale}" if scale else "")
        return self._get_json(path)
