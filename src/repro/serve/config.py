"""Service configuration (``REPRO_SERVE_*`` environment variables).

Every knob has a CLI flag on ``python -m repro serve``; the environment
is the deployment-facing surface (container images set env, operators
rarely edit unit files).  All knobs are documented in README "Serving
the simulator".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one service instance.

    Attributes:
        host: listen address (default loopback; serving is trusted-LAN
            infrastructure, not an internet-facing endpoint).
        port: listen port; ``0`` binds an ephemeral port (tests) and the
            bound port is published on ``SimulationService.port``.
        batch_window: seconds a freshly-opened micro-batch stays open to
            collect concurrent requests sharing its trace.
        queue_limit: admission bound on queued-plus-running simulate
            requests; arrivals past it get a structured 429.
        workers: worker threads executing batches (each batch occupies
            one thread and simulates in-process; ``REPRO_SCHED_*`` does
            not apply to serve).
        drain_timeout: seconds a graceful shutdown waits for in-flight
            requests before giving up.
        retry_after: seconds advertised in the 429 ``Retry-After`` header.
        max_body_bytes: request-body cap (413 past it).
        max_events: cap on ``n_events`` of inline ``spec`` requests (an
            unbounded spec would let one request monopolise a worker).
        default_scale: suite scale used when a request omits ``scale``
            (``None``: the process-wide ``REPRO_SCALE`` resolution).
        trace_buffer: capacity of the request-event ring served on
            ``GET /debug/trace`` (``0`` disables request tracing).
        events_path: optional JSONL file every request event is also
            appended to (the ring only holds the recent window).
        store_url: explicit result-store URL (``disk://``,
            ``disk:///path``, ``fake://name``); it replaces the local
            disk cache as the tier below the memo and adds cross-replica
            single-flight.  ``None``: no explicit store.  See README
            "Shared result store".
        store_ttl: single-flight lease TTL seconds; a replica that dies
            mid-simulation orphans its claim for at most this long
            (heartbeats renew at TTL/3 while it computes).
        store_wait: seconds a replica waits for another's publish
            before degrading to local compute (deadlock ceiling).
        store_poll: result-poll cadence while awaiting a publish.
    """

    host: str = "127.0.0.1"
    port: int = 8337
    batch_window: float = 0.02
    queue_limit: int = 64
    workers: int = 2
    drain_timeout: float = 30.0
    retry_after: float = 1.0
    max_body_bytes: int = 1 << 20
    max_events: int = 2_000_000
    default_scale: str | None = None
    trace_buffer: int = 4096
    events_path: str | None = None
    store_url: str | None = None
    store_ttl: float = 30.0
    store_wait: float = 120.0
    store_poll: float = 0.05

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.trace_buffer < 0:
            raise ValueError("trace_buffer must be non-negative")
        if self.store_ttl <= 0:
            raise ValueError("store_ttl must be positive")
        if self.store_wait <= 0:
            raise ValueError("store_wait must be positive")
        if self.store_poll <= 0:
            raise ValueError("store_poll must be positive")

    def replace(self, **changes: Any) -> "ServeConfig":
        return replace(self, **changes)


def config_from_env() -> ServeConfig:
    """Build the default config from ``REPRO_SERVE_*`` variables."""

    def _int(name: str, default: int) -> int:
        raw = os.environ.get(name, "")
        return int(raw) if raw else default

    def _float(name: str, default: float) -> float:
        raw = os.environ.get(name, "")
        return float(raw) if raw else default

    return ServeConfig(
        host=os.environ.get("REPRO_SERVE_HOST") or "127.0.0.1",
        port=_int("REPRO_SERVE_PORT", 8337),
        batch_window=_float("REPRO_SERVE_BATCH_WINDOW", 0.02),
        queue_limit=_int("REPRO_SERVE_QUEUE_LIMIT", 64),
        workers=_int("REPRO_SERVE_WORKERS", 2),
        drain_timeout=_float("REPRO_SERVE_DRAIN_TIMEOUT", 30.0),
        retry_after=_float("REPRO_SERVE_RETRY_AFTER", 1.0),
        max_body_bytes=_int("REPRO_SERVE_MAX_BODY", 1 << 20),
        max_events=_int("REPRO_SERVE_MAX_EVENTS", 2_000_000),
        default_scale=os.environ.get("REPRO_SERVE_SCALE") or None,
        trace_buffer=_int("REPRO_SERVE_TRACE_BUFFER", 4096),
        events_path=os.environ.get("REPRO_SERVE_EVENTS") or None,
        store_url=os.environ.get("REPRO_SERVE_STORE") or None,
        store_ttl=_float("REPRO_SERVE_STORE_TTL", 30.0),
        store_wait=_float("REPRO_SERVE_STORE_WAIT", 120.0),
        store_poll=_float("REPRO_SERVE_STORE_POLL", 0.05),
    )
