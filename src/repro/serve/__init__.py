"""Async simulation service: the front door of the reproduction stack.

``python -m repro serve`` boots an asyncio HTTP/JSON service (stdlib
only) that validates simulation requests against the design registry,
answers from the harness memo / disk cache / shared store when warm,
and micro-batches cold requests that share a trace so a worker thread
decodes it once and simulates each design through the harness.  ``python -m repro submit`` and
:mod:`repro.serve.client` are the matching blocking clients.

See README "Serving the simulator" and DESIGN.md §10.
"""

from repro.serve.config import ServeConfig, config_from_env
from repro.serve.protocol import (
    RequestError,
    SimJob,
    canonical_json,
    parse_request,
    stats_payload,
)
from repro.serve.service import (
    BatchOutcome,
    ServiceHandle,
    SimulationService,
    default_batch_runner,
    serve_in_thread,
)
from repro.serve.client import ServeClient, ServiceError, SimulateResponse

__all__ = [
    "BatchOutcome",
    "RequestError",
    "ServeClient",
    "ServeConfig",
    "ServiceError",
    "ServiceHandle",
    "SimJob",
    "SimulateResponse",
    "SimulationService",
    "canonical_json",
    "config_from_env",
    "default_batch_runner",
    "parse_request",
    "serve_in_thread",
    "stats_payload",
]
