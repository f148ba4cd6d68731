"""Request/response schema of the simulation service.

A simulate request is JSON:

.. code-block:: json

    {"app": "server_oltp_00", "design": "pdede-default",
     "scale": "tiny", "warmup": 0.3,
     "params": {"fetch_queue_entries": 96}}

``app`` names a suite member; alternatively ``spec`` carries a full
inline :class:`~repro.workloads.spec.WorkloadSpec` as a field dict
(ad-hoc workloads the suite does not know).  ``design`` must name an
entry of the design registry
(:func:`repro.experiments.designs.design_registry`); ``params`` carries
:class:`~repro.frontend.params.CoreParams` field overrides.

The 200 response body is *exactly* the canonical JSON serialisation of
``FrontendStats.to_dict()`` -- byte-identical to what a direct
:func:`repro.experiments.harness.run_design` caller would serialise --
with request metadata (cache outcome, batch size) in ``X-Repro-*``
headers, so clients can byte-compare payloads without re-encoding.
Errors are ``{"ok": false, "error": {"code", "message"}}``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.experiments import diskcache
from repro.frontend.params import ICELAKE, CoreParams
from repro.frontend.stats import FrontendStats
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import SCALES, current_scale, suite_spec

__all__ = [
    "RequestError",
    "SimJob",
    "canonical_json",
    "parse_request",
    "stats_payload",
]


class RequestError(ValueError):
    """A request the service refuses, with a machine-readable code.

    ``options`` (when set) enumerates the valid values for the field
    the request got wrong -- e.g. every design key in the live registry
    -- and is surfaced verbatim in the 400 body, so clients can recover
    without a round trip to the docs and new registry entries show up
    in rejections without any protocol change.
    """

    def __init__(
        self, code: str, message: str, options: list[str] | None = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.options = options


def canonical_json(payload: object) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def stats_payload(stats: FrontendStats) -> bytes:
    """The canonical response body for one simulation result."""
    return canonical_json(stats.to_dict())


@dataclass(frozen=True)
class SimJob:
    """One validated unit of serving work.

    Requests that parse to equal jobs are answered by a single
    simulation (single-flight); jobs sharing :attr:`group_key` share a
    micro-batch and therefore one trace decode.
    """

    trace_name: str
    scale: str
    design_key: str
    params: CoreParams
    warmup_fraction: float
    #: Inline workload (None: ``trace_name`` is a suite member).
    spec: WorkloadSpec | None = None
    #: ``diskcache.spec_digest`` of the inline spec ("" for suite jobs)
    #: -- part of the identity so same-named ad-hoc specs never alias.
    spec_digest: str = ""

    @property
    def group_key(self) -> tuple[str, str]:
        """Jobs with one group key share a trace (and a micro-batch)."""
        return (self.spec_digest or self.trace_name, self.scale)


_SPEC_FIELDS = {field.name: field for field in dataclasses.fields(WorkloadSpec)}
_PARAM_FIELDS = {field.name for field in dataclasses.fields(CoreParams)}


def _parse_params(raw: object) -> CoreParams:
    if raw is None:
        return ICELAKE
    if not isinstance(raw, dict):
        raise RequestError("bad-field", "params must be an object of CoreParams fields")
    unknown = sorted(set(raw) - _PARAM_FIELDS)
    if unknown:
        raise RequestError(
            "bad-field",
            f"unknown CoreParams field(s) {unknown}; known: {sorted(_PARAM_FIELDS)}",
        )
    for name, value in raw.items():
        if not isinstance(value, (int, float)):
            raise RequestError("bad-field", f"params.{name} must be a number")
    try:
        return dataclasses.replace(ICELAKE, **raw)
    except (ValueError, TypeError) as error:
        raise RequestError("bad-field", f"invalid params: {error}") from None


def _parse_spec(raw: object, max_events: int) -> WorkloadSpec:
    if not isinstance(raw, dict):
        raise RequestError("bad-field", "spec must be an object of WorkloadSpec fields")
    unknown = sorted(set(raw) - set(_SPEC_FIELDS))
    if unknown:
        raise RequestError(
            "bad-field",
            f"unknown WorkloadSpec field(s) {unknown}; known: {sorted(_SPEC_FIELDS)}",
        )
    for required in ("name", "category", "seed"):
        if required not in raw:
            raise RequestError("bad-field", f"spec.{required} is required")
    try:
        spec = WorkloadSpec(**raw)
    except (ValueError, TypeError) as error:
        raise RequestError("bad-field", f"invalid spec: {error}") from None
    if not isinstance(spec.name, str) or not spec.name:
        raise RequestError("bad-field", "spec.name must be a non-empty string")
    if spec.n_events < 1 or spec.n_events > max_events:
        raise RequestError(
            "bad-field",
            f"spec.n_events must be in [1, {max_events}], got {spec.n_events}",
        )
    return spec


def parse_request(
    payload: object,
    design_keys: frozenset[str] | set[str],
    default_scale: str | None = None,
    max_events: int = 2_000_000,
) -> SimJob:
    """Validate one simulate-request payload into a :class:`SimJob`.

    Raises :class:`RequestError` (mapped to a structured 400) on any
    malformed or unknown field.
    """
    if not isinstance(payload, dict):
        raise RequestError("bad-request", "request body must be a JSON object")
    design_key = payload.get("design")
    if not isinstance(design_key, str) or not design_key:
        raise RequestError("missing-design", "design is required and must be a string")
    if design_key not in design_keys:
        raise RequestError(
            "unknown-design",
            f"unknown design {design_key!r}; options: {sorted(design_keys)}",
            options=sorted(design_keys),
        )
    scale = payload.get("scale", default_scale)
    if scale is None:
        scale = current_scale()
    if scale not in SCALES:
        raise RequestError(
            "unknown-scale",
            f"scale must be one of {sorted(SCALES)}, got {scale!r}",
            options=sorted(SCALES),
        )
    warmup = payload.get("warmup", 0.3)
    if not isinstance(warmup, (int, float)) or isinstance(warmup, bool):
        raise RequestError("bad-warmup", "warmup must be a number")
    warmup = float(warmup)
    if not 0.0 <= warmup < 1.0:
        raise RequestError("bad-warmup", f"warmup must be in [0, 1), got {warmup}")
    params = _parse_params(payload.get("params"))
    app = payload.get("app")
    spec_raw = payload.get("spec")
    if app is not None and spec_raw is not None:
        raise RequestError(
            "ambiguous-workload", "app and spec are mutually exclusive"
        )
    if app is None and spec_raw is None:
        raise RequestError(
            "missing-workload", "exactly one of app / spec is required"
        )
    known = {"design", "scale", "warmup", "params", "app", "spec"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestError(
            "unknown-field", f"unknown field(s) {unknown}; known: {sorted(known)}"
        )
    if app is not None:
        if not isinstance(app, str):
            raise RequestError("bad-field", "app must be a string")
        if suite_spec(app, scale) is None:
            raise RequestError(
                "unknown-app", f"no workload named {app!r} at scale {scale!r}"
            )
        return SimJob(
            trace_name=app,
            scale=scale,
            design_key=design_key,
            params=params,
            warmup_fraction=warmup,
        )
    spec = _parse_spec(spec_raw, max_events)
    return SimJob(
        trace_name=spec.name,
        scale=scale,
        design_key=design_key,
        params=params,
        warmup_fraction=warmup,
        spec=spec,
        spec_digest=diskcache.spec_digest(spec),
    )
