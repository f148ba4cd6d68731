"""End-to-end tests for serve request tracing and telemetry.

The acceptance criterion this file pins: one request's **full hop
sequence** -- admission, batch formation, batch execution (the run),
cache classification, response -- must be reconstructible from the
structured event log by correlation id alone, over the public
``/debug/trace`` endpoint of a real booted service.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.experiments import harness, scheduler
from repro.obs.aggregate import aggregate, read_events, reconstruct
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServiceError,
    serve_in_thread,
)
from repro.workloads import suite

APP = "server_oltp_00"
DESIGN = "pdede-default"
SCALE = "tiny"

#: The hop trail every successful request must leave, in order.
HOP_SEQUENCE = ("admit", "batch-join", "batch-execute", "cache", "respond")


@pytest.fixture(autouse=True)
def _cold_process_state():
    harness.clear_cache()
    suite._cached_trace.cache_clear()
    suite.spec_trace.cache_clear()
    scheduler.reset_session_counters()
    yield
    harness.clear_cache()
    suite._cached_trace.cache_clear()
    suite.spec_trace.cache_clear()
    scheduler.reset_session_counters()


def _config(**overrides) -> ServeConfig:
    base = dict(port=0, batch_window=0.05, queue_limit=64, workers=2,
                drain_timeout=10.0, default_scale=SCALE)
    base.update(overrides)
    return ServeConfig(**base)


def _hop_order(records: list[dict]) -> list[str]:
    """The subsequence of HOP_SEQUENCE events, in emission order."""
    return [r["event"] for r in records if r["event"] in HOP_SEQUENCE]


# -- the acceptance test ------------------------------------------------------


def test_cold_request_full_hop_sequence_by_correlation_id():
    handle = serve_in_thread(_config())
    try:
        client = ServeClient(port=handle.port)
        response = client.simulate(design=DESIGN, app=APP)
        rid = response.request_id
        assert rid, "response must carry X-Repro-Request-Id"
        assert response.outcome == "fresh"

        trace = client.debug_trace(rid=rid)
        records = trace["records"]
        # The five service hops arrive in causal order.
        assert _hop_order(records) == list(HOP_SEQUENCE)
        # reconstruct() over the same records agrees with the server's
        # rid filter (they share the matching rule).
        assert reconstruct(trace["records"], rid) == records

        by_event = {r["event"]: r for r in records}
        admit = by_event["admit"]
        assert admit["rid"] == rid
        assert admit["bytes"] > 0
        join = by_event["batch-join"]
        assert join["design"] == DESIGN
        assert join["batch"].startswith("b")
        execute = by_event["batch-execute"]
        # The run hop is emitted from the worker thread with every rid
        # in the batch bound -- this request's id must be among them.
        assert rid in execute["rids"]
        assert execute["batch"] == join["batch"]
        cache = by_event["cache"]
        assert cache["outcome"] == "fresh"
        respond = by_event["respond"]
        assert respond["status"] == 200
        assert respond["outcome"] == "fresh"
        # The hop decomposition on the respond event adds up sensibly.
        assert respond["seconds"] >= respond["simulate_s"] >= 0.0
        assert respond["batch_wait_s"] >= 0.0
        assert respond["queue_s"] >= 0.0

        # Deep layers (harness/disk-cache/scheduler) emitted under the
        # bound rids: a cold request must show its cache miss.
        deep = [r for r in trace["records"] if r["event"] == "cache-lookup"]
        assert deep and deep[0]["hit"] is False
        # The fresh simulation's span is tagged with the request too.
        (simulate,) = [
            r for r in records if r["event"] == "span" and r["name"] == "simulate"
        ]
        assert simulate["rid"] == rid
        assert simulate["design"] == DESIGN
        assert simulate["engine"] in ("vector", "general")
    finally:
        handle.shutdown()


def test_warm_request_traces_memo_outcome():
    handle = serve_in_thread(_config())
    try:
        client = ServeClient(port=handle.port)
        cold = client.simulate(design=DESIGN, app=APP)
        warm = client.simulate(design=DESIGN, app=APP)
        assert warm.outcome == "memo"
        assert warm.request_id != cold.request_id
        records = client.debug_trace(rid=warm.request_id)["records"]
        assert _hop_order(records) == list(HOP_SEQUENCE)
        by_event = {r["event"]: r for r in records}
        assert by_event["cache"]["outcome"] == "memo"
        # A memo hit barely simulates: the hop decomposition shows it.
        assert by_event["respond"]["simulate_s"] < by_event["respond"]["seconds"]
    finally:
        handle.shutdown()


# -- timing headers -----------------------------------------------------------


def test_response_carries_timing_headers():
    handle = serve_in_thread(_config())
    try:
        client = ServeClient(port=handle.port)
        response = client.simulate(design=DESIGN, app=APP)
        assert set(response.timing) == {"batch_wait", "queue", "simulate"}
        assert all(value >= 0.0 for value in response.timing.values())
        # The same decomposition the respond event records.
        records = client.debug_trace(rid=response.request_id)["records"]
        respond = next(r for r in records if r["event"] == "respond")
        assert respond["batch_wait_s"] == pytest.approx(
            response.timing["batch_wait"], abs=1e-6)
        assert respond["simulate_s"] == pytest.approx(
            response.timing["simulate"], abs=1e-6)
    finally:
        handle.shutdown()


def test_submit_cli_timing_flag_prints_breakdown(capsys):
    from repro.cli import main

    handle = serve_in_thread(_config())
    try:
        code = main(["--scale", SCALE, "submit", APP, DESIGN,
                     "--port", str(handle.port), "--timing"])
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout still carries the exact payload
        assert "submit: timing rid=r" in captured.err
        for hop in ("batch_wait=", "queue=", "simulate=", "server-total="):
            assert hop in captured.err
    finally:
        handle.shutdown()


# -- /debug/trace endpoint ----------------------------------------------------


def test_debug_trace_filters_and_drain_state():
    handle = serve_in_thread(_config(trace_buffer=128))
    try:
        client = ServeClient(port=handle.port)
        for _ in range(3):
            client.simulate(design=DESIGN, app=APP)
        trace = client.debug_trace()
        assert trace["drain"]["enabled"] is True
        assert trace["drain"]["capacity"] == 128
        assert trace["drain"]["emitted"] >= len(trace["records"])
        responds = client.debug_trace(event="respond")["records"]
        assert len(responds) == 3
        assert all(r["event"] == "respond" for r in responds)
        limited = client.debug_trace(event="respond", limit=2)["records"]
        assert limited == responds[-2:]
        assert client.debug_trace(limit=0)["records"] == []
        # Health reports the same drain state under "events".
        health = client.health()
        assert health["status"] in ("ok", "draining")
        assert health["events"]["enabled"] is True
        assert health["events"]["capacity"] == 128
    finally:
        handle.shutdown()


def test_debug_trace_rejects_bad_limit():
    handle = serve_in_thread(_config())
    try:
        for limit in ("banana", "-1"):
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            connection.request("GET", f"/debug/trace?limit={limit}")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400, limit
            assert payload["error"]["code"] == "bad-limit"
            connection.close()
    finally:
        handle.shutdown()


def test_trace_buffer_zero_disables_tracing():
    handle = serve_in_thread(_config(trace_buffer=0))
    try:
        client = ServeClient(port=handle.port)
        response = client.simulate(design=DESIGN, app=APP)
        assert response.request_id  # ids still flow even with no ring
        trace = client.debug_trace()
        assert trace["drain"]["enabled"] is False
        assert trace["records"] == []
        assert client.health()["events"]["enabled"] is False
    finally:
        handle.shutdown()


# -- event sink + aggregation -------------------------------------------------


def test_events_sink_file_reconstructs_after_shutdown(tmp_path):
    sink = tmp_path / "serve-events.jsonl"
    handle = serve_in_thread(_config(events_path=str(sink)))
    try:
        client = ServeClient(port=handle.port)
        response = client.simulate(design=DESIGN, app=APP)
        rid = response.request_id
    finally:
        handle.shutdown()
    # The sink survives the service: offline reconstruction still works.
    records = read_events(str(sink))
    assert _hop_order(reconstruct(records, rid)) == list(HOP_SEQUENCE)
    summary = aggregate(records)
    assert summary["requests"] == 1
    assert summary["errors"] == 0
    assert summary["by_outcome"]["fresh"]["count"] == 1
    assert summary["by_outcome"]["fresh"]["mean_simulate_s"] > 0.0


def test_rejections_emit_respond_events():
    handle = serve_in_thread(_config())
    try:
        client = ServeClient(port=handle.port)
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(design="no-such-design", app=APP)
        assert excinfo.value.status == 400
        records = client.debug_trace(event="respond")["records"]
        assert len(records) == 1
        assert records[0]["status"] == 400
        assert records[0]["outcome"] == "unknown-design"
        # The aggregate counts it as a request but not a 5xx error.
        summary = aggregate(client.debug_trace()["records"])
        assert summary["requests"] == 1
        assert summary["errors"] == 0
    finally:
        handle.shutdown()


# -- /metrics content negotiation ---------------------------------------------


def test_metrics_prometheus_text_on_accept_header():
    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config())
        try:
            client = ServeClient(port=handle.port)
            client.simulate(design=DESIGN, app=APP)
            # Default stays the JSON snapshot (same shape as the
            # registry's to_dict), byte-path untouched.
            snapshot = client.metrics()
            assert "serve_request_seconds" in snapshot
            # Accept: text/plain switches to Prometheus exposition.
            text = client.metrics_text()
            assert "# TYPE serve_request_seconds histogram" in text
            assert 'serve_request_seconds_bucket' in text
            assert 'le="+Inf"' in text
            assert "serve_request_seconds_count" in text
        finally:
            handle.shutdown()


def test_metrics_percentiles_in_json_snapshot():
    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config())
        try:
            client = ServeClient(port=handle.port)
            client.simulate(design=DESIGN, app=APP)
        finally:
            handle.shutdown()
    (series,) = registry.get("serve_request_seconds").to_dict()["series"]
    assert {"p50", "p95", "p99"} <= set(series)
    assert series["p99"] >= series["p50"] > 0.0
