"""End-to-end tests for the simulation service (``repro.serve``).

Every test boots a real service on an ephemeral port (its own event
loop on a daemon thread) and talks to it over real sockets with the
blocking client -- nothing is mocked below the batch runner, and the
backpressure/drain tests inject slow runners exactly the way the
scheduler's fault-injection tests do.

The two invariants the issue pins:

* responses are **byte-identical** to a direct
  :func:`repro.experiments.harness.run_design` caller serialising
  ``to_dict()`` canonically -- the service adds zero numeric drift;
* concurrent requests sharing a trace are **micro-batched**: the
  decoded trace columns are computed once per batch, and a warm-cache
  storm completes with zero fresh simulations.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import design_registry, harness, scheduler
from repro.frontend.stats import FrontendStats
from repro.serve import (
    BatchOutcome,
    ServeClient,
    ServeConfig,
    ServiceError,
    serve_in_thread,
)
from repro.serve.protocol import stats_payload
from repro.workloads import suite

APP = "server_oltp_00"
SCALE = "tiny"
DESIGNS = ["baseline", "pdede-default", "pdede-multi-entry", "dedup-only"]


@pytest.fixture(autouse=True)
def _cold_process_state():
    """Start every test from a cold process: empty harness memo, no
    generated traces, no serve-local caches, zeroed scheduler session
    counters (several tests assert exact counter values)."""
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


def _expected_payloads(pairs) -> dict[tuple[str, str], bytes]:
    """What a direct harness caller would serialise, per (app, design)."""
    registry = design_registry()
    return {
        (app, design): stats_payload(
            harness.run_design(app, registry[design], scale=SCALE)
        )
        for app, design in pairs
    }


# -- byte identity + concurrency ---------------------------------------------


def test_concurrent_responses_byte_identical_to_direct_run():
    pairs = [(APP, design) for design in DESIGNS]
    expected = _expected_payloads(pairs)
    # Forget everything so the service simulates fresh through the
    # scheduler bridge (comparing a memo hit with itself proves nothing).
    harness.clear_cache()
    suite._cached_trace.cache_clear()

    handle = serve_in_thread(_config())
    try:
        client = ServeClient(port=handle.port)
        requests = pairs * 3  # duplicates exercise single-flight dedup
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(
                pool.map(lambda p: client.simulate(design=p[1], app=p[0]), requests)
            )
        for (app, design), response in zip(requests, responses):
            assert response.body == expected[(app, design)], (app, design)
            assert response.outcome in ("fresh", "memo", "disk")
        # Every design simulated exactly once despite three requests each.
        assert handle.service.counters["fresh_jobs"] == len(DESIGNS)
        assert handle.service.counters["ok"] == len(requests)
    finally:
        handle.shutdown()
    assert not handle.thread.is_alive()


def test_batch_shares_one_decode_across_cold_requests():
    handle = serve_in_thread(_config(batch_window=0.25))
    try:
        client = ServeClient(port=handle.port)
        requests = [(APP, design) for design in DESIGNS] * 2
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(
                pool.map(lambda p: client.simulate(design=p[1], app=p[0]), requests)
            )
        # All eight arrived inside one window for the same trace: one
        # batch, one decode of the shared trace, four unique simulations.
        counters = handle.service.counters
        assert counters["batches"] == 1
        assert counters["max_batch_size"] == len(requests)
        assert counters["trace_decodes"] == 1
        assert counters["fresh_jobs"] == len(DESIGNS)
        for response in responses:
            assert response.batch_size == len(requests)
        trace = suite.get_trace(APP, SCALE)
        assert trace.is_decoded
    finally:
        handle.shutdown()


def test_serve_ignores_sched_env_byte_identical(monkeypatch):
    """Cold suite batches always simulate in-process through the
    harness: REPRO_SCHED_* configures batch sweeps, not serve, so the
    bytes match a direct harness caller with or without it and the
    sweep scheduler never sees a task."""
    pairs = [(APP, design) for design in DESIGNS]
    expected = _expected_payloads(pairs)

    def _collect() -> list[bytes]:
        harness.clear_cache()
        suite._cached_trace.cache_clear()
        handle = serve_in_thread(_config(batch_window=0.2))
        try:
            client = ServeClient(port=handle.port)
            with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
                responses = list(
                    pool.map(lambda p: client.simulate(design=p[1], app=p[0]), pairs)
                )
            assert handle.service.counters["fresh_jobs"] == len(DESIGNS)
            return [response.body for response in responses]
        finally:
            handle.shutdown()

    plain_bodies = _collect()
    monkeypatch.setenv("REPRO_SCHED_WORKERS", "2")
    sched_bodies = _collect()
    for (app, design), plain, sched in zip(pairs, plain_bodies, sched_bodies):
        assert plain == sched == expected[(app, design)], (app, design)
    assert scheduler.session_counters() == {}


# -- backpressure ------------------------------------------------------------


def _blocking_runner(release: threading.Event):
    """A runner that parks until released, then answers with stub stats
    (the backpressure/drain tests care about control flow, not numbers)."""

    def run(jobs) -> BatchOutcome:
        release.wait(timeout=30)
        return BatchOutcome(
            results={job: (FrontendStats(instructions=1), "fresh") for job in jobs}
        )

    return run


def test_queue_overflow_returns_structured_429():
    release = threading.Event()
    handle = serve_in_thread(
        _config(queue_limit=2, workers=1, batch_window=0.01, retry_after=3.0),
        runner=_blocking_runner(release),
    )
    try:
        client = ServeClient(port=handle.port)
        with ThreadPoolExecutor(max_workers=2) as pool:
            admitted = [
                pool.submit(client.simulate, design=design, app=APP)
                for design in DESIGNS[:2]
            ]
            deadline = time.monotonic() + 5
            while client.health()["inflight"] < 2:
                assert time.monotonic() < deadline, "requests never admitted"
                time.sleep(0.01)
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(design=DESIGNS[2], app=APP)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue-full"
            assert excinfo.value.retry_after == 3.0
            release.set()
            for future in admitted:
                assert future.result(timeout=10).result["instructions"] == 1
        assert handle.service.counters["rejected"] == 1
        assert handle.service.counters["ok"] == 2
    finally:
        release.set()
        handle.shutdown()


# -- malformed requests ------------------------------------------------------


def _post_raw(port: int, body: bytes, path: str = "/v1/simulate"):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_malformed_requests_get_structured_400s():
    handle = serve_in_thread(_config())
    try:
        port = handle.port
        cases = [
            (b"{not json", "bad-json"),
            (b"[1, 2, 3]", "bad-request"),
            (b'{"app": "server_oltp_00"}', "missing-design"),
            (b'{"design": "no-such-design", "app": "server_oltp_00"}',
             "unknown-design"),
            (b'{"design": "baseline", "app": "no_such_app"}', "unknown-app"),
            (b'{"design": "baseline"}', "missing-workload"),
            (b'{"design": "baseline", "app": "server_oltp_00", '
             b'"spec": {"name": "x", "category": "Server", "seed": 1}}',
             "ambiguous-workload"),
            (b'{"design": "baseline", "app": "server_oltp_00", "warmup": 1.5}',
             "bad-warmup"),
            (b'{"design": "baseline", "app": "server_oltp_00", '
             b'"scale": "galactic"}', "unknown-scale"),
            (b'{"design": "baseline", "app": "server_oltp_00", '
             b'"params": {"no_such_knob": 1}}', "bad-field"),
            (b'{"design": "baseline", "app": "server_oltp_00", "bogus": 1}',
             "unknown-field"),
        ]
        for body, expected_code in cases:
            status, payload = _post_raw(port, body)
            assert status == 400, (body, payload)
            assert payload["error"]["code"] == expected_code, (body, payload)
        # Wrong method and unknown route are structured too.
        client = ServeClient(port=port)
        with pytest.raises(ServiceError) as excinfo:
            client._get_json("/v1/simulate")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client._get_json("/v1/nope")
        assert excinfo.value.status == 404
        assert handle.service.counters["bad_requests"] == len(cases)
        assert handle.service.counters["ok"] == 0
    finally:
        handle.shutdown()


def test_unknown_design_400_enumerates_the_live_registry():
    """The rejection must list every key of the *live* design registry
    (including families registered after the protocol was written), so
    clients can self-correct without a docs round trip."""
    handle = serve_in_thread(_config())
    try:
        port = handle.port
        status, payload = _post_raw(
            port, b'{"design": "no-such-design", "app": "server_oltp_00"}'
        )
        assert status == 400
        error = payload["error"]
        assert error["code"] == "unknown-design"
        assert error["options"] == sorted(design_registry())
        for family in ("micro-btb", "shadow-baseline", "shadow-pdede",
                       "pdede-default"):
            assert family in error["options"]
        # The blocking client surfaces the same enumeration.
        client = ServeClient(port=port)
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(design="no-such-design", app=APP)
        assert excinfo.value.code == "unknown-design"
        assert excinfo.value.options == sorted(design_registry())
        # unknown-scale enumerates too; other 400s carry no options key.
        status, payload = _post_raw(
            port,
            b'{"design": "baseline", "app": "server_oltp_00", '
            b'"scale": "galactic"}',
        )
        assert status == 400
        assert payload["error"]["options"] == sorted(suite.SCALES)
        status, payload = _post_raw(port, b'{"app": "server_oltp_00"}')
        assert status == 400
        assert "options" not in payload["error"]
    finally:
        handle.shutdown()


# -- graceful shutdown -------------------------------------------------------


def test_graceful_shutdown_drains_inflight_requests():
    release = threading.Event()
    handle = serve_in_thread(
        _config(workers=1, batch_window=0.01),
        runner=_blocking_runner(release),
    )
    try:
        client = ServeClient(port=handle.port)
        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(client.simulate, design="baseline", app=APP)
            deadline = time.monotonic() + 5
            while client.health()["inflight"] < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            # A keep-alive connection opened before the drain begins...
            held = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
            held.request("GET", "/healthz")
            assert json.loads(held.getresponse().read())["status"] == "ok"

            handle.service.request_shutdown()
            deadline = time.monotonic() + 5
            while not handle.service.draining:
                assert time.monotonic() < deadline, "drain never started"
                time.sleep(0.01)
            # ...still gets answered, but new work is refused (503).
            held.request("POST", "/v1/simulate",
                         body=b'{"design": "baseline", "app": "server_oltp_00"}',
                         headers={"Content-Type": "application/json"})
            response = held.getresponse()
            payload = json.loads(response.read())
            assert response.status == 503
            assert payload["error"]["code"] == "draining"
            held.close()

            # The in-flight request is not lost: it completes the drain.
            release.set()
            result = inflight.result(timeout=10)
            assert result.result["instructions"] == 1
        handle.thread.join(timeout=10)
        assert not handle.thread.is_alive()
        assert handle.service.counters["ok"] == 1
        assert handle.service.counters["draining_rejected"] == 1
    finally:
        release.set()
        handle.shutdown()


# -- memo hits answered at admission -----------------------------------------


def _wait_inflight(client: ServeClient, count: int) -> None:
    deadline = time.monotonic() + 5
    while client.health()["inflight"] < count:
        assert time.monotonic() < deadline, "requests never admitted"
        time.sleep(0.01)


def test_memo_hit_answers_while_every_worker_is_blocked():
    """A memoised pair is answered on the event loop: no batch window,
    no worker thread, so a pool stuck on a cold batch cannot delay it."""
    expected = _expected_payloads([(APP, "pdede-default")])[(APP, "pdede-default")]
    release = threading.Event()
    handle = serve_in_thread(
        _config(workers=1, batch_window=0.01), runner=_blocking_runner(release)
    )
    try:
        client = ServeClient(port=handle.port)
        with ThreadPoolExecutor(max_workers=2) as pool:
            cold = pool.submit(client.simulate, design="baseline", app=APP)
            _wait_inflight(client, 1)
            warm = pool.submit(client.simulate, design="pdede-default", app=APP)
            response = warm.result(timeout=10)
            assert not cold.done(), "the cold batch was released early"
            assert response.outcome == "memo"
            assert response.body == expected
            assert response.batch_size == 1
            assert response.timing["batch_wait"] == 0.0
            assert response.timing["queue"] == 0.0
            release.set()
            assert cold.result(timeout=10).outcome == "fresh"
        counters = handle.service.counters
        assert counters["outcomes"]["memo"] == 1
        # Only the cold request formed a batch.
        assert counters["batches"] == counters["batched_requests"] == 1
    finally:
        release.set()
        handle.shutdown()


def test_memo_hits_still_get_429_and_503():
    harness.run_design(APP, design_registry()["pdede-default"], scale=SCALE)
    release = threading.Event()
    handle = serve_in_thread(
        _config(queue_limit=1, workers=1, batch_window=0.01, retry_after=2.0),
        runner=_blocking_runner(release),
    )
    try:
        client = ServeClient(port=handle.port)
        with ThreadPoolExecutor(max_workers=1) as pool:
            cold = pool.submit(client.simulate, design="baseline", app=APP)
            _wait_inflight(client, 1)
            # Admission control runs before the memo peek.
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(design="pdede-default", app=APP)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue-full"

            held = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
            held.request("GET", "/healthz")
            held.getresponse().read()
            handle.service.request_shutdown()
            deadline = time.monotonic() + 5
            while not handle.service.draining:
                assert time.monotonic() < deadline, "drain never started"
                time.sleep(0.01)
            held.request("POST", "/v1/simulate",
                         body=b'{"design": "pdede-default", "app": "server_oltp_00"}',
                         headers={"Content-Type": "application/json"})
            response = held.getresponse()
            payload = json.loads(response.read())
            assert response.status == 503
            assert payload["error"]["code"] == "draining"
            held.close()
            release.set()
            cold.result(timeout=10)
        counters = handle.service.counters
        assert counters["rejected"] == 1
        assert counters["draining_rejected"] == 1
        assert counters["outcomes"]["memo"] == 0
    finally:
        release.set()
        handle.shutdown()


# -- warm-cache storm (the issue's acceptance scenario) ----------------------


def test_warm_storm_zero_fresh_simulations(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "serve-cache"))

    # Populate the disk cache the way an earlier service process would
    # have, and record the exact bytes each request must receive.
    pairs = [(APP, design) for design in DESIGNS]
    expected = _expected_payloads(pairs)

    # "Restart" the service: forget every in-process cache, keep disk.
    harness.clear_cache()
    suite._cached_trace.cache_clear()
    suite.spec_trace.cache_clear()
    scheduler.reset_session_counters()

    handle = serve_in_thread(_config(queue_limit=64))
    try:
        client = ServeClient(port=handle.port)
        requests = pairs * 8  # 32 concurrent requests
        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(
                pool.map(lambda p: client.simulate(design=p[1], app=p[0]), requests)
            )
        assert len(responses) == 32
        for (app, design), response in zip(requests, responses):
            assert response.body == expected[(app, design)], (app, design)
            assert response.outcome in ("disk", "memo")
        counters = handle.service.counters
        assert counters["ok"] == 32
        assert counters["fresh_jobs"] == 0
        assert counters["outcomes"]["fresh"] == 0
        assert counters["outcomes"]["disk"] + counters["outcomes"]["memo"] == 32
        # Zero fresh simulations: the scheduler never saw a task, and no
        # trace was decoded (warm answers never touch the trace at all).
        assert sum(scheduler.session_counters().values()) == 0
        assert counters["trace_decodes"] == 0
        stats = client.stats()
        assert stats["service"]["fresh_jobs"] == 0
        assert stats["scheduler"] == {}
    finally:
        handle.shutdown()


# -- inline (ad-hoc) workload specs ------------------------------------------


def test_inline_spec_requests_are_served_and_cached():
    from repro.workloads.spec import WorkloadSpec

    spec = WorkloadSpec(name="adhoc_probe", category="Server", seed=99,
                        n_events=2000)
    handle = serve_in_thread(_config(max_events=10_000))
    try:
        client = ServeClient(port=handle.port)
        first = client.simulate(design="baseline", spec=spec)
        assert first.outcome == "fresh"
        assert first.result["instructions"] > 0
        again = client.simulate(design="baseline", spec=spec)
        assert again.outcome == "memo"
        assert again.body == first.body
        # Same name, different seed: the spec digest keeps them apart.
        other = client.simulate(
            design="baseline",
            spec=WorkloadSpec(name="adhoc_probe", category="Server", seed=100,
                              n_events=2000),
        )
        assert other.outcome == "fresh"
        assert other.body != first.body
        # Admission control also bounds the work one spec may request.
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(
                design="baseline",
                spec=WorkloadSpec(name="huge", category="Server", seed=1,
                                  n_events=1_000_000),
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-field"
    finally:
        handle.shutdown()


def test_inline_spec_obeys_result_cache_off(monkeypatch):
    """REPRO_RESULT_CACHE=0 disables the memo for inline specs exactly
    as for suite apps: a repeated request simulates again."""
    from repro.workloads.spec import WorkloadSpec

    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    spec = WorkloadSpec(name="adhoc_nocache", category="Server", seed=7,
                        n_events=2000)
    handle = serve_in_thread(_config(max_events=10_000))
    try:
        client = ServeClient(port=handle.port)
        first = client.simulate(design="baseline", spec=spec)
        again = client.simulate(design="baseline", spec=spec)
        assert first.outcome == again.outcome == "fresh"
        assert again.body == first.body
        assert handle.service.counters["fresh_jobs"] == 2
    finally:
        handle.shutdown()


# -- observability -----------------------------------------------------------


def test_service_publishes_metrics():
    from repro.obs.metrics import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config())
        try:
            client = ServeClient(port=handle.port)
            client.simulate(design="baseline", app=APP)
            client.simulate(design="baseline", app=APP)
            snapshot = client.metrics()
        finally:
            handle.shutdown()
    assert registry.get("serve_requests_total").value(outcome="ok") == 2
    assert registry.get("serve_request_seconds").count(design="baseline") == 2
    assert registry.get("serve_cache_outcome_total").value(outcome="fresh") == 1
    assert registry.get("serve_cache_outcome_total").value(outcome="memo") == 1
    assert registry.get("serve_trace_decodes_total").total() == 1
    assert registry.get("serve_queue_depth").value() == 0
    # /metrics serves the very same snapshot.
    assert "serve_requests_total" in snapshot


def test_replicas_drained_out_of_order_leave_the_null_log_active():
    """Each service installs its event log while it serves.  Draining
    replica A before replica B must not leave A's closed log installed
    process-wide."""
    from repro.obs.events import NullEventLog, events_enabled, get_event_log

    assert not events_enabled()
    first = serve_in_thread(_config())
    second = serve_in_thread(_config())
    first.shutdown()
    assert get_event_log() is second.service.events
    second.shutdown()
    assert not events_enabled()
    assert isinstance(get_event_log(), NullEventLog)
