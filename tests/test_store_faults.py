"""Fault injection against the shared-store serving path.

One real service instance over a :class:`FakeStore` with its fault
schedules armed: transient errors (first-N-fail), latency spikes, and a
full partition that later heals.  The invariants under every fault:

* **no wrong answers** -- responses stay byte-identical to a direct
  harness run (degradation swaps the *source* of a result, never the
  result);
* **no lost requests** -- every request is answered 200, none hang
  (the tests' own timeouts are the deadlock canary);
* **visible degradation** -- ``serve_store_errors_total`` moves and
  ``store_degraded`` events land in the service's request-event ring.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import design_registry, harness, scheduler
from repro.experiments.resultstore import FakeStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.serve.protocol import stats_payload
from repro.workloads import suite

APP = "server_oltp_00"
SCALE = "tiny"
DESIGNS = ["baseline", "pdede-default", "pdede-multi-entry", "dedup-only"]


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


def _expected_payloads():
    registry = design_registry()
    return {
        design: stats_payload(harness.run_design(APP, registry[design], scale=SCALE))
        for design in DESIGNS
    }


def test_transient_store_errors_degrade_then_recover():
    expected = _expected_payloads()
    harness.clear_cache()
    suite._cached_trace.cache_clear()

    store = FakeStore(name="flaky")
    store.fail_next(3)  # the first three protocol calls fail, then fine
    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config(), store=store)
        try:
            client = ServeClient(port=handle.port)
            first = client.simulate(design=DESIGNS[0], app=APP)
            # Answered correctly despite the errors; the compute was
            # local (either outcome depending on which calls the budget
            # burned), and the degradation was counted.
            assert first.body == expected[DESIGNS[0]]
            assert first.outcome in ("local", "fresh")
            assert registry.get("serve_store_errors_total").total() >= 1
            assert handle.service.events.recent(event="store_degraded")

            # Budget spent: the very next cold design coordinates
            # through the store again and publishes.
            second = client.simulate(design=DESIGNS[1], app=APP)
            assert second.body == expected[DESIGNS[1]]
            assert second.outcome == "fresh"
            assert store.describe()["results"] >= 1
            assert handle.service.counters["ok"] == 2
        finally:
            handle.shutdown()


def test_latency_spikes_slow_but_never_break():
    expected = _expected_payloads()
    harness.clear_cache()
    suite._cached_trace.cache_clear()

    store = FakeStore(name="slow")
    store.add_latency(0.1, count=8)  # 100ms on each of the next 8 calls
    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config(), store=store)
        try:
            client = ServeClient(port=handle.port)
            with ThreadPoolExecutor(max_workers=len(DESIGNS)) as pool:
                responses = list(
                    pool.map(
                        lambda d: client.simulate(design=d, app=APP), DESIGNS
                    )
                )
            for design, response in zip(DESIGNS, responses):
                assert response.body == expected[design]
                assert response.outcome == "fresh"
            # Slowness is not failure: zero degradations, all published.
            assert registry.get("serve_store_errors_total") is None
            assert not handle.service.events.recent(event="store_degraded")
            assert store.describe()["results"] == len(DESIGNS)
            assert handle.service.counters["outcomes"]["local"] == 0
        finally:
            handle.shutdown()


def test_partition_then_heal_round_trips_through_degraded():
    expected = _expected_payloads()
    harness.clear_cache()
    suite._cached_trace.cache_clear()

    store = FakeStore(name="split")
    registry = MetricsRegistry()
    with use_registry(registry):
        handle = serve_in_thread(_config(), store=store)
        try:
            client = ServeClient(port=handle.port)
            store.partition()
            # A concurrent storm against a dead backend: everything is
            # answered locally, correctly, without a single store write.
            storm = DESIGNS * 2
            with ThreadPoolExecutor(max_workers=len(storm)) as pool:
                responses = list(
                    pool.map(lambda d: client.simulate(design=d, app=APP), storm)
                )
            for design, response in zip(storm, responses):
                assert response.body == expected[design]
                assert response.outcome in ("local", "memo")
            counters = handle.service.counters
            assert counters["ok"] == len(storm)
            assert counters["outcomes"]["local"] >= len(DESIGNS)
            assert counters["outcomes"]["store"] == 0
            assert store.describe()["results"] == 0
            errors_during_partition = registry.get("serve_store_errors_total").total()
            assert errors_during_partition > 0
            events = handle.service.events.recent(event="store_degraded")
            assert events
            assert {record["op"] for record in events} & {
                "get_result", "acquire_lease", "put_result",
            }

            # Heal without a restart: cold keys coordinate again...
            store.heal()
            harness.clear_cache()
            suite.spec_trace.cache_clear()
            healed = client.simulate(design=DESIGNS[0], app=APP)
            assert healed.body == expected[DESIGNS[0]]
            assert healed.outcome == "fresh"
            assert store.describe()["results"] == 1
            # ...and a second cold pass is answered by the store.
            harness.clear_cache()
            suite.spec_trace.cache_clear()
            served = client.simulate(design=DESIGNS[0], app=APP)
            assert served.body == expected[DESIGNS[0]]
            assert served.outcome == "store"
            # No *new* errors after the heal.
            assert (
                registry.get("serve_store_errors_total").total()
                == errors_during_partition
            )
        finally:
            handle.shutdown()


def test_store_outage_never_rejects_or_deadlocks_a_storm():
    """The acceptance wording: degradation may cost duplicate compute,
    never a lost request.  64 requests against a permanently dead store
    all complete inside the suite timeout with exact bytes."""
    expected = _expected_payloads()
    harness.clear_cache()
    suite._cached_trace.cache_clear()

    store = FakeStore(name="dead")
    store.partition()
    handle = serve_in_thread(_config(queue_limit=128), store=store)
    try:
        client = ServeClient(port=handle.port)
        storm = DESIGNS * 16
        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(
                pool.map(lambda d: client.simulate(design=d, app=APP), storm)
            )
        assert len(responses) == len(storm)
        for design, response in zip(storm, responses):
            assert response.body == expected[design]
        counters = handle.service.counters
        assert counters["ok"] == len(storm)
        assert counters["rejected"] == 0
        assert counters["errors"] == 0
    finally:
        handle.shutdown()


def test_cold_job_store_traffic_is_one_walk():
    """One cold job reads the store twice (the serve peek, then the
    single-flight probe), claims and releases one lease and publishes
    once; a repeat is a memo hit that never leaves the process."""
    store = FakeStore(name="traffic")
    handle = serve_in_thread(_config(), store=store)
    try:
        client = ServeClient(port=handle.port)
        assert client.simulate(design=DESIGNS[0], app=APP).outcome == "fresh"
        expected = {
            "get_result": 2, "acquire_lease": 1, "put_result": 1,
            "release_lease": 1,
        }
        assert store.calls == expected
        assert client.simulate(design=DESIGNS[0], app=APP).outcome == "memo"
        assert store.calls == expected
    finally:
        handle.shutdown()
