"""Multi-replica serving over one shared result store.

Two real service instances (each its own event loop, port, worker
pool) boot over a single :class:`FakeStore` -- the topology of two
``repro serve --store`` processes sharing one store, minus the processes.
A duplicate storm split across the replicas must collapse to **one**
simulation cluster-wide (the lease CAS is the only coordination -- the
in-process harness memo is disabled so nothing short-circuits the
store), with every response byte-identical to a direct harness run.

The failure half: the same storm with the store partitioned mid-flight
must degrade -- every request still answered, every byte still exact,
degradation visible in ``serve_store_errors_total`` / ``store_degraded``
-- and a healed store gets used again without a restart.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import design_registry, harness, scheduler
from repro.experiments.resultstore import FakeStore
from repro.frontend.simulator import FrontendSimulator
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.serve.protocol import stats_payload
from repro.workloads import suite

APP = "server_oltp_00"
SCALE = "tiny"
DESIGN = "baseline"


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
    base = dict(port=0, batch_window=0.15, queue_limit=64, workers=2,
                drain_timeout=10.0, default_scale=SCALE)
    base.update(overrides)
    return ServeConfig(**base)


def _count_simulations(monkeypatch) -> list[int]:
    """Every fresh simulation anywhere in the process bumps the count."""
    lock = threading.Lock()
    count = [0]
    real_run = FrontendSimulator.run

    def counting_run(self, *args, **kwargs):
        with lock:
            count[0] += 1
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(FrontendSimulator, "run", counting_run)
    return count


def _storm(replicas, total: int) -> list:
    """``total`` identical requests, round-robined across the replicas."""
    clients = [ServeClient(port=handle.port) for handle in replicas]

    def fire(i: int):
        return clients[i % len(clients)].simulate(design=DESIGN, app=APP)

    with ThreadPoolExecutor(max_workers=total) as pool:
        return list(pool.map(fire, range(total)))


def _cluster_outcomes(replicas) -> dict[str, int]:
    merged: dict[str, int] = {}
    for handle in replicas:
        for kind, value in handle.service.counters["outcomes"].items():
            merged[kind] = merged.get(kind, 0) + value
    return merged


def test_duplicate_storm_across_replicas_simulates_exactly_once(monkeypatch):
    # The harness memo would dedup within the process and mask the
    # store: turn it off so cross-replica single-flight is the ONLY
    # thing standing between 32 requests and 32 simulations.
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    count = _count_simulations(monkeypatch)
    store = FakeStore(name="cluster")
    replicas = [
        serve_in_thread(_config(), store=store),
        serve_in_thread(_config(), store=store),
    ]
    try:
        responses = _storm(replicas, total=32)
        assert len(responses) == 32
        assert count[0] == 1, "the cluster must simulate a duplicate storm once"

        # Byte identity against a direct harness caller (computed after
        # the storm; with the memo off this is itself a fresh run).
        expected = stats_payload(
            harness.run_design(APP, design_registry()[DESIGN], scale=SCALE)
        )
        for response in responses:
            assert response.body == expected
            assert response.outcome in ("fresh", "store")

        outcomes = _cluster_outcomes(replicas)
        assert outcomes["local"] == 0
        assert outcomes["memo"] == outcomes["disk"] == 0
        assert outcomes["fresh"] + outcomes["store"] == 32
        assert sum(h.service.counters["ok"] for h in replicas) == 32
        # Both replicas took traffic, so the dedup genuinely crossed a
        # replica boundary rather than riding one service's batcher.
        for handle in replicas:
            assert handle.service.counters["ok"] == 16
        assert store.calls.get("put_result", 0) >= 1
        assert store.describe()["results"] == 1
        # /v1/stats surfaces the shared store on both replicas.
        for handle in replicas:
            snapshot = handle.service.stats_snapshot()
            assert snapshot["result_store"]["kind"] == "fake"
            assert snapshot["result_store"]["name"] == "cluster"
    finally:
        for handle in replicas:
            handle.shutdown()


def test_storm_with_partitioned_store_degrades_without_wrong_answers(monkeypatch):
    from repro.obs.metrics import MetricsRegistry, use_registry

    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    count = _count_simulations(monkeypatch)
    store = FakeStore(name="cluster")
    store.partition()
    registry = MetricsRegistry()
    with use_registry(registry):
        replicas = [
            serve_in_thread(_config(), store=store),
            serve_in_thread(_config(), store=store),
        ]
        try:
            responses = _storm(replicas, total=32)
            # Nothing lost, nothing wrong: every request answered, every
            # body exact -- only the cross-replica dedup is gone.
            assert len(responses) == 32
            storm_count = count[0]
            assert storm_count >= 1
            expected = stats_payload(
                harness.run_design(APP, design_registry()[DESIGN], scale=SCALE)
            )
            for response in responses:
                assert response.body == expected
                assert response.outcome == "local"
            outcomes = _cluster_outcomes(replicas)
            assert outcomes["local"] == 32
            assert outcomes["store"] == outcomes["fresh"] == 0
            assert sum(h.service.counters["ok"] for h in replicas) == 32
            # The degradation is loud: the store-error counter moved and
            # both replicas logged store_degraded hops.
            assert registry.get("serve_store_errors_total").total() > 0
            # (The process-wide active event log is whichever replica
            # booted last, so the hops are asserted cluster-wide.)
            degraded = [
                record
                for handle in replicas
                for record in handle.service.events.recent(event="store_degraded")
            ]
            assert degraded, "the cluster must log its degradation"
            assert all("op" in record for record in degraded)

            # Heal the partition: the next storm coordinates again.
            store.heal()
            count[0] = 0
            healed = _storm(replicas, total=8)
            assert count[0] == 1
            for response in healed:
                assert response.body == expected
                assert response.outcome in ("fresh", "store")
        finally:
            for handle in replicas:
                handle.shutdown()


def test_replica_restart_hits_the_store_not_the_simulator(monkeypatch):
    """A result published by replica A outlives A: a brand-new replica
    (cold memo, cold serve caches) answers from the store without ever
    simulating -- the distributed analogue of the warm-storm test."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    store = FakeStore(name="cluster")
    first = serve_in_thread(_config(), store=store)
    try:
        response = ServeClient(port=first.port).simulate(design=DESIGN, app=APP)
        assert response.outcome == "fresh"
    finally:
        first.shutdown()
    assert store.describe()["results"] == 1

    count = _count_simulations(monkeypatch)
    harness.clear_cache()
    suite._cached_trace.cache_clear()
    suite.spec_trace.cache_clear()
    second = serve_in_thread(_config(), store=store)
    try:
        again = ServeClient(port=second.port).simulate(design=DESIGN, app=APP)
        assert again.outcome == "store"
        assert again.body == response.body
        assert count[0] == 0, "the restarted replica must not re-simulate"
        assert second.service.counters["trace_decodes"] == 0
    finally:
        second.shutdown()


def test_inline_spec_across_replicas_fresh_then_store(monkeypatch):
    """Inline specs take the same store path as suite apps: the first
    replica simulates and publishes, the second answers from the store
    with identical bytes and never simulates."""
    from repro.workloads.spec import WorkloadSpec

    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    spec = WorkloadSpec(name="adhoc_cluster", category="Server", seed=41,
                        n_events=2000)
    count = _count_simulations(monkeypatch)
    store = FakeStore(name="cluster")
    replicas = [
        serve_in_thread(_config(max_events=10_000), store=store),
        serve_in_thread(_config(max_events=10_000), store=store),
    ]
    try:
        first = ServeClient(port=replicas[0].port).simulate(design=DESIGN, spec=spec)
        second = ServeClient(port=replicas[1].port).simulate(design=DESIGN, spec=spec)
        assert (first.outcome, second.outcome) == ("fresh", "store")
        assert second.body == first.body
        assert count[0] == 1
        assert store.describe()["results"] == 1
        assert replicas[1].service.counters["trace_decodes"] == 0
    finally:
        for handle in replicas:
            handle.shutdown()
