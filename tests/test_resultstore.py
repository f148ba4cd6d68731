"""Contract tests for the pluggable result store.

One parametrized suite runs the full :class:`ResultStore` protocol --
result round-trips, lease CAS exclusivity under real thread races, TTL
expiry + orphan takeover, corrupt-value quarantine -- against both
backends, :class:`FakeStore` and :class:`DiskStore`.  The
:func:`fetch_or_compute` single-flight state machine is then
unit-tested over the fake's injectable clock and fault schedules.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import diskcache, resultstore
from repro.experiments.diskcache import decode_result, encode_result
from repro.experiments.resultstore import (
    DiskStore,
    FakeStore,
    StoreError,
    fetch_or_compute,
    store_from_url,
)
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import MetricsRegistry, use_registry


_KEYS = itertools.count()


def _key() -> str:
    """A store key no other test (or prior run) has touched."""
    return f"contract-{os.getpid()}-{next(_KEYS)}"


def _stats(instructions: int = 1000) -> FrontendStats:
    return FrontendStats(instructions=instructions, branches=instructions // 5)


@pytest.fixture(params=["fake", "disk"])
def backend(request, tmp_path):
    """``(store, corrupt)`` for each backend: the store under test plus
    a function that replaces a stored value with garbage bytes."""
    if request.param == "fake":
        store = FakeStore()
        yield store, store.corrupt
    else:
        store = DiskStore(root=tmp_path / "store")

        def corrupt(key: str, data: bytes = b"{not json") -> None:
            (tmp_path / "store" / "results" / f"{key}.json").write_bytes(data)

        yield store, corrupt


# -- result round-trips ------------------------------------------------------


def test_result_round_trip(backend):
    store, _ = backend
    key = _key()
    assert store.get_result(key) is None
    stats = _stats()
    store.put_result(key, stats)
    loaded = store.get_result(key)
    assert loaded is not None
    assert loaded.to_dict(derived=False) == stats.to_dict(derived=False)


def test_republish_is_idempotent(backend):
    # Values are content-addressed: racing publishers write identical
    # bytes, so last-write-wins can never lose information.
    store, _ = backend
    key = _key()
    stats = _stats()
    store.put_result(key, stats)
    store.put_result(key, stats)
    assert store.get_result(key).to_dict(derived=False) == stats.to_dict(derived=False)


def test_corrupt_value_is_quarantined_not_served(backend):
    store, corrupt = backend
    key = _key()
    store.put_result(key, _stats())
    for garbage in (b"{not json", b'{"result_version": -1, "stats": {}}'):
        corrupt(key, garbage)
        # A poisoned slot reads as a miss -- never a crash, never a
        # wrong answer -- and the slot is usable again afterwards.
        assert store.get_result(key) is None
        stats = _stats(2000)
        store.put_result(key, stats)
        loaded = store.get_result(key)
        assert loaded is not None
        assert loaded.instructions == 2000


# -- leases ------------------------------------------------------------------


def test_lease_is_exclusive_and_owner_checked(backend):
    store, _ = backend
    key = _key()
    assert store.lease_owner(key) is None
    assert store.acquire_lease(key, "alice", ttl=30.0)
    assert store.lease_owner(key) == "alice"
    assert not store.acquire_lease(key, "bob", ttl=30.0)
    # Non-owners can neither renew nor release.
    assert not store.renew_lease(key, "bob", ttl=30.0)
    store.release_lease(key, "bob")
    assert store.lease_owner(key) == "alice"
    assert store.renew_lease(key, "alice", ttl=30.0)
    store.release_lease(key, "alice")
    assert store.lease_owner(key) is None
    assert store.acquire_lease(key, "bob", ttl=30.0)


def test_lease_race_has_exactly_one_winner(backend):
    store, _ = backend
    key = _key()
    barrier = threading.Barrier(8)

    def contend(owner: str) -> bool:
        barrier.wait(timeout=10)
        return store.acquire_lease(key, owner, ttl=30.0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        wins = list(pool.map(contend, [f"owner-{i}" for i in range(8)]))
    assert sum(wins) == 1
    assert store.lease_owner(key) is not None


def test_expired_lease_is_taken_over(backend):
    store, _ = backend
    key = _key()
    assert store.acquire_lease(key, "crashed", ttl=0.15)
    assert not store.acquire_lease(key, "taker", ttl=30.0)
    time.sleep(0.25)
    # The orphan's claim has lapsed: it reads as unclaimed, a new
    # acquire succeeds (acquire *is* takeover), and the dead claimant
    # can no longer renew.
    assert store.lease_owner(key) is None
    assert store.acquire_lease(key, "taker", ttl=30.0)
    assert store.lease_owner(key) == "taker"
    assert not store.renew_lease(key, "crashed", ttl=30.0)


def test_heartbeat_renewal_outlives_the_ttl(backend):
    store, _ = backend
    key = _key()
    assert store.acquire_lease(key, "worker", ttl=0.2)
    for _ in range(4):
        time.sleep(0.1)
        assert store.renew_lease(key, "worker", ttl=0.2)
    # 0.4s past the original expiry, the renewed lease still holds.
    assert store.lease_owner(key) == "worker"
    assert not store.acquire_lease(key, "thief", ttl=30.0)


def test_expired_lease_takeover_race_has_one_winner(backend):
    store, _ = backend
    key = _key()
    assert store.acquire_lease(key, "crashed", ttl=0.1)
    time.sleep(0.2)
    barrier = threading.Barrier(6)

    def takeover(owner: str) -> bool:
        barrier.wait(timeout=10)
        return store.acquire_lease(key, owner, ttl=30.0)

    with ThreadPoolExecutor(max_workers=6) as pool:
        wins = list(pool.map(takeover, [f"taker-{i}" for i in range(6)]))
    assert sum(wins) == 1


def test_describe_names_the_backend(backend):
    store, corrupt = backend
    assert store.describe()["kind"] == store.kind
    key = _key()
    store.put_result(key, _stats())
    corrupt(key)
    assert store.get_result(key) is None
    assert store.describe()["quarantined"] == 1


# -- value encoding ----------------------------------------------------------


def test_encode_decode_round_trip():
    stats = _stats(4242)
    loaded = decode_result(encode_result(stats))
    assert loaded is not None
    assert loaded.to_dict(derived=False) == stats.to_dict(derived=False)


def test_decode_rejects_garbage_and_version_skew():
    assert decode_result(b"") is None
    assert decode_result(b"{not json") is None
    assert decode_result(b'{"stats": {}}') is None
    payload = json.loads(encode_result(_stats()))
    payload["result_version"] = -1
    assert decode_result(json.dumps(payload).encode()) is None


# -- URL resolution ----------------------------------------------------------


def test_store_from_url_schemes(tmp_path, monkeypatch):
    assert store_from_url(None) is None
    assert store_from_url("") is None
    assert store_from_url("none") is None
    disk = store_from_url(f"disk://{tmp_path}/shared")
    assert isinstance(disk, DiskStore)
    assert str(disk.root) == f"{tmp_path}/shared"
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
    for default in ("disk://", "disk:///"):
        assert store_from_url(default).root == diskcache.cache_root()
    with pytest.raises(StoreError):
        store_from_url("s3://bucket/prefix")
    # A host part is a path missing its third slash: two replicas with
    # that typo must fail loudly, not land on different roots.
    for url in ("disk://tmp/x", "disk://relative"):
        with pytest.raises(StoreError, match=url):
            store_from_url(url)


def test_fake_url_registry_shares_one_store_per_name():
    # Two replicas configured with the same fake:// URL must land on
    # the same in-memory store -- that is the whole point of the scheme.
    a = store_from_url("fake://cluster")
    b = store_from_url("fake://cluster")
    other = store_from_url("fake://other")
    assert a is b
    assert a is not other
    resultstore.reset_fakes()
    assert store_from_url("fake://cluster") is not a


def test_disk_store_interoperates_with_the_disk_cache(tmp_path, monkeypatch):
    """A DiskStore at the disk-cache root and the diskcache module are
    one result space: either side's write is the other side's hit."""
    from repro.experiments import diskcache

    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
    store = DiskStore()
    stats = _stats(777)
    store.put_result("interop", stats)
    via_cache = diskcache.load_result("interop")
    assert via_cache is not None
    assert via_cache.instructions == 777
    diskcache.store_result("other-way", _stats(778))
    loaded = store.get_result("other-way")
    assert loaded is not None
    assert loaded.instructions == 778


def test_disk_store_io_errors_are_store_errors(tmp_path):
    """An unusable root is a backend failure callers degrade on
    (fetch_or_compute's ``local`` path), not an ``OSError`` crash."""
    (tmp_path / "file").write_text("not a directory")
    store = DiskStore(root=tmp_path / "file")
    with pytest.raises(StoreError):
        store.put_result("k", _stats())
    with pytest.raises(StoreError):
        store.get_result("k")
    compute, calls = _computer()
    _, outcome = fetch_or_compute(store, "k", compute)
    assert (outcome, calls) == ("local", [1])


# -- FakeStore fault schedules -----------------------------------------------


def test_fake_clock_controls_ttl():
    clock = [100.0]
    store = FakeStore(clock=lambda: clock[0])
    assert store.acquire_lease("k", "a", ttl=5.0)
    clock[0] += 4.9
    assert store.lease_owner("k") == "a"
    clock[0] += 0.2
    assert store.lease_owner("k") is None
    assert store.acquire_lease("k", "b", ttl=5.0)


def test_fake_fail_next_budget_and_op_filter():
    store = FakeStore()
    store.fail_next(2)
    with pytest.raises(StoreError):
        store.get_result("k")
    with pytest.raises(StoreError):
        store.lease_owner("k")
    assert store.get_result("k") is None  # budget spent
    store.fail_next(1, ops=("put_result",))
    assert store.get_result("k") is None  # unlisted ops unaffected
    with pytest.raises(StoreError):
        store.put_result("k", _stats())
    store.put_result("k", _stats())


def test_fake_partition_heal_and_latency():
    store = FakeStore()
    store.partition()
    with pytest.raises(StoreError):
        store.get_result("k")
    store.heal()
    store.put_result("k", _stats())
    store.add_latency(0.05, count=1)
    started = time.monotonic()
    assert store.get_result("k") is not None
    assert time.monotonic() - started >= 0.05
    assert store.calls["get_result"] >= 2


# -- fetch_or_compute: the single-flight state machine -----------------------


def _computer(stats: FrontendStats | None = None, delay: float = 0.0):
    """A counting compute callable (thread-safe)."""
    stats = stats or _stats()
    lock = threading.Lock()
    calls = [0]

    def compute() -> FrontendStats:
        with lock:
            calls[0] += 1
        if delay:
            time.sleep(delay)
        return stats

    return compute, calls


def test_fetch_or_compute_fresh_then_store():
    store = FakeStore()
    compute, calls = _computer()
    stats, outcome = fetch_or_compute(store, "k", compute)
    assert outcome == "fresh"
    assert calls == [1]
    assert store.lease_owner("k") is None  # released after publish
    stats2, outcome2 = fetch_or_compute(store, "k", compute)
    assert outcome2 == "store"
    assert calls == [1]
    assert stats2.to_dict(derived=False) == stats.to_dict(derived=False)


def test_fetch_or_compute_single_flight_across_threads():
    store = FakeStore()
    compute, calls = _computer(delay=0.2)
    barrier = threading.Barrier(4)

    def race(i: int):
        barrier.wait(timeout=10)
        return fetch_or_compute(
            store, "k", compute, owner=f"replica-{i}", poll_interval=0.02
        )

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(race, range(4)))
    outcomes = [outcome for _, outcome in results]
    assert calls == [1], "duplicate storm must collapse to one compute"
    assert outcomes.count("fresh") == 1
    assert outcomes.count("store") == 3
    reference = results[0][0].to_dict(derived=False)
    for stats, _ in results:
        assert stats.to_dict(derived=False) == reference


def test_fetch_or_compute_heartbeat_keeps_slow_compute_claimed():
    """Compute outlives the lease TTL several times over; the heartbeat
    renews it, so a racing replica waits instead of double-computing."""
    store = FakeStore()
    compute, calls = _computer(delay=0.4)
    started = threading.Barrier(2)

    def winner():
        started.wait(timeout=10)
        return fetch_or_compute(store, "k", compute, owner="w", ttl=0.1)

    def contender():
        started.wait(timeout=10)
        time.sleep(0.15)  # past the nominal TTL
        return fetch_or_compute(
            store, "k", compute, owner="c", ttl=0.1, poll_interval=0.02
        )

    with ThreadPoolExecutor(max_workers=2) as pool:
        a = pool.submit(winner)
        b = pool.submit(contender)
        _, outcome_w = a.result(timeout=10)
        _, outcome_c = b.result(timeout=10)
    assert outcome_w == "fresh"
    assert outcome_c == "store"
    assert calls == [1]
    assert store.calls.get("renew_lease", 0) >= 1


def test_fetch_or_compute_takes_over_an_orphaned_lease():
    store = FakeStore()
    # A claimant died holding the lease, having published nothing.
    assert store.acquire_lease("k", "dead-replica", ttl=0.15)
    compute, calls = _computer()
    started = time.monotonic()
    stats, outcome = fetch_or_compute(store, "k", compute, poll_interval=0.02)
    assert outcome == "fresh"
    assert calls == [1]
    assert time.monotonic() - started >= 0.1  # had to outwait the orphan
    assert stats is not None


def test_fetch_or_compute_compute_error_releases_the_lease():
    store = FakeStore()

    def explode() -> FrontendStats:
        raise ValueError("simulation failed")

    with pytest.raises(ValueError):
        fetch_or_compute(store, "k", explode, owner="a")
    # The claim is gone: the next caller proceeds immediately.
    assert store.lease_owner("k") is None
    compute, calls = _computer()
    _, outcome = fetch_or_compute(store, "k", compute, owner="b")
    assert outcome == "fresh"
    assert calls == [1]


def _observed():
    """(registry, log) capturing degradation telemetry for one test."""
    return MetricsRegistry(), obs_events.EventLog(capacity=256)


def test_fetch_or_compute_degrades_local_when_backend_down():
    registry, log = _observed()
    store = FakeStore()
    store.partition()
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute)
    assert outcome == "local"
    assert calls == [1]
    assert stats is not None
    assert registry.get("serve_store_errors_total").value(op="get_result") == 1
    events = log.recent(event="store_degraded")
    assert events and events[-1]["op"] == "get_result"


def test_fetch_or_compute_publish_failure_still_answers():
    registry, log = _observed()
    store = FakeStore()
    store.fail_next(1, ops=("put_result",))
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute)
    # The simulation is correct and returned; only the dedup was lost.
    assert outcome == "fresh"
    assert calls == [1]
    assert stats is not None
    assert registry.get("serve_store_errors_total").value(op="put_result") == 1
    assert store.get_result("k") is None


def test_fetch_or_compute_labels_each_failure_by_its_op():
    """A failed release is a ``release_lease`` error -- after a good
    publish and after a failed compute alike -- never a publish one."""
    registry, log = _observed()
    store = FakeStore()
    store.fail_next(1, ops=("release_lease",))
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute)
    assert outcome == "fresh"
    assert store.get_result("k") is not None
    errors = registry.get("serve_store_errors_total")
    assert errors.value(op="release_lease") == 1
    assert errors.value(op="put_result") == 0

    def explode() -> FrontendStats:
        raise ValueError("simulation failed")

    store.fail_next(1, ops=("release_lease",))
    with use_registry(registry), obs_events.use_event_log(log):
        with pytest.raises(ValueError):
            fetch_or_compute(store, "other", explode)
    assert errors.value(op="release_lease") == 2
    assert [event["op"] for event in log.recent(event="store_degraded")] == [
        "release_lease", "release_lease",
    ]


def test_result_store_base_contract():
    from repro.experiments.resultstore import ResultStore

    base = ResultStore()
    for call in (
        lambda: base.get_result("k"),
        lambda: base.put_result("k", _stats()),
        lambda: base.acquire_lease("k", "o", 1.0),
        lambda: base.renew_lease("k", "o", 1.0),
        lambda: base.release_lease("k", "o"),
        lambda: base.lease_owner("k"),
    ):
        with pytest.raises(NotImplementedError):
            call()
    assert base.describe() == {"kind": "abstract"}


def test_fetch_or_compute_survives_a_lost_heartbeat():
    """Renewals failing mid-compute must not kill the computation: the
    value is content-addressed, so finishing and publishing anyway is
    always safe -- at worst another replica duplicates the work."""
    registry, log = _observed()
    store = FakeStore()
    store.fail_next(100, ops=("renew_lease",))
    compute, calls = _computer(delay=0.15)
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute, ttl=0.06)
    assert outcome == "fresh"
    assert calls == [1]
    assert stats is not None
    assert store.get_result("k") is not None
    assert registry.get("serve_store_errors_total").value(op="renew_lease") >= 1


def test_fetch_or_compute_lease_acquire_failure_degrades_local():
    registry, log = _observed()
    store = FakeStore()
    store.fail_next(1, ops=("acquire_lease",))
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute)
    assert outcome == "local"
    assert calls == [1]
    assert registry.get("serve_store_errors_total").value(op="acquire_lease") == 1


def test_fetch_or_compute_poll_read_failure_degrades_local():
    registry, log = _observed()

    class SecondGetFails(FakeStore):
        def get_result(self, key):
            if self.calls.get("get_result", 0) >= 1:
                self._enter("get_result")
                raise StoreError("flaky read")
            return super().get_result(key)

    store = SecondGetFails()
    assert store.acquire_lease("k", "other-replica", ttl=60.0)
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(store, "k", compute, poll_interval=0.02)
    assert outcome == "local"
    assert calls == [1]
    assert registry.get("serve_store_errors_total").value(op="get_result") == 1


def test_fetch_or_compute_wait_timeout_protects_the_request():
    registry, log = _observed()
    store = FakeStore()
    # A live (renewing) claimant that never publishes: the waiter must
    # eventually protect its own request over the dedup.
    assert store.acquire_lease("k", "wedged", ttl=60.0)
    compute, calls = _computer()
    with use_registry(registry), obs_events.use_event_log(log):
        stats, outcome = fetch_or_compute(
            store, "k", compute, wait_timeout=0.2, poll_interval=0.02
        )
    assert outcome == "local"
    assert calls == [1]
    assert stats is not None
    assert registry.get("serve_store_errors_total").value(op="wait_timeout") == 1
