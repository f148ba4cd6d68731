"""The result store: the tier below the harness memo, and multi-replica
single-flight for serving.

Every (app, design) :class:`FrontendStats` is cached under one
content key (:func:`repro.experiments.harness.result_store_key`).
Below the in-process memo sits exactly one store:

* by default a :class:`DiskStore` over the disk-cache root
  (:func:`repro.experiments.diskcache.cache_root`), whose hits the
  harness reports as ``disk``;
* or the store an operator names with ``repro serve --store URL``,
  installed process-wide with :func:`set_active_store`, whose hits
  report as ``store``.

An explicit store also gives serve replicas **cross-node
single-flight**: a cold job is claimed by exactly one replica through
a compare-and-set lease with a TTL, heartbeat renewal while the winner
computes, and orphan takeover when a claimant dies without publishing
(:func:`fetch_or_compute`).  Results are content-addressed, so
concurrent writers racing on one key write identical bytes
(last-write-wins is therefore *safe*, see DESIGN.md §14).

Two implementations ship:

``DiskStore``
    Results through :mod:`repro.experiments.diskcache` (the one reader
    and writer of ``results/<key>.json``) under its root, plus
    file-based leases -- replicas sharing a filesystem get the full
    protocol with zero new infrastructure.
``FakeStore``
    A deterministic in-memory fake with an injectable clock and
    fault-injection schedules (fail-next-N, latency spikes,
    partition/heal) that the contract and serve-distributed test suites
    run against.

Every backend failure surfaces as :class:`StoreError`; callers degrade
to local compute (never a wrong answer, never a lost request) and
account the degradation through the ``serve_store_errors_total`` metric
and a ``store_degraded`` event.

Knobs (all flow through :class:`repro.serve.config.ServeConfig`):
``REPRO_SERVE_STORE`` selects the backend by URL (``disk://`` or
``disk:///path``, ``fake://name``); ``REPRO_SERVE_STORE_TTL`` /
``_WAIT`` / ``_POLL`` tune the lease state machine.  See README
"Shared result store".
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Iterator
from urllib.parse import urlsplit

from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.experiments import diskcache

__all__ = [
    "DiskStore",
    "FakeStore",
    "ResultStore",
    "StoreError",
    "default_owner",
    "fetch_or_compute",
    "get_active_store",
    "set_active_store",
    "store_from_url",
]


class StoreError(RuntimeError):
    """A shared-store backend failure (network, protocol, injected).

    Callers never propagate this to a client: every code path catches
    it, records the degradation, and falls back to local compute.
    """


def default_owner() -> str:
    """A cluster-unique claimant id for leases (host, pid, thread)."""
    return f"{socket.gethostname()}:{os.getpid()}:{threading.get_ident()}"


# -- the protocol ------------------------------------------------------------


class ResultStore:
    """Shared result space + cross-node lease protocol.

    Results are immutable content-addressed values: ``put_result`` for
    one key always writes the same bytes, so concurrent publishes are
    harmless.  Leases implement cluster-wide single-flight:

    * :meth:`acquire_lease` is a compare-and-set -- it succeeds iff no
      *live* lease exists for the key (an expired lease is taken over);
    * :meth:`renew_lease` is the claimant's heartbeat -- it extends the
      TTL only while the claimant still owns the lease;
    * :meth:`release_lease` drops the claim (owner-checked, so a
      claimant that lost its lease cannot release the new owner's).

    Every method may raise :class:`StoreError` on backend failure.
    """

    kind = "abstract"

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        raise NotImplementedError

    def put_result(self, key: str, stats: FrontendStats) -> None:
        raise NotImplementedError

    # -- leases --

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        raise NotImplementedError

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        raise NotImplementedError

    def release_lease(self, key: str, owner: str) -> None:
        raise NotImplementedError

    def lease_owner(self, key: str) -> str | None:
        """Current live claimant of ``key`` (None: unclaimed/expired)."""
        raise NotImplementedError

    # -- introspection --

    def describe(self) -> dict:
        """Operator-facing summary for ``/v1/stats``."""
        return {"kind": self.kind}


# -- DiskStore ---------------------------------------------------------------


class DiskStore(ResultStore):
    """Filesystem store over the disk cache's content-addressed layout.

    Results are read and written by :func:`diskcache.load_result` /
    :func:`diskcache.store_result` under ``<root>/results/<key>.json``;
    with the default root (:func:`diskcache.cache_root`) a result
    published by one serve replica is a plain disk-cache hit for a
    batch ``repro experiment`` run on the same host, and vice versa.

    Leases are lock files at ``<root>/leases/<key>.json``.  A claim
    writes its payload to a private temp file and publishes it with
    ``os.link``, the filesystem's compare-and-set: ``EEXIST`` means
    another claimant holds the name, and a reader never sees a lock
    without its payload.  Everything that changes an *existing* lock --
    expired takeover (re-read, unlink, link), renewal and release --
    runs under an exclusive ``flock`` on ``<root>/leases/.takeover``, so
    no claimant can remove or overwrite a lock it did not just read.
    """

    kind = "disk"

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else diskcache.cache_root()

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.json"

    def _now(self) -> float:
        return time.time()

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        try:
            return diskcache.load_result(key, root=self.root)
        except OSError as error:
            raise StoreError(f"disk read failed: {error}") from error

    def put_result(self, key: str, stats: FrontendStats) -> None:
        try:
            diskcache.store_result(key, stats, root=self.root)
        except OSError as error:
            raise StoreError(f"disk write failed: {error}") from error

    # -- leases --

    def _read_lease(self, path: Path) -> tuple[str, float] | None:
        try:
            payload = json.loads(path.read_bytes())
            return str(payload["owner"]), float(payload["expires"])
        except FileNotFoundError:
            return None
        except Exception:
            # An unparsable lock is treated as expired.  Claims and
            # renewals publish whole files, so only outside damage (a
            # truncated disk, a hand edit) can produce one.
            return "", 0.0

    @contextlib.contextmanager
    def _lease_lock(self, path: Path) -> Iterator[None]:
        """Exclusive cross-process, cross-thread lock over lock-file edits."""
        try:
            handle = os.open(path.parent / ".takeover", os.O_CREAT | os.O_RDWR, 0o644)
        except OSError as error:
            raise StoreError(f"disk lease lock failed: {error}") from error
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            os.close(handle)  # closing the descriptor drops the flock

    def _publish_lease(self, path: Path, owner: str, ttl: float) -> bool:
        """Create the lock file with its payload; False if it exists."""
        payload = json.dumps({"owner": owner, "expires": self._now() + ttl})
        tmp = path.parent / f"{path.name}.new-{os.getpid()}-{threading.get_ident()}"
        try:
            tmp.write_text(payload)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                tmp.unlink()
        except OSError as error:
            raise StoreError(f"disk lease create failed: {error}") from error
        return True

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        path = self._lease_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(f"disk lease mkdir failed: {error}") from error
        lease = self._read_lease(path)
        if lease is None:
            return self._publish_lease(path, owner, ttl)
        if lease[1] > self._now():
            return False
        # Expired: take over under the lock.  The re-read sees any lease
        # a competing taker published since our first read.
        with self._lease_lock(path):
            lease = self._read_lease(path)
            if lease is not None:
                if lease[1] > self._now():
                    return False
                with contextlib.suppress(FileNotFoundError):
                    path.unlink()
            return self._publish_lease(path, owner, ttl)

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        path = self._lease_path(key)
        if self._read_lease(path) is None:
            return False
        with self._lease_lock(path):
            lease = self._read_lease(path)
            if lease is None or lease[0] != owner or lease[1] <= self._now():
                return False
            payload = json.dumps({"owner": owner, "expires": self._now() + ttl})
            tmp = path.parent / f"{path.name}.renew-{os.getpid()}-{threading.get_ident()}"
            try:
                tmp.write_text(payload)
                os.replace(tmp, path)
            except OSError as error:
                raise StoreError(f"disk lease renew failed: {error}") from error
        return True

    def release_lease(self, key: str, owner: str) -> None:
        path = self._lease_path(key)
        if self._read_lease(path) is None:
            return
        with self._lease_lock(path):
            lease = self._read_lease(path)
            if lease is None or lease[0] != owner:
                return
            with contextlib.suppress(OSError):
                path.unlink()

    def lease_owner(self, key: str) -> str | None:
        lease = self._read_lease(self._lease_path(key))
        if lease is None or lease[1] <= self._now():
            return None
        return lease[0]

    def describe(self) -> dict:
        # Quarantined files stay beside the slot (``<key>.json.corrupt-*``)
        # for post-mortems, so the count covers every replica sharing
        # the root, not just this process.
        quarantined = sum(1 for _ in (self.root / "results").glob("*.corrupt-*"))
        return {"kind": self.kind, "root": str(self.root), "quarantined": quarantined}


# -- FakeStore ---------------------------------------------------------------


class FakeStore(ResultStore):
    """Deterministic in-memory store with injectable fault schedules.

    The whole distributed test suite runs against this: it implements
    the full protocol under one lock, takes an injectable ``clock`` so
    TTL expiry is advanced by the test instead of wall sleeping, and
    exposes three fault schedules --

    * :meth:`fail_next` -- the next N protocol calls raise
      :class:`StoreError` (optionally only for named ops);
    * :meth:`add_latency` -- the next N calls sleep first (latency
      spikes; sleeps happen outside the lock);
    * :meth:`partition` / :meth:`heal` -- every call fails until healed.

    Per-op call counts (:attr:`calls`) and quarantine/lease telemetry
    let tests assert *how* the cluster coordinated, not just the final
    answers.
    """

    kind = "fake"

    def __init__(self, clock: Callable[[], float] | None = None, name: str = "") -> None:
        self.name = name
        self._clock = clock or time.monotonic
        self._lock = threading.RLock()
        self._results: dict[str, bytes] = {}
        self._leases: dict[str, tuple[str, float]] = {}
        self.quarantined: dict[str, bytes] = {}
        self.calls: dict[str, int] = {}
        self._fail_budget = 0
        self._fail_ops: frozenset[str] | None = None
        self._latency_budget = 0
        self._latency_seconds = 0.0
        self._partitioned = False

    # -- fault schedules --

    def fail_next(self, count: int, ops: tuple[str, ...] | None = None) -> None:
        """Fail the next ``count`` calls (optionally only ``ops``)."""
        with self._lock:
            self._fail_budget = count
            self._fail_ops = frozenset(ops) if ops is not None else None

    def add_latency(self, seconds: float, count: int = 1_000_000) -> None:
        """Sleep ``seconds`` before each of the next ``count`` calls."""
        with self._lock:
            self._latency_seconds = seconds
            self._latency_budget = count

    def partition(self) -> None:
        """Drop the (simulated) network: every call raises StoreError."""
        with self._lock:
            self._partitioned = True

    def heal(self) -> None:
        with self._lock:
            self._partitioned = False

    def _enter(self, op: str) -> None:
        sleep_for = 0.0
        with self._lock:
            self.calls[op] = self.calls.get(op, 0) + 1
            if self._latency_budget > 0:
                self._latency_budget -= 1
                sleep_for = self._latency_seconds
            if self._partitioned:
                raise StoreError(f"fake store partitioned ({op})")
            if self._fail_budget > 0 and (
                self._fail_ops is None or op in self._fail_ops
            ):
                self._fail_budget -= 1
                raise StoreError(f"injected failure ({op})")
        if sleep_for > 0:
            time.sleep(sleep_for)

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        self._enter("get_result")
        with self._lock:
            data = self._results.get(key)
            if data is None:
                return None
            stats = diskcache.decode_result(data)
            if stats is None:
                self.quarantined[key] = self._results.pop(key)
                return None
            return stats

    def put_result(self, key: str, stats: FrontendStats) -> None:
        self._enter("put_result")
        with self._lock:
            self._results[key] = diskcache.encode_result(stats)

    def corrupt(self, key: str, data: bytes = b"{not json") -> None:
        """Test hook: replace a stored value with garbage bytes."""
        with self._lock:
            self._results[key] = data

    # -- leases --

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        self._enter("acquire_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease[1] > self._clock():
                return False
            self._leases[key] = (owner, self._clock() + ttl)
            return True

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        self._enter("renew_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease[0] != owner or lease[1] <= self._clock():
                return False
            self._leases[key] = (owner, self._clock() + ttl)
            return True

    def release_lease(self, key: str, owner: str) -> None:
        self._enter("release_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease[0] == owner:
                del self._leases[key]

    def lease_owner(self, key: str) -> str | None:
        self._enter("lease_owner")
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease[1] <= self._clock():
                return None
            return lease[0]

    def describe(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "results": len(self._results),
                "leases": len(self._leases),
                "quarantined": len(self.quarantined),
                "partitioned": self._partitioned,
            }


# -- URL resolution ----------------------------------------------------------

#: Named in-process fakes, so two in-process replicas configured with
#: the same ``fake://name`` URL share one store (tests, CLI smokes).
_FAKES: dict[str, FakeStore] = {}
_FAKES_LOCK = threading.Lock()


def store_from_url(url: str | None) -> ResultStore | None:
    """Build a store from a URL (``None``/empty/``"none"``: no store).

    Schemes: ``disk://`` (the local disk-cache root) or
    ``disk:///abs/path``, and ``fake://name`` (a process-shared
    in-memory fake -- tests and single-process smokes only).  A
    ``disk://`` URL with a host part (``disk://tmp/x``) is rejected:
    it is almost always a path missing its third slash, and replicas
    must not silently land on different roots.
    """
    if not url or url == "none":
        return None
    parts = urlsplit(url)
    if parts.scheme == "disk":
        if parts.netloc:
            raise StoreError(
                f"disk store URL has a host part: {url!r} "
                "(use disk:///absolute/path or disk://)"
            )
        root = parts.path if parts.path not in ("", "/") else None
        return DiskStore(root=root)
    if parts.scheme == "fake":
        name = parts.netloc or parts.path.strip("/") or "default"
        with _FAKES_LOCK:
            store = _FAKES.get(name)
            if store is None:
                store = FakeStore(name=name)
                _FAKES[name] = store
            return store
    raise StoreError(f"unknown store URL scheme: {url!r}")


def reset_fakes() -> None:
    """Drop the named-fake registry (tests use this)."""
    with _FAKES_LOCK:
        _FAKES.clear()


# -- the active store --------------------------------------------------------
#
# One process-wide explicit store, installed by the serving layer at
# boot (or by tests), consulted by the harness's cache-lookup path in
# place of its default disk-cache store.  Mirrors the obs
# registry/event-log pattern.

_ACTIVE: ResultStore | None = None
_ACTIVE_LOCK = threading.Lock()


def set_active_store(store: ResultStore | None) -> None:
    """Install the process-wide explicit store (None: the harness falls
    back to its default disk-cache store)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = store


def get_active_store() -> ResultStore | None:
    with _ACTIVE_LOCK:
        return _ACTIVE


def degraded(op: str, error: Exception, **context) -> None:
    """Record one backend failure: metric + ``store_degraded`` event.

    Degradation is never fatal -- the caller computes locally -- but it
    must be *visible*: operators alert on ``serve_store_errors_total``
    and the event log says exactly which op failed for which key.
    """
    get_registry().counter(
        "serve_store_errors_total", "shared-store backend failures by op"
    ).inc(op=op)
    obs_events.emit(
        "store_degraded", op=op, error=f"{type(error).__name__}: {error}", **context
    )


# -- cross-node single-flight ------------------------------------------------


class _Heartbeat:
    """Renews a held lease on a background thread while compute runs.

    Cadence is TTL/3: a claimant misses two renewals before its lease
    can expire under it.  A failed renewal (lease lost or backend down)
    stops the heartbeat and marks the lease lost -- compute continues,
    because publishing a content-addressed value twice is harmless.
    """

    def __init__(self, store: ResultStore, key: str, owner: str, ttl: float) -> None:
        self._store = store
        self._key = key
        self._owner = owner
        self._ttl = ttl
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._lost = False
        self._thread = threading.Thread(
            target=self._run, name="repro-store-heartbeat", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._ttl)

    @property
    def lost(self) -> bool:
        with self._lock:
            return self._lost

    def _run(self) -> None:
        interval = max(self._ttl / 3.0, 0.01)
        while not self._stop.wait(interval):
            try:
                renewed = self._store.renew_lease(self._key, self._owner, self._ttl)
            except StoreError as error:
                degraded("renew_lease", error, key=self._key)
                renewed = False
            if not renewed:
                with self._lock:
                    self._lost = True
                return


def _release(store: ResultStore, key: str, owner: str, context: dict) -> None:
    """Drop a held claim; a failure is recorded, never raised."""
    try:
        store.release_lease(key, owner)
    except StoreError as error:
        degraded("release_lease", error, key=key, **context)


def fetch_or_compute(
    store: ResultStore,
    key: str,
    compute: Callable[[], FrontendStats],
    *,
    owner: str | None = None,
    ttl: float = 30.0,
    wait_timeout: float = 120.0,
    poll_interval: float = 0.05,
    context: dict | None = None,
) -> tuple[FrontendStats, str]:
    """Cluster-wide single-flight around one content-addressed result.

    Returns ``(stats, outcome)`` with outcome one of:

    * ``"store"`` -- another replica (now or earlier) published the
      result; we never simulated.
    * ``"fresh"`` -- we won the lease CAS, computed, published.
    * ``"local"`` -- degraded local compute: the backend failed, or the
      publisher outwaited ``wait_timeout``.  The answer is still exact
      (simulation is deterministic); only the dedup was lost.

    The state machine (see DESIGN.md §14): probe result -> try lease ->
    holders compute under a heartbeat and publish before releasing;
    non-holders poll the result slot and retry the lease, which an
    expired (orphaned) claim lets them win -- takeover needs no extra
    protocol, acquire *is* takeover once the TTL lapses.

    ``compute`` failures propagate to the caller unchanged (after the
    lease is released so another replica can claim immediately).
    """
    context = context or {}
    owner = owner or default_owner()
    try:
        cached = store.get_result(key)
        if cached is not None:
            return cached, "store"
    except StoreError as error:
        degraded("get_result", error, key=key, **context)
        return compute(), "local"
    deadline = time.monotonic() + wait_timeout
    while True:
        try:
            acquired = store.acquire_lease(key, owner, ttl)
        except StoreError as error:
            degraded("acquire_lease", error, key=key, **context)
            return compute(), "local"
        if acquired:
            try:
                with _Heartbeat(store, key, owner, ttl):
                    stats = compute()
            except BaseException:
                _release(store, key, owner, context)
                raise
            try:
                store.put_result(key, stats)
            except StoreError as error:
                # The result is computed and correct; only the publish
                # failed.  Account it and answer -- the lease will age
                # out and another replica will republish.
                degraded("put_result", error, key=key, **context)
            else:
                _release(store, key, owner, context)
            return stats, "fresh"
        # Someone else holds the claim: wait for their publish.
        time.sleep(poll_interval)
        try:
            cached = store.get_result(key)
        except StoreError as error:
            degraded("get_result", error, key=key, **context)
            return compute(), "local"
        if cached is not None:
            return cached, "store"
        if time.monotonic() >= deadline:
            # Publisher is wedged past any plausible simulation time;
            # protect the request over the dedup.
            degraded(
                "wait_timeout",
                TimeoutError(f"no publish within {wait_timeout}s"),
                key=key,
                **context,
            )
            return compute(), "local"
