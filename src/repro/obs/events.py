"""Structured request-event log: bounded ring buffer + JSONL sink.

The third leg of the observability layer, next to
:mod:`repro.obs.metrics` (aggregates) and :mod:`repro.obs.tracing`
(nested wall-clock spans).  Where a span tree describes one *process
phase*, the event log describes one *request*: every hop a serve
request takes through admission, batch formation, execution, the cache
hierarchy, and the response is one flat, timestamped record tagged with
the request's **correlation id**, so a slow or failed request can be
reconstructed hop-by-hop long after it completed.

Design constraints (matching ``repro.obs.metrics``):

* **dependency-free** -- records are plain JSON-serialisable dicts;
* **null object when disabled** -- the module-level default log is a
  shared no-op, so emitters never branch on an "is tracing on?" flag;
* **bounded memory** -- the recording log is a ring (``deque`` with
  ``maxlen``); the oldest records fall off under sustained load and a
  ``dropped`` counter records the loss honestly.  An optional JSONL
  sink persists *every* record (one JSON object per line) for offline
  aggregation (:mod:`repro.obs.aggregate`);
* **thread-safe and non-blocking** -- one lock serialises ring appends;
  sink records go through an unbounded queue to a dedicated writer
  thread, so emitters (including the asyncio loop thread -- the serve
  handlers emit per hop) never wait on file I/O.  :meth:`close` drains
  the queue before closing, so nothing buffered is lost.

Correlation ids travel two ways: explicitly (``emit(..., rid=...)``
where the caller knows the request) and via **context binding**
(:func:`bind_rids`), which lets deep layers -- the harness, the disk
cache, the sweep scheduler -- tag their events with the requests of the
batch currently executing on their thread without threading ids through
every call signature.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import queue
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "EventLog",
    "NullEventLog",
    "bind_rids",
    "current_rids",
    "disable_events",
    "emit",
    "enable_events",
    "events_enabled",
    "get_event_log",
    "new_request_id",
    "use_event_log",
]

#: Default ring capacity -- at ~6 hops per serve request this holds the
#: last ~680 requests, plenty for a `/debug/trace` postmortem.
DEFAULT_CAPACITY = 4096

#: Per-process correlation-id sequence (the pid prefix keeps ids unique
#: across forked scheduler workers).
_RID_COUNTER = itertools.count(1)

#: Correlation ids bound to the current execution context (asyncio task
#: or worker thread); deep layers read these via :func:`current_rids`.
_BOUND_RIDS: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_obs_bound_rids", default=()
)


def new_request_id(prefix: str = "r") -> str:
    """A process-unique correlation id (``r<pid hex>-<sequence>``)."""
    return f"{prefix}{os.getpid():x}-{next(_RID_COUNTER):06d}"


@contextmanager
def bind_rids(*rids: str):
    """Bind correlation ids to the current context (thread or task).

    Events emitted through :func:`emit` while the binding is active are
    tagged with these ids automatically -- the serving layer binds a
    batch's request ids around the batch runner so harness / disk-cache /
    scheduler hops land in every member request's trace.
    """
    token = _BOUND_RIDS.set(tuple(rids))
    try:
        yield
    finally:
        _BOUND_RIDS.reset(token)


def current_rids() -> tuple[str, ...]:
    """The correlation ids bound to the current context (may be empty)."""
    return _BOUND_RIDS.get()


#: Queue sentinel telling the sink writer thread to drain and exit.
_SINK_CLOSE = object()


class EventLog:
    """Recording log: bounded ring plus an optional JSONL file sink."""

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink_path: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sink_path = sink_path
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._emitted = 0
        self._dropped = 0
        self._closed = False
        self._sink = open(sink_path, "a") if sink_path else None
        # Sink writes happen on a dedicated thread: ``emit`` runs on the
        # asyncio loop (serve hop events), and a synchronous
        # write+flush per record would stall every request behind disk
        # latency.  The queue is unbounded -- the sink exists to keep
        # *everything* the ring drops -- and ``close`` drains it.
        self._sink_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._writer: threading.Thread | None = None
        if self._sink is not None:
            self._writer = threading.Thread(
                target=self._writer_loop, name="repro-events-writer", daemon=True
            )
            self._writer.start()

    def _writer_loop(self) -> None:
        sink = self._sink
        while True:
            record = self._sink_queue.get()
            if record is _SINK_CLOSE:
                break
            sink.write(json.dumps(record, sort_keys=True))
            sink.write("\n")
            # Flush on queue drain rather than per record: bursts
            # coalesce into one syscall, idle sinks stay current.
            if self._sink_queue.empty():
                sink.flush()
        sink.flush()

    # -- recording ----------------------------------------------------------

    def emit(self, event: str, rid: str = "", **attrs) -> dict:
        """Record one event; returns the record (a plain dict).

        ``attrs`` must be JSON-serialisable.  ``rids`` (a list) is the
        conventional attribute for an event shared by several requests
        (a batch execution); :meth:`for_request` matches both forms.
        """
        record: dict = {"ts": round(time.time(), 6), "event": event, "rid": rid}
        record.update(attrs)
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(record)
            self._emitted += 1
            enqueue = self._sink is not None and not self._closed
        if enqueue:
            self._sink_queue.put(record)
        return record

    # -- introspection -------------------------------------------------------

    def recent(
        self,
        limit: int | None = None,
        event: str | None = None,
    ) -> list[dict]:
        """The newest buffered records, oldest first (optionally filtered
        by event name, optionally capped to the last ``limit``)."""
        with self._lock:
            records = list(self._ring)
        if event is not None:
            records = [r for r in records if r["event"] == event]
        if limit is not None and limit >= 0:
            records = records[-limit:]
        return records

    def for_request(self, rid: str) -> list[dict]:
        """Every buffered record tagged with ``rid`` -- directly, or as a
        member of a shared ``rids`` list -- in emission order."""
        with self._lock:
            records = list(self._ring)
        return [
            r for r in records
            if r.get("rid") == rid or rid in (r.get("rids") or ())
        ]

    def drain_info(self) -> dict:
        """Ring/sink state: emitted, dropped, buffered, capacity, sink."""
        with self._lock:
            return {
                "enabled": True,
                "emitted": self._emitted,
                "dropped": self._dropped,
                "buffered": len(self._ring),
                "capacity": self.capacity,
                "sink": self.sink_path,
            }

    def clear(self) -> None:
        """Drop buffered records and reset the counters (tests)."""
        with self._lock:
            self._ring.clear()
            self._emitted = 0
            self._dropped = 0

    def close(self) -> None:
        """Drain the writer queue, flush and close the sink (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sink = self._sink
        if sink is None:
            return
        self._sink_queue.put(_SINK_CLOSE)
        if self._writer is not None:
            self._writer.join(timeout=10.0)
            self._writer = None
        sink.close()
        with self._lock:
            self._sink = None


class NullEventLog:
    """Disabled-mode log: accepts every call, records nothing."""

    enabled = False
    capacity = 0
    sink_path = None

    def emit(self, event: str, rid: str = "", **attrs) -> dict:
        return {}

    def recent(self, limit: int | None = None, event: str | None = None) -> list:
        return []

    def for_request(self, rid: str) -> list:
        return []

    def drain_info(self) -> dict:
        return {
            "enabled": False,
            "emitted": 0,
            "dropped": 0,
            "buffered": 0,
            "capacity": 0,
            "sink": None,
        }

    def clear(self) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_LOG = NullEventLog()
_active: EventLog | NullEventLog = _NULL_LOG


def get_event_log() -> EventLog | NullEventLog:
    """The active event log (the shared null object when disabled)."""
    return _active


def events_enabled() -> bool:
    return _active.enabled


def enable_events(
    log: EventLog | None = None,
    capacity: int = DEFAULT_CAPACITY,
    sink_path: str | None = None,
) -> EventLog:
    """Install (and return) a recording event log as the active one."""
    global _active
    _active = log or EventLog(capacity=capacity, sink_path=sink_path)
    return _active


def disable_events() -> None:
    """Restore the no-op null log (closing the previous sink)."""
    global _active
    if isinstance(_active, EventLog):
        _active.close()
    _active = _NULL_LOG


@contextmanager
def use_event_log(log: EventLog | NullEventLog):
    """Temporarily install ``log`` (tests, scoped serve processes)."""
    global _active
    previous = _active
    _active = log
    try:
        yield log
    finally:
        _active = previous


def emit(event: str, rid: str | None = None, **attrs) -> None:
    """Emit on the active log, auto-tagging bound correlation ids.

    The cheap front door for deep layers: a no-op dict lookup when the
    null log is active.  With no explicit ``rid``, a single bound id
    becomes the record's ``rid``; several bound ids become a ``rids``
    list (the record's own ``rid`` stays empty).
    """
    log = _active
    if not log.enabled:
        return
    if rid is None:
        bound = _BOUND_RIDS.get()
        if len(bound) == 1:
            rid = bound[0]
        else:
            rid = ""
            if bound:
                attrs.setdefault("rids", list(bound))
    log.emit(event, rid=rid, **attrs)
