"""One telemetry stream: spans and events in a bounded ring + JSONL sink.

Next to :mod:`repro.obs.metrics` (aggregates), this is the observability
layer's only recorder.  Every record is flat, timestamped JSON:

* **events** (:func:`emit`) -- one per hop a serve request takes through
  admission, batching, execution, the cache tiers and the response, and
  one per scheduler task outcome;
* **spans** (:func:`span`) -- one ``"span"`` record per closed, named
  wall-clock interval (trace generation, simulation, a scheduler sweep,
  a report section) with its own id, its parent's id and its depth, so
  the span tree can be rebuilt from the stream.

Both are tagged with the request **correlation ids** bound where they
were recorded, so a slow or failed request -- including the simulation
it triggered -- can be reconstructed long after it completed.

Design constraints (matching ``repro.obs.metrics``):

* **dependency-free** -- records are plain JSON-serialisable dicts;
* **null object when disabled** -- the module-level default log is a
  shared no-op, so emitters never branch on an "is tracing on?" flag
  and a span on the null log is an empty ``with``;
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
cache, the sweep scheduler -- tag their records with the requests of the
batch currently executing on their thread without threading ids through
every call signature.  The open span lives in a contextvar too, so
asyncio tasks and threads nest their spans correctly.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import queue
import threading
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager
from typing import Callable

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
    "span",
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

    Records emitted through :func:`emit` or :func:`span` while the
    binding is active are tagged with these ids automatically -- the
    serving layer binds a batch's request ids around the batch runner so
    harness / disk-cache / scheduler hops land in every member request's
    trace.
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
    """Recording log: bounded ring plus an optional JSONL file sink.

    ``trace_memory`` adds each span's ``tracemalloc`` peak to its record
    (starting ``tracemalloc`` if needed; :meth:`close` stops it again).
    ``on_span`` is called with every span record as it closes (the CLI
    hooks this for ``--progress`` status lines).
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink_path: str | None = None,
        trace_memory: bool = False,
        on_span: Callable[[dict], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.sink_path = sink_path
        self.trace_memory = trace_memory
        self.on_span = on_span
        self._tracemalloc_started = False
        if trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._tracemalloc_started = True
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

    def emit(self, event: str, rid: str = "", **attrs) -> None:
        """Record one event.

        ``attrs`` must be JSON-serialisable.  ``rids`` (a list) is the
        conventional attribute for an event shared by several requests
        (a batch execution); :meth:`for_request` matches both forms.
        """
        self.append({"ts": round(time.time(), 6), "event": event, "rid": rid, **attrs})

    def append(self, record: dict) -> None:
        """Buffer one finished record and queue it for the sink."""
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(record)
            self._emitted += 1
            enqueue = self._sink is not None and not self._closed
        if enqueue:
            self._sink_queue.put(record)

    # -- introspection -------------------------------------------------------

    def recent(
        self,
        limit: int | None = None,
        event: str | None = None,
    ) -> list[dict]:
        """The newest buffered records, oldest first (optionally filtered
        by event name, optionally capped to the last ``limit`` >= 0)."""
        with self._lock:
            records = list(self._ring)
        if event is not None:
            records = [r for r in records if r["event"] == event]
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            records = records[-limit:] if limit else []
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
        """Drain the writer queue, flush and close the sink, and stop
        ``tracemalloc`` if this log started it (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sink = self._sink
        if self._tracemalloc_started:
            tracemalloc.stop()
            self._tracemalloc_started = False
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

    def emit(self, event: str, rid: str = "", **attrs) -> None:
        pass

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


#: Open :func:`use_event_log` scopes, oldest first, each ``[log, the
#: log it replaced]``.  Scopes may close out of order (two in-process
#: replicas drained A then B), so a closing scope unlinks its own entry
#: instead of restoring LIFO.
_SCOPES: list[list] = []
_SCOPES_LOCK = threading.Lock()


@contextmanager
def use_event_log(log: EventLog | NullEventLog):
    """Temporarily install ``log`` (tests, scoped serve processes)."""
    global _active
    with _SCOPES_LOCK:
        scope = [log, _active]
        _SCOPES.append(scope)
        _active = log
    try:
        yield log
    finally:
        with _SCOPES_LOCK:
            index = next(
                position for position, entry in enumerate(_SCOPES) if entry is scope
            )
            del _SCOPES[index]
            if index < len(_SCOPES):
                # A later scope replaced this one: it now replaced ours.
                _SCOPES[index][1] = scope[1]
            else:
                _active = scope[1]


def _tag_rids(attrs: dict) -> str:
    """The record ``rid`` for the ids bound to this context: a single
    bound id becomes the ``rid``; several become a ``rids`` list in
    ``attrs`` (the record's own ``rid`` stays empty)."""
    bound = _BOUND_RIDS.get()
    if len(bound) == 1:
        return bound[0]
    if bound:
        attrs.setdefault("rids", list(bound))
    return ""


def emit(event: str, rid: str | None = None, **attrs) -> None:
    """Emit on the active log, auto-tagging bound correlation ids.

    The cheap front door for deep layers: a no-op dict lookup when the
    null log is active.  With no explicit ``rid`` the record is tagged
    with the bound ids (see :func:`_tag_rids`).
    """
    log = _active
    if not log.enabled:
        return
    if rid is None:
        rid = _tag_rids(attrs)
    log.emit(event, rid=rid, **attrs)


class _OpenSpan:
    """The innermost open span of one context (the parent of the next)."""

    __slots__ = ("span_id", "depth", "peak")

    def __init__(self, span_id: int, depth: int) -> None:
        self.span_id = span_id
        self.depth = depth
        #: Largest ``tracemalloc`` peak seen before a child's reset.
        self.peak = 0


#: Process-wide span ids (``next`` on a count is atomic under the GIL).
_SPAN_IDS = itertools.count(1)

#: The innermost open span of the current context (asyncio task or thread).
_OPEN_SPAN: contextvars.ContextVar[_OpenSpan | None] = contextvars.ContextVar(
    "repro_obs_open_span", default=None
)


@contextmanager
def span(name: str, **attrs):
    """Time a named interval; on close, record one ``"span"`` record.

    Yields the attrs dict, which the body may extend with results it
    computes.  The record carries ``ts`` (start), ``name``, ``seconds``,
    ``span`` (its id), ``parent`` (the enclosing span's id, or None),
    ``depth``, the attrs, the bound correlation ids (tagged as
    :func:`emit` tags them) and, when the log traces memory,
    ``memory_peak_kib``.  Children close before their parents, so a
    parent's record follows its children's in the stream.
    """
    log = _active
    if not isinstance(log, EventLog):
        yield attrs
        return
    parent = _OPEN_SPAN.get()
    current = _OpenSpan(next(_SPAN_IDS), 0 if parent is None else parent.depth + 1)
    token = _OPEN_SPAN.set(current)
    if log.trace_memory:
        # reset_peak() is process-global: fold the peak so far into the
        # parent first, or the parent would lose it.
        if parent is not None:
            parent.peak = max(parent.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
    ts = time.time()
    started = time.perf_counter()
    try:
        yield attrs
    finally:
        seconds = time.perf_counter() - started
        _OPEN_SPAN.reset(token)
        rid = _tag_rids(attrs)
        record = {
            "ts": round(ts, 6),
            "event": "span",
            "rid": rid,
            "name": name,
            "seconds": round(seconds, 6),
            "span": current.span_id,
            "parent": None if parent is None else parent.span_id,
            "depth": current.depth,
        }
        record.update(attrs)
        if log.trace_memory:
            peak = max(current.peak, tracemalloc.get_traced_memory()[1])
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            record["memory_peak_kib"] = round(peak / 1024.0, 1)
        log.append(record)
        if log.on_span is not None:
            log.on_span(record)
