"""The asyncio simulation service: batching, backpressure, drain.

Request lifecycle (``POST /v1/simulate``):

1. **admission** -- a draining service answers 503; a service at its
   ``queue_limit`` of queued-plus-running requests answers a structured
   429 with ``Retry-After`` (load-shedding beats unbounded latency).
2. **validation** -- the body parses into a
   :class:`~repro.serve.protocol.SimJob` against the design registry
   (structured 400 on any malformed field).
3. **micro-batching** -- the job lands in the open batch for its
   ``(trace, scale)`` group, or opens one that stays open for
   ``batch_window`` seconds.  Requests that share a trace therefore
   execute together: the decoded columns
   (:meth:`~repro.workloads.trace.Trace.decoded`) are computed once per
   batch, and identical jobs collapse to one simulation (single-flight).
4. **execution** -- the batch runs on a worker thread.  Every job,
   suite member or inline spec alike, takes one path: it peeks the
   harness tiers (:func:`repro.experiments.harness.lookup_cached`:
   memo, then the result store -- the local disk cache, or the shared
   store ``--store`` names) and records a ``cache-lookup`` event.  If
   any job misses, the batch's trace is resolved and decoded once, and
   each miss takes the harness's one walk
   (:func:`repro.experiments.harness.run_one`).  With a shared store
   configured (``--store`` / ``REPRO_SERVE_STORE``) that walk runs the
   cross-node single-flight protocol
   (:func:`repro.experiments.resultstore.fetch_or_compute`): exactly
   one replica cluster-wide claims the lease and simulates while the
   others await its published result; a store outage degrades to local
   compute (outcome ``"local"``, ``store_degraded`` event,
   ``serve_store_errors_total`` metric) -- never a wrong answer, never
   a lost request.  The sweep scheduler is for batch sweeps only;
   ``REPRO_SCHED_*`` does not change how serve executes.
5. **response** -- the body is the canonical JSON of
   ``FrontendStats.to_dict()`` (byte-identical to a direct
   :func:`repro.experiments.harness.run_design` caller's serialisation);
   cache outcome and batch size ride in ``X-Repro-*`` headers.

SIGTERM/SIGINT (or :meth:`SimulationService.request_shutdown`) starts a
graceful drain: the listener closes, new requests on live connections
get 503, and every in-flight request is answered before the service
exits (bounded by ``drain_timeout``).

Metrics (when a recording registry is active): ``serve_requests_total``
by outcome, ``serve_request_seconds`` latency (serve-tuned sub-ms
buckets), ``serve_queue_depth``, ``serve_batch_size``,
``serve_cache_outcome_total`` and ``serve_trace_decodes_total``.  The
same numbers are always available as plain counters on ``/v1/stats``
(the tests pin those).

Request tracing: every ``/v1/simulate`` request gets a correlation id
(``X-Repro-Request-Id``) at admission and leaves a hop trail in the
service's event log (:mod:`repro.obs.events`) -- ``admit`` →
``batch-join`` → ``batch-execute`` → ``cache`` → ``respond`` -- with
the batch runner's thread bound to the batch's ids so its
``cache-lookup`` events, the harness's ``simulate`` span and the
disk-cache / result-store events join each member request's trace.  The
recent ring is served on ``GET /debug/trace``; per-hop timing
(batch-wait / executor-queue / simulate) rides back in ``X-Repro-*``
headers.  ``trace_buffer=0`` disables all of it (null event log).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.experiments import resultstore
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.events import EventLog, NullEventLog, bind_rids, new_request_id
from repro.obs.metrics import SERVE_BUCKETS, get_registry
from repro.serve.config import ServeConfig, config_from_env
from repro.serve.protocol import (
    RequestError,
    SimJob,
    canonical_json,
    parse_request,
    stats_payload,
)

__all__ = [
    "BatchOutcome",
    "ServiceHandle",
    "SimulationService",
    "default_batch_runner",
    "serve_in_thread",
]


# -- the default batch runner ------------------------------------------------
#
# Runs on a worker thread.  Tests inject replacement runners (slow ones
# for the backpressure and drain tests), mirroring the scheduler's
# fault-injection runners.


@dataclass
class BatchOutcome:
    """What one executed batch produced.

    Attributes:
        results: per unique job, ``(stats, outcome)`` with outcome one
            of ``"memo"`` / ``"disk"`` / ``"store"`` / ``"fresh"`` /
            ``"local"``.
        decodes: fresh trace decodes this batch forced (0 when the
            trace's decode was already cached, or every job was warm).
    """

    results: dict[SimJob, tuple[FrontendStats, str]] = field(default_factory=dict)
    decodes: int = 0


def default_batch_runner(jobs: list[SimJob]) -> BatchOutcome:
    """Answer every unique job of one batch (all share a trace).

    Every job, suite member or inline spec, first peeks the harness
    tiers (:func:`repro.experiments.harness.lookup_cached`) and records
    a ``cache-lookup`` event.  If any job misses, the batch's trace is
    resolved and decoded once, and each miss takes the harness's one
    walk (:func:`repro.experiments.harness.run_one`): with a shared
    store active that is the cross-node single-flight, so one replica
    cluster-wide simulates (``fresh``), the rest await its publish
    (``store``), and a backend failure degrades to local compute
    (``local``).  Responses therefore stay byte-identical to a direct
    caller's, and results land in the same memo and result store.
    """
    from repro.experiments import harness
    from repro.experiments.designs import design_registry

    registry = design_registry()
    outcome = BatchOutcome()
    misses: list[SimJob] = []
    for job in jobs:
        design = registry[job.design_key]
        stats, kind = harness.lookup_cached(
            job.trace_name, design,
            params=job.params, warmup_fraction=job.warmup_fraction,
            scale=job.scale, spec=job.spec,
        )
        obs_events.emit(
            "cache-lookup", layer="all" if stats is None else kind,
            app=job.trace_name, design=design.key, hit=stats is not None,
        )
        if stats is None:
            misses.append(job)
        else:
            outcome.results[job] = (stats, kind)
    if misses:
        first = misses[0]
        trace = harness.resolve_trace(first.trace_name, first.scale, first.spec)
        if not trace.is_decoded:
            outcome.decodes = 1
        trace.decoded()
    for job in misses:
        outcome.results[job] = harness.run_one(
            job.trace_name, registry[job.design_key],
            params=job.params, warmup_fraction=job.warmup_fraction,
            scale=job.scale, spec=job.spec,
        )
    return outcome


# -- batching ---------------------------------------------------------------


class _Batch:
    """One open micro-batch: unique jobs -> the waiters awaiting them.

    Each waiter is ``(future, rid)`` -- the correlation id rides along
    so batch execution and cache outcomes land in every member
    request's trace.
    """

    __slots__ = ("batch_id", "group_key", "jobs", "closed", "size")

    def __init__(self, batch_id: str, group_key: tuple[str, str]) -> None:
        self.batch_id = batch_id
        self.group_key = group_key
        self.jobs: dict[SimJob, list[tuple[asyncio.Future, str]]] = {}
        self.closed = False
        self.size = 0

    def add(self, job: SimJob, future: asyncio.Future, rid: str) -> None:
        self.jobs.setdefault(job, []).append((future, rid))
        self.size += 1

    def rids(self) -> list[str]:
        return [rid for waiters in self.jobs.values() for _, rid in waiters]


# -- the service ------------------------------------------------------------


class SimulationService:
    """Asyncio HTTP/JSON front door over the experiment stack.

    Args:
        config: service knobs (default: ``REPRO_SERVE_*`` environment).
        runner: batch executor ``runner(jobs) -> BatchOutcome`` run on a
            worker thread (default :func:`default_batch_runner`; tests
            inject slow or counting runners, as the scheduler's fault
            tests do).
        store: shared result store for cross-replica dedup (default:
            built from ``config.store_url``; tests inject a
            :class:`~repro.experiments.resultstore.FakeStore` shared by
            several in-process replicas).  A non-None store is
            installed process-wide, where it replaces the local disk
            cache as the harness's result tier and the harness's walk
            runs single-flight over it.  Without one the harness keeps
            its default disk-cache store, which never runs the lease
            protocol.
        events: the service's event log (default: built from
            ``config.trace_buffer`` and ``config.events_path``).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        runner: Callable[[list[SimJob]], BatchOutcome] | None = None,
        store: "resultstore.ResultStore | None" = None,
        events: EventLog | NullEventLog | None = None,
    ) -> None:
        self.config = config or config_from_env()
        self.store = (
            store
            if store is not None
            else resultstore.store_from_url(self.config.store_url)
        )
        if self.store is not None:
            resultstore.set_active_store(self.store)
        self._runner = runner or default_batch_runner
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._batches: dict[tuple[str, str], _Batch] = {}
        self._batch_seq = itertools.count(1)
        self._inflight = 0
        self._draining = False
        #: Event log: ring served on /debug/trace (+ optional JSONL
        #: sink).  trace_buffer=0 turns tracing off entirely.
        if events is None:
            events = (
                EventLog(
                    capacity=self.config.trace_buffer,
                    sink_path=self.config.events_path,
                )
                if self.config.trace_buffer > 0
                else NullEventLog()
            )
        self.events: EventLog | NullEventLog = events
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        from repro.experiments.designs import design_registry

        self._design_keys = frozenset(design_registry())
        #: Bound port once listening (== config.port unless that was 0).
        self.port: int | None = None
        #: Strong refs to in-flight batch-flush tasks: the event loop
        #: only holds weak references, so an unreferenced task can be
        #: garbage-collected mid-flight and its exception lost (REP102).
        self._background: set[asyncio.Task] = set()
        self.counters: dict[str, Any] = {
            "requests_total": 0,
            "ok": 0,
            "bad_requests": 0,
            "rejected": 0,
            "draining_rejected": 0,
            "errors": 0,
            "batches": 0,
            "batched_requests": 0,
            "max_batch_size": 0,
            "trace_decodes": 0,
            "fresh_jobs": 0,
            "outcomes": {"memo": 0, "disk": 0, "fresh": 0, "store": 0, "local": 0},
        }

    # -- lifecycle -----------------------------------------------------------

    async def serve_forever(self, _on_ready: Callable[[], None] | None = None) -> None:
        """Listen, serve until a shutdown is requested, then drain."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        installed_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown_event.set)
                installed_signals.append(signum)
            except (RuntimeError, NotImplementedError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            # The service's event log becomes the process-wide active
            # one while serving, so emissions from the deep layers
            # (harness, disk cache, result store) land in the same ring as
            # the service's own hop events.
            with obs_events.use_event_log(self.events):
                if _on_ready is not None:
                    _on_ready()
                await self._shutdown_event.wait()
                # Graceful drain: stop accepting, let in-flight work finish.
                self._draining = True
                server.close()
                await server.wait_closed()
                deadline = self._loop.time() + self.config.drain_timeout
                while self._inflight > 0 and self._loop.time() < deadline:
                    await asyncio.sleep(0.01)
        finally:
            for signum in installed_signals:
                self._loop.remove_signal_handler(signum)
            server.close()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self.events.close()

    def request_shutdown(self) -> None:
        """Begin a graceful drain (thread-safe; signals route here too)."""
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- admission + batching ------------------------------------------------

    async def _submit(
        self, job: SimJob, rid: str
    ) -> tuple[FrontendStats, str, int, tuple[float, float, float]]:
        loop = asyncio.get_running_loop()
        batch = self._batches.get(job.group_key)
        if batch is None or batch.closed:
            batch = _Batch(f"b{next(self._batch_seq):05d}", job.group_key)
            self._batches[job.group_key] = batch
            task = asyncio.ensure_future(self._flush_batch(batch))
            self._background.add(task)
            task.add_done_callback(self._background.discard)
        future: asyncio.Future = loop.create_future()
        batch.add(job, future, rid)
        self.events.emit(
            "batch-join", rid=rid, batch=batch.batch_id,
            group=list(batch.group_key), design=job.design_key,
        )
        return await future

    def _execute_batch(
        self, jobs: list[SimJob], rids: list[str], batch_id: str, size: int
    ) -> tuple[BatchOutcome, float, float]:
        """Worker-thread wrapper around the (injectable) runner: binds
        the batch's correlation ids so deep-layer events join every
        member request's trace, and times the actual execution."""
        with bind_rids(*rids):
            exec_start = time.monotonic()
            self.events.emit(
                "batch-execute", batch=batch_id, jobs=len(jobs),
                size=size, rids=rids,
            )
            outcome = self._runner(jobs)
            exec_end = time.monotonic()
        return outcome, exec_start, exec_end

    async def _flush_batch(self, batch: _Batch) -> None:
        try:
            if self.config.batch_window > 0:
                await asyncio.sleep(self.config.batch_window)
        finally:
            batch.closed = True
            if self._batches.get(batch.group_key) is batch:
                del self._batches[batch.group_key]
        registry = get_registry()
        self.counters["batches"] += 1
        self.counters["batched_requests"] += batch.size
        if batch.size > self.counters["max_batch_size"]:
            self.counters["max_batch_size"] = batch.size
        registry.histogram(
            "serve_batch_size", "simulate requests per executed micro-batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        ).observe(batch.size)
        jobs = list(batch.jobs)
        flush_ts = time.monotonic()
        try:
            outcome, exec_start, exec_end = (
                await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._execute_batch,
                    jobs, batch.rids(), batch.batch_id, batch.size,
                )
            )
        except Exception as exc:  # noqa: BLE001 - surfaced as per-request 500s
            for waiters in batch.jobs.values():
                for future, _rid in waiters:
                    if not future.done():
                        future.set_exception(exc)
            return
        timing = (flush_ts, exec_start, exec_end)
        self.counters["trace_decodes"] += outcome.decodes
        if outcome.decodes:
            registry.counter(
                "serve_trace_decodes_total", "fresh trace decodes forced by batches"
            ).inc(outcome.decodes)
        for job, waiters in batch.jobs.items():
            result = outcome.results.get(job)
            if result is None:
                error = RuntimeError(f"runner returned no result for {job.trace_name}")
                for future, _rid in waiters:
                    if not future.done():
                        future.set_exception(error)
                continue
            stats, kind = result
            if kind in ("fresh", "local"):
                # "local" is a degraded fresh simulation: the shared
                # store was unreachable, so this replica computed.
                self.counters["fresh_jobs"] += 1
            self.counters["outcomes"][kind] = (
                self.counters["outcomes"].get(kind, 0) + len(waiters)
            )
            registry.counter(
                "serve_cache_outcome_total", "simulate requests by cache outcome"
            ).inc(len(waiters), outcome=kind)
            for future, rid in waiters:
                self.events.emit(
                    "cache", rid=rid, batch=batch.batch_id, outcome=kind,
                )
                if not future.done():
                    future.set_result((stats, kind, batch.size, timing))

    # -- request handlers ----------------------------------------------------

    def _reject(
        self,
        rid: str,
        status: HTTPStatus,
        code: str,
        message: str,
        options: list[str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """A structured rejection, traced and tagged with the rid."""
        self.events.emit("respond", rid=rid, status=int(status), outcome=code)
        result = _error(status, code, message, options)
        result[2]["X-Repro-Request-Id"] = rid
        return result

    async def _simulate(self, body: bytes) -> tuple[int, bytes, dict[str, str]]:
        registry = get_registry()
        rid = new_request_id()
        self.events.emit("admit", rid=rid, bytes=len(body))
        self.counters["requests_total"] += 1
        if self._draining:
            self.counters["draining_rejected"] += 1
            registry.counter(
                "serve_requests_total", "simulate requests by outcome"
            ).inc(outcome="draining")
            return self._reject(rid, HTTPStatus.SERVICE_UNAVAILABLE, "draining",
                                "service is draining for shutdown")
        try:
            payload = json.loads(body)
        except ValueError:
            self.counters["bad_requests"] += 1
            registry.counter(
                "serve_requests_total", "simulate requests by outcome"
            ).inc(outcome="bad-request")
            return self._reject(rid, HTTPStatus.BAD_REQUEST, "bad-json",
                                "request body is not valid JSON")
        try:
            job = parse_request(
                payload,
                self._design_keys,
                default_scale=self.config.default_scale,
                max_events=self.config.max_events,
            )
        except RequestError as error:
            self.counters["bad_requests"] += 1
            registry.counter(
                "serve_requests_total", "simulate requests by outcome"
            ).inc(outcome="bad-request")
            return self._reject(
                rid, HTTPStatus.BAD_REQUEST, error.code, error.message,
                options=error.options,
            )
        if self._inflight >= self.config.queue_limit:
            self.counters["rejected"] += 1
            registry.counter(
                "serve_requests_total", "simulate requests by outcome"
            ).inc(outcome="rejected")
            retry_after = max(1, round(self.config.retry_after))
            status, body_bytes, headers = self._reject(
                rid, HTTPStatus.TOO_MANY_REQUESTS, "queue-full",
                f"admission queue is full ({self.config.queue_limit} in flight); "
                f"retry after {retry_after}s",
            )
            headers["Retry-After"] = str(retry_after)
            return status, body_bytes, headers
        started = time.monotonic()
        self._inflight += 1
        registry.gauge(
            "serve_queue_depth", "simulate requests queued or running"
        ).set(self._inflight)
        try:
            stats, kind, batch_size, timing = await self._submit(job, rid)
        except Exception as exc:  # noqa: BLE001 - reported as a structured 500
            self.counters["errors"] += 1
            registry.counter(
                "serve_requests_total", "simulate requests by outcome"
            ).inc(outcome="error")
            return self._reject(rid, HTTPStatus.INTERNAL_SERVER_ERROR, "internal",
                                f"{type(exc).__name__}: {exc}")
        finally:
            self._inflight -= 1
            registry.gauge(
                "serve_queue_depth", "simulate requests queued or running"
            ).set(self._inflight)
            registry.histogram(
                "serve_request_seconds", "simulate request latency",
                buckets=SERVE_BUCKETS,
            ).observe(time.monotonic() - started, design=job.design_key)
        self.counters["ok"] += 1
        registry.counter(
            "serve_requests_total", "simulate requests by outcome"
        ).inc(outcome="ok")
        # Per-hop latency decomposition (all monotonic-clock deltas):
        # how long the request sat in its open micro-batch, how long
        # the closed batch waited for an executor thread, and how long
        # the runner actually took.
        flush_ts, exec_start, exec_end = timing
        seconds = time.monotonic() - started
        batch_wait_s = max(0.0, flush_ts - started)
        queue_s = max(0.0, exec_start - flush_ts)
        simulate_s = max(0.0, exec_end - exec_start)
        self.events.emit(
            "respond", rid=rid, status=200, outcome=kind,
            app=job.trace_name, design=job.design_key,
            seconds=round(seconds, 6),
            batch_wait_s=round(batch_wait_s, 6),
            queue_s=round(queue_s, 6),
            simulate_s=round(simulate_s, 6),
        )
        return (
            HTTPStatus.OK,
            stats_payload(stats),
            {
                "X-Repro-Outcome": kind,
                "X-Repro-Batch-Size": str(batch_size),
                "X-Repro-App": job.trace_name,
                "X-Repro-Design": job.design_key,
                "X-Repro-Request-Id": rid,
                "X-Repro-Batch-Wait-Seconds": f"{batch_wait_s:.6f}",
                "X-Repro-Queue-Seconds": f"{queue_s:.6f}",
                "X-Repro-Simulate-Seconds": f"{simulate_s:.6f}",
            },
        )

    def stats_snapshot(self) -> dict:
        """Everything ``/v1/stats`` serves (plain counters, no registry)."""
        from repro.experiments import diskcache, harness, scheduler

        service = {
            key: (dict(value) if isinstance(value, dict) else value)
            for key, value in self.counters.items()
        }
        service["queue_depth"] = self._inflight
        service["queue_limit"] = self.config.queue_limit
        service["draining"] = self._draining
        return {
            "service": service,
            "scheduler": scheduler.session_counters(),
            "harness_cache": harness.cache_info(),
            "disk_cache": diskcache.disk_cache_info(),
            "result_store": (
                self.store.describe() if self.store is not None else {"kind": "none"}
            ),
        }

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        request_headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        request_headers = request_headers or {}
        parts = urlsplit(target)
        path = parts.path
        if path == "/v1/simulate":
            if method != "POST":
                return _error(HTTPStatus.METHOD_NOT_ALLOWED, "bad-method",
                              "simulate requires POST")
            return await self._simulate(body)
        if method != "GET":
            return _error(HTTPStatus.METHOD_NOT_ALLOWED, "bad-method",
                          f"{path} requires GET")
        if path == "/healthz":
            status = "draining" if self._draining else "ok"
            return HTTPStatus.OK, canonical_json(
                {
                    "status": status,
                    "inflight": self._inflight,
                    "events": self.events.drain_info(),
                }
            ), {}
        if path == "/metrics":
            accept = request_headers.get("accept", "")
            if "text/plain" in accept:
                return (
                    HTTPStatus.OK,
                    get_registry().to_prometheus_text().encode(),
                    {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                )
            return HTTPStatus.OK, get_registry().to_json().encode(), {}
        if path == "/debug/trace":
            query = parse_qs(parts.query)
            rid = query.get("rid", [None])[0]
            event = query.get("event", [None])[0]
            limit_raw = query.get("limit", [None])[0]
            try:
                limit = int(limit_raw) if limit_raw is not None else None
            except ValueError:
                return _error(HTTPStatus.BAD_REQUEST, "bad-limit",
                              f"limit must be an integer, got {limit_raw!r}")
            if limit is not None and limit < 0:
                return _error(HTTPStatus.BAD_REQUEST, "bad-limit",
                              f"limit must be non-negative, got {limit_raw!r}")
            if rid is not None:
                records = self.events.for_request(rid)
            else:
                records = self.events.recent(limit=limit, event=event)
            return HTTPStatus.OK, canonical_json(
                {"drain": self.events.drain_info(), "records": records}
            ), {}
        if path == "/v1/stats":
            return HTTPStatus.OK, canonical_json(self.stats_snapshot()), {}
        if path == "/v1/designs":
            return HTTPStatus.OK, canonical_json(sorted(self._design_keys)), {}
        if path == "/v1/apps":
            from repro.workloads.suite import SCALES, build_suite, current_scale

            query = parse_qs(parts.query)
            scale = query.get("scale", [None])[0] or self.config.default_scale
            scale = scale or current_scale()
            if scale not in SCALES:
                return _error(HTTPStatus.BAD_REQUEST, "unknown-scale",
                              f"scale must be one of {sorted(SCALES)}")
            return HTTPStatus.OK, canonical_json(
                [spec.name for spec in build_suite(scale)]
            ), {}
        return _error(HTTPStatus.NOT_FOUND, "not-found", f"no route for {path}")

    # -- the HTTP layer ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, keep_alive, body, request_headers, parse_error = request
                if parse_error is not None:
                    status, payload, headers = parse_error
                    keep_alive = False
                else:
                    status, payload, headers = await self._dispatch(
                        method, target, body, request_headers
                    )
                keep_alive = keep_alive and not self._draining
                writer.write(_encode_response(status, payload, headers, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # event-loop teardown after the drain completed
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request.  Returns ``None`` on clean EOF, or
        ``(method, target, keep_alive, body, headers, error)`` where a
        non-None ``error`` is a ready-to-send response triple."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            return "", "", False, b"", {}, _error(
                HTTPStatus.BAD_REQUEST, "bad-request", "malformed request line"
            )
        headers: dict[str, str] = {}
        while True:
            header_line = await reader.readline()
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 100:
                return method, target, False, b"", headers, _error(
                    HTTPStatus.BAD_REQUEST, "bad-request", "too many headers"
                )
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            return method, target, False, b"", headers, _error(
                HTTPStatus.BAD_REQUEST, "bad-request",
                f"bad Content-Length {raw_length!r}",
            )
        if length < 0 or length > self.config.max_body_bytes:
            return method, target, False, b"", headers, _error(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE, "too-large",
                f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, keep_alive, body, headers, None


def _error(
    status: HTTPStatus,
    code: str,
    message: str,
    options: list[str] | None = None,
) -> tuple[int, bytes, dict[str, str]]:
    error: dict[str, object] = {"code": code, "message": message}
    if options is not None:
        # Valid values for the rejected field (e.g. the live design
        # registry), so clients can self-correct from the 400 alone.
        error["options"] = options
    body = canonical_json({"ok": False, "error": error})
    return int(status), body, {}


def _encode_response(
    status: int, body: bytes, headers: dict[str, str], keep_alive: bool
) -> bytes:
    content_type = headers.get("Content-Type", "application/json")
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(
        f"{name}: {value}"
        for name, value in headers.items()
        if name != "Content-Type"
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# -- in-process hosting (tests, notebooks) -----------------------------------


@dataclass
class ServiceHandle:
    """A service running on a background thread (its own event loop)."""

    service: SimulationService
    thread: threading.Thread

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def shutdown(self, timeout: float = 15.0) -> None:
        """Graceful drain, then join the hosting thread."""
        self.service.request_shutdown()
        self.thread.join(timeout)


def serve_in_thread(
    config: ServeConfig | None = None,
    runner: Callable[[list[SimJob]], BatchOutcome] | None = None,
    store: "resultstore.ResultStore | None" = None,
) -> ServiceHandle:
    """Boot a service on a daemon thread and wait until it listens.

    The end-to-end tests use this (with ``port=0`` for an ephemeral
    port); production deployments run ``python -m repro serve`` instead.
    The distributed tests boot several of these over one shared
    ``store`` to exercise cross-replica single-flight in-process.
    """
    service = SimulationService(config=config, runner=runner, store=store)
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(service.serve_forever(_on_ready=ready.set))
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=15.0):
        raise RuntimeError("service did not start listening within 15s")
    if failure:
        raise RuntimeError(f"service failed to start: {failure[0]}") from failure[0]
    return ServiceHandle(service=service, thread=thread)
