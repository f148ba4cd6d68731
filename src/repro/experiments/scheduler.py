"""Work-stealing, shard-aware scheduler for experiment sweeps.

``run_suite`` used to fan simulations over a bare fork pool: no
sharding (one task per (app, design), however long it runs), no
timeouts, and no recovery -- one hung or crashed worker lost the whole
sweep.  This module decomposes an experiment grid into
``(trace shard x design x params)`` tasks and runs them on a
process-per-worker pool with:

* **sharding** -- each task replays the trace prefix ``[0, start)`` for
  state warmup and measures ``[start, stop)``
  (``FrontendSimulator.run(measure_range=...)``).  Per-shard
  ``FrontendStats`` merge exactly (:meth:`FrontendStats.merge`, integer
  ticks), so the merged result is bit-identical to an unsharded run.
  Intra-trace sharding deliberately trades total CPU (the prefix replay)
  for bounded per-task runtime -- which is what makes per-task timeouts
  meaningful and crash/resume granular;
* **work stealing** -- tasks are dealt round-robin into per-worker
  ownership deques; an idle worker drains its own deque from the front
  and steals from the *back* of the longest other deque;
* **per-task timeouts** -- a worker past its deadline is terminated and
  respawned, the task requeued;
* **bounded retries with exponential backoff** -- a failed attempt
  (exception, timeout, worker death) is retried up to ``max_retries``
  times with deterministic ``base * 2**(attempt-1)`` delays (no jitter:
  reproducibility beats thundering-herd lore at this scale);
* **graceful degradation** -- a task that exhausts its retries becomes a
  structured :class:`TaskFailure` in the report instead of aborting the
  sweep;
* **crash-safe resume** -- every finished shard is stored in the disk
  cache under :func:`repro.experiments.diskcache.shard_result_key`;
  re-running a killed sweep loads finished shards and simulates only the
  missing ones.  Fully-merged results are additionally stored under the
  ordinary unsharded result key, so later unsharded runs disk-hit too.

Observability: ``scheduler_tasks_total{outcome}``,
``scheduler_retries_total``, ``scheduler_timeouts_total``,
``scheduler_steals_total`` counters and a ``scheduler_shard_seconds``
histogram in the metrics registry, plus an optional JSONL task log
(``log_path`` / ``--scheduler-log``) that CI uploads as an artifact.

Failures accumulate in a module-level session list; the evaluation
report drains them into its failure appendix
(:func:`drain_failures`).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import IO, Any

from repro.experiments import diskcache
from repro.experiments.designs import Design
from repro.frontend.params import CoreParams, ICELAKE
from repro.frontend.simulator import FrontendSimulator
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.workloads.suite import build_suite, current_scale, get_trace, suite_spec

__all__ = [
    "SchedulerConfig",
    "ShardTask",
    "TaskFailure",
    "ScheduleReport",
    "config_from_env",
    "configure",
    "resolve_config",
    "drain_failures",
    "peek_failures",
    "session_counters",
    "reset_session_counters",
    "shard_bounds",
    "build_shard_tasks",
    "run_grid",
]


# -- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of one scheduled sweep (CLI flags / ``REPRO_SCHED_*`` env).

    Attributes:
        workers: forked worker processes (``<= 1`` or a fork-less
            platform runs tasks serially in-process).
        shards: measured-region shards per (app, design) pair.
        task_timeout: wall-seconds budget per task; ``None`` disables.
            Only enforceable with forked workers (a serial run cannot
            interrupt itself).
        max_retries: retry budget per task after its first attempt.
        backoff_base: first retry delay, seconds; attempt ``k`` waits
            ``backoff_base * 2**(k-1)``, capped at ``backoff_max``.
        log_path: append one JSONL record per task outcome here.
    """

    workers: int = 1
    shards: int = 1
    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    log_path: str | None = None


def config_from_env() -> SchedulerConfig:
    """Build the default config from ``REPRO_SCHED_*`` variables."""

    def _int(name: str, default: int) -> int:
        raw = os.environ.get(name, "")
        return int(raw) if raw else default

    def _float(name: str) -> float | None:
        raw = os.environ.get(name, "")
        return float(raw) if raw else None

    timeout = _float("REPRO_SCHED_TASK_TIMEOUT")
    return SchedulerConfig(
        workers=_int("REPRO_SCHED_WORKERS", 1),
        shards=_int("REPRO_SCHED_SHARDS", 1),
        task_timeout=timeout,
        max_retries=_int("REPRO_SCHED_MAX_RETRIES", 2),
        log_path=os.environ.get("REPRO_SCHED_LOG") or None,
    )


#: Process-wide config override (the CLI's scheduler flags set this);
#: ``None`` falls back to the environment.
_ACTIVE_CONFIG: SchedulerConfig | None = None


def configure(config: SchedulerConfig | None) -> None:
    """Install (or with ``None``, clear) the process-wide config."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = config


def resolve_config(
    workers: int | None = None,
    shards: int | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
    log_path: str | None = None,
) -> SchedulerConfig:
    """The active config with any explicitly-passed fields overridden."""
    config = _ACTIVE_CONFIG if _ACTIVE_CONFIG is not None else config_from_env()
    overrides: dict[str, Any] = {}
    if workers is not None:
        overrides["workers"] = workers
    if shards is not None:
        overrides["shards"] = shards
    if task_timeout is not None:
        overrides["task_timeout"] = task_timeout
    if max_retries is not None:
        overrides["max_retries"] = max_retries
    if log_path is not None:
        overrides["log_path"] = log_path
    return replace(config, **overrides) if overrides else config


# -- tasks -------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: measure shard ``[start, stop)`` of one run."""

    trace_name: str
    scale: str
    design_key: str
    params: CoreParams
    warmup_fraction: float
    shard_index: int
    n_shards: int
    start: int
    stop: int
    n_events: int
    #: Disk-cache key of this shard's result (None when uncacheable,
    #: e.g. an ad-hoc trace with no suite spec).
    disk_key: str | None = None

    @property
    def task_id(self) -> str:
        return (
            f"{self.trace_name}:{self.design_key}"
            f":{self.shard_index + 1}/{self.n_shards}"
        )

    @property
    def group(self) -> tuple[str, str]:
        """Tasks of one (app, design) run merge into one result."""
        return (self.trace_name, self.design_key)


def shard_bounds(
    n_events: int, warmup_fraction: float, n_shards: int
) -> list[tuple[int, int]]:
    """Partition the measured region ``[warm_limit, n_events)``.

    The warmup prefix is never split -- every shard replays it (and its
    predecessors' measured events) unmeasured, so state at each shard's
    start is exactly the unsharded run's state.  Remainders go to the
    leading shards; at most ``n_shards`` non-empty bounds are returned
    (fewer when the measured region is shorter than the shard count).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    warm_limit = int(n_events * warmup_fraction)
    measured = n_events - warm_limit
    bounds = []
    start = warm_limit
    for index in range(n_shards):
        size = measured // n_shards + (1 if index < measured % n_shards else 0)
        if size == 0 and index > 0:
            break
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retries (the sweep still completed)."""

    task_id: str
    trace_name: str
    design_key: str
    shard_index: int
    n_shards: int
    kind: str  #: "exception" | "timeout" | "crash"
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "task": self.task_id,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class ScheduleReport:
    """Everything a sweep produced, including what went wrong."""

    #: (app, design) -> exactly-merged stats; groups with a failed shard
    #: are absent (the caller decides whether to fall back or surface).
    merged: dict[tuple[str, str], FrontendStats] = field(default_factory=dict)
    #: (app, design, shard index) -> that shard's stats.
    shard_results: dict[tuple[str, str, int], FrontendStats] = field(
        default_factory=dict
    )
    failures: list[TaskFailure] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: (app, design) -> summed worker wall-seconds across its shards.
    group_seconds: dict[tuple[str, str], float] = field(default_factory=dict)


#: Failures accumulated across every sweep of this process; the report's
#: failure appendix drains these.
_SESSION_FAILURES: list[TaskFailure] = []

#: Task counters accumulated across every sweep of this process.  The
#: serving layer's warm-cache tests pin ``session_counters()["fresh"]``
#: at zero to prove a request storm against a warm cache never
#: simulates; ``/v1/stats`` republishes them.
_SESSION_COUNTERS: dict[str, int] = {}

#: Counters/failures are written by serve worker threads running sweeps
#: while the event loop republishes them on ``/v1/stats`` (REP104).
_SESSION_LOCK = threading.Lock()


def session_counters() -> dict[str, int]:
    """Task counters summed over every ``run_grid`` call so far."""
    with _SESSION_LOCK:
        return dict(_SESSION_COUNTERS)


def reset_session_counters() -> None:
    with _SESSION_LOCK:
        _SESSION_COUNTERS.clear()


def _accumulate_session_counters(counters: dict[str, int]) -> None:
    with _SESSION_LOCK:
        for name, value in counters.items():
            _SESSION_COUNTERS[name] = _SESSION_COUNTERS.get(name, 0) + value


def drain_failures() -> list[TaskFailure]:
    """Return-and-clear the session's accumulated failures."""
    with _SESSION_LOCK:
        failures = list(_SESSION_FAILURES)
        _SESSION_FAILURES.clear()
    return failures


def peek_failures() -> list[TaskFailure]:
    with _SESSION_LOCK:
        return list(_SESSION_FAILURES)


# -- workers -----------------------------------------------------------------

#: Designs visible to forked workers and the serial path, keyed by
#: design key; populated pre-fork (Design holds closures, which do not
#: pickle -- fork inheritance is the transport, as in the old pool).
_TASK_DESIGNS: dict[str, Design] = {}


def _default_runner(task: ShardTask, attempt: int) -> FrontendStats:
    """Simulate one shard (or load it from the disk cache)."""
    del attempt  # the default runner does not vary; fault injectors do
    if task.disk_key is not None:
        cached = diskcache.load_result(task.disk_key)
        if cached is not None:
            return cached
    trace = get_trace(task.trace_name, task.scale)
    design = _TASK_DESIGNS[task.design_key]
    btb, simulator_kwargs = design.build()
    simulator = FrontendSimulator(btb, params=task.params, **simulator_kwargs)
    stats = simulator.run(
        trace,
        warmup_fraction=task.warmup_fraction,
        measure_range=(task.start, task.stop),
    )
    if task.disk_key is not None:
        diskcache.store_result(task.disk_key, stats)
    return stats


def _worker_main(conn, runner) -> None:
    """Forked worker loop: receive a task, reply with stats or an error."""
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, task, attempt = message
            started = time.perf_counter()
            try:
                stats = runner(task, attempt)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                conn.send(
                    (
                        "fail",
                        f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - started,
                    )
                )
            else:
                conn.send(("done", stats, time.perf_counter() - started))
    except (EOFError, OSError, KeyboardInterrupt):
        return


class _Worker:
    """Parent-side handle of one forked worker process."""

    __slots__ = ("index", "process", "conn", "task", "attempt", "deadline")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.task: ShardTask | None = None
        self.attempt = 0
        self.deadline: float | None = None

    def spawn(self, context, runner) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main, args=(child_conn, runner), daemon=True
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def assign(self, task: ShardTask, attempt: int, timeout: float | None) -> None:
        self.task = task
        self.attempt = attempt
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.conn.send(("task", task, attempt))

    def clear(self) -> None:
        self.task = None
        self.attempt = 0
        self.deadline = None

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.conn is not None:
            self.conn.close()
        self.process = None
        self.conn = None

    def shutdown(self) -> None:
        """Polite stop for an idle worker (falls back to terminate)."""
        try:
            if self.conn is not None:
                self.conn.send(("stop",))
            if self.process is not None:
                self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        self.terminate()


# -- the scheduling loop -----------------------------------------------------


class _Sweep:
    """One sweep's mutable state: queues, retries, results, counters."""

    def __init__(self, tasks: list[ShardTask], config: SchedulerConfig) -> None:
        self.config = config
        self.total = len(tasks)
        n_queues = max(1, min(config.workers, self.total) or 1)
        #: Per-worker ownership deques, dealt round-robin.
        self.queues: list[deque[ShardTask]] = [deque() for _ in range(n_queues)]
        for index, task in enumerate(tasks):
            self.queues[index % n_queues].append(task)
        #: (eligible_at, seq, task, next_attempt) retry entries.
        self.retry_heap: list[tuple[float, int, ShardTask, int]] = []
        self._seq = itertools.count()
        self.attempts: dict[str, int] = {}
        self.results: dict[tuple[str, str, int], FrontendStats] = {}
        self.task_seconds: dict[str, float] = {}
        self.failures: list[TaskFailure] = []
        self.counters = {
            "tasks": self.total,
            "completed": 0,
            "fresh": 0,
            "disk_hits": 0,
            "retries": 0,
            "timeouts": 0,
            "crashes": 0,
            "steals": 0,
            "failed": 0,
        }
        self._log_handle: IO[str] | None = None
        if config.log_path:
            os.makedirs(os.path.dirname(config.log_path) or ".", exist_ok=True)
            self._log_handle = open(config.log_path, "a", encoding="utf-8")

    # -- logging / accounting ------------------------------------------------

    def log(self, record: dict) -> None:
        if self._log_handle is not None:
            self._log_handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._log_handle.flush()

    def close(self) -> None:
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None

    def done(self) -> bool:
        return self.counters["completed"] + self.counters["failed"] >= self.total

    def record_success(
        self, task: ShardTask, stats: FrontendStats, seconds: float, worker: int,
        outcome: str = "ok",
    ) -> None:
        key = (task.trace_name, task.design_key, task.shard_index)
        self.results[key] = stats
        self.task_seconds[task.task_id] = seconds
        self.counters["completed"] += 1
        if outcome == "disk-hit":
            self.counters["disk_hits"] += 1
        else:
            self.counters["fresh"] += 1
        registry = get_registry()
        registry.counter(
            "scheduler_tasks_total", "scheduler task terminations by outcome"
        ).inc(outcome=outcome)
        registry.histogram(
            "scheduler_shard_seconds", "wall seconds per shard task"
        ).observe(seconds, design=task.design_key, app=task.trace_name)
        self.log(
            {
                "event": "task",
                "task": task.task_id,
                "outcome": outcome,
                "attempt": self.attempts.get(task.task_id, 0) + 1,
                "seconds": round(seconds, 6),
                "worker": worker,
            }
        )

    def record_attempt_failure(
        self, task: ShardTask, kind: str, message: str, worker: int
    ) -> None:
        """A failed attempt: schedule a retry or record a final failure."""
        attempts = self.attempts.get(task.task_id, 0) + 1
        self.attempts[task.task_id] = attempts
        registry = get_registry()
        if kind == "timeout":
            self.counters["timeouts"] += 1
            registry.counter(
                "scheduler_timeouts_total", "tasks killed at their deadline"
            ).inc()
        elif kind == "crash":
            self.counters["crashes"] += 1
        config = self.config
        if attempts <= config.max_retries:
            delay = min(
                config.backoff_base * (2 ** (attempts - 1)), config.backoff_max
            )
            self.counters["retries"] += 1
            registry.counter(
                "scheduler_retries_total", "task attempts retried after a failure"
            ).inc(kind=kind)
            heapq.heappush(
                self.retry_heap,
                (time.monotonic() + delay, next(self._seq), task, attempts + 1),
            )
            self.log(
                {
                    "event": "retry",
                    "task": task.task_id,
                    "kind": kind,
                    "message": message,
                    "attempt": attempts,
                    "delay": round(delay, 6),
                    "worker": worker,
                }
            )
            return
        self.counters["failed"] += 1
        registry.counter(
            "scheduler_tasks_total", "scheduler task terminations by outcome"
        ).inc(outcome="failed")
        failure = TaskFailure(
            task_id=task.task_id,
            trace_name=task.trace_name,
            design_key=task.design_key,
            shard_index=task.shard_index,
            n_shards=task.n_shards,
            kind=kind,
            message=message,
            attempts=attempts,
        )
        self.failures.append(failure)
        with _SESSION_LOCK:
            _SESSION_FAILURES.append(failure)
        self.log(
            {
                "event": "task",
                "task": task.task_id,
                "outcome": "failed",
                "kind": kind,
                "message": message,
                "attempt": attempts,
                "worker": worker,
            }
        )

    # -- task selection ------------------------------------------------------

    def next_assignment(self, worker_index: int) -> tuple[ShardTask, int] | None:
        """Own deque first, then steal, then an eligible retry."""
        if not self.queues:
            return None
        own = self.queues[worker_index % len(self.queues)]
        if own:
            return own.popleft(), 1
        victim = None
        for queue in self.queues:
            if queue and (victim is None or len(queue) > len(victim)):
                victim = queue
        if victim is not None:
            self.counters["steals"] += 1
            get_registry().counter(
                "scheduler_steals_total", "tasks stolen from another worker's deque"
            ).inc()
            return victim.pop(), 1
        if self.retry_heap and self.retry_heap[0][0] <= time.monotonic():
            _, _, task, attempt = heapq.heappop(self.retry_heap)
            return task, attempt
        return None

    def next_wake_delay(self) -> float | None:
        """Seconds until the next retry becomes eligible (None: no retry)."""
        if not self.retry_heap:
            return None
        return max(0.0, self.retry_heap[0][0] - time.monotonic())


def _execute_serial(
    tasks: list[ShardTask], config: SchedulerConfig, runner
) -> _Sweep:
    """In-process fallback (workers <= 1 or no fork): retries, no timeout."""
    sweep = _Sweep(tasks, config)
    pending: deque[tuple[ShardTask, int]] = deque(
        (task, 1) for queue in sweep.queues for task in queue
    )
    for queue in sweep.queues:
        queue.clear()
    while pending:
        task, attempt = pending.popleft()
        if attempt > 1:
            delay = min(
                config.backoff_base * (2 ** (attempt - 2)), config.backoff_max
            )
            time.sleep(delay)
        started = time.perf_counter()
        try:
            stats = runner(task, attempt)
        except Exception as exc:  # noqa: BLE001 - structured failure path
            sweep.record_attempt_failure(
                task, "exception", f"{type(exc).__name__}: {exc}", os.getpid()
            )
            if sweep.retry_heap:
                _, _, retry_task, retry_attempt = heapq.heappop(sweep.retry_heap)
                pending.append((retry_task, retry_attempt))
        else:
            sweep.record_success(
                task, stats, time.perf_counter() - started, os.getpid()
            )
    return sweep


def _execute_parallel(
    tasks: list[ShardTask], config: SchedulerConfig, runner
) -> _Sweep:
    """The fork-pool event loop: assign, wait, reap, retry, respawn."""
    import multiprocessing
    from multiprocessing.connection import wait as connection_wait

    context = multiprocessing.get_context("fork")
    sweep = _Sweep(tasks, config)
    n_workers = max(1, min(config.workers, len(tasks)))
    workers = [_Worker(index) for index in range(n_workers)]
    try:
        for worker in workers:
            worker.spawn(context, runner)
        while not sweep.done():
            for worker in workers:
                if worker.task is None:
                    assignment = sweep.next_assignment(worker.index)
                    if assignment is not None:
                        task, attempt = assignment
                        worker.assign(task, attempt, config.task_timeout)
            busy = [worker for worker in workers if worker.task is not None]
            if not busy:
                delay = sweep.next_wake_delay()
                if delay is None:
                    break  # nothing queued, nothing running: done or stuck
                time.sleep(min(delay, 0.05) if delay else 0.001)
                continue
            now = time.monotonic()
            timeout = 0.5
            for worker in busy:
                if worker.deadline is not None:
                    timeout = min(timeout, max(0.0, worker.deadline - now))
            retry_delay = sweep.next_wake_delay()
            if retry_delay is not None:
                timeout = min(timeout, retry_delay)
            ready = connection_wait([worker.conn for worker in busy], timeout)
            conn_to_worker = {worker.conn: worker for worker in busy}
            for conn in ready:
                worker = conn_to_worker[conn]
                task = worker.task
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died mid-task (hard crash): respawn it
                    # and treat the attempt like any other failure.
                    worker.terminate()
                    worker.clear()
                    worker.spawn(context, runner)
                    sweep.record_attempt_failure(
                        task, "crash", "worker process died", worker.index
                    )
                    continue
                worker.clear()
                if message[0] == "done":
                    _, stats, seconds = message
                    sweep.record_success(task, stats, seconds, worker.index)
                    sweep.attempts.pop(task.task_id, None)
                else:
                    _, error, _seconds = message
                    sweep.record_attempt_failure(
                        task, "exception", error, worker.index
                    )
            now = time.monotonic()
            for worker in workers:
                if (
                    worker.task is not None
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    task = worker.task
                    worker.terminate()
                    worker.clear()
                    worker.spawn(context, runner)
                    sweep.record_attempt_failure(
                        task,
                        "timeout",
                        f"exceeded task timeout of {config.task_timeout}s",
                        worker.index,
                    )
    finally:
        for worker in workers:
            worker.shutdown()
    return sweep


# -- the grid entry point ----------------------------------------------------


def build_shard_tasks(
    designs: list[Design],
    params_by_design: dict[str, CoreParams],
    warmup_fraction: float,
    scale: str,
    shards: int,
    specs=None,
    skip: set[tuple[str, str]] | None = None,
) -> list[ShardTask]:
    """The full (spec x design x shard) task list for a sweep."""
    specs = list(build_suite(scale) if specs is None else specs)
    skip = skip or set()
    use_disk = diskcache.disk_cache_enabled()
    tasks = []
    for design in designs:
        params = params_by_design.get(design.key, ICELAKE)
        for spec in specs:
            if (spec.name, design.key) in skip:
                continue
            for shard_index, (start, stop) in enumerate(
                shard_bounds(spec.n_events, warmup_fraction, shards)
            ):
                disk_key = None
                if use_disk:
                    disk_key = diskcache.shard_result_key(
                        spec.name,
                        scale,
                        design.key,
                        params,
                        warmup_fraction,
                        start,
                        stop,
                        spec.n_events,
                        spec=spec,
                    )
                tasks.append(
                    ShardTask(
                        trace_name=spec.name,
                        scale=scale,
                        design_key=design.key,
                        params=params,
                        warmup_fraction=warmup_fraction,
                        shard_index=shard_index,
                        n_shards=shards,
                        start=start,
                        stop=stop,
                        n_events=spec.n_events,
                        disk_key=disk_key,
                    )
                )
    return tasks


def run_grid(
    designs: list[Design],
    params_by_design: dict[str, CoreParams] | None = None,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    config: SchedulerConfig | None = None,
    specs=None,
    skip: set[tuple[str, str]] | None = None,
    runner=None,
) -> ScheduleReport:
    """Run a (specs x designs) grid through the shard scheduler.

    Args:
        designs: the designs to sweep (must have distinct keys).
        params_by_design: per-design core parameters (default ICELAKE).
        specs: workload specs (default: the active suite at ``scale``).
        skip: (app, design key) pairs to leave out (already memoised).
        runner: override the per-task runner -- the fault-injection
            tests pass runners that raise, sleep, or count executions.
            Signature ``runner(task, attempt) -> FrontendStats``.

    Returns a :class:`ScheduleReport`; failed groups are absent from
    ``report.merged`` and listed in ``report.failures``.
    """
    scale = scale or current_scale()
    config = config or resolve_config()
    params_by_design = params_by_design or {}
    runner = runner or _default_runner
    for design in designs:
        _TASK_DESIGNS[design.key] = design
    tasks = build_shard_tasks(
        designs,
        params_by_design,
        warmup_fraction,
        scale,
        max(1, config.shards),
        specs=specs,
        skip=skip,
    )
    report = ScheduleReport()
    if not tasks:
        report.counters = {"tasks": 0}
        _accumulate_session_counters(report.counters)
        return report

    # Pre-generate every trace in the parent so forked workers share the
    # columns via copy-on-write instead of regenerating per process.
    for name in dict.fromkeys(task.trace_name for task in tasks):
        get_trace(name, scale)

    # Resume: shards already in the disk cache never reach a worker.
    pending = []
    preloaded: list[tuple[ShardTask, FrontendStats]] = []
    for task in tasks:
        cached = (
            diskcache.load_result(task.disk_key)
            if task.disk_key is not None
            else None
        )
        if cached is not None:
            preloaded.append((task, cached))
        else:
            pending.append(task)

    tracer = get_tracer()
    use_fork = config.workers > 1 and hasattr(os, "fork")
    with tracer.span(
        "scheduler-sweep",
        tasks=len(tasks),
        resumed=len(preloaded),
        workers=config.workers if use_fork else 1,
        shards=config.shards,
        scale=scale,
    ):
        if use_fork and pending:
            sweep = _execute_parallel(pending, config, runner)
        else:
            sweep = _execute_serial(pending, config, runner)
        for task, stats in preloaded:
            sweep.record_success(task, stats, 0.0, os.getpid(), outcome="disk-hit")
        sweep.counters["tasks"] = len(tasks)
        sweep.log({"event": "summary", **sweep.counters})
        sweep.close()
    _accumulate_session_counters(sweep.counters)
    obs_events.emit(
        "scheduler-grid",
        tasks=len(tasks),
        resumed=len(preloaded),
        workers=config.workers if use_fork else 1,
        shards=config.shards,
        scale=scale,
        failures=len(sweep.failures),
    )

    report.shard_results = sweep.results
    report.failures = sweep.failures
    report.counters = sweep.counters

    # Merge complete groups and persist them under the unsharded key so
    # a future unsharded run of the same grid disk-hits immediately.
    groups: dict[tuple[str, str], list[ShardTask]] = {}
    for task in tasks:
        groups.setdefault(task.group, []).append(task)
    for group_key, group_tasks in groups.items():
        parts: list[FrontendStats] = []
        complete = True
        seconds = 0.0
        for task in sorted(group_tasks, key=lambda t: t.shard_index):
            stats = sweep.results.get(
                (task.trace_name, task.design_key, task.shard_index)
            )
            if stats is None:
                complete = False
                break
            parts.append(stats)
            seconds += sweep.task_seconds.get(task.task_id, 0.0)
        if not complete:
            continue
        merged = FrontendStats.merge(parts)
        report.merged[group_key] = merged
        report.group_seconds[group_key] = seconds
        if diskcache.disk_cache_enabled():
            trace_name, design_key = group_key
            spec = suite_spec(trace_name, scale)
            params = params_by_design.get(design_key, ICELAKE)
            diskcache.store_result(
                diskcache.result_key(
                    trace_name, scale, design_key, params, warmup_fraction,
                    spec=spec,
                ),
                merged,
            )
    return report
