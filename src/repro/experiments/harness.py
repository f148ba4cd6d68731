"""Suite runner with process-level result caching.

Every figure/table of the paper is (app x design) simulations plus an
aggregation.  Simulations are deterministic, so every result has one
content key, :func:`result_store_key` (the trace -- a suite member's
name or an inline workload spec's content digest -- scale, design key,
core parameters and warmup).  That key names the result everywhere:
the in-process memo, the result store below it
(:mod:`repro.experiments.resultstore`: the explicit store ``repro serve
--store`` installs, else a :class:`~repro.experiments.resultstore.DiskStore`
over the cross-process disk cache) and the store's single-flight
leases.  :func:`run_one` is the one walk memo -> store -> simulate ->
publish; :func:`run_design`, the sweep scheduler's tasks and the
serving layer's misses all take it, and :func:`lookup_cached` is its
read-only half.  ``REPRO_RESULT_CACHE=0`` turns off the memo only.

``run_suite(..., workers=N)`` fans the per-application simulations out
through the scheduler (:mod:`repro.experiments.scheduler`) -- a fork
pool fed from one queue, with per-task timeouts, bounded retries, and
resume from the result store -- useful at ``REPRO_SCALE=full`` where a
single design sweep is 102 simulations.  A pair whose task exhausts its
retries is recorded as a structured failure
(``scheduler.drain_failures``) and falls back to an inline serial run
here, so a flaky worker degrades a sweep instead of aborting it.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

from repro.frontend.params import CoreParams, ICELAKE
from repro.frontend.simulator import FrontendSimulator
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import (
    build_suite, current_scale, get_trace, spec_trace, suite_spec,
)
from repro.workloads.trace import Trace
from repro.experiments import diskcache, resultstore, scheduler
from repro.experiments.designs import Design

#: result_store_key(...) -> FrontendStats
_RESULT_CACHE: dict[str, FrontendStats] = {}

#: Memo-cache telemetry (exposed by cache_info / the metrics registry).
_CACHE_HITS = 0
_CACHE_MISSES = 0

#: (trace name, design key) -> (wall seconds, engine tier, events/sec) of
#: the last fresh simulation; the report's telemetry appendix ranks the
#: seconds and aggregates the engines.
_RUNS: dict[tuple[str, str], tuple[float, str, float]] = {}

#: Memo state is written by serve worker threads while the event loop
#: reads ``cache_info`` on ``/v1/stats`` (REP104).
_CACHE_LOCK = threading.Lock()


def cache_enabled() -> bool:
    """Memoisation knob: ``REPRO_RESULT_CACHE=0`` disables the in-process
    memo (the result store below it stays on)."""
    return os.environ.get("REPRO_RESULT_CACHE", "1") != "0"


def cache_info() -> dict:
    """Memo-cache telemetry: hits / misses / size / hit rate."""
    with _CACHE_LOCK:
        hits, misses, size = _CACHE_HITS, _CACHE_MISSES, len(_RESULT_CACHE)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": size,
        "hit_rate": hits / lookups if lookups else 0.0,
        "enabled": cache_enabled(),
    }


def clear_cache() -> None:
    """Drop all memoised simulation results and telemetry (tests use this)."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _RESULT_CACHE.clear()
        _RUNS.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def slowest_runs(n: int = 5) -> list[tuple[str, str, float]]:
    """The ``n`` slowest fresh simulations seen so far, slowest first."""
    with _CACHE_LOCK:
        ranked = sorted(_RUNS.items(), key=lambda item: -item[1][0])
    return [(app, design, run[0]) for (app, design), run in ranked[:n]]


def engine_mix() -> dict[str, dict]:
    """Fresh simulations grouped by engine tier, with median throughput.

    Keyed by engine (``vector`` / ``general``); each value
    carries the run count and the median raw events/sec the tier
    sustained -- the report's telemetry appendix renders this so a
    design accidentally falling off the vector path is visible.
    """
    with _CACHE_LOCK:
        rows = list(_RUNS.values())
    mix: dict[str, list[float]] = {}
    for _, engine, eps in rows:
        mix.setdefault(engine, []).append(eps)
    out = {}
    for engine, rates in sorted(mix.items()):
        rates.sort()
        out[engine] = {
            "runs": len(rates),
            "events_per_sec_median": rates[len(rates) // 2],
        }
    return out


#: The result tier when no explicit store is installed: the disk cache,
#: through the same store protocol (its root follows ``cache_root()``).
_DISK_STORE = resultstore.DiskStore()


def _result_tier() -> tuple[resultstore.ResultStore | None, str]:
    """The one store below the memo, with the layer its hits report:
    the explicit store (``"store"``), else the disk cache while enabled
    (``"disk"``), else none."""
    store = resultstore.get_active_store()
    if store is not None:
        return store, "store"
    if diskcache.disk_cache_enabled():
        return _DISK_STORE, "disk"
    return None, "miss"


def _memo_get(key: str) -> FrontendStats | None:
    """The memoised result, if the memo is enabled and holds one."""
    if not cache_enabled():
        return None
    with _CACHE_LOCK:
        return _RESULT_CACHE.get(key)


def _remember(key: str, stats: FrontendStats) -> None:
    """Memoise one result (a no-op while the memo is disabled)."""
    if cache_enabled():
        with _CACHE_LOCK:
            _RESULT_CACHE[key] = stats


def _store_get(
    store: resultstore.ResultStore | None, key: str, app: str, design_key: str
) -> FrontendStats | None:
    """One store read (``None`` without a store); a backend failure is
    recorded and read as a miss."""
    if store is None:
        return None
    try:
        return store.get_result(key)
    except resultstore.StoreError as error:
        resultstore.degraded("get_result", error, app=app, design=design_key)
        return None


#: ``harness_result_cache_total`` outcome of a run_one walk.
_RUN_OUTCOMES = {
    "memo": "hit", "disk": "disk-hit", "store": "store-hit",
    "fresh": "miss", "local": "miss",
}


def resolve_trace(
    trace_name: str, scale: str, spec: WorkloadSpec | None = None
) -> Trace:
    """The trace of a job: the inline ``spec``'s, else the suite member's."""
    return spec_trace(spec) if spec is not None else get_trace(trace_name, scale)


def _simulate(
    trace_name: str, design: Design, params: CoreParams,
    warmup_fraction: float, scale: str, spec: WorkloadSpec | None,
) -> FrontendStats:
    """One fresh simulation with its span and run telemetry; publishes
    nothing."""
    started = time.perf_counter()
    with obs_events.span(
        "simulate", app=trace_name, design=design.key, scale=scale
    ) as span_attrs:
        with obs_events.span("trace-gen", app=trace_name, scale=scale):
            trace = resolve_trace(trace_name, scale, spec)
        btb, simulator_kwargs = design.build()
        simulator = FrontendSimulator(btb, params=params, **simulator_kwargs)
        with obs_events.span("warmup+measure", app=trace_name, design=design.key):
            stats = simulator.run(trace, warmup_fraction=warmup_fraction)
        engine = getattr(simulator, "last_engine", "none")
        events_per_sec = float(getattr(stats, "events_per_sec", 0.0))
        span_attrs.update(engine=engine, events_per_sec=round(events_per_sec))
    elapsed = time.perf_counter() - started
    with _CACHE_LOCK:
        _RUNS[(trace_name, design.key)] = (elapsed, engine, events_per_sec)
    registry = get_registry()
    registry.histogram(
        "harness_simulation_seconds", "wall seconds per fresh simulation"
    ).observe(elapsed, design=design.key, scale=scale)
    registry.counter(
        "harness_engine_runs_total", "fresh simulations by engine tier"
    ).inc(engine=engine)
    return stats


def run_one(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> tuple[FrontendStats, str]:
    """Answer one (app, design) pair: memo -> store -> simulate -> publish.

    The one walk every caller takes.  Returns ``(stats, outcome)`` with
    outcome ``"memo"``, ``"disk"`` (a hit in the default disk-cache
    store), ``"store"`` (a hit in the explicit store, possibly one
    another replica published while we waited), ``"fresh"`` (simulated
    here and published once) or ``"local"`` (simulated here because the
    explicit store failed).  On a memo miss an explicit store runs the
    cross-node single-flight protocol
    (:func:`repro.experiments.resultstore.fetch_or_compute`) around the
    simulation; the default disk-cache store is read, then written,
    without leases, so a crashed sweep worker's retry never waits out a
    lease TTL.  ``spec`` names an inline workload (``trace_name`` is
    then its name); without it ``trace_name`` is a suite member.
    """
    global _CACHE_HITS, _CACHE_MISSES
    scale = scale or current_scale()
    key = result_store_key(trace_name, design.key, params, warmup_fraction, scale, spec)

    def simulate() -> FrontendStats:
        return _simulate(trace_name, design, params, warmup_fraction, scale, spec)

    stats, outcome = _memo_get(key), "memo"
    if stats is None:
        store, layer = _result_tier()
        if layer == "store":
            stats, outcome = resultstore.fetch_or_compute(
                store, key, simulate,
                context={"app": trace_name, "design": design.key},
            )
        else:
            stats, outcome = _store_get(store, key, trace_name, design.key), layer
            if stats is None:
                stats, outcome = simulate(), "fresh"
                if store is not None:
                    try:
                        store.put_result(key, stats)
                    except resultstore.StoreError as error:
                        resultstore.degraded(
                            "put_result", error, app=trace_name, design=design.key
                        )
        _remember(key, stats)
    with _CACHE_LOCK:
        if outcome == "memo":
            _CACHE_HITS += 1
        else:
            _CACHE_MISSES += 1
    # A store hit is still a memo miss for cache_info(), but costs no
    # simulation -- the registry counter's "miss" outcome therefore
    # counts *fresh runs*.
    get_registry().counter(
        "harness_result_cache_total", "memo-cache lookups by outcome"
    ).inc(outcome=_RUN_OUTCOMES[outcome])
    return stats, outcome


def run_design(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> FrontendStats:
    """Simulate one (app, design) pair, memoised: :func:`run_one`'s stats."""
    return run_one(trace_name, design, params, warmup_fraction, scale, spec)[0]


def memo_peek(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> FrontendStats | None:
    """The memoised result of one pair, or ``None``.

    The memo alone: no store or disk read, so the serving layer's event
    loop may call it at admission.  ``None`` while the memo is disabled
    (``REPRO_RESULT_CACHE=0``).  Like :func:`lookup_cached`, it does
    not touch :func:`cache_info` telemetry.
    """
    scale = scale or current_scale()
    return _memo_get(
        result_store_key(trace_name, design.key, params, warmup_fraction, scale, spec)
    )


def lookup_cached(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> tuple[FrontendStats | None, str]:
    """Peek the memo and the result store without simulating.

    Returns ``(stats, outcome)`` where outcome is ``"memo"``, ``"disk"``
    (a hit in the default disk-cache store), ``"store"`` (a hit in the
    explicit :mod:`resultstore` store) or ``"miss"`` (stats is ``None``
    on a miss).  A store hit is promoted into the memo so the next peek
    is a memo hit.  A store backend failure is recorded
    (``store_degraded``) and read as a miss.  Deliberately does not
    touch :func:`cache_info` telemetry -- that surface counts
    :func:`run_one` walks only.
    """
    scale = scale or current_scale()
    key = result_store_key(trace_name, design.key, params, warmup_fraction, scale, spec)
    stats = _memo_get(key)
    if stats is not None:
        return stats, "memo"
    store, layer = _result_tier()
    stats = _store_get(store, key, trace_name, design.key)
    if stats is None:
        return None, "miss"
    _remember(key, stats)
    return stats, layer


def result_store_key(
    trace_name: str,
    design_key: str,
    params: CoreParams,
    warmup_fraction: float,
    scale: str,
    spec: WorkloadSpec | None = None,
) -> str:
    """The one content key an (app, design) result is cached under.

    It keys the memo, the result store (default disk cache or explicit
    store) and the serving layer's single-flight leases, so a value
    published anywhere is a hit everywhere.  ``spec`` is the inline
    workload; without it the suite member named ``trace_name`` is used.
    """
    return diskcache.result_key(
        trace_name, scale, design_key, params, warmup_fraction,
        spec=spec if spec is not None else suite_spec(trace_name, scale),
    )


@dataclass
class SuiteResult:
    """Results of one design across the suite, against a baseline design."""

    design_key: str
    baseline_key: str
    per_app: dict[str, FrontendStats] = field(default_factory=dict)
    baseline_per_app: dict[str, FrontendStats] = field(default_factory=dict)
    categories: dict[str, str] = field(default_factory=dict)

    # -- aggregates --------------------------------------------------------

    def speedups(self) -> dict[str, float]:
        return {
            name: stats.speedup_over(self.baseline_per_app[name])
            for name, stats in self.per_app.items()
        }

    def mpki_reductions(self) -> dict[str, float]:
        return {
            name: stats.mpki_reduction_vs(self.baseline_per_app[name])
            for name, stats in self.per_app.items()
        }

    def mean_speedup(self) -> float:
        """Geometric-mean IPC speedup over the suite (1.0 = no change)."""
        values = list(self.speedups().values())
        if not values:
            return 1.0
        return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))

    def mean_mpki_reduction(self) -> float:
        """Arithmetic-mean fractional BTB-MPKI reduction."""
        values = list(self.mpki_reductions().values())
        if not values:
            return 0.0
        return sum(values) / len(values)

    def category_mean_speedup(self) -> dict[str, float]:
        by_category: dict[str, list[float]] = {}
        for name, speedup in self.speedups().items():
            by_category.setdefault(self.categories.get(name, "?"), []).append(speedup)
        return {
            category: math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))
            for category, vals in by_category.items()
            if vals
        }

    def category_mean_mpki_reduction(self) -> dict[str, float]:
        by_category: dict[str, list[float]] = {}
        for name, reduction in self.mpki_reductions().items():
            by_category.setdefault(self.categories.get(name, "?"), []).append(reduction)
        return {
            category: sum(vals) / len(vals)
            for category, vals in by_category.items()
            if vals
        }


def run_suite(
    design: Design,
    baseline: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    baseline_params: CoreParams | None = None,
    workers: int | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> SuiteResult:
    """Run ``design`` and ``baseline`` across the active suite.

    Args:
        workers: fan the simulations out through the scheduler on this
            many forked worker processes (default: the active scheduler
            config, normally serial).
        task_timeout: wall-seconds budget per scheduler task.
        max_retries: retry budget per scheduler task.
    """
    scale = scale or current_scale()
    config = scheduler.resolve_config(
        workers=workers, task_timeout=task_timeout, max_retries=max_retries
    )
    use_scheduler = config.workers > 1 and hasattr(os, "fork") and cache_enabled()
    if use_scheduler:
        _prefill_cache_scheduled(
            [design, baseline],
            params={design.key: params, baseline.key: baseline_params or params},
            warmup_fraction=warmup_fraction,
            scale=scale,
            config=config,
        )
    result = SuiteResult(design_key=design.key, baseline_key=baseline.key)
    for spec in build_suite(scale):
        result.categories[spec.name] = spec.category
        result.per_app[spec.name] = run_design(
            spec.name, design, params=params, warmup_fraction=warmup_fraction, scale=scale
        )
        result.baseline_per_app[spec.name] = run_design(
            spec.name,
            baseline,
            params=baseline_params or params,
            warmup_fraction=warmup_fraction,
            scale=scale,
        )
    return result


def _prefill_cache_scheduled(
    designs: list[Design],
    params: dict[str, CoreParams],
    warmup_fraction: float,
    scale: str,
    config: "scheduler.SchedulerConfig",
) -> None:
    """Populate the memo for (suite x designs) via the scheduler.

    Pairs already memoised are skipped.  Results that come back feed
    the memo (each task ran :func:`run_design`, so its result is in the
    store already); failed pairs are simply *absent* -- the serial loop
    in ``run_suite`` re-runs them inline, and the failure stays on
    record for the report's appendix.  Fresh results carry their engine
    telemetry (``stats.engine``) through the worker pipe and are
    recorded for :func:`slowest_runs` and :func:`engine_mix` as
    :func:`run_design` records them; store hits are not.
    """

    def key(app: str, design_key: str) -> str:
        return result_store_key(
            app, design_key, params[design_key], warmup_fraction, scale
        )

    skip = {
        (spec.name, design.key)
        for design in designs
        for spec in build_suite(scale)
        if _memo_get(key(spec.name, design.key)) is not None
    }
    report = scheduler.run_grid(
        designs,
        params_by_design=params,
        warmup_fraction=warmup_fraction,
        scale=scale,
        config=config,
        skip=skip,
    )
    for pair, stats in report.results.items():
        engine = getattr(stats, "engine", None)
        _remember(key(*pair), stats)
        with _CACHE_LOCK:
            if engine is not None:
                _RUNS[pair] = (
                    report.group_seconds[pair], engine, float(stats.events_per_sec)
                )


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Render an ASCII table (the benches print these)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"
