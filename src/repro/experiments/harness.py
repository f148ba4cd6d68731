"""Suite runner with process-level result caching.

Every figure/table of the paper is (app x design) simulations plus an
aggregation.  Simulations are deterministic, so results are memoised per
``(trace, scale, design key, core-params, warmup)``, where the trace is
a suite member's name or an inline workload spec's content digest:
benchmark files for different figures share the underlying runs, and
repeated pytest-benchmark rounds cost one simulation.  Below the memo
sits one result store (:mod:`repro.experiments.resultstore`), keyed
through :func:`result_store_key`: the explicit store ``repro serve
--store`` installs, else a :class:`~repro.experiments.resultstore.DiskStore`
over the cross-process disk cache.  A fresh result is published to it
once.

``run_suite(..., workers=N)`` fans the per-application simulations out
through the scheduler (:mod:`repro.experiments.scheduler`) -- a fork
pool fed from one queue, with per-task timeouts, bounded retries, and
disk-cache resume -- useful at ``REPRO_SCALE=full`` where a single
design sweep is 102 simulations.  A pair whose task exhausts its
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

#: (trace name or spec digest, scale, design key, params, warmup) -> FrontendStats
_RESULT_CACHE: dict[tuple, FrontendStats] = {}

#: Memo-cache telemetry (exposed by cache_info / the metrics registry).
_CACHE_HITS = 0
_CACHE_MISSES = 0

#: (trace name, design key) -> wall seconds of the last fresh simulation;
#: the report's telemetry appendix ranks these.
_RUN_SECONDS: dict[tuple[str, str], float] = {}

#: (trace name, design key) -> (engine tier, events/sec) of the last
#: fresh simulation; the report's telemetry appendix aggregates these.
_RUN_ENGINES: dict[tuple[str, str], tuple[str, float]] = {}

#: Memo state is written by serve worker threads while the event loop
#: reads ``cache_info`` on ``/v1/stats`` (REP104).
_CACHE_LOCK = threading.Lock()


def cache_enabled() -> bool:
    """Memoisation knob: ``REPRO_RESULT_CACHE=0`` disables the cache
    (benchmarking the cache's own impact, or forcing fresh runs)."""
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
        _RUN_SECONDS.clear()
        _RUN_ENGINES.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def slowest_runs(n: int = 5) -> list[tuple[str, str, float]]:
    """The ``n`` slowest fresh simulations seen so far, slowest first."""
    with _CACHE_LOCK:
        ranked = sorted(_RUN_SECONDS.items(), key=lambda item: -item[1])
    return [(app, design, seconds) for (app, design), seconds in ranked[:n]]


def engine_mix() -> dict[str, dict]:
    """Fresh simulations grouped by engine tier, with median throughput.

    Keyed by engine (``vector`` / ``general``); each value
    carries the run count and the median raw events/sec the tier
    sustained -- the report's telemetry appendix renders this so a
    design accidentally falling off the vector path is visible.
    """
    with _CACHE_LOCK:
        rows = list(_RUN_ENGINES.values())
    mix: dict[str, list[float]] = {}
    for engine, eps in rows:
        mix.setdefault(engine, []).append(eps)
    out = {}
    for engine, rates in sorted(mix.items()):
        rates.sort()
        out[engine] = {
            "runs": len(rates),
            "events_per_sec_median": rates[len(rates) // 2],
        }
    return out


def _memo_key(
    trace_name: str, scale: str, design_key: str, params: CoreParams,
    warmup_fraction: float, spec: WorkloadSpec | None,
) -> tuple:
    """The memo key: an inline spec is identified by its content digest
    (same-named specs never alias), a suite member by its name."""
    identity = diskcache.spec_digest(spec) if spec is not None else trace_name
    return (identity, scale, design_key, params, warmup_fraction)


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


def _lookup_tiers(
    memo_key: tuple, trace_name: str, design_key: str, params: CoreParams,
    warmup_fraction: float, scale: str, spec: WorkloadSpec | None,
) -> tuple[FrontendStats | None, str, str | None]:
    """Walk memo -> store for one result.

    Returns ``(stats, layer, content_key)`` with layer ``"memo"``,
    ``"disk"``, ``"store"`` or ``"miss"``; a store hit is promoted into
    the memo.  ``content_key`` (:func:`result_store_key`) is computed
    only below the memo, and only when a store is active.  A store
    failure is recorded and read as a miss.
    """
    with _CACHE_LOCK:
        cached = _RESULT_CACHE.get(memo_key)
    if cached is not None:
        return cached, "memo", None
    store, layer = _result_tier()
    if store is None:
        return None, "miss", None
    content_key = result_store_key(
        trace_name, design_key, params, warmup_fraction, scale, spec
    )
    try:
        stats = store.get_result(content_key)
    except resultstore.StoreError as error:
        resultstore.degraded("get_result", error, app=trace_name, design=design_key)
        stats = None
    if stats is None:
        return None, "miss", content_key
    with _CACHE_LOCK:
        _RESULT_CACHE[memo_key] = stats
    return stats, layer, content_key


#: ``harness_result_cache_total`` outcome of a run_design lookup, by layer.
_RUN_OUTCOMES = {"memo": "hit", "disk": "disk-hit", "store": "store-hit", "miss": "miss"}


def resolve_trace(
    trace_name: str, scale: str, spec: WorkloadSpec | None = None
) -> Trace:
    """The trace of a job: the inline ``spec``'s, else the suite member's."""
    return spec_trace(spec) if spec is not None else get_trace(trace_name, scale)


def run_design(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> FrontendStats:
    """Simulate one (app, design) pair, memoised.

    ``spec`` names an inline workload (``trace_name`` is then its
    name); without it ``trace_name`` is a suite member.
    """
    global _CACHE_HITS, _CACHE_MISSES
    scale = scale or current_scale()
    registry = get_registry()
    use_cache = cache_enabled()
    key = _memo_key(trace_name, scale, design.key, params, warmup_fraction, spec)
    if use_cache:
        stats, layer, content_key = _lookup_tiers(
            key, trace_name, design.key, params, warmup_fraction, scale, spec
        )
    else:
        stats, layer, content_key = None, "miss", None
    with _CACHE_LOCK:
        if layer == "memo":
            _CACHE_HITS += 1
        else:
            _CACHE_MISSES += 1
    # A store hit is still a memo miss for cache_info(), but costs no
    # simulation -- the registry counter's "miss" outcome therefore
    # counts *fresh runs*.
    registry.counter(
        "harness_result_cache_total", "memo-cache lookups by outcome"
    ).inc(outcome=_RUN_OUTCOMES[layer])
    if stats is not None:
        return stats
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
        _RUN_SECONDS[(trace_name, design.key)] = elapsed
        _RUN_ENGINES[(trace_name, design.key)] = (engine, events_per_sec)
    registry.histogram(
        "harness_simulation_seconds", "wall seconds per fresh simulation"
    ).observe(elapsed, design=design.key, scale=scale)
    registry.counter(
        "harness_engine_runs_total", "fresh simulations by engine tier"
    ).inc(engine=engine)
    if use_cache:
        with _CACHE_LOCK:
            _RESULT_CACHE[key] = stats
        store, _ = _result_tier()
        if content_key is not None and store is not None:
            try:
                store.put_result(content_key, stats)
            except resultstore.StoreError as error:
                resultstore.degraded(
                    "put_result", error, app=trace_name, design=design.key
                )
    return stats


def run_one(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> FrontendStats:
    """Simulate one (app, design) pair -- the single-request entry point.

    Alias of :func:`run_design`; the serving layer's tests byte-compare
    service responses against this function's results.
    """
    return run_design(
        trace_name,
        design,
        params=params,
        warmup_fraction=warmup_fraction,
        scale=scale,
        spec=spec,
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
    (``store_degraded``) and read as a miss
    -- the caller simulates locally.  Deliberately does not touch
    :func:`cache_info` telemetry -- that surface counts
    :func:`run_design` lookups only; the serving layer publishes its own
    ``serve_cache_outcome_total`` series.
    """
    scale = scale or current_scale()
    if not cache_enabled():
        return None, "miss"
    stats, layer, _ = _lookup_tiers(
        _memo_key(trace_name, scale, design.key, params, warmup_fraction, spec),
        trace_name, design.key, params, warmup_fraction, scale, spec,
    )
    obs_events.emit(
        "cache-lookup", layer="all" if stats is None else layer,
        app=trace_name, design=design.key, hit=stats is not None,
    )
    return stats, layer


def adopt_result(
    trace_name: str,
    design: Design,
    stats: FrontendStats,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    spec: WorkloadSpec | None = None,
) -> None:
    """Install an externally-computed result in the memo cache.

    The serving layer adopts results another replica published to the
    shared store, so later ``run_design`` and :func:`lookup_cached`
    calls memo-hit without leaving the process.
    """
    if not cache_enabled():
        return
    scale = scale or current_scale()
    key = _memo_key(trace_name, scale, design.key, params, warmup_fraction, spec)
    with _CACHE_LOCK:
        _RESULT_CACHE[key] = stats


def result_store_key(
    trace_name: str,
    design_key: str,
    params: CoreParams,
    warmup_fraction: float,
    scale: str,
    spec: WorkloadSpec | None = None,
) -> str:
    """The content hash an (app, design) result is shared under.

    One key function for the result store (default disk cache or
    explicit store), the scheduler's resume, and the serving layer's
    single-flight leases -- so a value published anywhere is a hit
    everywhere.  ``spec`` is the inline workload; without it the suite
    member named ``trace_name`` is used.
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
    """Populate the result cache for (suite x designs) via the scheduler.

    Pairs already memoised are skipped.  Results that come back feed
    the memo (the scheduler has already stored them in the disk cache);
    failed pairs are simply *absent* -- the serial loop in ``run_suite``
    re-runs them inline, and the failure stays on record for the
    report's appendix.  Fresh results carry their engine telemetry
    (``stats.engine``) through the worker pipe and are recorded for
    :func:`slowest_runs` and :func:`engine_mix` as :func:`run_design`
    records them; disk hits are not.
    """
    skip = set()
    for design in designs:
        for spec in build_suite(scale):
            key = _memo_key(
                spec.name, scale, design.key, params[design.key], warmup_fraction, None
            )
            with _CACHE_LOCK:
                present = key in _RESULT_CACHE
            if present:
                skip.add((spec.name, design.key))
    report = scheduler.run_grid(
        designs,
        params_by_design=params,
        warmup_fraction=warmup_fraction,
        scale=scale,
        config=config,
        skip=skip,
    )
    for pair, stats in report.results.items():
        trace_name, design_key = pair
        key = _memo_key(
            trace_name, scale, design_key, params[design_key], warmup_fraction, None
        )
        engine = getattr(stats, "engine", None)
        with _CACHE_LOCK:
            _RESULT_CACHE[key] = stats
            if engine is not None:
                _RUN_SECONDS[pair] = report.group_seconds[pair]
                _RUN_ENGINES[pair] = (engine, float(stats.events_per_sec))


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
