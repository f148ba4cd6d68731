"""Metrics registry: counters, gauges, and histograms with labels.

The observability substrate every structure in the stack publishes into
(BTB occupancy, delta-vs-pointer hit split, resteer causes, harness
cache hits, fork-pool worker seconds, ...).  Design constraints:

* **dependency-free** -- plain dicts, JSON-serialisable snapshots;
* **near-zero overhead when disabled** -- the module-level default
  registry is a shared null object whose instruments ignore every call,
  so publishers never branch on an "is observability on?" flag, and the
  simulator hot loop is never instrumented per event (structures
  publish aggregate counters once per run);
* **get-or-create instruments** -- ``registry.counter(name)`` is
  idempotent, so publishers fetch instruments at publish time and no
  construction-order coupling exists between the registry and the
  simulated structures.

Naming scheme (documented in README "Observability"): snake_case with a
subsystem prefix (``frontend_``, ``btb_``, ``pdede_``, ``icache_``,
``ras_``, ``harness_``, ``scheduler_`` for the sweep scheduler's
retry/timeout counters and task-latency histogram);
monotonically increasing counts end in ``_total``; point-in-time values
(occupancies, ratios) are gauges.  Series are distinguished by labels
(``app=``, ``design=``, ``kind=``, ``outcome=``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "use_registry",
    "percentile_from_buckets",
]

#: Default histogram buckets -- tuned for wall-clock seconds, the layer's
#: dominant histogram use (per-run and per-worker timings).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0
)

#: Serve-tuned buckets: warm `/v1/simulate` hits complete in hundreds of
#: microseconds to a few milliseconds, which the default set lumps into
#: one or two buckets -- percentile interpolation needs the sub-ms
#: resolution below to say anything useful about serving latency.
SERVE_BUCKETS: tuple[float, ...] = (
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: The percentiles snapshots carry by default.
DEFAULT_PERCENTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


def percentile_from_buckets(
    buckets: tuple[float, ...] | list[float],
    bucket_counts: list[int],
    q: float,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Prometheus-style bucket-interpolated percentile estimate.

    ``bucket_counts`` are per-bucket (not cumulative) with the overflow
    bucket last, as stored in histogram series state -- which means this
    works on serialised snapshots too (:mod:`repro.obs.aggregate` merges
    series by summing these lists).  The estimate assumes observations
    are uniform within their bucket: the target rank is located in its
    bucket and linearly interpolated between the bucket's bounds (lower
    bound 0 for the first bucket).  Ranks landing in the unbounded
    overflow bucket return ``maximum`` (or the last finite bound).  The
    result is clamped to the observed ``[minimum, maximum]`` when known,
    so tiny samples don't report impossible values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    rank = q / 100.0 * total
    cumulative = 0
    estimate: float | None = None
    for index, bound in enumerate(buckets):
        in_bucket = bucket_counts[index]
        if cumulative + in_bucket >= rank and in_bucket > 0:
            lower = buckets[index - 1] if index else 0.0
            fraction = (rank - cumulative) / in_bucket
            estimate = lower + (bound - lower) * fraction
            break
        cumulative += in_bucket
    if estimate is None:
        # Rank lands in the overflow bucket: no finite upper bound.
        estimate = maximum if maximum is not None else float(buckets[-1])
    if minimum is not None and estimate < minimum:
        estimate = minimum
    if maximum is not None and estimate > maximum:
        estimate = maximum
    return estimate


def _series_key(labels: dict) -> tuple:
    """Canonical hashable key for a label set."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared bookkeeping for every instrument kind."""

    kind = "instrument"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[tuple, object] = {}

    def labelsets(self) -> list[dict]:
        return [dict(key) for key in self._series]

    def _series_dicts(self) -> list[dict]:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": self._series_dicts(),
        }


class Counter(_Instrument):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _series_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_series_key(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._series.values())

    def _series_dicts(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Gauge(_Instrument):
    """Point-in-time value (occupancy, ratio, configuration size)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        self._series[_series_key(labels)] = value

    def add(self, amount: float, **labels) -> None:
        key = _series_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_series_key(labels), 0)

    def _series_dicts(self) -> list[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Histogram(_Instrument):
    """Bucketed distribution with count/sum/min/max per label set."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str = "", buckets=None) -> None:
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))

    def observe(self, value: float, **labels) -> None:
        key = _series_key(labels)
        state = self._series.get(key)
        if state is None:
            state = {
                "count": 0,
                "sum": 0.0,
                "min": value,
                "max": value,
                "bucket_counts": [0] * (len(self.buckets) + 1),
            }
            self._series[key] = state
        state["count"] += 1
        state["sum"] += value
        if value < state["min"]:
            state["min"] = value
        if value > state["max"]:
            state["max"] = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state["bucket_counts"][index] += 1
                return
        state["bucket_counts"][-1] += 1  # overflow bucket

    def count(self, **labels) -> int:
        state = self._series.get(_series_key(labels))
        return 0 if state is None else state["count"]

    def sum(self, **labels) -> float:
        state = self._series.get(_series_key(labels))
        return 0.0 if state is None else state["sum"]

    def mean(self, **labels) -> float:
        state = self._series.get(_series_key(labels))
        if not state or not state["count"]:
            return 0.0
        return state["sum"] / state["count"]

    def percentile(self, q: float, **labels) -> float:
        """Bucket-interpolated percentile estimate for one label set.

        With no labels given and several series recorded, the series'
        bucket counts are merged first, so ``percentile(99)`` on a
        labelled histogram is the cross-series p99.
        """
        state = self._series.get(_series_key(labels))
        if state is None:
            if labels or not self._series:
                return 0.0
            state = self._merged_state()
        return percentile_from_buckets(
            self.buckets, state["bucket_counts"], q,
            minimum=state["min"], maximum=state["max"],
        )

    def percentiles(
        self, qs: tuple[float, ...] = DEFAULT_PERCENTILES, **labels
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` for one label set."""
        return {f"p{q:g}": self.percentile(q, **labels) for q in qs}

    def _merged_state(self) -> dict:
        """All series folded into one (bucket-count sum, min/max hull)."""
        states = list(self._series.values())
        merged = {
            "count": sum(s["count"] for s in states),
            "sum": sum(s["sum"] for s in states),
            "min": min(s["min"] for s in states),
            "max": max(s["max"] for s in states),
            "bucket_counts": [
                sum(counts) for counts in zip(*(s["bucket_counts"] for s in states))
            ],
        }
        return merged

    def _series_dicts(self) -> list[dict]:
        out = []
        for key, state in sorted(self._series.items()):
            entry = {"labels": dict(key)}
            entry.update(state)
            entry.update(
                {
                    f"p{q:g}": percentile_from_buckets(
                        self.buckets, state["bucket_counts"], q,
                        minimum=state["min"], maximum=state["max"],
                    )
                    for q in DEFAULT_PERCENTILES
                }
            )
            out.append(entry)
        return out

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["buckets"] = list(self.buckets)
        return data


def _prom_number(value) -> str:
    """Prometheus sample-value formatting: integral floats as ints."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _prom_escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_escape_label(text: str) -> str:
    return (
        str(text).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


class MetricsRegistry:
    """Recording registry: name -> instrument, get-or-create semantics."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get(self, name: str, factory, help: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif type(instrument) is not factory.cls:
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        if help and not instrument.help:
            instrument.help = help
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        factory = lambda: Counter(name, help)  # noqa: E731 - attr-carrying closure; def adds noise
        factory.cls = Counter
        return self._get(name, factory, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        factory = lambda: Gauge(name, help)  # noqa: E731 - attr-carrying closure; def adds noise
        factory.cls = Gauge
        return self._get(name, factory, help)

    def histogram(self, name: str, help: str = "", buckets=None) -> Histogram:
        factory = lambda: Histogram(name, help, buckets)  # noqa: E731 - attr-carrying closure; def adds noise
        factory.cls = Histogram
        instrument = self._get(name, factory, help)
        if buckets is not None:
            requested = tuple(sorted(buckets))
            if requested != instrument.buckets:
                # Re-bucketing is only safe before any observation: the
                # per-bucket counts can't be moved between buckets after the fact.
                if instrument._series:
                    raise ValueError(
                        f"histogram {name!r} already has observations under "
                        f"buckets {instrument.buckets}; cannot re-bucket to "
                        f"{requested}"
                    )
                instrument.buckets = requested
        return instrument

    # -- bulk publishing ----------------------------------------------------

    def publish(self, values: dict[str, float], **labels) -> None:
        """Publish a flat ``name -> number`` dict (structure snapshots).

        Names ending in ``_total`` become counter increments; everything
        else becomes a gauge set.  This is how ``metrics()``/``snapshot()``
        dicts from the simulated structures land in the registry.
        """
        for name, value in values.items():
            if name.endswith("_total"):
                self.counter(name).inc(value, **labels)
            else:
                self.gauge(name).set(value, **labels)

    # -- introspection / serialisation --------------------------------------

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def to_dict(self) -> dict:
        return {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The full snapshot as a JSON string (the service's ``/metrics``
        endpoint serves this directly)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus_text(self) -> str:
        """The snapshot in Prometheus text exposition format (v0.0.4).

        Served by ``/metrics`` when the client asks for ``text/plain``;
        counters/gauges map directly, histograms expand to cumulative
        ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
        """
        lines: list[str] = []
        for name, instrument in sorted(self._instruments.items()):
            if instrument.help:
                lines.append(f"# HELP {name} {_prom_escape_help(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for key, state in sorted(instrument._series.items()):
                    labels = dict(key)
                    cumulative = 0
                    for index, bound in enumerate(instrument.buckets):
                        cumulative += state["bucket_counts"][index]
                        bucket_labels = dict(labels, le=_prom_number(bound))
                        lines.append(
                            f"{name}_bucket{_prom_labels(bucket_labels)} {cumulative}"
                        )
                    cumulative += state["bucket_counts"][-1]
                    lines.append(
                        f"{name}_bucket{_prom_labels(dict(labels, le='+Inf'))} "
                        f"{cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{_prom_labels(labels)} {_prom_number(state['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_prom_labels(labels)} {state['count']}"
                    )
            else:
                for key, value in sorted(instrument._series.items()):
                    lines.append(
                        f"{name}{_prom_labels(dict(key))} {_prom_number(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def dump(self, path: str) -> None:
        """Write the full snapshot as pretty-printed JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


class _NullInstrument:
    """Accepts every instrument call and records nothing."""

    __slots__ = ()
    kind = "null"
    name = ""
    help = ""

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def add(self, amount: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0

    def total(self) -> float:
        return 0

    def count(self, **labels) -> int:
        return 0

    def sum(self, **labels) -> float:
        return 0.0

    def mean(self, **labels) -> float:
        return 0.0

    def percentile(self, q: float, **labels) -> float:
        return 0.0

    def percentiles(self, qs=DEFAULT_PERCENTILES, **labels) -> dict:
        return {}

    def labelsets(self) -> list:
        return []

    def to_dict(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled-mode registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def publish(self, values: dict, **labels) -> None:
        pass

    def names(self) -> list[str]:
        return []

    def get(self, name: str) -> None:
        return None

    def to_dict(self) -> dict:
        return {}

    def to_json(self, indent: int | None = 2) -> str:
        return "{}"

    def to_prometheus_text(self) -> str:
        return ""

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("{}\n")


_NULL_REGISTRY = NullRegistry()
_active: MetricsRegistry | NullRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry | NullRegistry:
    """The active registry (the shared null object when disabled)."""
    return _active


def metrics_enabled() -> bool:
    return _active.enabled


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) a recording registry as the active one."""
    global _active
    _active = registry or MetricsRegistry()
    return _active


def disable_metrics() -> None:
    """Restore the no-op null registry."""
    global _active
    _active = _NULL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry | NullRegistry):
    """Temporarily install ``registry`` (tests and scoped CLI runs)."""
    global _active
    previous = _active
    _active = registry
    try:
        yield registry
    finally:
        _active = previous
