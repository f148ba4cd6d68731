"""Observability layer: metrics and one telemetry stream.

A dependency-free instrumentation substrate for the simulator stack:

* :mod:`repro.obs.metrics` -- counters / gauges / histograms with
  labels (and bucket-interpolated percentiles), published by the
  frontend simulator, the BTB designs, the ICache, the RAS, and the
  experiment harness;
* :mod:`repro.obs.events` -- the one recorder: request events and
  nested wall-clock spans (optionally with ``tracemalloc`` peaks)
  around trace generation, simulation, scheduler sweeps and report
  sections, tagged by correlation id, in a bounded ring + JSONL sink
  driving `/debug/trace` and the serve telemetry report
  (:mod:`repro.obs.aggregate`, whose ``read_events`` reads the sink).

Both default to shared null objects, so instrumented code pays
~nothing until ``python -m repro ... --metrics-out/--events-out/
--progress/--trace-memory`` / ``repro serve`` (or a test) enables
them.  See README "Observability" for the metric naming scheme, the
record shapes, and example output.
"""

from repro.obs.events import (
    EventLog,
    NullEventLog,
    bind_rids,
    current_rids,
    disable_events,
    enable_events,
    events_enabled,
    get_event_log,
    new_request_id,
    span,
    use_event_log,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    use_registry,
)

__all__ = [
    "EventLog",
    "NullEventLog",
    "bind_rids",
    "current_rids",
    "disable_events",
    "enable_events",
    "events_enabled",
    "get_event_log",
    "new_request_id",
    "span",
    "use_event_log",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
    "metrics_enabled",
    "use_registry",
]
