"""Join the request-event log with metrics into a telemetry report.

The event log (:mod:`repro.obs.events`) records every serve request's
hop trail; the metrics registry (:mod:`repro.obs.metrics`) records the
bucketed latency aggregates.  This module joins the two into the
per-outcome serve telemetry report that ``benchmarks/bench_serve.py``
writes and the CI ``serve-slo`` job uploads:

* **per-outcome latency** -- exact p50/p95/p99 computed from the
  ``respond`` events' recorded seconds (the event log keeps true
  samples, so no bucket interpolation is needed here), split by cache
  outcome (``memo`` / ``disk`` / ``fresh``) and error code;
* **hop decomposition** -- mean batch-wait (time in the open
  micro-batch window) vs. executor-queue vs. simulate time, answering
  "where does a slow request spend its time?";
* **request reconstruction** -- :func:`reconstruct` returns one
  request's full hop sequence by correlation id (what the e2e test and
  `/debug/trace?rid=` assert on).

Everything operates on plain record dicts, so the input can come from a
live :class:`~repro.obs.events.EventLog` ring, a ``/debug/trace``
response, or a JSONL sink file read back with :func:`read_events`.
"""

from __future__ import annotations

import json

__all__ = [
    "aggregate",
    "read_events",
    "reconstruct",
    "render_markdown",
]

#: Hop-timing attributes of ``respond`` events, report column order.
_HOP_FIELDS = ("batch_wait_s", "queue_s", "simulate_s")


def read_events(path: str) -> list[dict]:
    """Parse a JSONL sink (``--events-out``) back into its event and
    span records."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def reconstruct(records: list[dict], rid: str) -> list[dict]:
    """One request's hop sequence, in emission order.

    Matches records tagged with ``rid`` directly or through a shared
    ``rids`` list (batch executions), exactly like
    ``EventLog.for_request`` -- but usable on any record list (a sink
    file, a ``/debug/trace`` response).
    """
    return [
        record
        for record in records
        if record.get("rid") == rid or rid in (record.get("rids") or ())
    ]


def _exact_percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over true samples (not bucket-estimated)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def aggregate(records: list[dict], metrics_snapshot: dict | None = None) -> dict:
    """Fold an event-record list into the serve telemetry summary.

    Only ``respond`` events carry request latency; everything else
    contributes counts.  Returns a JSON-ready dict::

        {
          "requests": <total respond events>,
          "errors": <respond events with status >= 500>,
          "error_rate": ...,
          "shed": <429 respond events>,
          "by_outcome": {outcome: {count, p50_s, p95_s, p99_s, mean_s,
                                   mean_batch_wait_s, mean_queue_s,
                                   mean_simulate_s}},
          "events": {event name: count},
          "metrics": <metrics_snapshot, passed through>,
        }
    """
    responds = [r for r in records if r.get("event") == "respond"]
    by_outcome: dict[str, list[dict]] = {}
    for record in responds:
        by_outcome.setdefault(str(record.get("outcome", "?")), []).append(record)

    outcome_stats: dict[str, dict] = {}
    for outcome, group in sorted(by_outcome.items()):
        seconds = [r["seconds"] for r in group if "seconds" in r]
        entry: dict = {
            "count": len(group),
            "p50_s": _exact_percentile(seconds, 50),
            "p95_s": _exact_percentile(seconds, 95),
            "p99_s": _exact_percentile(seconds, 99),
            "mean_s": sum(seconds) / len(seconds) if seconds else 0.0,
        }
        for hop in _HOP_FIELDS:
            values = [r[hop] for r in group if hop in r]
            entry[f"mean_{hop}"] = sum(values) / len(values) if values else 0.0
        outcome_stats[outcome] = entry

    event_counts: dict[str, int] = {}
    for record in records:
        name = str(record.get("event", "?"))
        event_counts[name] = event_counts.get(name, 0) + 1

    errors = sum(1 for r in responds if r.get("status", 0) >= 500)
    shed = sum(1 for r in responds if r.get("status", 0) == 429)
    total = len(responds)
    summary = {
        "requests": total,
        "errors": errors,
        "error_rate": errors / total if total else 0.0,
        "shed": shed,
        "by_outcome": outcome_stats,
        "events": dict(sorted(event_counts.items())),
    }
    if metrics_snapshot is not None:
        summary["metrics"] = metrics_snapshot
    return summary


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def render_markdown(summary: dict, title: str = "Serve telemetry") -> str:
    """The aggregate summary as a markdown report (the CI artifact)."""
    lines = [
        f"# {title}",
        "",
        f"- requests: {summary['requests']}",
        f"- errors (5xx): {summary['errors']} "
        f"(rate {summary['error_rate']:.4f})",
        f"- shed (429): {summary['shed']}",
        "",
        "## Latency by outcome (ms)",
        "",
        "| outcome | count | p50 | p95 | p99 | mean "
        "| batch-wait | queue | simulate |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for outcome, entry in summary["by_outcome"].items():
        lines.append(
            f"| {outcome} | {entry['count']} | {_ms(entry['p50_s'])} "
            f"| {_ms(entry['p95_s'])} | {_ms(entry['p99_s'])} "
            f"| {_ms(entry['mean_s'])} | {_ms(entry['mean_batch_wait_s'])} "
            f"| {_ms(entry['mean_queue_s'])} | {_ms(entry['mean_simulate_s'])} |"
        )
    lines.extend(["", "## Event counts", ""])
    for name, count in summary["events"].items():
        lines.append(f"- `{name}`: {count}")
    lines.append("")
    return "\n".join(lines)
