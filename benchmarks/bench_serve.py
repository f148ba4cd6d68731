"""Serve SLO gate: open-loop load test against a real booted service.

Boots a :class:`~repro.serve.service.SimulationService` in-process (the
same path ``python -m repro serve`` runs) and drives it with an
**open-loop** arrival process: one request every ``1/rate`` seconds on
a fixed schedule, regardless of completions -- so a slow service
accumulates queueing latency instead of quietly slowing the generator
down (closed-loop generators hide overload).  The job mix is seeded and
configurable:

* **warm** -- suite (app, design) pairs pre-simulated before the run;
  answered from the harness memo without touching a trace;
* **cold** -- suite pairs *not* pre-warmed; the first hit pays the
  simulation (and becomes warm for any repeat);
* **inline** -- unique-seed ad-hoc :class:`WorkloadSpec` requests that
  always simulate fresh.

Once the open-loop load has drained, a **warm-only closed loop** sends
``WARM_LEG_REQUESTS`` sequential memo hits to the idle service (the
telemetry below covers the open-loop load alone).  A memo
hit is answered at admission, outside every micro-batch, so its p50
divided by the service's ``batch_window`` (``warm_p50_over_window``)
is a machine-independent ratio: below 1.0 only while warm requests skip
the window, which every batched request waits out in full.

Client-side latency percentiles (exact, over true samples), per-kind
p50s and throughput land in ``BENCH_serve.json``; the server's own event
log is folded through :mod:`repro.obs.aggregate` into a per-outcome
telemetry report (``BENCH_serve_report.md``) with the batch-wait / queue
/ simulate decomposition.  ``--check`` gates the p99 latency and
error-rate budget read from the committed ``BENCH_serve.json``, and
``warm_p50_over_window < 1.0`` (the CI ``serve-slo`` job runs this, like
``perf-budget`` runs bench_hotpath)::

    PYTHONPATH=src python benchmarks/bench_serve.py --check
    PYTHONPATH=src python benchmarks/bench_serve.py --record --rate 40
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.obs.aggregate import aggregate, render_markdown
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve.config import ServeConfig
from repro.serve.protocol import canonical_json
from repro.serve.service import serve_in_thread
from repro.workloads.spec import WorkloadSpec

#: Default SLO budget, used when BENCH_serve.json does not exist yet.
#: Generous for slow CI machines: the gate is a regression tripwire for
#: "serving got pathologically slower", not a tight perf assertion.
DEFAULT_SLO = {"p99_s": 2.5, "error_rate": 0.01}

#: Designs the generated load cycles through.
DESIGNS = ("baseline", "pdede-default")

#: Sequential memo hits in the warm-only closed loop.
WARM_LEG_REQUESTS = 40

#: Ceiling on warm p50 / batch_window: a warm request that waited out
#: the batch window would read at least 1.0.
MAX_WARM_P50_OVER_WINDOW = 1.0

_RESULTS_FILE = Path(__file__).with_name("BENCH_serve.json")
_REPORT_FILE = Path(__file__).with_name("BENCH_serve_report.md")


# -- a minimal async HTTP client ---------------------------------------------
#
# stdlib http.client is blocking; the open-loop generator needs real
# concurrency, so speak HTTP/1.1 over asyncio streams directly
# (Connection: close -- one connection per request keeps parsing
# trivial and exercises the service's accept path like real clients).


async def _post(host: str, port: int, path: str, body: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(None, 2)[1])
    return status, payload


# -- the load generator ------------------------------------------------------


def _build_jobs(seed: int, count: int, mix: tuple[float, float, float], scale: str):
    """The request schedule: ``count`` seeded draws from the job mix."""
    from repro.workloads.suite import build_suite

    rng = random.Random(seed)
    suite = [spec.name for spec in build_suite(scale)]
    split = max(1, len(suite) // 2)
    warm_pairs = [(app, d) for app in suite[:split] for d in DESIGNS]
    cold_pairs = [(app, d) for app in suite[split:] for d in DESIGNS]
    rng.shuffle(cold_pairs)

    warm_w, cold_w, inline_w = mix
    jobs = []
    inline_seq = 0
    for _ in range(count):
        draw = rng.random() * (warm_w + cold_w + inline_w)
        if draw < warm_w:
            app, design = rng.choice(warm_pairs)
            jobs.append(("warm", {"app": app, "design": design}))
        elif draw < warm_w + cold_w and cold_pairs:
            app, design = cold_pairs.pop()
            jobs.append(("cold", {"app": app, "design": design}))
        else:
            inline_seq += 1
            # Small static footprint: the default 3000-function layout
            # costs ~150ms to generate, which saturates the worker pool
            # at any interesting arrival rate.  An ad-hoc probe spec is
            # deliberately tiny (~10ms end to end).
            spec = WorkloadSpec(
                name=f"bench_inline_{inline_seq}", category="Server",
                seed=10_000 + inline_seq, n_events=2000,
                n_functions=200, hot_functions_per_phase=50, phase_calls=200,
            )
            jobs.append(("inline", {"spec": asdict(spec), "design": DESIGNS[0]}))
    return warm_pairs, jobs


async def _drive(
    host: str, port: int, jobs: list, rate: float
) -> tuple[list[dict], float]:
    """Fire the schedule open-loop; returns per-request results + wall s."""

    async def one(kind: str, request: dict) -> dict:
        body = canonical_json(request)
        started = time.monotonic()
        try:
            status, _payload = await _post(host, port, "/v1/simulate", body)
        except OSError as error:
            return {"kind": kind, "status": 0, "error": str(error),
                    "seconds": time.monotonic() - started}
        return {"kind": kind, "status": status,
                "seconds": time.monotonic() - started}

    interval = 1.0 / rate
    epoch = time.monotonic()
    tasks = []
    for index, (kind, request) in enumerate(jobs):
        delay = epoch + index * interval - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(kind, request)))
    results = list(await asyncio.gather(*tasks))
    return results, time.monotonic() - epoch


async def _warm_leg(host: str, port: int, pairs: list, count: int) -> list[float]:
    """Closed loop: ``count`` sequential requests cycling the pre-warmed
    pairs, each sent once the previous one is answered; returns the
    client-observed seconds of each 200."""
    seconds = []
    for index in range(count):
        app, design = pairs[index % len(pairs)]
        body = canonical_json({"app": app, "design": design})
        started = time.monotonic()
        status, _payload = await _post(host, port, "/v1/simulate", body)
        if status == 200:
            seconds.append(time.monotonic() - started)
    return seconds


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


# -- the benchmark -----------------------------------------------------------


def run_load(
    rate: float = 25.0,
    duration: float = 8.0,
    mix: tuple[float, float, float] = (0.75, 0.15, 0.10),
    seed: int = 1234,
    scale: str = "tiny",
) -> tuple[dict, dict]:
    """Boot a service, drive it, return (client report, telemetry summary)."""
    from repro.experiments import harness
    from repro.experiments.designs import design_registry

    # Hermetic: never read or pollute the developer's persistent disk
    # cache -- cold jobs must actually be cold, run after run.
    os.environ["REPRO_DISK_CACHE"] = "0"
    os.environ["REPRO_DISK_CACHE_DIR"] = tempfile.mkdtemp(prefix="bench-serve-")
    harness.clear_cache()

    count = max(1, int(rate * duration))
    warm_pairs, jobs = _build_jobs(seed, count, mix, scale)

    registry = MetricsRegistry()
    with use_registry(registry):
        # Pre-warm: the service thread shares this process's harness
        # memo, so direct runs here make the "warm" pairs true memo hits.
        designs = design_registry()
        for app, design_key in warm_pairs:
            harness.run_design(app, designs[design_key], scale=scale)

        config = ServeConfig(
            port=0, batch_window=0.005, queue_limit=256, workers=4,
            default_scale=scale, trace_buffer=65536,
        )
        handle = serve_in_thread(config)
        try:
            results, wall = asyncio.run(
                _drive("127.0.0.1", handle.port, jobs, rate)
            )
            # The open-loop load's telemetry, before the warm leg adds to it.
            records = handle.service.events.recent()
            hist = registry.get("serve_request_seconds")
            server_p99 = hist.percentile(99) if hist else 0.0
            snapshot = {
                name: registry.get(name).to_dict() if registry.get(name) else {}
                for name in ("serve_request_seconds", "serve_batch_size")
            }
            warm_seconds = asyncio.run(
                _warm_leg("127.0.0.1", handle.port, warm_pairs, WARM_LEG_REQUESTS)
            )
        finally:
            handle.shutdown()

    seconds = [r["seconds"] for r in results]
    ok = [r for r in results if 200 <= r["status"] < 300]
    errors = [r for r in results if r["status"] >= 500 or r["status"] == 0]
    shed = [r for r in results if r["status"] == 429]
    by_kind: dict[str, int] = {}
    seconds_by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
        seconds_by_kind.setdefault(r["kind"], []).append(r["seconds"])
    warm_p50 = _percentile(warm_seconds, 50)

    report = {
        "scale": scale,
        "rate_rps": rate,
        "duration_s": duration,
        "requests": len(results),
        "mix": {"warm": mix[0], "cold": mix[1], "inline": mix[2]},
        "by_kind": by_kind,
        "ok": len(ok),
        "errors": len(errors),
        "shed": len(shed),
        "error_rate": len(errors) / len(results) if results else 0.0,
        "throughput_rps": round(len(ok) / wall, 2) if wall else 0.0,
        "p50_s": round(_percentile(seconds, 50), 6),
        "p95_s": round(_percentile(seconds, 95), 6),
        "p99_s": round(_percentile(seconds, 99), 6),
        "mean_s": round(sum(seconds) / len(seconds), 6) if seconds else 0.0,
        "server_p99_s": round(server_p99, 6),
        "p50_by_kind_s": {
            kind: round(_percentile(samples, 50), 6)
            for kind, samples in sorted(seconds_by_kind.items())
        },
        "batch_window_s": config.batch_window,
        "warm_requests": len(warm_seconds),
        "warm_p50_s": round(warm_p50, 6),
        "warm_p50_over_window": round(warm_p50 / config.batch_window, 3),
    }
    summary = aggregate(records, metrics_snapshot=snapshot)
    return report, summary


def _load_slo() -> dict:
    """The committed budget (falls back to defaults pre-baseline)."""
    if _RESULTS_FILE.exists():
        committed = json.loads(_RESULTS_FILE.read_text()).get("slo")
        if committed:
            return committed
    return dict(DEFAULT_SLO)


def run_gate(
    record: bool = False,
    rate: float = 25.0,
    duration: float = 8.0,
    report_path: Path | None = None,
) -> dict:
    report, summary = run_load(rate=rate, duration=duration)
    slo = _load_slo()

    (report_path or _REPORT_FILE).write_text(
        render_markdown(summary, title="Serve telemetry (bench_serve)")
    )

    assert report["error_rate"] <= slo["error_rate"], (
        f"serve error rate {report['error_rate']:.4f} exceeds the "
        f"{slo['error_rate']:.4f} budget ({report['errors']} errors "
        f"over {report['requests']} requests)"
    )
    assert report["p99_s"] <= slo["p99_s"], (
        f"serve p99 latency {report['p99_s']:.3f}s exceeds the "
        f"{slo['p99_s']:.3f}s budget (p50 {report['p50_s']:.3f}s, "
        f"throughput {report['throughput_rps']} rps)"
    )
    assert report["warm_requests"] == WARM_LEG_REQUESTS, (
        f"{WARM_LEG_REQUESTS - report['warm_requests']} of {WARM_LEG_REQUESTS} "
        "warm-leg requests failed"
    )
    assert report["warm_p50_over_window"] < MAX_WARM_P50_OVER_WINDOW, (
        f"warm p50 {report['warm_p50_s'] * 1000:.2f}ms is "
        f"{report['warm_p50_over_window']:.2f}x the "
        f"{report['batch_window_s'] * 1000:.1f}ms batch window: memo hits "
        "are waiting out the window instead of answering at admission"
    )

    if record:
        history = []
        if _RESULTS_FILE.exists():
            history = json.loads(_RESULTS_FILE.read_text()).get("history", [])
        history.append(report)
        _RESULTS_FILE.write_text(
            json.dumps({"slo": slo, "history": history}, indent=2) + "\n"
        )
    return report


def test_serve_slo_gate():
    report = run_gate(record=False, rate=15.0, duration=4.0)
    print(
        f"\nserve gate: p99 {report['p99_s'] * 1000:.1f}ms, "
        f"{report['throughput_rps']} rps, "
        f"error rate {report['error_rate']:.4f}, "
        f"warm p50/window {report['warm_p50_over_window']:.2f}"
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="enforce the SLO budget (CI serve-slo job)")
    parser.add_argument("--record", action="store_true",
                        help="append this run to BENCH_serve.json")
    parser.add_argument("--rate", type=float, default=25.0,
                        help="open-loop arrival rate, requests/second")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="generation window in seconds")
    parser.add_argument("--report-out", type=Path, default=None,
                        help="telemetry report path (default BENCH_serve_report.md)")
    args = parser.parse_args(argv)

    report = run_gate(
        record=args.record, rate=args.rate, duration=args.duration,
        report_path=args.report_out,
    )
    print(json.dumps(report, indent=2))
    slo = _load_slo()
    print(
        f"serve gate PASSED: p99 {report['p99_s']:.3f}s <= {slo['p99_s']:.3f}s, "
        f"error rate {report['error_rate']:.4f} <= {slo['error_rate']:.4f}, "
        f"warm p50/window {report['warm_p50_over_window']:.2f} "
        f"< {MAX_WARM_P50_OVER_WINDOW:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
