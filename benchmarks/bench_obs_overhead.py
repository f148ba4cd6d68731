"""Observability overhead: instrumentation must stay under 5%.

The obs layer's contract is "always available, never in the way": the
simulator hot loop carries no per-event instrumentation (structures
publish aggregate snapshots once per run), and the disabled-mode null
objects make every publish and span a no-op.  This benchmark holds the
layer to that contract on a smoke-scale simulation through
``harness.run_design`` (memo off, so every run simulates), both disabled
(the default state every other benchmark runs in) and fully enabled: a
recording metrics registry plus an event log whose JSONL sink receives
the run's spans through its writer thread.
"""

from __future__ import annotations

import time

from repro.experiments import harness
from repro.experiments.designs import pdede_design
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry, use_registry

from conftest import run_once

#: Maximum tolerated wall-time regression with the obs layer fully on.
MAX_OVERHEAD = 0.05

#: Timed runs per leg.
ROUNDS = 5

APP = "server_oltp_00"


def _simulate(design):
    return harness.run_design(APP, design)  # smoke scale via conftest


def _seconds(design) -> float:
    start = time.perf_counter()
    _simulate(design)
    return time.perf_counter() - start


def test_obs_overhead_under_5_percent(benchmark, tmp_path, monkeypatch):
    # Memo and disk cache off, so every run simulates.
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    design = pdede_design()
    _simulate(design)  # warm the trace cache and code paths

    # Interleave the legs, best of ROUNDS each, so machine drift during
    # the measurement hits both alike.
    disabled = enabled = float("inf")
    log = EventLog(sink_path=str(tmp_path / "events.jsonl"))
    try:
        for _ in range(ROUNDS):
            disabled = min(disabled, _seconds(design))
            with use_registry(MetricsRegistry()), use_event_log(log):
                enabled = min(enabled, _seconds(design))
    finally:
        log.close()
    assert log.drain_info()["emitted"] == 3 * ROUNDS  # three spans per run

    overhead = enabled / disabled - 1.0
    print(
        f"\nobs overhead: disabled {disabled:.3f}s, enabled {enabled:.3f}s "
        f"({overhead:+.2%}, budget {MAX_OVERHEAD:.0%})"
    )
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
    run_once(benchmark, _simulate, design)
