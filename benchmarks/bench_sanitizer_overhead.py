"""Sanitizer overhead: the armed checker must stay under 10%.

The sanitizer's contract mirrors the obs layer's: disabled (the
default), ``sanitizer_step`` is a global load plus a ``None`` test --
nothing the hot loop can feel.  Armed at the default interval, full
invariant sweeps amortise to a bounded tax.  This benchmark holds the
armed claim on a smoke-scale PDede simulation: armed overhead under
``MAX_OVERHEAD``.

An armed sanitizer sends a run through the live structure pass, so both
legs take that pass (a caller-supplied TAGE-lite predictor keeps the
disabled leg off the fresh-run engine): the ratio compares the
sanitizer's tax, not two engines.
"""

from __future__ import annotations

import time

from repro.branch.direction import TageLitePredictor
from repro.checks.sanitizer import DEFAULT_CHECK_INTERVAL, Sanitizer, use_sanitizer
from repro.experiments.designs import pdede_design
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.suite import get_trace

from conftest import run_once

#: Maximum tolerated wall-time regression with the sanitizer armed at
#: its default interval.
MAX_OVERHEAD = 0.10


def _simulate(trace, design):
    """One live-pass run; returns the engine it took."""
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, direction=TageLitePredictor(), **kwargs)
    simulator.run(trace, warmup_fraction=0.3)
    return simulator.last_engine


def _timed(trace, design):
    """Seconds and engine of one live-pass run."""
    start = time.perf_counter()
    engine = _simulate(trace, design)
    return time.perf_counter() - start, engine


def test_sanitizer_overhead_under_10_percent(benchmark):
    design = pdede_design()
    trace = get_trace("server_oltp_00")  # smoke scale via conftest
    _simulate(trace, design)  # warm the trace cache and code paths

    # Best of 3 per leg, the legs alternating so a load change on the
    # machine lands on both.
    disabled = armed = float("inf")
    disabled_engines, armed_engines = set(), set()
    sanitizer = Sanitizer(interval=DEFAULT_CHECK_INTERVAL)
    for _ in range(3):
        seconds, engine = _timed(trace, design)
        disabled = min(disabled, seconds)
        disabled_engines.add(engine)
        with use_sanitizer(sanitizer):
            seconds, engine = _timed(trace, design)
        armed = min(armed, seconds)
        armed_engines.add(engine)
    checks = sanitizer.snapshot()["sanitizer_checks_total"]
    assert disabled_engines == armed_engines == {"general"}, (
        f"legs ran different engines: disabled {disabled_engines}, "
        f"armed {armed_engines}"
    )

    overhead = armed / disabled - 1.0
    print(
        f"\nsanitizer overhead: disabled {disabled:.3f}s, armed {armed:.3f}s "
        f"({overhead:+.2%}, budget {MAX_OVERHEAD:.0%}, {checks} sweeps "
        f"at interval {DEFAULT_CHECK_INTERVAL})"
    )
    assert checks > 0, "interval too large: the sweep never ran"
    assert overhead < MAX_OVERHEAD, (
        f"sanitizer overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
    run_once(benchmark, _simulate, trace, design)
