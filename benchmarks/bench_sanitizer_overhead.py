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

Identical disarmed runs spread by about a third on a shared 2-vCPU
machine, so the ratio of each leg's fastest run follows that noise.  The
overhead is instead the median, over ``PAIRS`` back-to-back pairs, of
each pair's armed/disarmed ratio; the leg that runs first alternates
and the garbage collector runs before every timed leg.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext

from repro.branch.direction import TageLitePredictor
from repro.checks.sanitizer import DEFAULT_CHECK_INTERVAL, Sanitizer, use_sanitizer
from repro.experiments.designs import pdede_design
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.suite import get_trace

from conftest import run_once

#: Maximum tolerated wall-time regression with the sanitizer armed at
#: its default interval.
MAX_OVERHEAD = 0.10

#: Disarmed/armed run pairs whose median ratio is the overhead.
PAIRS = 7


def _simulate(trace, design):
    """One live-pass run; returns the engine it took."""
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, direction=TageLitePredictor(), **kwargs)
    simulator.run(trace, warmup_fraction=0.3)
    return simulator.last_engine


def _timed(trace, design):
    """Seconds and engine of one live-pass run."""
    gc.collect()
    start = time.perf_counter()
    engine = _simulate(trace, design)
    return time.perf_counter() - start, engine


def test_sanitizer_overhead_under_10_percent(benchmark):
    design = pdede_design()
    trace = get_trace("server_oltp_00")  # smoke scale via conftest
    _simulate(trace, design)  # warm the trace cache and code paths

    disabled_engines, armed_engines = set(), set()
    sanitizer = Sanitizer(interval=DEFAULT_CHECK_INTERVAL)
    ratios = []
    for pair in range(PAIRS):
        seconds = {}
        for armed in (False, True) if pair % 2 == 0 else (True, False):
            with use_sanitizer(sanitizer) if armed else nullcontext():
                seconds[armed], engine = _timed(trace, design)
            (armed_engines if armed else disabled_engines).add(engine)
        ratios.append(seconds[True] / seconds[False])
    checks = sanitizer.snapshot()["sanitizer_checks_total"]
    assert disabled_engines == armed_engines == {"general"}, (
        f"legs ran different engines: disabled {disabled_engines}, "
        f"armed {armed_engines}"
    )

    overhead = statistics.median(ratios) - 1.0
    print(
        f"\nsanitizer overhead: median of {PAIRS} pairs {overhead:+.2%} "
        f"(budget {MAX_OVERHEAD:.0%}, {checks} sweeps at interval "
        f"{DEFAULT_CHECK_INTERVAL}); armed/disarmed per pair: "
        + ", ".join(f"{ratio:.3f}" for ratio in ratios)
    )
    assert checks > 0, "interval too large: the sweep never ran"
    assert overhead < MAX_OVERHEAD, (
        f"sanitizer overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
    run_once(benchmark, _simulate, trace, design)
