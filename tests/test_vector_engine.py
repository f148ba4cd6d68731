"""Edge cases of the fresh-run vector engine.

Its scalar BTB pass has a few delicate spots: back-to-back allocations
on a cold BTB, the warm crossing's stats reset (inside an allocation
cluster, on a return the BTB never sees, or never at all), degenerate
traces, and the choice between a BTB's ``observe_fast`` pass hook and
the engine's shared ``lookup`` + ``update`` loop.  These tests pin each against the
frozen seed referee.  The timing model's scanned fetch-queue slack walk
is held to the frozen scalar walk on random columns and on its edges.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.types import BranchKind
from repro.experiments.designs import (
    baseline_design,
    ghrp_design,
    standard_designs,
    with_returns_in_btb,
    with_temporal_prefetch,
)
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart, seed_slack_walk
from repro.frontend.simulator import FrontendSimulator
from repro.frontend.vector import _slack_walk
from repro.workloads.generator import generate_trace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import get_trace

WARMUP = 0.25


def _dense_miss_trace(n_events: int = 900, seed: int = 7) -> object:
    """A short trace whose cold start makes nearly every taken branch a
    BTB allocation, so state-writing BTB calls land back to back."""
    spec = WorkloadSpec(
        name="vector_edge",
        category="fuzz",
        seed=seed,
        n_events=n_events,
        n_functions=600,
        blocks_per_fn_mean=9.0,
        block_instrs_mean=5.0,
        n_regions=4,
        functions_per_page_mean=3.0,
        loop_fraction=0.15,
        mean_trip_count=3.0,
        cond_taken_bias=0.6,
        never_taken_fraction=0.2,
        indirect_fanout=5,
        n_phases=3,
        hot_functions_per_phase=25,
        zipf_s=1.1,
        sweep_fraction=0.2,
        max_call_depth=10,
    )
    return generate_trace(spec)


def _assert_matches_seed(design, trace, warmup=WARMUP):
    """Fresh-run engine vs seed referee: frontend and BTB stats."""
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, **kwargs)
    stats = simulator.run(trace, warmup_fraction=warmup)
    assert simulator.last_engine == "vector", design.key
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    seed_stats = reference.run(trace, warmup_fraction=warmup)
    assert stats.to_dict() == seed_stats.to_dict(), design.key
    assert btb.stats.to_dict() == reference.btb.stats.to_dict(), design.key


def test_back_to_back_resteers_cold_start():
    # A cold BTB makes the first hundreds of taken branches consecutive
    # allocations, so state-writing BTB calls run back to back.
    trace = _dense_miss_trace(n_events=400, seed=11)
    for design in standard_designs().values():
        _assert_matches_seed(design, trace)


@pytest.mark.parametrize("warm_events", [0, 1, 117, 449, 800, 899])
@pytest.mark.parametrize("key", ["pdede-default", "pdede-multi-target"])
def test_warm_crossing_inside_replayed_segments(key, warm_events):
    # Warm crossings at awkward offsets -- the first event, the last
    # event, and points inside dense allocation clusters -- put the
    # stats reset mid-cluster; the measured region must account exactly
    # the events the seed engine accounts.  With no warm-up the stats
    # are never reset, as in the seed engine.
    trace = _dense_miss_trace()
    _assert_matches_seed(
        standard_designs()[key], trace, warmup=warm_events / len(trace)
    )


@pytest.mark.parametrize("returns_use_ras", [True, False])
def test_warm_crossing_on_a_return(returns_use_ras):
    # With the RAS serving returns, the event at the warm crossing never
    # reaches the BTB: the reset must still land before the next BTB call.
    trace = _dense_miss_trace()
    warm_limit = next(
        index
        for index, kind in enumerate(trace.kinds.tolist())
        if index > len(trace) // 3 and kind == int(BranchKind.RETURN)
    )
    warmup = (warm_limit + 0.5) / len(trace)
    assert int(len(trace) * warmup) == warm_limit
    design = standard_designs()["pdede-default"]
    if not returns_use_ras:
        design = with_returns_in_btb(design)
    _assert_matches_seed(design, trace, warmup)


@pytest.mark.parametrize("n_events", [0, 1])
def test_empty_and_one_event_traces(n_events):
    trace = _dense_miss_trace()
    trace.truncate(n_events)
    for design in (standard_designs()["pdede-default"], ghrp_design()):
        _assert_matches_seed(design, trace)


@pytest.mark.parametrize(
    "design",
    [with_temporal_prefetch(baseline_design()), ghrp_design(1024)],
    ids=lambda design: design.key,
)
def test_lookup_update_families_on_the_fresh_engine(design):
    # GhrpBTB overrides Baseline's hashed pair, so it must run the base
    # class's loop over it, not Baseline's inlined pass.  At 1024 entries
    # the tiny trace evicts enough for the dead-entry predictor to steer
    # replacement, so Baseline's pass would show.
    _assert_matches_seed(design, get_trace("server_oltp_00", "tiny"))


def test_fresh_runs_never_import_the_chunked_kernels():
    # The fresh-run engine needs no struct-of-arrays BTB kernels: a fresh
    # run of every registry design leaves that module unimported.
    script = textwrap.dedent(
        """
        import sys
        from repro.experiments.designs import design_registry
        from repro.frontend.simulator import FrontendSimulator
        from repro.workloads.suite import get_trace

        trace = get_trace("server_oltp_00", "tiny")
        trace.truncate(1500)
        for key, design in design_registry().items():
            btb, kwargs = design.build()
            simulator = FrontendSimulator(btb, **kwargs)
            simulator.run(trace, warmup_fraction=0.25)
            assert simulator.last_engine == "vector", key
        assert "repro.btb.vectorops" not in sys.modules
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=300)


def test_benchmark_tracer_still_finds_its_wrap_targets():
    # The per-layer benchmark tracer wraps names of this package by hand
    # (the retired kernel stubs, the decoded-trace replays, the harness,
    # the simulator's run); a renamed target would otherwise surface
    # only in the perf-budget job.
    perf_dir = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "perf")
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {os.path.abspath(perf_dir)!r})
        import tracing
        from repro.experiments import harness
        from repro.experiments.designs import design_registry

        recorder = tracing.Recorder()
        tracing.install(recorder)
        harness.run_design(
            "server_oltp_00", design_registry()["pdede-default"], scale="tiny"
        )
        rollup = recorder.rollup()
        assert rollup.get("frontend.vector", [0])[0] == 1, sorted(rollup)
        assert rollup.get("btb.boundary_replay", [0])[0] > 0, sorted(rollup)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "REPRO_DISK_CACHE": "0"}
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=300)


# -- the scanned fetch-queue slack walk against the frozen scalar walk ----------


@st.composite
def _walk_columns(draw):
    """``(d, has_pen, icache_cost, bubble_ticks, slack_max, warm_limit)``
    over a short trace; ``d`` mixes gains and losses around the slack cap
    so clamping at both ends happens, penalties range from none to every
    event, and ``warm_limit`` runs from 0 to past the end."""
    n = draw(st.integers(min_value=0, max_value=80))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    d = column(st.integers(min_value=-60, max_value=60))
    pen_rate = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    pen = [u < pen_rate for u in column(st.floats(min_value=0.0, max_value=0.999))]
    icache = column(st.integers(min_value=0, max_value=50))
    bubble = column(st.integers(min_value=0, max_value=50))
    return (
        np.array(d, dtype=np.int64),
        np.array(pen, dtype=np.bool_),
        np.array(icache, dtype=np.int64),
        np.array(bubble, dtype=np.int64),
        draw(st.sampled_from([0, 1, 7, 40, 1000])),
        draw(st.integers(min_value=0, max_value=n + 3)),
    )


@settings(max_examples=400, deadline=None)
@given(_walk_columns())
def test_slack_walk_matches_the_scalar_walk(columns):
    assert _slack_walk(*columns) == seed_slack_walk(*columns)


_EDGE_D = [7, -3, 12, -20, -1, 5]


@pytest.mark.parametrize(
    "d, pen, slack_max, warm_limit, totals",
    [
        pytest.param([], [], 40, 0, (0, 0, 0), id="empty"),
        pytest.param([5, 9, 0, 30], [False] * 4, 40, 0, (0, 0, 0), id="no-interesting-events"),
        # Every event drains the slack, so each loss is a whole overrun.
        pytest.param(
            [-4, 6, -9, -1, 2], [True] * 5, 40, 0, (14, 7, 3), id="every-event-a-penalty"
        ),
        pytest.param(_EDGE_D, [False] * 6, 0, 0, (24, 7, 2), id="slack-max-zero"),
        # The 12-tick gain fills the 10-tick queue; -20 then overruns by 10.
        pytest.param(_EDGE_D, [False, True] * 3, 10, 0, (11, 4, 2), id="warm-limit-zero"),
        pytest.param(_EDGE_D, [False, True] * 3, 10, 4, (1, 1, 0), id="warm-limit-mid"),
        pytest.param(_EDGE_D, [False, True] * 3, 10, 9, (0, 0, 0), id="warm-limit-past-end"),
    ],
)
def test_slack_walk_edge_cases(d, pen, slack_max, warm_limit, totals):
    # Every event's ICache cost is 3 ticks and its lookup bubble 2.
    columns = (
        np.array(d, dtype=np.int64),
        np.array(pen, dtype=np.bool_),
        np.full(len(d), 3, dtype=np.int64),
        np.full(len(d), 2, dtype=np.int64),
        slack_max,
        warm_limit,
    )
    assert seed_slack_walk(*columns) == totals
    assert _slack_walk(*columns) == totals
