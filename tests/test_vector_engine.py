"""Edge cases of the fresh-run vector engine.

Its scalar BTB pass has a few delicate spots: back-to-back allocations
on a cold BTB, the warm crossing's stats reset (inside an allocation
cluster, on a return the BTB never sees, or never at all), degenerate
traces, and the choice between a BTB's combined ``observe_fast`` hook
and its ``lookup`` + ``update``.  These tests pin each against the
frozen seed referee.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.branch.types import BranchKind
from repro.experiments.designs import (
    baseline_design,
    ghrp_design,
    standard_designs,
    with_ittage,
    with_returns_in_btb,
    with_temporal_prefetch,
)
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
from repro.frontend.simulator import FrontendSimulator
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
        for index, kind in enumerate(trace.kinds)
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
    # GhrpBTB inherits BaselineBTB.observe_fast but overrides lookup and
    # update, so the pass must give it those two calls, not the inherited
    # hook.  At 1024 entries the tiny trace evicts enough for the
    # dead-entry predictor to steer replacement, so the hook would show.
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


# -- engine forcing and applicability ---------------------------------------


def test_unknown_engine_rejected_at_construction():
    btb, kwargs = standard_designs()["baseline"].build()
    for engine in ("warp", "fast"):
        with pytest.raises(ValueError, match="unknown engine"):
            FrontendSimulator(btb, engine=engine, **kwargs)


def test_forced_vector_rejects_inapplicable_design():
    design = with_ittage(standard_designs()["pdede-default"])
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine="vector", **kwargs)
    with pytest.raises(ValueError, match="vector engine not applicable"):
        simulator.run(get_trace("server_oltp_00", "tiny"))


def test_forced_vector_rejects_reused_simulator():
    trace = get_trace("server_oltp_00", "tiny")
    btb, kwargs = standard_designs()["baseline"].build()
    simulator = FrontendSimulator(btb, engine="vector", **kwargs)
    simulator.run(trace, warmup_fraction=WARMUP)
    with pytest.raises(ValueError, match="vector engine not applicable"):
        simulator.run(trace, warmup_fraction=WARMUP)
