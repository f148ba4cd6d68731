"""The vector engine is an *optimisation*, not a model change: for
every design it must reproduce the frozen seed engine's FrontendStats
exactly (``to_dict()`` equality -- bit-identical floats, not
approximate), and it must engage exactly when its gate says it can.
"""

from __future__ import annotations

import pytest

from repro.branch.direction import TageLitePredictor
from repro.btb.baseline import BaselineBTB
from repro.btb.twolevel import TwoLevelBTB
from repro.checks.sanitizer import Sanitizer, use_sanitizer
from repro.core.pdede import PDedeBTB
from repro.experiments.designs import (
    Design,
    pdede_design,
    standard_designs,
    two_level_design,
    with_ittage,
    with_perfect_direction,
    with_returns_in_btb,
)
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
from repro.frontend.simulator import FrontendSimulator
from repro.serve.protocol import stats_payload
from repro.workloads.suite import get_trace

TRACE_SCALE = "tiny"
TRACE_APP = "server_oltp_00"


def _designs():
    designs = dict(standard_designs())
    pdede = designs["pdede-multi-entry"]
    designs["pdede+perfect-direction"] = with_perfect_direction(pdede)
    designs["pdede+returns-in-btb"] = with_returns_in_btb(pdede)
    designs["twolevel-pdede"] = two_level_design(512, pdede_design())
    return designs


def _run_both(design, trace, engine="auto"):
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine=engine, **kwargs)
    stats = simulator.run(trace, warmup_fraction=0.3)
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    seed_stats = reference.run(trace, warmup_fraction=0.3)
    return simulator, stats, seed_stats


@pytest.mark.parametrize("engine", ["vector"])
@pytest.mark.parametrize("key", sorted(_designs()))
def test_decoded_engines_match_seed_exactly(key, engine):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    simulator, stats, seed_stats = _run_both(_designs()[key], trace, engine=engine)
    assert simulator.last_engine == engine
    assert stats.to_dict() == seed_stats.to_dict()


@pytest.mark.parametrize("key", sorted(_designs()))
def test_auto_prefers_vector_engine(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    simulator, stats, seed_stats = _run_both(_designs()[key], trace)
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


def test_ittage_falls_back_to_general_engine_and_still_matches():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = with_ittage(standard_designs()["pdede-default"])
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "general"
    assert stats.to_dict() == seed_stats.to_dict()


def test_twolevel_with_pdede_l0_runs_the_fresh_engine_and_matches():
    # A PDede L0 takes the hierarchy's combined observe_fast hook on the
    # fresh-run engine and must still match the seed referee.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = Design(
        key="twolevel-pdede-l0",
        build_btb=lambda: TwoLevelBTB(PDedeBTB(), BaselineBTB(entries=8192)),
    )
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


def test_twolevel_with_pdede_l0_falls_back_to_general_and_matches():
    # With ITTAGE attached the columns no longer stand in, so the same
    # hierarchy runs on the live general engine and must still match.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = with_ittage(Design(
        key="twolevel-pdede-l0",
        build_btb=lambda: TwoLevelBTB(PDedeBTB(), BaselineBTB(entries=8192)),
    ))
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "general"
    assert stats.to_dict() == seed_stats.to_dict()


def test_warmup_zero_matches_seed():
    # warmup_fraction=0 hits the seed's warm_limit==0 quirk: stats are
    # never reset, so the vector engine must not reset them either.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = standard_designs()["pdede-default"]
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, **kwargs)
    stats = simulator.run(trace, warmup_fraction=0.0)
    seed_btb, seed_kwargs = design.build()
    seed_stats = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs).run(
        trace, warmup_fraction=0.0
    )
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


def test_second_run_uses_general_engine():
    # A reused simulator carries state from the first run; the vector
    # engine's replay assumptions only hold from a pristine start.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = standard_designs()["baseline"].build()
    simulator = FrontendSimulator(btb, **kwargs)
    simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "vector"
    simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "general"


def test_armed_sanitizer_forces_general_engine():
    # The scalar BTB hooks skip sanitizer_step (they are gated on the
    # sanitizer being off); an armed sanitizer must see the full loop.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = standard_designs()["pdede-default"].build()
    simulator = FrontendSimulator(btb, **kwargs)
    with use_sanitizer(Sanitizer(interval=1 << 20)):
        simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "general"


def test_post_run_state_matches_live_objects():
    # The vector engine adopts clones of the shared replay state; the
    # post-run icache/direction must look exactly like a live run's.
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = standard_designs()["pdede-default"]
    btb, kwargs = design.build()
    vector = FrontendSimulator(btb, **kwargs)
    vector.run(trace, warmup_fraction=0.3)
    seed_btb, seed_kwargs = design.build()
    general = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    general.run(trace, warmup_fraction=0.3)
    assert vector.icache.accesses == general.icache.accesses
    assert vector.icache.misses == general.icache.misses
    assert vector.icache._lines == general.icache._lines
    assert vector.direction._history == general.direction._history
    assert vector.direction._rng_state == general.direction._rng_state


def test_btb_metrics_match_between_engines():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    for key, design in standard_designs().items():
        btb, kwargs = design.build()
        simulator = FrontendSimulator(btb, **kwargs)
        simulator.run(trace, warmup_fraction=0.3)
        seed_btb, seed_kwargs = design.build()
        reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
        reference.run(trace, warmup_fraction=0.3)
        live = btb.stats
        seed = reference.btb.stats
        assert (live.lookups, live.hits, live.misses, live.updates) == (
            seed.lookups, seed.hits, seed.misses, seed.updates
        ), key
        assert live.misses_by_kind == seed.misses_by_kind, key


# -- differential fuzzing ----------------------------------------------------
#
# The parametrised tests above lock the engines together on the suite's
# traces; the fuzz sweep locks them together on *arbitrary* workloads.
# Every spec is derived from a seed (no global RNG, no nondeterminism),
# so a failure reproduces exactly; on divergence the failing workload is
# shrunk to a short prefix and the spec + prefix land in the assertion
# message, ready to paste into a regression test.

import random

from repro.workloads.generator import generate_trace
from repro.workloads.spec import WorkloadSpec

N_FUZZ_SWEEPS = 8
_FUZZ_WARMUP = 0.25


def _fuzz_spec(seed: int) -> WorkloadSpec:
    rng = random.Random(seed)
    return WorkloadSpec(
        name=f"fuzz_{seed:04d}",
        category="fuzz",
        seed=rng.randrange(1 << 30),
        n_events=rng.randrange(1500, 3500),
        n_functions=rng.choice([150, 400, 900]),
        blocks_per_fn_mean=rng.choice([4.0, 9.0, 14.0]),
        block_instrs_mean=rng.choice([3.0, 5.0, 8.0]),
        n_regions=rng.randrange(3, 6),
        functions_per_page_mean=rng.choice([1.5, 4.5, 8.0]),
        loop_fraction=rng.choice([0.1, 0.25, 0.4]),
        mean_trip_count=rng.choice([2.0, 7.0, 20.0]),
        cond_taken_bias=rng.uniform(0.2, 0.8),
        never_taken_fraction=rng.uniform(0.1, 0.6),
        indirect_fanout=rng.randrange(1, 9),
        n_phases=rng.randrange(1, 7),
        hot_functions_per_phase=rng.randrange(4, 40),
        zipf_s=rng.uniform(0.8, 1.6),
        sweep_fraction=rng.uniform(0.0, 0.3),
        max_call_depth=rng.randrange(4, 20),
    )


def _fuzz_design(seed: int):
    rng = random.Random(seed * 2654435761 % (1 << 31))
    designs = dict(standard_designs())
    designs["twolevel-pdede"] = two_level_design(512, pdede_design())
    designs["pdede+perfect-direction"] = with_perfect_direction(
        designs["pdede-multi-entry"]
    )
    # with_ittage forces the live general engine, so the sweep exercises
    # the fresh-run vector *and* the general path against the seed referee.
    designs["pdede+ittage"] = with_ittage(designs["pdede-default"])
    key = rng.choice(sorted(designs))
    return key, designs[key]


def _diff_fields(design, trace) -> dict:
    """Field-by-field diff of the auto engine vs seed stats ({} if equal)."""
    btb, kwargs = design.build()
    live = FrontendSimulator(btb, **kwargs).run(
        trace, warmup_fraction=_FUZZ_WARMUP
    )
    seed_btb, seed_kwargs = design.build()
    ref = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs).run(
        trace, warmup_fraction=_FUZZ_WARMUP
    )
    live_dict, ref_dict = live.to_dict(), ref.to_dict()
    return {
        field: (live_dict[field], ref_dict[field])
        for field in sorted(live_dict.keys() | ref_dict.keys())
        if live_dict.get(field) != ref_dict.get(field)
    }


def _shrink_prefix(design, spec, failing_length: int) -> int:
    """Binary-search a short failing prefix of the workload.

    Divergence is not guaranteed monotone in the prefix length, so this
    finds *a* small failing prefix rather than the minimum -- which is
    all a reproduction snippet needs.
    """
    low, high = 1, failing_length
    while low < high:
        mid = (low + high) // 2
        prefix = generate_trace(spec)
        prefix.truncate(mid)
        if _diff_fields(design, prefix):
            high = mid
        else:
            low = mid + 1
    return low


@pytest.mark.parametrize("fuzz_seed", range(N_FUZZ_SWEEPS))
def test_differential_fuzz_engines_agree(fuzz_seed):
    # "auto" resolves to vector for most designs and to general for
    # ittage, so the sweep keeps both engines under differential pressure.
    spec = _fuzz_spec(fuzz_seed)
    design_key, design = _fuzz_design(fuzz_seed)
    trace = generate_trace(spec)
    diff = _diff_fields(design, trace)
    if diff:
        shrunk = _shrink_prefix(design, spec, len(trace))
        raise AssertionError(
            f"engines diverge on fuzz seed {fuzz_seed} "
            f"(design {design_key!r}, {len(trace)} "
            f"events; shrunk to first {shrunk} events).\n"
            f"Reproduce with: generate_trace({spec!r}).truncate({shrunk})\n"
            "Differing fields (live vs seed): "
            + ", ".join(f"{k}: {a!r} != {b!r}" for k, (a, b) in diff.items())
        )


def test_fuzz_sweep_is_deterministic():
    # The whole sweep must be derivable from seeds alone: same spec
    # object, same trace bytes, both times.
    spec_a, spec_b = _fuzz_spec(3), _fuzz_spec(3)
    assert spec_a == spec_b
    trace_a, trace_b = generate_trace(spec_a), generate_trace(spec_b)
    assert trace_a.pcs == trace_b.pcs
    assert trace_a.targets == trace_b.targets
    assert _fuzz_design(5)[0] == _fuzz_design(5)[0]


# -- literature families on the fresh-run engine ------------------------------
#
# MicroBTB, ShadowBTB and GhrpBTB have no combined ``observe_fast`` hook
# of their own (GhrpBTB inherits one but overrides ``update``), so the
# fresh-run engine's BTB pass calls their ``lookup`` and ``update``.  Auto
# and a forced ``vector`` both run them there, and they must still match
# the frozen seed referee exactly.

from repro.experiments.designs import ghrp_design, micro_btb_design, shadow_design


def _literature_designs():
    return {
        "ghrp": ghrp_design(),
        "micro-btb": micro_btb_design(),
        "shadow-baseline": shadow_design("baseline"),
        "shadow-pdede": shadow_design("pdede"),
    }


@pytest.mark.parametrize("key", sorted(_literature_designs()))
def test_literature_families_run_the_fresh_engine_and_match_seed(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()[key]
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "vector"
    assert stats.to_dict() == seed_stats.to_dict()


@pytest.mark.parametrize("engine", ["vector"])
@pytest.mark.parametrize("key", sorted(_literature_designs()))
def test_literature_families_run_forced_vector_and_match_seed(key, engine):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    simulator, stats, seed_stats = _run_both(
        _literature_designs()[key], trace, engine=engine
    )
    assert simulator.last_engine == engine
    assert stats.to_dict() == seed_stats.to_dict()


# Where the columns cannot stand in (here: ITTAGE owns the indirect
# branches), auto falls back to the live general engine and a forced
# ``vector`` refuses, for the literature families as for PDede.


@pytest.mark.parametrize("key", sorted(_literature_designs()))
def test_literature_families_fall_back_to_general_and_match_seed(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = with_ittage(_literature_designs()[key])
    simulator, stats, seed_stats = _run_both(design, trace)
    assert simulator.last_engine == "general"
    assert stats.to_dict() == seed_stats.to_dict()


@pytest.mark.parametrize("engine", ["vector"])
@pytest.mark.parametrize("key", sorted(_literature_designs()))
def test_literature_families_refuse_forced_fast_tiers(key, engine):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    btb, kwargs = with_ittage(_literature_designs()[key]).build()
    simulator = FrontendSimulator(btb, engine=engine, **kwargs)
    with pytest.raises(ValueError, match="not applicable"):
        simulator.run(trace, warmup_fraction=0.3)


@pytest.mark.parametrize("fuzz_seed", range(4))
def test_differential_fuzz_literature_families(fuzz_seed):
    """The seedref differential sweep over the literature families: the
    fresh-run engine's lookup/update pass vs the referee on randomized
    workloads."""
    spec = _fuzz_spec(1000 + fuzz_seed)
    designs = _literature_designs()
    key = sorted(designs)[fuzz_seed % len(designs)]
    trace = generate_trace(spec)
    diff = _diff_fields(designs[key], trace)
    if diff:
        shrunk = _shrink_prefix(designs[key], spec, len(trace))
        raise AssertionError(
            f"fresh-run engine diverges from seed referee on fuzz seed "
            f"{1000 + fuzz_seed} (design {key!r}, {len(trace)} events; "
            f"shrunk to first {shrunk} events).\n"
            f"Reproduce with: generate_trace({spec!r}).truncate({shrunk})\n"
            f"Diverging fields: {diff}"
        )


# -- fresh runs on the decoded columns, everything else live -----------------
#
# A fresh run reads the ICache, direction and RAS outcomes from the
# trace's replays and adopts the replays' end states (so its ``icache``
# is a new object afterwards); a forced ``general`` run, a reused
# simulator and a caller-supplied predictor ask the live structures (so
# the ``icache`` stays the same object).  All must match the seed referee
# byte for byte.


def _seed_run(design, trace, runs=1, **seed_overrides):
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(
        seed_counterpart(seed_btb), **{**seed_kwargs, **seed_overrides}
    )
    for _ in range(runs):
        stats = reference.run(trace, warmup_fraction=0.3)
    return reference, stats


def _tage_tables(predictor) -> tuple:
    return (
        predictor._base._table,
        [(c.tags, c.counters, c.useful) for c in predictor._components],
        predictor._history,
        predictor._rng_state,
    )


@pytest.mark.parametrize("key", ["micro-btb", "shadow-pdede", "baseline"])
def test_forced_general_takes_the_live_path_and_matches_seed(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = {**_literature_designs(), **standard_designs()}[key]
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine="general", **kwargs)
    icache_before = simulator.icache
    stats = simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "general"
    assert simulator.icache is icache_before  # asked the live ICache
    _, seed_stats = _seed_run(design, trace)
    assert stats_payload(stats) == stats_payload(seed_stats)


def test_second_general_run_asks_the_live_structures_and_matches_seed():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()["micro-btb"]
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, **kwargs)
    simulator.run(trace, warmup_fraction=0.3)
    adopted = simulator.icache
    second = simulator.run(trace, warmup_fraction=0.3)
    assert simulator.icache is adopted
    _, seed_second = _seed_run(design, trace, runs=2)
    assert stats_payload(second) == stats_payload(seed_second)


def test_caller_supplied_predictor_takes_the_live_path_and_matches_seed():
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()["shadow-pdede"]
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, direction=TageLitePredictor(), **kwargs)
    icache_before = simulator.icache
    stats = simulator.run(trace, warmup_fraction=0.3)
    assert simulator.icache is icache_before
    _, seed_stats = _seed_run(design, trace, direction=TageLitePredictor())
    assert stats_payload(stats) == stats_payload(seed_stats)


@pytest.mark.parametrize("key", ["micro-btb", "shadow-pdede"])
def test_fresh_run_on_columns_ends_in_the_live_run_state(key):
    trace = get_trace(TRACE_APP, TRACE_SCALE)
    design = _literature_designs()[key]
    runs = []
    for direction in (None, TageLitePredictor()):
        btb, kwargs = design.build()
        simulator = FrontendSimulator(btb, direction=direction, **kwargs)
        simulator.run(trace, warmup_fraction=0.3)
        runs.append(simulator)
    columns, live = runs
    assert (columns.last_engine, live.last_engine) == ("vector", "general")
    assert columns.icache is not live.icache
    assert (columns.icache.accesses, columns.icache.misses) == (
        live.icache.accesses, live.icache.misses
    )
    assert columns.icache._lines == live.icache._lines
    assert columns.ras.snapshot() == live.ras.snapshot()
    assert _tage_tables(columns.direction) == _tage_tables(live.direction)
