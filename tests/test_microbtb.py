"""Unit tests for the two-tier Micro BTB (L1 + delta last-level)."""

import pytest

from repro.btb.base import BranchTargetPredictor
from repro.btb.microbtb import MicroBTB

from conftest import make_event, synthetic_branch_set


def _single_set_btb(**overrides):
    """One L1 set of two ways over a roomy last level, so any third
    distinct branch must evict (and victim-fill the last level)."""
    config = dict(l1_entries=2, l1_ways=2, ll_entries=256, ll_ways=8,
                  delta_bits=16)
    config.update(overrides)
    return MicroBTB(**config)


BRANCHES = [
    (0x7F00_0000_1000, 0x7F00_0000_1100),
    (0x7F00_0000_2000, 0x7F00_0000_2200),
    (0x7F00_0000_3000, 0x7F00_0000_3300),
]


def _fill_three(btb):
    for pc, target in BRANCHES:
        btb.update(make_event(pc=pc, target=target))


def test_default_geometry_storage():
    # L1: 1024 x (12 tag + 57 target + 2 conf + 3 srrip) = 1024 x 74.
    # LL: 16384 x (12 tag + 16 delta + 3 srrip) = 16384 x 31.
    btb = MicroBTB()
    assert btb.storage_bits() == 1024 * 74 + 16384 * 31
    assert btb.name == "MicroBTB(1024+16384x16b)"


def test_lookup_miss_then_l1_hit():
    btb = _single_set_btb()
    event = make_event()
    assert not btb.lookup(event.pc).hit
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.hit
    assert lookup.provider == "l1btb"
    assert lookup.target == event.target
    assert lookup.latency == btb.latency


def test_eviction_victim_fills_the_last_level():
    # promote_on_hit off so the census lookups have no side effects.
    btb = _single_set_btb(promote_on_hit=False)
    _fill_three(btb)
    assert btb.stats.evictions == 1
    assert btb.victim_fills == 1
    # All three branches still answer: two from the L1, the victim from
    # the last level with the extra latency and reconstructed target.
    lookups = [btb.lookup(pc) for pc, _ in BRANCHES]
    providers = sorted(result.provider for result in lookups)
    assert providers == ["l1btb", "l1btb", "llbtb"]
    for (pc, target), result in zip(BRANCHES, lookups):
        assert result.hit
        assert result.target == target
    victim = next(r for r in lookups if r.provider == "llbtb")
    assert victim.latency == btb.latency + btb.ll_extra_latency


def test_last_level_hit_promotes_back_to_l1():
    btb = _single_set_btb()
    _fill_three(btb)
    victim_pc = None
    for pc, _ in BRANCHES:
        if btb.lookup(pc).provider == "llbtb":
            victim_pc = pc
            break  # the hit just promoted this entry; stop probing
    assert victim_pc is not None
    assert btb.promotions == 1
    assert btb.lookup(victim_pc).provider == "l1btb"


def test_promote_on_hit_can_be_disabled():
    btb = _single_set_btb(promote_on_hit=False)
    _fill_three(btb)
    victim_pc = next(pc for pc, _ in BRANCHES
                     if btb.lookup(pc).provider == "llbtb")
    assert btb.promotions == 0
    assert btb.lookup(victim_pc).provider == "llbtb"


def test_uncompressible_deltas_never_reach_the_last_level():
    btb = _single_set_btb(delta_bits=8)  # deltas beyond +/-127 dropped
    far = [(pc, pc + 0x10_0000) for pc, _ in BRANCHES]
    for pc, target in far:
        btb.update(make_event(pc=pc, target=target))
    assert btb.stats.evictions == 1
    assert btb.uncompressible == 1
    assert btb.ll_hits == 0
    # The evicted branch is simply lost -- exactly one of the three
    # misses now.
    hits = [btb.lookup(pc).hit for pc, _ in far]
    assert sorted(hits) == [False, True, True]


def test_fill_policy_all_writes_last_level_eagerly():
    btb = _single_set_btb(fill_policy="all")
    event = make_event()
    btb.update(event)
    assert btb.victim_fills == 0
    assert sum(btb._ll_valid) == 1
    # Even with the L1 entry gone, the last level answers.
    _fill_three(btb)
    for pc, target in BRANCHES:
        result = btb.lookup(pc)
        assert result.hit
        assert result.target == target


def test_not_taken_branches_never_allocate():
    btb = _single_set_btb()
    btb.update(make_event(taken=False))
    assert btb.occupancy() == 0


def test_indirect_gating():
    from repro.branch.types import BranchKind

    btb = _single_set_btb(allocate_indirect=False)
    btb.update(make_event(kind=BranchKind.CALL_INDIRECT))
    assert btb.occupancy() == 0
    btb.update(make_event(kind=BranchKind.COND_DIRECT))
    assert btb.occupancy() == 1


def test_confidence_protects_incumbent_target():
    btb = _single_set_btb(conf_bits=2)
    pc = 0x7F00_0000_4000
    steady = make_event(pc=pc, target=pc + 0x40)
    flip = make_event(pc=pc, target=pc + 0x80)
    for _ in range(3):
        btb.update(steady)
    btb.update(flip)  # drains confidence, keeps the incumbent
    assert btb.lookup(pc).target == steady.target
    for _ in range(4):
        btb.update(flip)
    assert btb.lookup(pc).target == flip.target


def test_capacity_stays_bounded_under_pressure():
    btb = MicroBTB(l1_entries=16, l1_ways=2, ll_entries=64, ll_ways=4)
    for pc, target in synthetic_branch_set(500, seed=7):
        btb.update(make_event(pc=pc, target=target))
    assert btb.occupancy() <= 16 + 64
    assert btb.stats.evictions > 0
    assert btb.victim_fills > 0


def test_metrics_expose_the_hierarchy():
    # promote_on_hit off so each probe's provider is order-independent.
    btb = _single_set_btb(promote_on_hit=False)
    _fill_three(btb)
    for pc, _ in BRANCHES:
        btb.lookup(pc)
    data = btb.metrics()
    assert data["btb_l1_hits_total"] == btb.l1_hits == 2
    assert data["btb_ll_hits_total"] == btb.ll_hits == 1
    assert data["btb_ll_victim_fills_total"] == 1
    assert data["btb_l1_entries"] == 2
    assert data["btb_ll_entries"] == 256


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(l1_entries=0), "l1_entries"),
        (dict(l1_entries=5, l1_ways=4), "divisible"),
        (dict(ll_entries=7, ll_ways=2), "divisible"),
        (dict(fill_policy="never"), "fill_policy"),
        (dict(delta_bits=1), "delta_bits"),
    ],
)
def test_bad_geometry_is_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        MicroBTB(**kwargs)


def test_opts_out_of_fast_engines():
    # No inlined ``observe_fast`` pass of its own, so the fresh-run
    # engine's BTB pass is the base class's loop over the hashed pair.
    assert MicroBTB.observe_fast is BranchTargetPredictor.observe_fast
