"""Unit tests for the conventional set-associative BTB."""

import pytest

from repro.branch.types import BranchKind
from repro.btb.baseline import BaselineBTB

from conftest import make_event, synthetic_branch_set


def test_paper_geometry_storage():
    # 4096 entries x (1 pid + 12 tag + 57 target + 3 srrip + 2 conf) bits.
    btb = BaselineBTB()
    assert btb.storage_bits() == 4096 * 75
    assert btb.storage_kib() == 37.5


def test_lookup_miss_then_hit_after_update():
    btb = BaselineBTB(entries=256, ways=4)
    event = make_event()
    assert not btb.lookup(event.pc).hit
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.hit
    assert lookup.target == event.target


def test_not_taken_branches_never_allocate():
    btb = BaselineBTB(entries=256, ways=4)
    event = make_event(taken=False, kind=BranchKind.COND_DIRECT)
    btb.update(event)
    assert btb.occupancy() == 0


def test_confidence_protects_incumbent_target():
    btb = BaselineBTB(entries=256, ways=4, conf_bits=2)
    pc = 0x1234_5678
    steady = make_event(pc=pc, target=0xAAAA000)
    other = make_event(pc=pc, target=0xBBBB000)
    for _ in range(3):
        btb.update(steady)  # confidence builds up
    btb.update(other)  # drains confidence, keeps target
    assert btb.lookup(pc).target == 0xAAAA000
    for _ in range(4):
        btb.update(other)  # drains fully, then replaces
    assert btb.lookup(pc).target == 0xBBBB000


def test_capacity_eviction():
    btb = BaselineBTB(entries=16, ways=2)
    pairs = synthetic_branch_set(200, seed=3)
    for pc, target in pairs:
        btb.update(make_event(pc=pc, target=target))
    assert btb.occupancy() <= 16
    assert btb.stats.evictions > 0


def test_indirect_gating():
    btb = BaselineBTB(entries=64, ways=4, allocate_indirect=False)
    indirect = make_event(kind=BranchKind.CALL_INDIRECT)
    btb.update(indirect)
    assert btb.occupancy() == 0
    direct = make_event(kind=BranchKind.CALL_DIRECT)
    btb.update(direct)
    assert btb.occupancy() == 1


def test_miss_definition_counts_wrong_target():
    """Section 5.1: a present-but-wrong entry is a miss too."""
    btb = BaselineBTB(entries=64, ways=4)
    pc = 0x4242_0000
    btb.update(make_event(pc=pc, target=0x1111000))
    wrong = make_event(pc=pc, target=0x2222000)
    lookup = btb.lookup(pc)
    missed = btb.stats.record_outcome(wrong, lookup)
    assert missed
    assert btb.stats.wrong_target == 1


def test_not_taken_lookups_not_scored():
    btb = BaselineBTB(entries=64, ways=4)
    event = make_event(taken=False)
    lookup = btb.lookup(event.pc)
    assert not btb.stats.record_outcome(event, lookup)
    assert btb.stats.taken_lookups == 0


def test_partial_tag_aliasing_possible_but_rare():
    """12-bit folded tags: different PCs rarely but possibly alias."""
    btb = BaselineBTB(entries=4096, ways=8, tag_bits=12)
    pairs = synthetic_branch_set(2000, seed=9)
    false_hits = 0
    for pc, target in pairs:
        lookup = btb.lookup(pc)
        if lookup.hit and lookup.target != target:
            false_hits += 1
        btb.update(make_event(pc=pc, target=target))
    assert false_hits < len(pairs) * 0.05


def test_non_power_of_two_sets_supported():
    btb = BaselineBTB(entries=6144, ways=8)
    assert btb.sets == 768
    pairs = synthetic_branch_set(500, seed=5)
    for pc, target in pairs:
        btb.update(make_event(pc=pc, target=target))
        assert btb.lookup(pc).target == target


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        BaselineBTB(entries=0)
    with pytest.raises(ValueError):
        BaselineBTB(entries=100, ways=8)


def test_reset_stats():
    btb = BaselineBTB(entries=64, ways=4)
    btb.observe(make_event())
    assert btb.stats.lookups == 1
    btb.reset_stats()
    assert btb.stats.lookups == 0
