"""Unit tests for the PDede BTB micro-architecture."""

import pytest

from repro.branch.types import BranchKind
from repro.core.config import PDedeConfig, PDedeMode, paper_config
from repro.core.pdede import PDedeBTB

from conftest import make_event, synthetic_branch_set

SAME_PAGE_PC = 0x7F00_0040_1000
SAME_PAGE_TARGET = 0x7F00_0040_1F00  # same 4 KiB page as the PC
DIFF_PAGE_TARGET = 0x7F11_2233_4450


def small_config(**overrides) -> PDedeConfig:
    base = dict(btbm_entries=256, btbm_ways=8, page_entries=64, page_ways=4,
                region_entries=4)
    base.update(overrides)
    return PDedeConfig(**base)


def test_same_page_branch_uses_delta_path():
    btb = PDedeBTB(small_config())
    event = make_event(pc=SAME_PAGE_PC, target=SAME_PAGE_TARGET)
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.hit
    assert lookup.target == SAME_PAGE_TARGET
    assert lookup.latency == 1  # delta bypasses the pointer chase
    assert lookup.provider == "btbm-delta"
    # No Page-/Region-BTB entries were consumed.
    assert btb.page_btb.occupancy() == 0
    assert btb.region_btb.occupancy() == 0


def test_different_page_branch_chases_pointers():
    btb = PDedeBTB(small_config())
    event = make_event(pc=SAME_PAGE_PC, target=DIFF_PAGE_TARGET)
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.hit
    assert lookup.target == DIFF_PAGE_TARGET
    assert lookup.latency == 2  # BTBM then Page-/Region-BTB
    assert lookup.provider == "btbm-ptr"
    assert btb.page_btb.occupancy() == 1
    assert btb.region_btb.occupancy() == 1


def test_region_and_page_are_deduplicated():
    btb = PDedeBTB(small_config())
    # Many branches targeting the same page.
    page = DIFF_PAGE_TARGET & ~0xFFF
    for index in range(10):
        pc = 0x7F00_0000_0000 + index * 0x40
        btb.update(make_event(pc=pc, target=page | (index * 8)))
    assert btb.page_btb.occupancy() == 1
    assert btb.region_btb.occupancy() == 1
    assert btb.page_btb.dedup_hits == 9


def test_delta_disabled_config_stores_pointers_for_same_page():
    btb = PDedeBTB(small_config(delta_encoding=False))
    event = make_event(pc=SAME_PAGE_PC, target=SAME_PAGE_TARGET)
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.target == SAME_PAGE_TARGET
    assert lookup.latency == 2
    assert btb.page_btb.occupancy() == 1


def test_always_two_cycle_mode():
    btb = PDedeBTB(small_config(always_two_cycle=True))
    event = make_event(pc=SAME_PAGE_PC, target=SAME_PAGE_TARGET)
    btb.update(event)
    assert btb.lookup(event.pc).latency == 2


def test_not_taken_branches_do_not_allocate():
    btb = PDedeBTB(small_config())
    btb.update(make_event(taken=False))
    assert btb.occupancy() == 0


def test_wrong_target_retrains_after_confidence_drains():
    btb = PDedeBTB(small_config())
    pc = SAME_PAGE_PC
    first = make_event(pc=pc, target=SAME_PAGE_TARGET)
    second = make_event(pc=pc, target=DIFF_PAGE_TARGET)
    for _ in range(3):
        btb.update(first)
    btb.update(second)  # confidence shields the old target
    assert btb.lookup(pc).target == SAME_PAGE_TARGET
    for _ in range(4):
        btb.update(second)
    assert btb.lookup(pc).target == DIFF_PAGE_TARGET


def test_indirect_gating():
    btb = PDedeBTB(small_config(allocate_indirect=False))
    btb.update(make_event(kind=BranchKind.CALL_INDIRECT, target=DIFF_PAGE_TARGET))
    assert btb.occupancy() == 0


def test_stale_pointer_detection():
    """Region-BTB thrash leaves dangling pointers; reads are counted."""
    config = small_config(region_entries=2)
    btb = PDedeBTB(config)
    # Six different regions force region-table evictions.
    victim_pc = 0x7F00_0000_1000
    btb.update(make_event(pc=victim_pc, target=0x0100_0000_0000))
    for index in range(1, 6):
        pc = victim_pc + index * 0x40
        btb.update(make_event(pc=pc, target=(index + 1) << 40))
    before = btb.stale_pointer_reads
    lookup = btb.lookup(victim_pc)
    assert btb.stale_pointer_reads == before + 1
    assert lookup.target != 0x0100_0000_0000  # the wrong (stale) value


def test_invalidate_stale_pointers_mode():
    config = small_config(region_entries=2, invalidate_stale_pointers=True)
    btb = PDedeBTB(config)
    victim_pc = 0x7F00_0000_1000
    btb.update(make_event(pc=victim_pc, target=0x0100_0000_0000))
    for index in range(1, 6):
        pc = victim_pc + index * 0x40
        btb.update(make_event(pc=pc, target=(index + 1) << 40))
    lookup = btb.lookup(victim_pc)
    # The entry was eagerly invalidated rather than serving a stale read.
    assert not lookup.hit
    assert btb.stale_pointer_reads == 0


# -- multi-target ----------------------------------------------------------------


def test_multi_target_provides_next_target_on_miss():
    btb = PDedeBTB(small_config(mode=PDedeMode.MULTI_TARGET))
    first_pc = SAME_PAGE_PC
    first_target = SAME_PAGE_TARGET
    second_pc = first_target + 0x20  # next taken branch after the first
    second_target = (second_pc & ~0xFFF) | 0x800
    # Train the chain: first branch, then the next taken same-page branch.
    btb.update(make_event(pc=first_pc, target=first_target))
    btb.update(make_event(pc=second_pc, target=second_target))
    # Reading the first entry stages the Next Target Offset register.
    lookup_first = btb.lookup(first_pc)
    assert lookup_first.hit
    # Evict/clear nothing -- but simulate the second PC missing by using
    # a fresh BTB whose BTBM never saw second_pc.
    fresh = PDedeBTB(small_config(mode=PDedeMode.MULTI_TARGET))
    fresh.update(make_event(pc=first_pc, target=first_target))
    fresh.update(make_event(pc=second_pc, target=second_target))
    # Forcefully invalidate second_pc's entry to model a capacity miss.
    set_index = fresh._index(second_pc)
    way = fresh._find_way(set_index, fresh._tag(second_pc))
    slot = set_index * fresh._ways + way
    fresh._valid[slot] = False
    fresh._tags[slot] = -1  # flat storage: invalid slots hold the tag sentinel
    staged = fresh.lookup(first_pc)
    assert staged.hit
    provided = fresh.lookup(second_pc)
    assert not provided.hit
    assert provided.provider == "next-target"
    assert provided.target == second_target
    assert fresh.next_target_provisions == 1


def test_multi_target_register_cleared_on_hit():
    btb = PDedeBTB(small_config(mode=PDedeMode.MULTI_TARGET))
    first_pc, first_target = SAME_PAGE_PC, SAME_PAGE_TARGET
    second_pc = first_target + 0x20
    second_target = (second_pc & ~0xFFF) | 0x800
    btb.update(make_event(pc=first_pc, target=first_target))
    btb.update(make_event(pc=second_pc, target=second_target))
    btb.lookup(first_pc)  # stages the register
    btb.lookup(second_pc)  # hits normally; register is consumed/cleared
    third = btb.lookup(0x7F77_0000_0000)
    assert third.provider == "miss"  # no ghost next-target provision


def test_multi_target_requires_same_page_pair():
    btb = PDedeBTB(small_config(mode=PDedeMode.MULTI_TARGET))
    first_pc = SAME_PAGE_PC
    btb.update(make_event(pc=first_pc, target=SAME_PAGE_TARGET))
    # Next taken branch is a *different-page* branch: chain must not form.
    btb.update(make_event(pc=SAME_PAGE_TARGET + 0x20, target=DIFF_PAGE_TARGET))
    btb.lookup(first_pc)
    assert btb._pending_next_offset is None


# -- multi-entry ------------------------------------------------------------------


def test_multi_entry_reserves_short_ways_for_same_page():
    config = small_config(mode=PDedeMode.MULTI_ENTRY)
    btb = PDedeBTB(config)
    # Fill one set with different-page branches only: they may only use
    # the long half of the ways.
    target_set = None
    filled = 0
    pc = 0x7F00_0000_0000
    while filled < 40:
        candidate = pc + filled * 0x2000 * 2
        if target_set is None:
            target_set = btb._index(candidate)
        if btb._index(candidate) == target_set:
            btb.update(make_event(pc=candidate, target=DIFF_PAGE_TARGET + filled * 8))
        filled += 1
    base = target_set * btb._ways
    long_valid = [btb._valid[base + w] for w in range(btb._short_base)]
    short_valid = [btb._valid[base + w] for w in range(btb._short_base, btb._ways)]
    assert any(long_valid)
    assert not any(short_valid)


def test_multi_entry_same_page_can_fill_everything():
    config = small_config(mode=PDedeMode.MULTI_ENTRY)
    btb = PDedeBTB(config)
    pairs = synthetic_branch_set(2000, seed=4, same_page_fraction=1.0)
    for pc, target in pairs:
        btb.update(make_event(pc=pc, target=target))
    assert btb.occupancy() > config.btbm_entries // 2


def test_multi_entry_short_way_rewrite_to_different_page_invalidates():
    config = small_config(mode=PDedeMode.MULTI_ENTRY, conf_bits=1)
    btb = PDedeBTB(config)
    pc = SAME_PAGE_PC
    same = make_event(pc=pc, target=SAME_PAGE_TARGET)
    btb.update(same)
    set_index = btb._index(pc)
    way = btb._find_way(set_index, btb._tag(pc))
    if way not in range(btb._short_base, btb._ways):
        pytest.skip("allocation landed in a long way; rewrite is legal there")
    different = make_event(pc=pc, target=DIFF_PAGE_TARGET)
    for _ in range(4):
        btb.update(different)
    # The short entry cannot hold pointers: it must have been dropped or
    # re-allocated into a long way, never serving a bogus target.
    lookup = btb.lookup(pc)
    if lookup.hit:
        assert lookup.target == DIFF_PAGE_TARGET


def test_reconstruction_matches_join_target():
    btb = PDedeBTB(small_config())
    pairs = synthetic_branch_set(300, seed=6, same_page_fraction=0.5)
    for pc, target in pairs:
        btb.update(make_event(pc=pc, target=target))
        lookup = btb.lookup(pc)
        assert lookup.hit
        # Unless a dedup-table eviction intervened (impossible here with
        # few distinct pages? -- allow stale), the target must roundtrip.
        if not btb.stale_pointer_reads:
            assert lookup.target == target


def test_storage_matches_config():
    config = paper_config(PDedeMode.MULTI_ENTRY)
    assert PDedeBTB(config).storage_bits() == config.storage_bits()


def test_name_includes_mode():
    assert "multi_entry" in PDedeBTB(paper_config(PDedeMode.MULTI_ENTRY)).name
