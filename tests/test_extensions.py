"""Tests for the future-work extensions and optional model features."""

import pytest

from repro.branch.address import fold_bits
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.pdede import PDedeBTB

from conftest import make_event

SAME_PAGE_PC = 0x7F00_0040_1000
SAME_PAGE_TARGET = 0x7F00_0040_1F00


def mt_config(**overrides) -> PDedeConfig:
    base = dict(
        btbm_entries=256, btbm_ways=8, page_entries=64, page_ways=4,
        region_entries=4, mode=PDedeMode.MULTI_TARGET,
    )
    base.update(overrides)
    return PDedeConfig(**base)


def _stage_and_invalidate(btb, first_pc, first_target, second_pc, second_target):
    """Train a next-target chain, then force second_pc to miss."""
    btb.update(make_event(pc=first_pc, target=first_target))
    btb.update(make_event(pc=second_pc, target=second_target))
    set_index = btb._index(second_pc)
    way = btb._find_way(set_index, btb._tag(second_pc))
    slot = set_index * btb._ways + way
    btb._valid[slot] = False
    btb._tags[slot] = -1  # flat storage: invalid slots hold the tag sentinel
    btb.lookup(first_pc)  # stages the register


def test_next_target_tag_blocks_mismatched_pc():
    btb = PDedeBTB(mt_config(next_target_tag_bits=4))
    second_pc = SAME_PAGE_TARGET + 0x20
    second_target = (second_pc & ~0xFFF) | 0x800
    _stage_and_invalidate(btb, SAME_PAGE_PC, SAME_PAGE_TARGET, second_pc, second_target)
    # A *different* missing PC (wrong tag) must not be served.
    imposter = second_pc + 0x300
    if fold_bits(imposter >> 1, 4) == fold_bits(second_pc >> 1, 4):
        imposter += 0x40  # dodge an accidental tag collision
    lookup = btb.lookup(imposter)
    assert lookup.provider == "miss"


def test_next_target_tag_allows_matching_pc():
    btb = PDedeBTB(mt_config(next_target_tag_bits=4))
    second_pc = SAME_PAGE_TARGET + 0x20
    second_target = (second_pc & ~0xFFF) | 0x800
    _stage_and_invalidate(btb, SAME_PAGE_PC, SAME_PAGE_TARGET, second_pc, second_target)
    lookup = btb.lookup(second_pc)
    assert lookup.provider == "next-target"
    assert lookup.target == second_target


def test_next_target_tag_requires_multi_target_mode():
    with pytest.raises(ValueError):
        PDedeConfig(mode=PDedeMode.DEFAULT, next_target_tag_bits=4)


def test_next_target_tag_costs_storage():
    plain = mt_config()
    tagged = mt_config(next_target_tag_bits=4)
    assert tagged.btbm_long_entry_bits() == plain.btbm_long_entry_bits() + 4
