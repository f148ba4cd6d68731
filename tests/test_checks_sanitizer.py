"""The microarchitectural sanitizer: each invariant catches its seeded
corruption, disabled mode is a true no-op, and the interval machinery
sweeps when (and only when) it should."""

from __future__ import annotations

import pytest

from repro.btb.baseline import BaselineBTB
from repro.btb.ras import ReturnAddressStack
from repro.btb.twolevel import TwoLevelBTB
from repro.checks.sanitizer import (
    InvariantViolation,
    NullSanitizer,
    Sanitizer,
    check_dedup_table,
    check_pdede,
    check_ras,
    get_sanitizer,
    sanitizer_enabled,
    use_sanitizer,
)
from repro.core.config import PDedeConfig
from repro.core.pdede import PDedeBTB
from repro.core.tables import DedupValueTable

from conftest import make_event

DIFF_PAGE_TARGET = 0x7F11_2233_4450


def small_config(**overrides) -> PDedeConfig:
    base = dict(btbm_entries=256, btbm_ways=8, page_entries=64, page_ways=4,
                region_entries=4)
    base.update(overrides)
    return PDedeConfig(**base)


def flat(btb, set_index: int, way: int) -> int:
    """Flat storage index of (set, way) -- mirrors the BTB layout."""
    return set_index * btb._ways + way


def populated_pdede(**overrides) -> tuple[PDedeBTB, tuple[int, int]]:
    """A small PDede holding pointer and delta entries, plus the slot
    coordinates of one pointer-carrying (different-page) entry."""
    btb = PDedeBTB(small_config(**overrides))
    for index in range(8):
        pc = 0x7F00_0000_1000 + index * 0x40
        btb.update(make_event(pc=pc, target=DIFF_PAGE_TARGET + index * 8))
        btb.update(make_event(pc=pc + 0x20, target=(pc + 0x20) + 0x100))
    for slot in range(btb._sets * btb._ways):
        if btb._valid[slot] and not btb._delta[slot]:
            return btb, divmod(slot, btb._ways)
    raise AssertionError("no pointer-carrying entry allocated")


def expect_violation(invariant: str, structure) -> InvariantViolation:
    with pytest.raises(InvariantViolation) as excinfo:
        Sanitizer().check(structure)
    violation = excinfo.value
    assert violation.invariant == invariant
    return violation


# -- seeded corruptions, one per invariant ----------------------------------


def test_clean_structures_pass():
    btb, _ = populated_pdede()
    Sanitizer().check(btb)  # must not raise


def test_pointer_liveness_out_of_range():
    btb, (s, w) = populated_pdede()
    btb._page_ptr[flat(btb, s, w)] = btb.page_btb.entries + 7
    violation = expect_violation("pointer-liveness", btb)
    assert violation.set_index == s and violation.way == w
    assert violation.snapshot["page_ptr"] == btb.page_btb.entries + 7


def test_pointer_liveness_dangling_slot():
    btb, (s, w) = populated_pdede()
    pointer = btb._page_ptr[flat(btb, s, w)]
    t_set, t_way = divmod(pointer, btb.page_btb.ways)
    btb.page_btb._valid[t_set][t_way] = False
    expect_violation("pointer-liveness", btb)


def test_generation_coherence_future_generation():
    btb, (s, w) = populated_pdede()
    btb._region_gen[flat(btb, s, w)] += 99
    violation = expect_violation("generation-coherence", btb)
    assert "generation" in str(violation)


def test_generation_coherence_stale_in_invalidating_mode():
    btb, (s, w) = populated_pdede(invalidate_stale_pointers=True)
    # Pretend the table slot moved on while the entry kept its pointer.
    pointer = btb._page_ptr[flat(btb, s, w)]
    t_set, t_way = divmod(pointer, btb.page_btb.ways)
    btb.page_btb._generations[t_set][t_way] += 1
    expect_violation("generation-coherence", btb)


def test_link_balance_missing_from_user_map():
    btb, (s, w) = populated_pdede(invalidate_stale_pointers=True)
    pointer = btb._page_ptr[flat(btb, s, w)]
    btb._page_ptr_users[pointer].discard((s, w))
    expect_violation("link-balance", btb)


def test_link_balance_ghost_in_user_map():
    btb, (s, w) = populated_pdede(invalidate_stale_pointers=True)
    pointer = btb._page_ptr[flat(btb, s, w)]
    btb._valid[flat(btb, s, w)] = False  # invalidated without unlinking
    btb._tags[flat(btb, s, w)] = -1  # tag cleared properly; only the unlink missed
    assert (s, w) in btb._page_ptr_users[pointer]
    expect_violation("link-balance", btb)


def test_delta_legality_pointer_entry_marked_delta():
    btb, (s, w) = populated_pdede()
    btb._delta[flat(btb, s, w)] = True  # still carries live pointers
    expect_violation("delta-legality", btb)


def test_field_width_corrupt_offset():
    btb, (s, w) = populated_pdede()
    btb._offsets[flat(btb, s, w)] = 1 << 13  # past the 12-bit page offset
    expect_violation("field-width", btb)


def test_field_width_corrupt_tag():
    btb, (s, w) = populated_pdede()
    btb._tags[flat(btb, s, w)] = 1 << (btb.config.tag_bits + 2)
    expect_violation("field-width", btb)


def test_field_width_stale_tag_in_invalid_slot():
    """Flat tag matching relies on invalid slots holding the -1 sentinel;
    a stale real tag there would false-hit ``list.index``."""
    btb, (s, w) = populated_pdede()
    btb._valid[flat(btb, s, w)] = False
    btb._tags[flat(btb, s, w)] = 0x3F  # plausible tag left behind
    # Clear the user-map registration so link-balance doesn't fire first.
    for users in (btb._page_ptr_users, btb._region_ptr_users):
        for slots in users.values():
            slots.discard((s, w))
    expect_violation("field-width", btb)


def test_replacement_state_corrupt_rrpv():
    btb, (s, w) = populated_pdede()
    replacement = btb._replacement  # one table, slots numbered as the BTBM's
    replacement.rrpv[flat(btb, s, w)] = (1 << replacement._m) + 5
    violation = expect_violation("replacement-state", btb)
    assert (violation.set_index, violation.way) == (s, w)


def test_replacement_state_corrupt_lru_order():
    table = DedupValueTable(entries=8, ways=4, value_bits=16, replacement="lru")
    table.allocate(0x12)
    order = table._replacement._order  # set 1's recency list is order[4:8]
    order[4] = order[5]  # not a permutation
    violation = expect_violation("replacement-state", table)
    assert violation.set_index == 1


def test_dedup_uniqueness_duplicated_value():
    table = DedupValueTable(entries=8, ways=8, value_bits=16)
    pointer, _ = table.allocate(0x55)
    _, way = divmod(pointer, table.ways)
    other = (way + 1) % table.ways
    table._valid[0][other] = True
    table._values[0][other] = 0x55
    violation = expect_violation("dedup-uniqueness", table)
    assert violation.snapshot["value"] == 0x55


def test_storage_accounting_table_drift():
    btb, _ = populated_pdede()
    btb.page_btb.value_bits += 1  # table geometry no longer matches config
    expect_violation("storage-accounting", btb)


def test_ras_state_corrupt_size():
    ras = ReturnAddressStack(depth=4)
    ras.push(0x1000)
    ras._size = ras.depth + 3
    expect_violation("ras-state", ras)


def test_baseline_field_width():
    btb = BaselineBTB(entries=64, ways=4)
    btb.update(make_event())
    for slot in range(btb.sets * btb.ways):
        if btb._valid[slot]:
            btb._targets[slot] = 1 << (btb.target_bits + 1)
            expect_violation("field-width", btb)
            return
    raise AssertionError("no valid baseline entry allocated")


def test_twolevel_recurses_into_levels():
    two = TwoLevelBTB(BaselineBTB(entries=64, ways=4), BaselineBTB(entries=128, ways=4))
    two.update(make_event())
    level1 = two.level1
    for slot in range(level1.sets * level1.ways):
        if level1._valid[slot]:
            level1._conf[slot] = 1 << (level1.conf_bits + 1)
            expect_violation("field-width", two)
            return
    raise AssertionError("no valid L1 entry allocated")


# -- regression: eager invalidation must unlink both pointer maps -----------


def test_invalidation_unlinks_both_pointer_maps():
    """A page eviction invalidates its user entries; their *region*
    registrations must be unlinked too, or a later region eviction kills
    whatever unrelated branch re-allocates the slot."""
    config = small_config(page_entries=4, page_ways=2, region_entries=2,
                          invalidate_stale_pointers=True)
    btb = PDedeBTB(config)
    # Pages spread over few slots force page-table thrash (and therefore
    # eager invalidations) while regions churn independently.
    for index in range(64):
        pc = 0x7F00_0000_1000 + index * 0x40
        target = ((index % 5) << 40) | ((index << 12) + 0x10) & ((1 << 40) - 1)
        btb.update(make_event(pc=pc, target=target))
    Sanitizer().check(btb)  # link-balance must hold after the churn
    for users in (btb._page_ptr_users, btb._region_ptr_users):
        for slots in users.values():
            for s, w in slots:
                assert btb._valid[flat(btb, s, w)], "user map references an invalid slot"


# -- disabled mode and interval machinery -----------------------------------


def test_disabled_mode_is_true_noop():
    assert not sanitizer_enabled()
    assert isinstance(get_sanitizer(), NullSanitizer)
    assert get_sanitizer().snapshot() == {}
    # A corrupted structure sails through when the sanitizer is off.
    btb, (s, w) = populated_pdede()
    btb._page_ptr[flat(btb, s, w)] = btb.page_btb.entries + 7
    btb.update(make_event(pc=0x7F00_0999_0000, target=0x7F00_0999_0100))


def test_step_interval_semantics():
    ras = ReturnAddressStack(depth=8)
    sanitizer = Sanitizer(interval=3)
    with use_sanitizer(sanitizer):
        ras.push(0x100)  # step 1
        ras.push(0x200)  # step 2
        assert sanitizer.checks_run == 0
        ras.push(0x300)  # step 3 -> sweep
        assert sanitizer.checks_run == 1
    assert sanitizer.steps == 3
    assert not sanitizer_enabled()


def test_armed_hook_catches_corruption_mid_run():
    btb, (s, w) = populated_pdede()
    btb._offsets[flat(btb, s, w)] = 1 << 14
    with use_sanitizer(Sanitizer(interval=1)):
        with pytest.raises(InvariantViolation):
            btb.update(make_event(pc=0x7F00_0999_0000, target=0x7F00_0999_0100))


def test_use_sanitizer_restores_previous():
    outer = Sanitizer(interval=7)
    with use_sanitizer(outer):
        with use_sanitizer(Sanitizer(interval=2)) as inner:
            assert get_sanitizer() is inner
        assert get_sanitizer() is outer
    assert not sanitizer_enabled()


def test_violation_carries_structured_context():
    btb, (s, w) = populated_pdede()
    btb._page_ptr[flat(btb, s, w)] = -5
    with pytest.raises(InvariantViolation) as excinfo:
        check_pdede(btb)
    violation = excinfo.value
    assert violation.invariant == "pointer-liveness"
    assert violation.structure == "btbm"
    assert (violation.set_index, violation.way) == (s, w)
    assert set(violation.snapshot) >= {"valid", "tag", "delta", "page_ptr"}
    assert f"set {s}" in str(violation)


def test_direct_checkers_accept_clean_structures():
    table = DedupValueTable(entries=8, ways=4, value_bits=16)
    table.allocate(0x1)
    check_dedup_table(table)
    ras = ReturnAddressStack(depth=4)
    ras.push(0x10)
    check_ras(ras)


def test_sanitizer_snapshot_counts():
    btb, _ = populated_pdede()
    with use_sanitizer(Sanitizer(interval=2)) as sanitizer:
        for index in range(6):
            pc = 0x7F00_0777_0000 + index * 0x40
            btb.update(make_event(pc=pc, target=pc + 0x100))
        snap = sanitizer.snapshot()
    assert snap["sanitizer_steps_total"] == 6
    assert snap["sanitizer_checks_total"] == 3
    assert snap["sanitizer_structures"] == 1
    assert snap["sanitizer_interval"] == 2
