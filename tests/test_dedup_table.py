"""Unit tests for the Region-/Page-BTB dedup value tables."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.branch.address import mix64
from repro.core.tables import DedupValueTable


def make_table(entries=16, ways=4, value_bits=16, **kwargs) -> DedupValueTable:
    return DedupValueTable(entries, ways, value_bits, **kwargs)


def test_allocate_then_read_roundtrip():
    table = make_table()
    pointer, generation = table.allocate(0xBEEF)
    assert table.read(pointer) == 0xBEEF
    assert not table.is_stale(pointer, generation)


def test_deduplication_returns_same_pointer():
    table = make_table()
    first, _ = table.allocate(0x1234)
    second, _ = table.allocate(0x1234)
    assert first == second
    assert table.dedup_hits == 1
    assert table.allocations == 1


def test_distinct_values_distinct_pointers():
    table = make_table()
    a, _ = table.allocate(0x1)
    b, _ = table.allocate(0x2)
    assert a != b
    assert table.unique_values() == {0x1, 0x2}


def test_eviction_bumps_generation():
    table = DedupValueTable(entries=2, ways=2, value_bits=16)
    pointers = {}
    for value in range(10):
        pointer, generation = table.allocate(value)
        pointers[value] = (pointer, generation)
    # The earliest values were evicted; their pointers are stale now.
    stale = sum(
        1 for value, (pointer, generation) in pointers.items()
        if table.is_stale(pointer, generation)
    )
    assert stale >= 8
    assert table.evictions == 8


def test_on_evict_callback_fires_with_pointer():
    evicted = []
    table = DedupValueTable(
        entries=2, ways=2, value_bits=16, on_evict=evicted.append
    )
    for value in range(5):
        table.allocate(value)
    assert len(evicted) == 3
    assert all(0 <= pointer < 2 for pointer in evicted)


def test_touch_protects_popular_entry():
    """The paper's argument for dangling pointers: popular entries are
    continuously referenced, so they are never victimised."""
    table = DedupValueTable(entries=4, ways=4, value_bits=16)
    hot_pointer, hot_generation = table.allocate(0xCAFE)
    for value in range(100):
        table.touch(hot_pointer)
        table.allocate(value)
    assert not table.is_stale(hot_pointer, hot_generation)
    assert table.read(hot_pointer) == 0xCAFE


def test_value_width_enforced():
    table = make_table(value_bits=8)
    with pytest.raises(ValueError):
        table.allocate(0x100)


def test_occupancy_and_storage():
    table = make_table(entries=16, ways=4, value_bits=16, srrip_bits=2)
    assert table.storage_bits() == 16 * 18
    table.allocate(1)
    table.allocate(2)
    assert table.occupancy() == 2


def test_fully_associative_single_set():
    table = DedupValueTable(entries=4, ways=4, value_bits=29)
    pointers = [table.allocate(value)[0] for value in (10, 20, 30, 40)]
    assert sorted(pointers) == [0, 1, 2, 3]


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        DedupValueTable(entries=0, ways=1, value_bits=8)
    with pytest.raises(ValueError):
        DedupValueTable(entries=10, ways=4, value_bits=8)


# -- DedupValueTable.allocate against the per-way scan ---------------------------


def _reference_allocate(table, value):
    """The seed's allocate: hash to a set (none for one set), then scan
    every way for the first valid one holding ``value``."""
    if table.sets == 1:
        set_index = 0
    elif table.sets & (table.sets - 1) == 0:
        set_index = mix64(value) & (table.sets - 1)
    else:
        set_index = mix64(value) % table.sets
    valid = table._valid[set_index]
    values = table._values[set_index]
    replacement, base = table._replacement, set_index * table.ways
    for way in range(table.ways):
        if valid[way] and values[way] == value:
            replacement.on_hit(base + way)
            table.dedup_hits += 1
            return set_index * table.ways + way, table._generations[set_index][way]
    way = replacement.victim(valid, base)
    if valid[way]:
        table.evictions += 1
        table._generations[set_index][way] += 1
        if table.on_evict is not None:
            table.on_evict(set_index * table.ways + way)
    valid[way] = True
    values[way] = value
    replacement.on_insert(base + way)
    table.allocations += 1
    return set_index * table.ways + way, table._generations[set_index][way]


def _state(table):
    replacement = table._replacement
    state = {key: value for key, value in vars(replacement).items() if key != "_rngs"}
    if hasattr(replacement, "_rngs"):
        state["_rngs"] = {
            set_index: rng.getstate() for set_index, rng in replacement._rngs.items()
        }
    return (
        table._valid, table._values, table._generations, state,
        table.allocations, table.dedup_hits, table.evictions,
    )


#: Small values, 0 above all: every way holds 0 until first filled.
_values = st.sampled_from([0, 0, 1, 2, 3, 0xFFFF]) | st.integers(0, 0xFFFF)


@settings(max_examples=300, deadline=None)
@given(
    sets=st.sampled_from([1, 1, 2, 3, 4]),
    ways=st.integers(min_value=1, max_value=8),
    replacement=st.sampled_from(["srrip", "lru", "fifo", "random"]),
    values=st.lists(_values, max_size=60),
)
def test_allocate_matches_per_way_scan(sets, ways, replacement, values):
    evicted, reference_evicted = [], []
    table, reference = (
        DedupValueTable(
            sets * ways, ways, 16, replacement=replacement, on_evict=sink.append
        )
        for sink in (evicted, reference_evicted)
    )
    for value in values:
        assert table.allocate(value) == _reference_allocate(reference, value)
        assert _state(table) == _state(reference)
    assert evicted == reference_evicted


def test_zero_is_found_past_invalid_ways_holding_zero():
    # An invalid way holds 0 before the valid way that stores 0.
    table = DedupValueTable(entries=4, ways=4, value_bits=16)
    table._valid[0][2] = True
    pointer, _ = table.allocate(0)
    assert pointer == 2
    assert (table.dedup_hits, table.allocations) == (1, 0)
