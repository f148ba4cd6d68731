"""Tests for multiprogrammed trace mixing."""

import pytest

from repro.btb.baseline import BaselineBTB
from repro.workloads.mixing import interleave_traces, working_set_overlap
from repro.workloads.suite import get_trace

from conftest import make_trace
from repro.branch.types import BranchKind


def small_trace(base, count, name):
    events = [
        (base + index * 0x40, BranchKind.UNCOND_DIRECT, True, base + 0x10_000 + index * 0x40, 2)
        for index in range(count)
    ]
    return make_trace(events, name=name)


def test_every_event_appears_exactly_once():
    first = small_trace(0x100_0000, 250, "a")
    second = small_trace(0x900_0000, 130, "b")
    merged = interleave_traces([first, second], quantum_events=100)
    assert len(merged) == 380
    assert sorted(merged.pcs.tolist()) == sorted(first.pcs.tolist() + second.pcs.tolist())


def test_round_robin_quantum_order():
    first = small_trace(0x100_0000, 4, "a")
    second = small_trace(0x900_0000, 4, "b")
    merged = interleave_traces([first, second], quantum_events=2)
    # a0 a1 | b0 b1 | a2 a3 | b2 b3
    assert merged.pcs[:2].tolist() == first.pcs[:2].tolist()
    assert merged.pcs[2:4].tolist() == second.pcs[:2].tolist()
    assert merged.pcs[4:6].tolist() == first.pcs[2:4].tolist()


def test_uneven_lengths_drain_gracefully():
    first = small_trace(0x100_0000, 10, "a")
    second = small_trace(0x900_0000, 3, "b")
    merged = interleave_traces([first, second], quantum_events=4)
    assert len(merged) == 13


def test_merged_name_and_category():
    merged = interleave_traces(
        [small_trace(0x10, 1, "a"), small_trace(0x20, 1, "b")], quantum_events=1
    )
    assert merged.name == "mix(a+b)"
    assert merged.category == "Mixed"


def test_empty_inputs_are_skipped():
    first = small_trace(0x100_0000, 3, "a")
    empty = make_trace([], name="empty")
    merged = interleave_traces([empty, first, empty], quantum_events=2)
    assert merged.pcs.tolist() == first.pcs.tolist()
    assert len(interleave_traces([empty, empty])) == 0


def test_validation():
    with pytest.raises(ValueError):
        interleave_traces([])
    with pytest.raises(ValueError):
        interleave_traces([small_trace(0x10, 1, "a")], quantum_events=0)


def test_suite_address_spaces_are_disjoint():
    first = get_trace("server_oltp_00", "tiny")
    second = get_trace("browser_js_static_analyzer", "tiny")
    assert working_set_overlap(first, second) < 0.01


def test_mixing_raises_btb_pressure():
    """The consolidation effect: the union working set misses more."""
    first = get_trace("server_oltp_00", "tiny")
    second = get_trace("browser_js_static_analyzer", "tiny")
    merged = interleave_traces([first, second], quantum_events=1000)

    def miss_rate(trace):
        btb = BaselineBTB(entries=1024, ways=8)
        for event in trace.branch_events():
            if event.kind.is_return:
                continue
            btb.stats.record_outcome(event, btb.lookup(event.pc))
            btb.update(event)
        return btb.stats.miss_rate

    solo = max(miss_rate(first), miss_rate(second))
    assert miss_rate(merged) > solo
