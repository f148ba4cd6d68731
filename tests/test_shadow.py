"""Unit tests for decode-assisted shadow-branch fill (ShadowBTB)."""

import pytest

from repro.branch.types import BranchKind
from repro.btb.baseline import BaselineBTB
from repro.btb.ghrp import GhrpBTB
from repro.btb.microbtb import MicroBTB
from repro.btb.prefetch import TemporalPrefetchBTB
from repro.btb.shadow import ShadowBTB
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.pdede import PDedeBTB
from repro.btb.base import BranchTargetPredictor, lookup_buffers
from repro.frontend.vector import _btb_pass
from repro.workloads.suite import get_trace

from conftest import make_event


def _shadow(**overrides):
    config = dict(shadow_entries=64, shadow_ways=4, line_map_entries=64)
    config.update(overrides)
    return ShadowBTB(BaselineBTB(entries=256, ways=4), **config)


LINE = 0x7F00_0000_1000  # 64-byte aligned fetch line


def test_inner_hits_pass_through_untouched():
    btb = _shadow()
    event = make_event(pc=LINE, target=LINE + 0x100)
    btb.update(event)
    lookup = btb.lookup(event.pc)
    assert lookup.hit
    assert lookup.provider != "shadow"
    assert lookup.target == event.target
    # The inner BTB got the update; the wrapper never duplicated it.
    assert btb.inner.lookup(event.pc).hit


def test_shadow_branch_is_exposed_by_a_same_line_neighbour():
    btb = _shadow()
    shadow_pc = LINE + 0x20
    neighbour_pc = LINE + 0x8
    # The shadow branch executes once (so the line map remembers it) on
    # an inner BTB too small to retain it for the test's purposes -- we
    # model "forgotten by the main BTB" with a fresh wrapper sharing the
    # line map via replay.
    btb.update(make_event(pc=shadow_pc, target=shadow_pc + 0x400))
    # Evict it from the inner predictor by rebuilding only the inner.
    btb.inner = BaselineBTB(entries=256, ways=4)
    assert not btb.inner.lookup(shadow_pc).hit
    # A neighbour in the same fetch line resolves: exposing the line
    # installs the remembered shadow branch.
    btb.update(make_event(pc=neighbour_pc, target=neighbour_pc + 0x40))
    assert btb.exposures >= 1
    assert btb.shadow_fills >= 1
    lookup = btb.lookup(shadow_pc)
    assert lookup.hit
    assert lookup.provider == "shadow"
    assert lookup.target == shadow_pc + 0x400
    assert btb.shadow_hits == 1


def test_decode_ahead_exposes_sequential_lines():
    btb = _shadow(decode_lines=2)
    next_line_pc = LINE + 64 + 0x10
    btb.update(make_event(pc=next_line_pc, target=next_line_pc + 0x80))
    btb.inner = BaselineBTB(entries=256, ways=4)
    # A branch in the *previous* line exposes the next line too.
    btb.update(make_event(pc=LINE, target=LINE + 0x30))
    assert btb.lookup(next_line_pc).provider == "shadow"


def test_decode_lines_one_sees_only_its_own_line():
    btb = _shadow(decode_lines=1)
    next_line_pc = LINE + 64 + 0x10
    btb.update(make_event(pc=next_line_pc, target=next_line_pc + 0x80))
    btb.inner = BaselineBTB(entries=256, ways=4)
    btb.update(make_event(pc=LINE, target=LINE + 0x30))
    assert not btb.lookup(next_line_pc).hit


def test_indirect_and_not_taken_branches_are_not_remembered():
    btb = _shadow()
    btb.update(make_event(pc=LINE + 0x20, kind=BranchKind.CALL_INDIRECT,
                          target=LINE + 0x900))
    btb.update(make_event(pc=LINE + 0x28, taken=False))
    assert btb._line_map == {}
    btb.update(make_event(pc=LINE + 0x30))  # direct taken: remembered
    assert len(btb._line_map) == 1


def test_line_map_is_bounded_and_forgets_oldest_first():
    btb = _shadow(line_map_entries=4)
    pcs = [LINE + i * 64 for i in range(6)]  # six distinct lines
    for pc in pcs:
        btb.update(make_event(pc=pc, target=pc + 0x10))
    assert btb._line_map_size <= 4
    lines = sorted(btb._line_map)
    # The two oldest lines were forgotten.
    assert lines == [pc >> 6 for pc in pcs[2:]]


def test_shadow_refresh_keeps_copies_coherent():
    btb = _shadow()
    shadow_pc = LINE + 0x20
    btb.update(make_event(pc=shadow_pc, target=shadow_pc + 0x400))
    btb.inner = BaselineBTB(entries=256, ways=4)
    btb.update(make_event(pc=LINE, target=LINE + 0x30))  # exposes it
    assert btb.lookup(shadow_pc).target == shadow_pc + 0x400
    # The branch resolves again with a new target: the shadow copy must
    # follow, not serve the stale address once the inner forgets again.
    btb.update(make_event(pc=shadow_pc, target=shadow_pc + 0x800))
    btb.inner = BaselineBTB(entries=256, ways=4)
    refreshed = btb.lookup(shadow_pc)
    assert refreshed.provider == "shadow"
    assert refreshed.target == shadow_pc + 0x800


def test_storage_charges_shadow_table_but_not_line_map():
    inner = BaselineBTB(entries=256, ways=4)
    btb = ShadowBTB(inner, shadow_entries=64, shadow_ways=4, tag_bits=10,
                    srrip_bits=3)
    # 64 x (10 tag + 57 target + 3 srrip) on top of the inner.
    assert btb.storage_bits() == inner.storage_bits() + 64 * 70
    assert btb.name == f"Shadow({inner.name})"


def test_metrics_expose_shadow_counters():
    btb = _shadow()
    shadow_pc = LINE + 0x20
    btb.update(make_event(pc=shadow_pc, target=shadow_pc + 0x400))
    btb.inner = BaselineBTB(entries=256, ways=4)
    btb.update(make_event(pc=LINE, target=LINE + 0x30))
    btb.lookup(shadow_pc)
    data = btb.metrics()
    assert data["btb_shadow_hits_total"] == 1
    assert data["btb_shadow_fills_total"] >= 1
    assert data["btb_shadow_exposures_total"] >= 1
    assert data["btb_shadow_entries"] == 64


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(shadow_entries=0), "shadow_entries"),
        (dict(shadow_entries=10, shadow_ways=4), "divisible"),
        (dict(line_bytes=48), "power of two"),
        (dict(decode_lines=0), "decode_lines"),
        (dict(line_map_entries=0), "line_map_entries"),
    ],
)
def test_bad_geometry_is_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ShadowBTB(BaselineBTB(entries=64, ways=4), **kwargs)


def test_pass_hook_follows_the_inner_btb():
    # Every BTB's fresh-run pass is its own ``observe_fast``, and the
    # wrapper's runs its inner BTB's: Baseline's and PDede's inlined
    # passes, or the base class's loop over GhrpBTB (which rebinds it
    # over Baseline's), MicroBTB and the temporal-prefetch wrapper.
    trace = get_trace("server_oltp_00", "tiny")
    decoded = trace.decoded()
    act = ~decoded.vector_columns()["is_return"]
    inners = {
        BaselineBTB(entries=256, ways=4): BaselineBTB.observe_fast,
        PDedeBTB(PDedeConfig(mode=PDedeMode.MULTI_TARGET)): PDedeBTB.observe_fast,
        GhrpBTB(entries=256): BranchTargetPredictor.observe_fast,
        MicroBTB(): BranchTargetPredictor.observe_fast,
        TemporalPrefetchBTB(BaselineBTB(entries=256)): BranchTargetPredictor.observe_fast,
    }
    for inner, inner_pass in inners.items():
        assert type(inner).observe_fast is inner_pass
        btb = ShadowBTB(inner)
        observe, columns = _btb_pass(btb, trace, decoded, act)
        assert observe == btb.observe_fast
        calls = []
        inner.observe_fast = lambda *args, inner=inner: calls.append(
            type(inner).observe_fast(inner, *args)
        )
        observe(columns, 0, 100, lookup_buffers())
        assert len(calls) == 1
