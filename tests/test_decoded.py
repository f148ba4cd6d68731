"""Decoded-trace columns: every derived column must agree with the
scalar helper it replaces, and the replayed state machines must land in
the same final state as an event-by-event live run."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro.branch import direction
from repro.branch.address import hash_pc, same_page, vmix64
from repro.branch.direction import TageLitePredictor
from repro.branch.types import BranchKind
from repro.experiments.designs import standard_designs
from repro.frontend.icache import ICache
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.decoded import DecodedTrace
from repro.workloads.suite import build_suite, get_trace

from conftest import low_address_trace, make_trace

TRACE_APP = "server_oltp_00"

#: The tiny suite holds one app per category.
TINY_APPS = [spec.name for spec in build_suite("tiny")]


@pytest.fixture(scope="module")
def trace():
    return get_trace(TRACE_APP, "tiny")


@pytest.fixture(scope="module")
def decoded(trace):
    return trace.decoded()


def test_decoded_is_cached_on_the_trace(trace):
    assert trace.decoded() is trace.decoded()


def test_block_instructions_is_gap_plus_one(trace, decoded):
    assert decoded.n_events == len(trace)
    instructions = decoded.vector_columns()["instructions"]
    assert instructions.tolist() == [gap + 1 for gap in trace.gaps.tolist()]


def test_hashes_match_scalar_hash_pc(trace, decoded):
    # Spot-check across the column; the vectorised mix64 must agree
    # with the scalar helper, including uint64 wrap-around.
    hashes = decoded.vector_columns()["hashes"].tolist()
    pcs = trace.pcs.tolist()
    for index in range(0, len(trace), max(1, len(trace) // 257)):
        assert hashes[index] == hash_pc(pcs[index])


def test_same_page_matches_scalar_helper(trace, decoded):
    assert decoded.vector_columns()["same_page"].tolist() == [
        same_page(pc, target)
        for pc, target in zip(trace.pcs.tolist(), trace.targets.tolist())
    ]


def test_kind_property_columns(trace, decoded):
    kinds = [BranchKind(value) for value in trace.kinds.tolist()]
    assert decoded.vector_columns()["is_indirect"].tolist() == [
        kind.is_indirect for kind in kinds
    ]


@pytest.mark.parametrize("app", TINY_APPS)
def test_lazy_boundary_lists_match_their_definitions(app):
    # The BTB pass builds its hash, page and indirect lists per run from
    # these numpy columns.
    trace = get_trace(app, "tiny")
    decoded = DecodedTrace.from_trace(trace)
    columns = decoded.vector_columns()
    pcs, kinds, targets = trace.pcs, trace.kinds, trace.targets
    assert columns["hashes"].tolist() == vmix64(pcs >> np.uint64(1)).tolist()
    assert columns["same_page"].tolist() == (
        (pcs >> np.uint64(12)) == (targets >> np.uint64(12))
    ).tolist()
    assert columns["is_indirect"].tolist() == [
        BranchKind(kind).is_indirect for kind in kinds.tolist()
    ]
    assert decoded.vector_columns()["hashes"] is columns["hashes"]


def test_decode_retains_no_per_event_lists():
    # Decoding runs once per trace and stays on it; only the consumers
    # that need a column build it (the general engine needs none of the
    # per-event lists).
    trace = get_trace(TRACE_APP, "tiny")
    assert len(trace) == 8000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decoded = DecodedTrace.from_trace(trace)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert decoded.n_events == len(trace)
    assert retained < 0.3 * 2**20


def test_supply_demand_arrays_are_exact_multiples(decoded):
    supply, demand = decoded.supply_demand_arrays(10, 16)
    counts = decoded.vector_columns()["instructions"].tolist()
    assert supply.tolist() == [count * 10 for count in counts]
    assert demand.tolist() == [count * 16 for count in counts]
    assert supply.dtype == np.int64
    assert decoded.supply_demand_arrays(10, 16) is decoded.supply_demand_arrays(10, 16)
    assert decoded.supply_demand_arrays(5, 16)[0].tolist() != supply.tolist()


def _touch_range_loop(trace, size_kib, line_bytes, ways):
    """The per-event ``touch_range`` loop the replay stands in for."""
    live = ICache(size_kib, line_bytes, ways)
    misses = [
        live.touch_range(pc - gap * 4, pc)
        for pc, gap in zip(trace.pcs.tolist(), trace.gaps.tolist())
    ]
    return misses, live


def test_icache_misses_match_live_replay(trace, decoded):
    misses, final = decoded.icache_misses(32, 64, 8)
    expected, live = _touch_range_loop(trace, 32, 64, 8)
    assert misses.tolist() == expected
    assert misses.dtype == np.int64
    assert decoded.icache_misses(32, 64, 8)[0] is misses
    assert final.accesses == live.accesses
    assert final.misses == live.misses
    assert final._lines == live._lines
    # The memoised cache state must be adopted by *clone*, never shared.
    adopted = final.clone()
    adopted.touch_range(0x9999_0000, 0x9999_0040)
    assert final.accesses == live.accesses


#: ``(size_kib, line_bytes, ways)``: the default, and one change from it each.
ICACHE_GEOMETRIES = {
    "default": (32, 64, 8),
    "48-sets": (24, 64, 8),
    "32B-lines": (32, 32, 8),
    "1-way": (32, 64, 1),
    "16-ways": (32, 64, 16),
}


def _edge_trace(name):
    rng = random.Random(7)
    if name == "empty":
        return make_trace([])
    if name == "one-event":
        return make_trace([(0x40_1000, BranchKind.COND_DIRECT, True, 0x40_2000, 9)])
    if name == "low-address":
        return low_address_trace(2)
    # "gap-0": every block is its branch alone; "long-blocks": every
    # block spans 4 or more 64 B lines (13 or more 32 B ones).
    gaps = (0, 0) if name == "gap-0" else (64, 200)
    events = []
    for _ in range(3000):
        pc = 0x40_0000 + 4 * rng.randrange(1 << 12)
        events.append((pc, BranchKind.COND_DIRECT, True, pc + 64, rng.randint(*gaps)))
    return make_trace(events, name=name)


EDGE_TRACES = ("empty", "one-event", "gap-0", "long-blocks", "low-address")


@pytest.mark.parametrize("geometry", ICACHE_GEOMETRIES.values(), ids=ICACHE_GEOMETRIES)
@pytest.mark.parametrize("name", (TRACE_APP, *EDGE_TRACES))
def test_icache_replay_matches_the_touch_range_loop(name, geometry):
    trace = _edge_trace(name) if name in EDGE_TRACES else get_trace(name, "tiny")
    misses, final = DecodedTrace.from_trace(trace).icache_misses(*geometry)
    expected, live = _touch_range_loop(trace, *geometry)
    assert misses.dtype == np.int64
    assert misses.tolist() == expected
    assert final._lines == live._lines
    assert (final.accesses, final.misses) == (live.accesses, live.misses)
    assert (final.sets, final.ways, final.line_bytes) == (live.sets, live.ways, live.line_bytes)


def _tage_state(predictor: TageLitePredictor) -> dict:
    """Every field of a TAGE-lite predictor, for exact comparison."""
    return {
        "base": predictor._base._table,
        "components": [
            (c.tags, c.counters, c.useful, c.cached_mix, c.cached_version)
            for c in predictor._components
        ],
        "history": predictor._history,
        "version": predictor._history_version,
        "rng": predictor._rng_state,
    }


def _live_loop(pcs, takens, predictor=None):
    """The general engine's per-event ``predict`` then ``update``."""
    predictor = predictor or TageLitePredictor()
    predictions = []
    for pc, taken in zip(pcs, takens):
        predictions.append(predictor.predict(pc))
        predictor.update(pc, taken)
    return predictions, predictor


def _conditionals(trace):
    pcs, kinds, takens = trace.pcs, trace.kinds, trace.takens
    conditional = kinds == int(BranchKind.COND_DIRECT)
    return pcs[conditional], takens[conditional]


def _assert_replay_matches_live(pcs, takens, start=None):
    """Replay and the live loop agree on predictions and final state,
    from a fresh predictor or from clones of ``start``."""
    replayed = start.clone() if start is not None else TageLitePredictor()
    live = start.clone() if start is not None else None
    predictions = replayed.replay(np.array(pcs, dtype=np.uint64),
                                  np.array(takens, dtype=np.bool_))
    expected, live = _live_loop(list(pcs), list(takens), live)
    assert predictions.dtype == np.bool_
    assert predictions.tolist() == expected
    assert _tage_state(replayed) == _tage_state(live)


def test_direction_outcomes_match_live_predictor(trace, decoded):
    outcomes, final = decoded.direction_outcomes("tage-default")
    cond = int(BranchKind.COND_DIRECT)
    pcs, kinds, takens = trace.pcs.tolist(), trace.kinds.tolist(), trace.takens.tolist()
    predictions, live = _live_loop(
        [pc for pc, kind in zip(pcs, kinds) if kind == cond],
        [taken for taken, kind in zip(takens, kinds) if kind == cond],
    )
    expected = [True] * len(trace)
    conditionals = (i for i, kind in enumerate(kinds) if kind == cond)
    for index, predicted in zip(conditionals, predictions):
        expected[index] = predicted == takens[index]
    assert outcomes.tolist() == expected
    assert outcomes.dtype == np.bool_
    assert decoded.direction_outcomes("tage-default")[0] is outcomes
    assert _tage_state(final) == _tage_state(live)


@pytest.mark.parametrize("app", TINY_APPS)
def test_replay_matches_live_loop_on_every_category(app):
    _assert_replay_matches_live(*(col.tolist() for col in _conditionals(get_trace(app, "tiny"))))


def _synthetic(count: int, pattern: str, seed: int = 0):
    """``count`` conditionals over a few dozen aliasing pcs."""
    rng = random.Random(seed * 1000 + count)
    pcs = [0x40_0000 + 4 * rng.randrange(40) for _ in range(count)]
    if pattern == "taken":
        takens = [True] * count
    elif pattern == "not-taken":
        takens = [False] * count
    else:
        takens = [rng.random() < 0.55 for _ in range(count)]
    return pcs, takens


@pytest.mark.parametrize("pattern", ["mixed", "taken", "not-taken"])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 193, 700])
def test_replay_matches_live_loop_on_edge_streams(count, pattern):
    _assert_replay_matches_live(*_synthetic(count, pattern))


@pytest.mark.parametrize("count", [63, 64, 65, 128, 129, 1000])
def test_replay_carries_history_across_chunk_edges(monkeypatch, count):
    # 64-conditional chunks put many boundaries inside short streams,
    # including chunks whose last conditional probed only the top table.
    monkeypatch.setattr(direction, "REPLAY_CHUNK", 64)
    _assert_replay_matches_live(*_synthetic(count, "mixed", seed=1))


def test_replay_crosses_the_default_chunk_edge():
    _assert_replay_matches_live(*_synthetic(direction.REPLAY_CHUNK + 1, "mixed", seed=2))


def test_replay_continues_a_warm_predictor():
    # History older than the replay (including bits past the 64th) and
    # a version that is not zero must carry into it.
    pcs, takens = _synthetic(900, "mixed", seed=3)
    _, warm = _live_loop(pcs[:500], takens[:500])
    _assert_replay_matches_live(pcs[500:], takens[500:], start=warm)


def test_simulator_adopting_the_replay_continues_like_a_live_one(trace):
    design = standard_designs()["pdede-default"]
    btb, kwargs = design.build()
    adopted = FrontendSimulator(btb, **kwargs)
    first = adopted.run(trace, warmup_fraction=0.3)
    assert adopted.last_engine == "vector"
    # A caller-supplied predictor sends the reference leg through the
    # live structure pass: live TAGE, ICache and RAS calls, and no
    # adopted replay state.
    btb, kwargs = design.build()
    live = FrontendSimulator(btb, direction=TageLitePredictor(), **kwargs)
    live_icache, live_ras = live.icache, live.ras
    assert live.run(trace, warmup_fraction=0.3).to_dict() == first.to_dict()
    assert live.icache is live_icache and live.ras is live_ras
    assert _tage_state(adopted.direction) == _tage_state(live.direction)
    # The second run falls back to the general engine on the adopted
    # predictor and must stay bit-identical to the live one.
    second = adopted.run(trace, warmup_fraction=0.3)
    assert adopted.last_engine == "general"
    assert second.to_dict() == live.run(trace, warmup_fraction=0.3).to_dict()
    assert _tage_state(adopted.direction) == _tage_state(live.direction)


def test_unknown_direction_signature_raises(decoded):
    with pytest.raises(ValueError):
        decoded.direction_outcomes("perceptron-v2")


def test_predictor_clone_is_independent():
    predictor = TageLitePredictor()
    for pc in range(0x1000, 0x1400, 4):
        predictor.update(pc, pc % 3 == 0)
    twin = predictor.clone()
    assert twin._history == predictor._history
    assert twin._rng_state == predictor._rng_state
    twin.update(0x2000, True)
    assert twin._history != predictor._history
