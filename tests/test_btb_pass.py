"""The BTB's two per-event paths against the seed referee.

The fresh-run engine's pass makes one ``observe_fast`` call on each side
of the warm crossing, and a PDede hit reconstructs its target once where
the seed's ``lookup`` + ``update`` reconstruct it twice.  ``FrontendStats``
carries none of the structure-internal counters that shortcut could
miscount, so these tests compare, event for event, the lookup columns,
the ``BTBStats`` and the whole ``btb.metrics()`` -- delta, pointer, stale
and next-target counters, Page-/Region-BTB allocations, dedup hits and
evictions -- against the frozen seed BTBs driven by ``lookup`` then
``update``.

Every case also drives a second live BTB the way wrapper designs do,
``lookup(pc)`` then ``update(event)`` per event: those methods are
adapters over ``lookup_fast`` / ``update_fast``, so this leg holds the
adapters, the shared algorithm and its provider labels to the seed.

The shadow-branch wrapper's pass runs its inner BTB's hook first and
then walks its shadow table; its cases hold both the wrapper's and the
inner's counters to the frozen ``SeedShadowBTB`` over a seed inner.

The literature and ablation families (Micro BTB, Shotgun, dedup-only,
multi-tag, GHRP, the temporal-prefetch wrapper) run the base class's
loop over their hashed pair; their cases hold it, and the adapters, to
the frozen copies of the classes as they were when each hashed its own
pc, inside the shadow and two-level wrappers too.  After a run, every
tag directory row holds at most one entry per way.

Each hook gets its columns from ``vector._btb_pass``, as in a fresh run.
Every tag match probes the table's tag directory, whose entries go stale
as slots are refilled; a hand-made trace that cycles more branches than
ways through one set holds that case to the seed, and a property test
holds the probe itself to ``list.index``.
"""

from __future__ import annotations

import random
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.types import BranchKind
from repro.btb.base import NO_TARGET, drop_tag, find_way, tag_directory
from repro.btb.baseline import BaselineBTB
from repro.btb.ghrp import GhrpBTB
from repro.btb.microbtb import MicroBTB
from repro.btb.prefetch import TemporalPrefetchBTB
from repro.btb.shadow import ShadowBTB
from repro.btb.shotgun import ShotgunBTB
from repro.btb.twolevel import TwoLevelBTB
from repro.core.ablations import DedupOnlyBTB
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.multitag import MultiTagPartitionedBTB
from repro.core.pdede import PDedeBTB
from repro.experiments.designs import (
    baseline_design,
    design_registry,
    ghrp_design,
    multitag_design,
    two_level_design,
    with_temporal_prefetch,
)
from repro.frontend.seedref import seed_counterpart
from repro.frontend.simulator import FrontendSimulator
from repro.frontend.vector import _btb_pass
from repro.workloads.suite import get_trace

from conftest import make_trace

#: Small enough that the tiny trace evicts from the BTBM and both dedup
#: tables (its different-page targets span three regions), so stale pointers,
#: evictions and dedup hits all occur.
SMALL = dict(btbm_entries=256, page_entries=32, region_entries=1)

POLICIES = ("lru", "fifo", "random", "srrip")


def _pdede(**overrides) -> PDedeBTB:
    return PDedeBTB(PDedeConfig(**{**SMALL, **overrides}))


PDEDE_VARIANTS = {
    **{f"mode-{mode.value}": dict(mode=mode) for mode in PDedeMode},
    "always-two-cycle": dict(always_two_cycle=True),
    "always-two-cycle-multi-target": dict(
        mode=PDedeMode.MULTI_TARGET, always_two_cycle=True
    ),
    "next-target-tag": dict(mode=PDedeMode.MULTI_TARGET, next_target_tag_bits=4),
    "no-indirect": dict(allocate_indirect=False),
    "invalidate-stale": dict(invalidate_stale_pointers=True),
    "no-delta": dict(delta_encoding=False),
    **{f"replacement-{name}": dict(replacement=name) for name in POLICIES},
    "multi-entry-lru": dict(mode=PDedeMode.MULTI_ENTRY, replacement="lru"),
    "multi-target-lru": dict(mode=PDedeMode.MULTI_TARGET, replacement="lru"),
}


def _assert_pass_matches_seed(build, warmup_fraction, returns_use_ras=True, trace=None):
    """Hold both paths of fresh ``build()`` BTBs to the seed, over the
    tiny ``server_oltp_00`` trace unless ``trace`` is given.

    Returns ``(pass_btb, live_btb, seed)``: the BTB driven by
    ``observe_fast``, the one driven by ``lookup`` then ``update``, and
    the seed referee.
    """
    if trace is None:
        trace = get_trace("server_oltp_00", "tiny")
    decoded = trace.decoded()
    vector = decoded.vector_columns()
    if returns_use_ras:
        act = ~vector["is_return"]
    else:
        act = np.ones(decoded.n_events, dtype=np.bool_)
    events = list(compress(trace.branch_events(), act.tolist()))
    n_warm = int(len(events) * warmup_fraction)
    btb, live = build(), build()
    seed = seed_counterpart(btb)
    assert type(seed) is not type(btb)

    # The hook and its columns, exactly as the fresh-run engine gets them.
    observe, columns = _btb_pass(btb, trace, decoded, act)
    assert observe == btb.observe_fast
    results = ([], [], [])
    observe(columns, 0, n_warm, results)
    if n_warm:
        btb.reset_stats()
    observe(columns, n_warm, len(events), results)

    expected = ([], [], [])
    live_lookups, seed_lookups = [], []
    for index, event in enumerate(events):
        if index == n_warm and n_warm:
            seed.reset_stats()
            live.reset_stats()
        lookup = seed.lookup(event.pc)
        seed.update(event)
        live_lookups.append(live.lookup(event.pc))
        live.update(event)
        seed_lookups.append(lookup)
        expected[0].append(NO_TARGET if lookup.target is None else lookup.target)
        expected[1].append(lookup.hit)
        expected[2].append(lookup.latency)

    assert results[0] == expected[0]
    assert results[1] == expected[1]
    assert results[2] == expected[2]
    assert btb.stats.to_dict() == seed.stats.to_dict()
    assert btb.metrics() == seed.metrics()
    # The live leg: whole BTBLookup objects, provider labels included.
    assert live_lookups == seed_lookups
    assert live.stats.to_dict() == seed.stats.to_dict()
    assert live.metrics() == seed.metrics()
    return btb, live, seed


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize("variant", sorted(PDEDE_VARIANTS))
def test_pdede_pass_matches_seed(variant, warmup_fraction):
    _, _, seed = _assert_pass_matches_seed(
        lambda: _pdede(**PDEDE_VARIANTS[variant]), warmup_fraction
    )
    metrics = seed.metrics()
    assert metrics["btb_allocations_total"] > 0
    if PDEDE_VARIANTS[variant].get("delta_encoding", True):
        assert metrics["pdede_delta_hits_total"] > 0


def test_small_pdede_exercises_every_counter():
    # The geometry must actually reach the paths the fused hit touches.
    _, _, seed = _assert_pass_matches_seed(_pdede, 0.3)
    metrics = seed.metrics()
    for key in (
        "pdede_pointer_hits_total",
        "pdede_stale_pointer_reads_total",
        "page_btb_dedup_hits_total",
        "page_btb_evictions_total",
        "region_btb_evictions_total",
        "btb_evictions_total",
    ):
        assert metrics[key] > 0, key
    _, _, seed = _assert_pass_matches_seed(
        lambda: _pdede(mode=PDedeMode.MULTI_TARGET), 0.3
    )
    metrics = seed.metrics()
    assert metrics["pdede_next_target_provisions_total"] > 0


def test_returns_reach_the_pass():
    # With returns in the BTB, every event is active.
    _assert_pass_matches_seed(_pdede, 0.3, returns_use_ras=False)


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize("replacement", POLICIES)
@pytest.mark.parametrize("allocate_indirect", [True, False])
def test_baseline_pass_matches_seed(replacement, allocate_indirect, warmup_fraction):
    _, _, seed = _assert_pass_matches_seed(
        lambda: BaselineBTB(
            entries=256, replacement=replacement, allocate_indirect=allocate_indirect
        ),
        warmup_fraction,
    )
    assert seed.metrics()["btb_evictions_total"] > 0


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize(
    "levels",
    [
        (lambda: BaselineBTB(entries=64), lambda: _pdede()),
        (lambda: _pdede(mode=PDedeMode.MULTI_TARGET), lambda: BaselineBTB(entries=512)),
    ],
    ids=["baseline-l0", "pdede-l0"],
)
def test_twolevel_pass_matches_seed(levels, warmup_fraction):
    build0, build1 = levels
    *btbs, seed = _assert_pass_matches_seed(
        lambda: TwoLevelBTB(build0(), build1()), warmup_fraction
    )
    for btb in btbs:
        assert (btb.l0_hits, btb.l1_hits) == (seed.l0_hits, seed.l1_hits)
        for level, seed_level in ((btb.level0, seed.level0), (btb.level1, seed.level1)):
            assert level.metrics() == seed_level.metrics()


# -- the shadow-branch wrapper over the inner BTB's own pass --------------------

SHADOW_INNERS = {
    "baseline": lambda: BaselineBTB(entries=256),
    "pdede": _pdede,
    "pdede-multi-target": lambda: _pdede(mode=PDedeMode.MULTI_TARGET),
    "pdede-multi-entry": lambda: _pdede(mode=PDedeMode.MULTI_ENTRY),
}

#: Shadow geometries that force, in turn: shadow-table evictions, line-map
#: forgetting, a decode window of only the branch's own line, and one
#: of three lines.
SHADOW_GEOMETRIES = {
    "evicting": dict(shadow_entries=64, shadow_ways=4),
    "forgetful": dict(line_map_entries=32),
    "decode-1": dict(decode_lines=1),
    "decode-3": dict(decode_lines=3, shadow_entries=256),
}


def _remembered(btb):
    """The line map in its forgetting order, as the seed keeps it:
    ``(line, [(pc, target), ...])`` pairs."""
    return [
        (line, [(pc, target) for pc, (target, _) in branches.items()])
        for line, branches in btb._line_map.items()
    ]


def _assert_shadow_pass_matches_seed(inner, geometry, warmup_fraction, returns_use_ras=True):
    *btbs, seed = _assert_pass_matches_seed(
        lambda: ShadowBTB(SHADOW_INNERS[inner](), **SHADOW_GEOMETRIES[geometry]),
        warmup_fraction,
        returns_use_ras,
    )
    for btb in btbs:
        assert btb.inner.stats.to_dict() == seed.inner.stats.to_dict()
        assert btb.inner.metrics() == seed.inner.metrics()
        assert _remembered(btb) == [
            (line, list(branches.items())) for line, branches in seed._line_map.items()
        ]
    # The wrapper's own machinery did its work, not only the inner's.
    assert seed.shadow_hits > 0
    assert seed.exposures > 0
    return seed


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize("geometry", sorted(SHADOW_GEOMETRIES))
@pytest.mark.parametrize("inner", sorted(SHADOW_INNERS))
def test_shadow_pass_matches_seed(inner, geometry, warmup_fraction):
    seed = _assert_shadow_pass_matches_seed(inner, geometry, warmup_fraction)
    if geometry == "evicting":
        assert seed.stats.evictions > 0
    if geometry == "forgetful":
        # More distinct direct branches resolved taken than the map holds.
        trace = get_trace("server_oltp_00", "tiny")
        remembered = {
            event.pc for event in trace.branch_events()
            if event.taken and event.kind.is_direct
        }
        assert len(remembered) > seed.line_map_entries
        assert seed._line_map_size <= seed.line_map_entries


@pytest.mark.parametrize("inner", sorted(SHADOW_INNERS))
def test_shadow_pass_with_returns_in_the_btb(inner):
    # Returns are active but not direct: they expose their line and are
    # never remembered.
    _assert_shadow_pass_matches_seed(inner, "evicting", 0.3, returns_use_ras=False)


def test_shadow_pass_refreshes_a_retargeted_branch():
    # A suite trace never retargets a direct branch, so only a hand-made
    # one shows whether the pass keeps a shadow copy coherent.
    line = 0x7F00_0000_1000
    first, neighbour, far = line, line + 0x20, line + 0x10_0000
    jump = BranchKind.UNCOND_DIRECT
    trace = make_trace([
        (first, jump, True, first + 0x400, 4),
        (neighbour, jump, True, neighbour + 0x400, 4),  # exposes ``first``
        (first, jump, True, first + 0x800, 4),  # retargeted: refresh its copy
        (far, jump, True, far + 0x400, 4),  # evicts it from the 1-entry inner
        (first, jump, True, first + 0x800, 4),  # the shadow copy answers
    ])
    btb, *_ = _assert_pass_matches_seed(
        lambda: ShadowBTB(BaselineBTB(entries=1, ways=1), shadow_entries=64),
        0.0,
        trace=trace,
    )
    assert btb.shadow_hits == 2


# -- the tag directory against list.index ----------------------------------------


def _index_way(tags: list[int], base: int, ways: int, tag: int) -> int | None:
    """The tag match the directory replaced: ``list.index`` over the set's
    slots, a ``ValueError`` on a miss."""
    try:
        return tags.index(tag, base, base + ways) - base
    except ValueError:
        return None


@st.composite
def _tag_tables(draw):
    """A flat tag list and its directory after a random write history, as
    the tables write them: an allocation fills a tag its set lacks and
    replaces the way's old tag with it in the directory (``drop_tag``);
    an eviction, abandon or invalidation stores the -1 sentinel and
    records nothing.  Tags come from a small alphabet, so directory
    entries go stale and tags recur across sets."""
    ways = draw(st.integers(min_value=1, max_value=16))
    sets = draw(st.integers(min_value=1, max_value=4))
    tags = [-1] * (sets * ways)
    directory = tag_directory(tags, ways)
    writes = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=sets - 1),
            st.integers(min_value=0, max_value=ways - 1),
            st.integers(min_value=-1, max_value=11),
        ),
        max_size=80,
    ))
    for set_index, way, tag in writes:
        base = set_index * ways
        if tag < 0:
            tags[base + way] = -1
        elif tag not in tags[base:base + ways]:
            drop_tag(directory[set_index], tags[base + way], way)
            tags[base + way] = tag
            directory[set_index][tag] = way
    return ways, tags, directory


@settings(max_examples=300, deadline=None)
@given(_tag_tables())
def test_find_way_matches_list_index(table):
    ways, tags, directory = table
    rebuilt = tag_directory(tags, ways)
    for set_index, base in enumerate(range(0, len(tags), ways)):
        for tag in range(12):
            expected = _index_way(tags, base, ways, tag)
            assert find_way(directory[set_index], tags, base, tag) == expected
            assert find_way(rebuilt[set_index], tags, base, tag) == expected


# -- tag directory entries go stale ---------------------------------------------


def _cycling_trace():
    """Six taken branches cycling, in a seeded order, through one
    four-way BTBM set.

    Keys are evicted and come back in other ways within one call, so
    their returns probe directory entries whose slots now hold other
    tags.  A not-taken event on a random branch, often an evicted one,
    follows each taken one and probes without allocating.  Odd branches
    jump to two regions in turn (a one-entry Region-BTB evicts on every
    switch), and branch 5 runs twice in a row, first to its own page
    and then off it, which abandons a multi-entry short way.
    """
    rng = random.Random(5)
    base = 0x7F00_0000_0000
    pcs = [base + 0x40 * k for k in range(6)]
    cond = BranchKind.COND_DIRECT
    events = []
    for step in range(120):
        k = rng.randrange(6)
        pc = pcs[k]
        far = base + (1 + step % 2) * (1 << 30) + 0x1000 * k
        if k % 2 == 0:
            targets = [pc + 0x400]  # same page
        elif k == 5:
            targets = [pc + 0x400, far]
        else:
            targets = [far]
        for target in targets:
            events.append((pc, cond, True, target, 3))
        other = rng.choice(pcs)
        events.append((other, cond, False, other + 4, 2))
    return make_trace(events, name="cycling")


STALE_DIRECTORY_BTBS = {
    "baseline": lambda: BaselineBTB(entries=4, ways=4),
    "pdede": lambda: _pdede(btbm_entries=4, btbm_ways=4),
    "pdede-multi-entry": lambda: _pdede(
        btbm_entries=4, btbm_ways=4, mode=PDedeMode.MULTI_ENTRY
    ),
    "pdede-invalidate-stale": lambda: _pdede(
        btbm_entries=4, btbm_ways=4, invalidate_stale_pointers=True
    ),
}


@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize("design", sorted(STALE_DIRECTORY_BTBS))
def test_stale_directory_entry_reads_as_a_miss(design, warmup_fraction):
    trace = _cycling_trace()
    btb, _, seed = _assert_pass_matches_seed(
        STALE_DIRECTORY_BTBS[design], warmup_fraction, trace=trace
    )
    # One set, six distinct tags: every branch aliases with every other.
    probe = STALE_DIRECTORY_BTBS[design]()
    pcs = set(trace.pcs.tolist())
    assert len({probe._tag(pc) for pc in pcs}) == 6
    assert {probe._index(pc) for pc in pcs} == {0}
    assert seed.stats.evictions > 0


# -- the literature and ablation families over the base class's loop -------------

FAMILY_BTBS = {
    "micro-btb": lambda: MicroBTB(l1_entries=64, ll_entries=256),
    "micro-btb-fill-all": lambda: MicroBTB(
        l1_entries=64, ll_entries=256, fill_policy="all", promote_on_hit=False
    ),
    "micro-btb-no-indirect": lambda: MicroBTB(
        l1_entries=64, ll_entries=256, delta_bits=12, allocate_indirect=False
    ),
    "shotgun": lambda: ShotgunBTB(u_entries=128, c_entries=128),
    "dedup-only": lambda: DedupOnlyBTB(entries=64, target_entries=32),
    "multitag": lambda: MultiTagPartitionedBTB(
        offset_entries=256, page_entries=16, page_slots=2, region_entries=2, region_slots=4
    ),
    "ghrp": lambda: GhrpBTB(entries=256),
    "ghrp-no-indirect": lambda: GhrpBTB(entries=256, ways=4, allocate_indirect=False),
    "prefetch-baseline": lambda: TemporalPrefetchBTB(BaselineBTB(entries=256)),
    "prefetch-miss-pdede": lambda: TemporalPrefetchBTB(
        _pdede(mode=PDedeMode.MULTI_TARGET), table_entries=16, prefetch_on="miss"
    ),
    "prefetch-micro-btb": lambda: TemporalPrefetchBTB(MicroBTB(l1_entries=64, ll_entries=256)),
    "shadow-micro-btb": lambda: ShadowBTB(MicroBTB()),
    "shadow-ghrp": lambda: ShadowBTB(GhrpBTB(entries=256)),
    "twolevel-micro-btb": lambda: TwoLevelBTB(
        BaselineBTB(entries=64, ways=4), MicroBTB(l1_entries=64, ll_entries=256)
    ),
    "twolevel-ghrp-l0": lambda: TwoLevelBTB(GhrpBTB(entries=64, ways=4), _pdede()),
}


def _levels(btb):
    """``btb`` and every BTB it wraps."""
    yield btb
    for name in ("inner", "level0", "level1", "u_btb"):
        inner = getattr(btb, name, None)
        if inner is not None:
            yield from _levels(inner)


@pytest.mark.parametrize("returns_use_ras", [True, False], ids=["ras", "ret-in-btb"])
@pytest.mark.parametrize("warmup_fraction", [0.0, 0.3])
@pytest.mark.parametrize("family", sorted(FAMILY_BTBS))
def test_family_pass_matches_seed(family, warmup_fraction, returns_use_ras):
    *btbs, seed = _assert_pass_matches_seed(
        FAMILY_BTBS[family], warmup_fraction, returns_use_ras
    )
    # Wrapped BTBs, each level and the U-BTB too: every counter they keep.
    for btb in btbs:
        for level, seed_level in zip(_levels(btb), _levels(seed), strict=True):
            assert level.stats.to_dict() == seed_level.stats.to_dict()
            assert level.metrics() == seed_level.metrics()
    assert any(level.stats.evictions for level in _levels(seed)), family


#: Structure-internal counters that ``metrics()`` does not carry.
FAMILY_COUNTERS = {
    "micro-btb": ("l1_hits", "ll_hits", "promotions", "victim_fills", "uncompressible"),
    "micro-btb-no-indirect": ("uncompressible",),
    "shotgun": ("prefetch_installs",),
    "dedup-only": ("stale_pointer_reads", "_ptr", "_gen", "_conf"),
    "multitag": ("sharing_overflows",),
    "ghrp": ("dead_predictions_used", "_dead_counters", "_history"),
    "prefetch-baseline": ("prefetches_issued", "groups_learned"),
    "prefetch-miss-pdede": ("prefetches_issued", "groups_learned"),
}


@pytest.mark.parametrize("family", sorted(FAMILY_COUNTERS))
def test_family_counters_match_seed(family):
    names = FAMILY_COUNTERS[family]
    btb, live, seed = _assert_pass_matches_seed(FAMILY_BTBS[family], 0.3)
    for name in names:
        assert getattr(btb, name) == getattr(live, name) == getattr(seed, name), name
    assert any(getattr(seed, name) for name in names), names


def _sweep_designs():
    """Every design a request may name, plus report designs the registry
    has no key for."""
    registry = design_registry()
    return {
        **registry,
        "ghrp-4096": ghrp_design(),
        "multitag": multitag_design(),
        "baseline-4096+prefetch": with_temporal_prefetch(baseline_design()),
        "twolevel-256-micro-btb": two_level_design(256, registry["micro-btb"]),
    }


def _directories(btb):
    """``(name, rows, ways)`` of every tag directory ``btb`` keeps."""
    for level in _levels(btb):
        name = type(level).__name__
        if isinstance(level, MicroBTB):
            yield f"{name} L1", level._l1_directory, level.l1_ways
            yield f"{name} LL", level._ll_directory, level.ll_ways
        elif isinstance(level, ShadowBTB):
            yield name, level._directory, level.shadow_ways
        elif isinstance(level, BaselineBTB):
            yield name, level._directory, level.ways
        elif isinstance(level, PDedeBTB):
            yield name, level._directory, level._ways


@pytest.mark.parametrize("design", sorted(_sweep_designs()))
def test_tag_directory_rows_stay_within_their_ways(design):
    btb, kwargs = _sweep_designs()[design].build()
    FrontendSimulator(btb, **kwargs).run(get_trace("server_oltp_00", "tiny"), 0.3)
    for name, rows, ways in _directories(btb):
        assert max(len(row) for row in rows) <= ways, name
    if isinstance(btb, MicroBTB):
        # Micro BTB never invalidates: one entry per valid slot, exactly.
        assert sum(map(len, btb._l1_directory)) == sum(btb._l1_valid)
        assert sum(map(len, btb._ll_directory)) == sum(btb._ll_valid)


def test_shotgun_footprint_skips_cross_page_conditionals():
    # A suite trace rarely takes a cross-page conditional inside a
    # footprint window, so only a hand-made one shows whether the pass
    # keeps it out of the footprint (the U-BTB serves it instead).
    uncond, near = 0x7F00_0000_0000, 0x7F00_0000_2000
    cond = BranchKind.COND_DIRECT
    loop = [
        (uncond, BranchKind.UNCOND_DIRECT, True, near, 4),
        (near + 0x10, cond, True, near + 0x10_0000, 3),  # cross-page
        (near + 0x20, cond, True, near + 0x100, 3),  # same page
        (near + 0x100, BranchKind.UNCOND_DIRECT, True, uncond + 0x40, 2),
    ]
    btb, *_ = _assert_pass_matches_seed(
        lambda: ShotgunBTB(u_entries=64, c_entries=64), 0.0, trace=make_trace(loop * 4)
    )
    assert btb.prefetch_installs == 0
    assert [pc for pc, _ in btb._footprints[uncond]] == [near + 0x20]
