"""Unit tests for the replacement policies: the per-set classes and the
one-object-per-table classes the live structures use."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.btb.replacement import (
    FifoPolicy,
    FifoTable,
    LruPolicy,
    LruTable,
    RandomPolicy,
    RandomTable,
    SrripPolicy,
    SrripTable,
    make_replacement_policy,
    make_replacement_table,
)


def test_factory_and_unknown():
    assert isinstance(make_replacement_policy("lru", 4), LruPolicy)
    assert isinstance(make_replacement_policy("srrip", 4, m=3), SrripPolicy)
    with pytest.raises(ValueError):
        make_replacement_policy("plru", 4)


def test_invalid_ways_preferred_by_all_policies():
    for name in ("lru", "fifo", "random", "srrip"):
        policy = make_replacement_policy(name, 4)
        valid = [True, False, True, True]
        assert policy.victim(valid) == 1


def test_lru_evicts_least_recent():
    policy = LruPolicy(4)
    valid = [True] * 4
    for way in (0, 1, 2, 3):
        policy.on_insert(way)
    policy.on_hit(0)  # order now 1,2,3,0
    assert policy.victim(valid) == 1
    policy.on_hit(1)
    assert policy.victim(valid) == 2


def test_fifo_round_robin():
    policy = FifoPolicy(3)
    valid = [True] * 3
    policy.on_insert(0)
    assert policy.victim(valid) == 1
    policy.on_insert(1)
    assert policy.victim(valid) == 2
    policy.on_insert(2)
    assert policy.victim(valid) == 0


def test_random_is_deterministic_per_seed():
    a = RandomPolicy(8, seed=7)
    b = RandomPolicy(8, seed=7)
    valid = [True] * 8
    assert [a.victim(valid) for _ in range(20)] == [b.victim(valid) for _ in range(20)]


def test_srrip_promotes_on_hit():
    policy = SrripPolicy(4, m=2)
    valid = [True] * 4
    for way in range(4):
        policy.on_insert(way)
    policy.on_hit(2)  # rrpv[2] -> 0, others at max-1
    victim = policy.victim(valid)
    assert victim != 2


def test_srrip_always_finds_victim():
    policy = SrripPolicy(4, m=2)
    valid = [True] * 4
    for way in range(4):
        policy.on_insert(way)
        policy.on_hit(way)
    # All at RRPV 0; ageing must still produce a victim.
    assert policy.victim(valid) in range(4)


def test_srrip_partial_retention_under_thrash():
    """SRRIP's defining property: not pure LRU under a cyclic scan."""
    policy = SrripPolicy(4, m=2)
    valid = [True] * 4
    for way in range(4):
        policy.on_insert(way)
    policy.on_hit(0)
    policy.on_hit(0)
    # Way 0 is near-immediate; a stream of inserts should evict others.
    victims = set()
    for _ in range(3):
        victim = policy.victim(valid)
        victims.add(victim)
        policy.on_insert(victim)
    assert 0 not in victims


def test_metadata_bits():
    assert SrripPolicy(8, m=3).metadata_bits_per_entry() == 3
    assert LruPolicy(8).metadata_bits_per_entry() == 3
    assert RandomPolicy(8).metadata_bits_per_entry() == 0


def test_rejects_nonpositive_ways():
    with pytest.raises(ValueError):
        LruPolicy(0)
    with pytest.raises(ValueError):
        SrripPolicy(4, m=0)


# -- SrripPolicy.victim against the step-by-step ageing loop --------------------


def _reference_srrip_victim(policy, valid):
    """The seed's SRRIP victim: the first invalid way, else age every way
    one step at a time until one reaches the distant value."""
    for way, ok in enumerate(valid):
        if not ok:
            return way
    rrpv = policy.rrpv
    distant = (1 << policy._m) - 1
    while True:
        for way, value in enumerate(rrpv):
            if value == distant:
                return way
        for way in range(len(rrpv)):
            rrpv[way] += 1


@st.composite
def _srrip_histories(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    ways = draw(st.integers(min_value=1, max_value=16))
    rrpv = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << m) - 1), min_size=ways, max_size=ways
    ))
    way = st.integers(min_value=0, max_value=ways - 1)
    mask = st.lists(st.booleans(), min_size=ways, max_size=ways)
    actions = draw(st.lists(
        st.tuples(st.just("hit"), way)
        | st.tuples(st.just("insert"), way)
        | st.tuples(st.just("victim"), mask | st.just([True] * ways)),
        max_size=40,
    ))
    return m, ways, rrpv, actions


@settings(max_examples=300, deadline=None)
@given(_srrip_histories())
def test_srrip_victim_matches_stepwise_ageing(history):
    m, ways, rrpv, actions = history
    policy, reference = SrripPolicy(ways, m=m), SrripPolicy(ways, m=m)
    policy.rrpv[:] = rrpv
    reference.rrpv[:] = rrpv
    mirror = policy.rrpv
    for action, argument in actions + [("victim", [True] * ways)]:
        if action == "victim":
            assert policy.victim(argument) == _reference_srrip_victim(reference, argument)
        else:
            getattr(policy, f"on_{action}")(argument)
            getattr(reference, f"on_{action}")(argument)
        assert policy.rrpv == reference.rrpv
        # Aged in place: a mirror of the list sees every update.
        assert policy.rrpv is mirror


# -- one table against ``sets`` per-set policies --------------------------------


def test_table_factory_and_unknown():
    assert isinstance(make_replacement_table("lru", 2, 4), LruTable)
    assert isinstance(make_replacement_table("fifo", 2, 4), FifoTable)
    assert isinstance(make_replacement_table("random", 2, 4), RandomTable)
    srrip = make_replacement_table("srrip", 2, 4, srrip_bits=3)
    assert isinstance(srrip, SrripTable)
    assert srrip.metadata_bits_per_entry() == 3
    assert len(srrip.rrpv) == 8
    with pytest.raises(ValueError):
        make_replacement_table("plru", 2, 4)
    with pytest.raises(ValueError):
        LruTable(0, 4)
    with pytest.raises(ValueError):
        FifoTable(2, 0)
    with pytest.raises(ValueError):
        SrripTable(2, 4, m=0)


def test_table_metadata_bits_match_the_per_set_policies():
    for name in ("lru", "fifo", "random", "srrip"):
        for ways in (1, 2, 4, 8, 16):
            assert (
                make_replacement_table(name, 3, ways).metadata_bits_per_entry()
                == make_replacement_policy(name, ways).metadata_bits_per_entry()
            )


def _assert_same_state(table, policies):
    """Each set of ``table`` holds the state of its per-set policy."""
    ways = table.ways
    for set_index, policy in enumerate(policies):
        base = set_index * ways
        if isinstance(policy, SrripPolicy):
            assert table.rrpv[base:base + ways] == policy.rrpv
        elif isinstance(policy, LruPolicy):
            assert table._order[base:base + ways] == policy._order
        elif isinstance(policy, FifoPolicy):
            assert table._next[set_index] == policy._next
        else:
            # A set's stream exists once it has drawn; until then the
            # per-set policy's stream is still at its seed.
            rng = table._rngs.get(set_index, random.Random(table.seed))
            assert rng.getstate() == policy._rng.getstate()


@st.composite
def _table_histories(draw):
    name = draw(st.sampled_from(["lru", "fifo", "random", "srrip"]))
    sets = draw(st.integers(min_value=1, max_value=4))
    ways = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.sampled_from([1, 2, 3]))
    set_index = st.integers(min_value=0, max_value=sets - 1)
    way = st.integers(min_value=0, max_value=ways - 1)
    # Full sets half the time, so ageing, cursors and draws run.
    window = st.lists(st.booleans(), min_size=ways, max_size=ways) | st.just([True] * ways)
    actions = draw(st.lists(
        st.tuples(st.sampled_from(["hit", "insert"]), set_index, way)
        | st.tuples(st.just("victim"), set_index, window),
        max_size=60,
    ))
    return name, sets, ways, m, actions


@settings(max_examples=400, deadline=None)
@given(_table_histories())
def test_table_matches_one_policy_per_set(history):
    """Any sequence of on_hit / on_insert / victim calls gives a table the
    victims and per-set state of ``sets`` per-set policies."""
    name, sets, ways, m, actions = history
    table = make_replacement_table(name, sets, ways, srrip_bits=m)
    kwargs = {"m": m} if name == "srrip" else {}
    policies = [make_replacement_policy(name, ways, **kwargs) for _ in range(sets)]
    for action, set_index, argument in actions:
        base = set_index * ways
        policy = policies[set_index]
        if action == "victim":
            assert table.victim(list(argument), base) == policy.victim(list(argument))
        else:
            getattr(table, f"on_{action}")(base + argument)
            getattr(policy, f"on_{action}")(argument)
        _assert_same_state(table, policies)
