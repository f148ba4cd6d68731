"""Unit tests for per-set replacement policies."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.btb.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    SrripPolicy,
    make_replacement_policy,
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
