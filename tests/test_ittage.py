"""Unit tests for the ITTAGE indirect-target predictor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.types import BranchKind
from repro.btb.ittage import ITTagePredictor


def test_untrained_returns_none():
    predictor = ITTagePredictor()
    assert predictor.predict(0x1234) is None


def test_learns_monomorphic_site():
    predictor = ITTagePredictor()
    pc, target = 0x1000, 0xAA000
    for _ in range(4):
        predictor.update(pc, target)
    assert predictor.predict(pc) == target


def test_learns_history_correlated_targets():
    """The point of ITTAGE: same PC, history-dependent targets."""
    predictor = ITTagePredictor()
    pc = 0x2000
    # Two contexts: distinct branch-outcome prefixes before each target
    # (the outcomes differ, so the folded history bits differ).
    contexts = {
        (True, True, False, True): 0xAAA000,
        (False, False, True, False): 0xBBB000,
    }
    def replay(prefix):
        for position, taken in enumerate(prefix):
            predictor.record_history(0x10 + position * 4, taken)
    for _ in range(300):
        for prefix, target in contexts.items():
            replay(prefix)
            predictor.update(pc, target)
    correct = 0
    trials = 0
    for _ in range(50):
        for prefix, target in contexts.items():
            replay(prefix)
            trials += 1
            if predictor.predict(pc) == target:
                correct += 1
            predictor.update(pc, target)
    assert correct / trials > 0.8


def test_misprediction_rate_tracks_quality():
    predictor = ITTagePredictor()
    pc = 0x3000
    for index in range(50):
        predictor.update(pc, 0xAAA000)
    assert predictor.misprediction_rate < 0.2


def test_storage_is_64kb_class():
    bits = ITTagePredictor().storage_bits()
    assert 40 * 8192 <= bits <= 80 * 8192  # 40-80 KiB


def test_rejects_non_power_of_two_tables():
    with pytest.raises(ValueError):
        ITTagePredictor(base_entries=1000)


# -- the trace replay against the per-event loop --------------------------------


def _loop(predictor, events) -> list[bool]:
    """The per-event calls the seed simulator makes, and its mispredicts."""
    mispredicts = []
    for pc, kind, taken, target in events:
        predictor.record_history(pc, taken)
        mispredict = False
        if kind.is_indirect:
            predicted = predictor.predict(pc)
            predictor.update(pc, target)
            mispredict = taken and predicted != target
        mispredicts.append(mispredict)
    return mispredicts


def _replay(predictor, events) -> list[bool]:
    pcs = np.array([pc for pc, _, _, _ in events], dtype=np.uint64)
    takens = np.array([taken for _, _, taken, _ in events], dtype=np.bool_)
    indirect = np.array([kind.is_indirect for _, kind, _, _ in events], dtype=np.bool_)
    targets = np.array([target for _, _, _, target in events], dtype=np.int64)
    return predictor.replay(pcs, takens, indirect, targets).tolist()


def _state(predictor) -> tuple:
    return (
        predictor._base_targets,
        predictor._base_valid,
        predictor._base_conf,
        [
            [(e.tag, e.target, e.confidence, e.useful, e.valid) for e in table]
            for table in predictor._tables
        ],
        predictor._history,
        predictor._rng_state,
        predictor.predictions,
        predictor.mispredictions,
    )


@st.composite
def _event_streams(draw):
    """Two event streams (warm-up, replayed) over small pc and target
    alphabets, so pcs repeat and targets change under them; every kind
    appears, indirect branches and returns not taken too."""
    address = st.integers(min_value=0, max_value=(1 << 47) - 1)
    pcs = draw(st.lists(address, min_size=1, max_size=6, unique=True))
    targets = draw(st.lists(address, min_size=1, max_size=4))
    event = st.tuples(
        st.sampled_from(pcs),
        st.sampled_from(list(BranchKind)),
        st.booleans(),
        st.sampled_from(targets),
    )
    return draw(st.lists(event, max_size=60)), draw(st.lists(event, max_size=200))


#: The default geometry, and a tiny one where tagged entries collide and
#: allocation draws on the random stream.
_GEOMETRIES = ({}, {"base_entries": 4, "table_entries": 4, "tag_bits": 2})


@settings(max_examples=300, deadline=None)
@given(_event_streams(), st.sampled_from(_GEOMETRIES), st.booleans())
def test_replay_matches_the_per_event_loop(streams, geometry, warm):
    warmup, events = streams
    looped, replayed = ITTagePredictor(**geometry), ITTagePredictor(**geometry)
    if warm:
        _loop(looped, warmup)
        _loop(replayed, warmup)
    assert _replay(replayed, events) == _loop(looped, events)
    assert _state(replayed) == _state(looped)
