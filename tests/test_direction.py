"""Unit tests for the direction predictors."""

import random

import pytest

from repro.branch.direction import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
    PerfectDirectionPredictor,
    TageLitePredictor,
    make_direction_predictor,
)


def test_factory_names():
    for name, cls in (
        ("always_taken", AlwaysTakenPredictor),
        ("bimodal", BimodalPredictor),
        ("gshare", GSharePredictor),
        ("tage", TageLitePredictor),
        ("perfect", PerfectDirectionPredictor),
    ):
        assert isinstance(make_direction_predictor(name), cls)


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_direction_predictor("neural")


def test_perfect_flag():
    assert PerfectDirectionPredictor().is_perfect
    assert not BimodalPredictor().is_perfect


def test_bimodal_learns_bias():
    predictor = BimodalPredictor(entries=64)
    pc = 0x4000
    for _ in range(10):
        predictor.update(pc, False)
    assert predictor.predict(pc) is False
    for _ in range(10):
        predictor.update(pc, True)
    assert predictor.predict(pc) is True


def test_bimodal_rejects_bad_size():
    with pytest.raises(ValueError):
        BimodalPredictor(entries=48)


def test_gshare_learns_alternating_pattern():
    predictor = GSharePredictor(entries=1024, history_bits=8)
    pc = 0x1234
    # Train a strict alternation; gshare's history disambiguates it.
    outcomes = [bool(i % 2) for i in range(400)]
    for taken in outcomes:
        predictor.update(pc, taken)
    correct = 0
    trials = 200
    for i in range(trials):
        taken = bool(i % 2)
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    assert correct / trials > 0.9


def test_bimodal_cannot_learn_alternation():
    predictor = BimodalPredictor(entries=1024)
    pc = 0x1234
    correct = 0
    for i in range(400):
        taken = bool(i % 2)
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    assert correct / 400 < 0.7  # a per-PC counter is blind to patterns


def test_tage_learns_biased_branches():
    predictor = TageLitePredictor()
    correct = 0
    trials = 0
    for round_index in range(300):
        for pc, taken in ((0x100, True), (0x200, False), (0x300, True)):
            if round_index > 50:
                trials += 1
                if predictor.predict(pc) == taken:
                    correct += 1
            predictor.update(pc, taken)
    assert correct / trials > 0.95


def test_tage_outperforms_bimodal_on_history_pattern():
    """A short repeating pattern is TAGE's home turf."""
    pattern = [True, True, False, True, False, False]
    tage = TageLitePredictor(table_entries=512)
    bimodal = BimodalPredictor(entries=512)
    pc = 0x7777
    scores = {"tage": 0, "bimodal": 0}
    trials = 0
    for i in range(1200):
        taken = pattern[i % len(pattern)]
        if i > 400:
            trials += 1
            scores["tage"] += tage.predict(pc) == taken
            scores["bimodal"] += bimodal.predict(pc) == taken
        tage.update(pc, taken)
        bimodal.update(pc, taken)
    assert scores["tage"] > scores["bimodal"]


def test_tage_update_reuses_only_a_matching_predict():
    """``update`` skips its table walk only right after ``predict`` of the
    same pc; any other call order must train exactly like the fused call."""
    rng = random.Random(7)
    split = TageLitePredictor(table_entries=64)
    fused = TageLitePredictor(table_entries=64)
    for _ in range(3000):
        pc = 0x4000 + 4 * rng.randrange(48)
        taken = rng.random() < 0.6
        mode = rng.randrange(3)
        if mode == 0:
            assert split.predict(pc) == fused.predict_and_update(pc, taken)
        else:
            if mode == 1:
                split.predict(pc ^ 0x40)
            fused.predict_and_update(pc, taken)
        split.update(pc, taken)
    assert split._base._table == fused._base._table
    for ours, theirs in zip(split._components, fused._components):
        assert (ours.tags, ours.counters, ours.useful) == (
            theirs.tags, theirs.counters, theirs.useful
        )
    assert split._history == fused._history
    assert split._rng_state == fused._rng_state


def test_storage_bits_positive():
    assert BimodalPredictor().storage_bits() > 0
    assert GSharePredictor().storage_bits() > 0
    assert TageLitePredictor().storage_bits() > 0
    assert AlwaysTakenPredictor().storage_bits() == 0
