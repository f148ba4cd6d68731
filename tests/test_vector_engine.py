"""Resteer-boundary edge cases of the columnar vector engine.

The chunked replay loop has three delicate spots: a boundary landing on
the first or last lane of a chunk (the clean-prefix commit is empty or
the truncated tail is), back-to-back boundaries (consecutive replays
with no vector commit between them), and the warm crossing falling
*inside* a replayed segment.  These tests pin each against
the frozen seed referee, shrinking the chunk constants so every block
geometry actually occurs on a short trace.
"""

from __future__ import annotations

import pytest

from repro.experiments.designs import standard_designs, with_ittage
from repro.frontend import vector as vector_mod
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.generator import generate_trace
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import get_trace

WARMUP = 0.25


def _dense_miss_trace(n_events: int = 900, seed: int = 7) -> object:
    """A short trace whose cold start makes nearly every taken branch a
    BTB allocation: boundaries land back to back, and on tiny chunks
    they hit first/last lanes of many blocks."""
    spec = WorkloadSpec(
        name="vector_edge",
        category="fuzz",
        seed=seed,
        n_events=n_events,
        n_functions=600,
        blocks_per_fn_mean=9.0,
        block_instrs_mean=5.0,
        n_regions=4,
        functions_per_page_mean=3.0,
        loop_fraction=0.15,
        mean_trip_count=3.0,
        cond_taken_bias=0.6,
        never_taken_fraction=0.2,
        indirect_fanout=5,
        n_phases=3,
        hot_functions_per_phase=25,
        zipf_s=1.1,
        sweep_fraction=0.2,
        max_call_depth=10,
    )
    return generate_trace(spec)


def _stats_pair(design, trace, warmup=WARMUP):
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine="vector", **kwargs)
    stats = simulator.run(trace, warmup_fraction=warmup)
    seed_btb, seed_kwargs = design.build()
    reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    seed_stats = reference.run(trace, warmup_fraction=warmup)
    return stats, seed_stats


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("key", ["baseline", "pdede-default", "pdede-multi-target"])
def test_boundary_on_first_and_last_chunk_lane(monkeypatch, key, chunk):
    # With CHUNK_MIN == CHUNK_START == CHUNK_MAX == chunk, every block
    # has exactly `chunk` lanes, so over a dense-miss trace boundaries
    # fall on the first lane (empty clean prefix), the last lane (empty
    # tail), and everywhere between -- including chunk == 1, where every
    # block is a single lane and the loop degenerates to scalar replay.
    for name in ("CHUNK_MIN", "CHUNK_START", "CHUNK_MAX"):
        monkeypatch.setattr(vector_mod, name, chunk)
    trace = _dense_miss_trace()
    stats, seed_stats = _stats_pair(standard_designs()[key], trace)
    assert stats.to_dict() == seed_stats.to_dict()


def test_back_to_back_resteers_cold_start(monkeypatch):
    # A cold BTB makes the first hundreds of taken branches consecutive
    # allocations: every active lane is a boundary, so replays run back
    # to back with zero-length clean segments between them.
    monkeypatch.setattr(vector_mod, "CHUNK_START", 16)
    monkeypatch.setattr(vector_mod, "CHUNK_MIN", 4)
    trace = _dense_miss_trace(n_events=400, seed=11)
    for key, design in standard_designs().items():
        stats, seed_stats = _stats_pair(design, trace)
        assert stats.to_dict() == seed_stats.to_dict(), key


def test_growth_and_shrink_across_resteer_clusters(monkeypatch):
    # Default-ish geometry but small enough that the adaptive chunk both
    # shrinks (dense early allocations) and re-grows (the warm tail).
    monkeypatch.setattr(vector_mod, "CHUNK_MIN", 2)
    monkeypatch.setattr(vector_mod, "CHUNK_START", 8)
    monkeypatch.setattr(vector_mod, "CHUNK_MAX", 64)
    trace = _dense_miss_trace(n_events=2500, seed=3)
    stats, seed_stats = _stats_pair(standard_designs()["pdede-multi-entry"], trace)
    assert stats.to_dict() == seed_stats.to_dict()


@pytest.mark.parametrize("warm_events", [1, 117, 449, 800, 899])
@pytest.mark.parametrize("key", ["pdede-default", "pdede-multi-target"])
def test_warm_crossing_inside_replayed_segments(monkeypatch, key, warm_events):
    # Warm crossings at awkward offsets -- the first event, the last
    # event, and points inside dense replay clusters -- force a block
    # break and a stats reset mid-cluster; the measured region must
    # account exactly the events the seed engine accounts.
    monkeypatch.setattr(vector_mod, "CHUNK_START", 32)
    monkeypatch.setattr(vector_mod, "CHUNK_MIN", 8)
    trace = _dense_miss_trace()
    stats, seed_stats = _stats_pair(
        standard_designs()[key], trace, warmup=warm_events / len(trace)
    )
    assert stats.to_dict() == seed_stats.to_dict()


# -- engine forcing and applicability ---------------------------------------


def test_unknown_engine_rejected_at_construction():
    btb, kwargs = standard_designs()["baseline"].build()
    for engine in ("warp", "fast"):
        with pytest.raises(ValueError, match="unknown engine"):
            FrontendSimulator(btb, engine=engine, **kwargs)


def test_forced_vector_rejects_inapplicable_design():
    design = with_ittage(standard_designs()["pdede-default"])
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, engine="vector", **kwargs)
    with pytest.raises(ValueError, match="vector engine not applicable"):
        simulator.run(get_trace("server_oltp_00", "tiny"))


def test_forced_vector_rejects_reused_simulator():
    trace = get_trace("server_oltp_00", "tiny")
    btb, kwargs = standard_designs()["baseline"].build()
    simulator = FrontendSimulator(btb, engine="vector", **kwargs)
    simulator.run(trace, warmup_fraction=WARMUP)
    with pytest.raises(ValueError, match="vector engine not applicable"):
        simulator.run(trace, warmup_fraction=WARMUP)
