"""The persistent disk cache: hit/miss/invalidation semantics, atomic
writes under racing writers, corruption quarantine, and the harness
wiring that serves results across "processes" (simulated here by
clearing every in-memory cache)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.experiments import diskcache
from repro.frontend.params import ICELAKE
from repro.frontend.stats import FrontendStats
from repro.workloads.generator import generate_trace
from repro.workloads.suite import build_suite


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """An enabled disk cache rooted in tmp_path, telemetry zeroed."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
    diskcache.reset_disk_telemetry()
    yield tmp_path / "cache"
    diskcache.reset_disk_telemetry()


def _spec():
    return build_suite("tiny")[0]


def _stats() -> FrontendStats:
    return FrontendStats(
        instructions=1000, cycles=250.5, base_cycles=200.0, branches=120,
        taken_branches=80, btb_misses=7, icache_misses=3,
    )


# -- traces ------------------------------------------------------------------


def test_trace_miss_then_hit_roundtrip(disk_cache):
    spec = _spec()
    assert diskcache.load_trace(spec) is None
    trace = generate_trace(spec)
    diskcache.store_trace(spec, trace)
    loaded = diskcache.load_trace(spec)
    assert loaded is not None
    assert loaded.pcs.tolist() == trace.pcs.tolist()
    assert loaded.kinds.tolist() == trace.kinds.tolist()
    assert loaded.takens.tolist() == trace.takens.tolist()
    assert loaded.targets.tolist() == trace.targets.tolist()
    assert loaded.gaps.tolist() == trace.gaps.tolist()
    info = diskcache.disk_cache_info()
    assert info["trace_misses"] == 1 and info["trace_hits"] == 1


def test_trace_key_tracks_generator_version(disk_cache, monkeypatch):
    spec = _spec()
    before = diskcache.spec_digest(spec)
    import repro.workloads.generator as generator

    monkeypatch.setattr(generator, "GENERATOR_VERSION", generator.GENERATOR_VERSION + 1)
    assert diskcache.spec_digest(spec) != before


def test_cache_version_bump_orphans_entries(disk_cache, monkeypatch):
    spec = _spec()
    diskcache.store_trace(spec, generate_trace(spec))
    assert diskcache.load_trace(spec) is not None
    monkeypatch.setattr(diskcache, "CACHE_VERSION", diskcache.CACHE_VERSION + 1)
    assert diskcache.load_trace(spec) is None  # new root: clean miss


def test_corrupt_trace_is_quarantined_not_fatal(disk_cache):
    spec = _spec()
    diskcache.store_trace(spec, generate_trace(spec))
    [npz] = list((disk_cache / f"v{diskcache.CACHE_VERSION}" / "traces").glob("*.npz"))
    npz.write_bytes(b"definitely not a zip archive")
    assert diskcache.load_trace(spec) is None
    assert diskcache.disk_cache_info()["quarantined"] == 1
    assert list(npz.parent.glob("*.corrupt-*")), "corrupt file not moved aside"
    # The slot is usable again immediately.
    diskcache.store_trace(spec, generate_trace(spec))
    assert diskcache.load_trace(spec) is not None


# -- results -----------------------------------------------------------------


def test_result_roundtrip_is_exact(disk_cache):
    key = diskcache.result_key("app", "tiny", "design", ICELAKE, 0.3, spec=_spec())
    assert diskcache.load_result(key) is None
    stats = _stats()
    diskcache.store_result(key, stats)
    loaded = diskcache.load_result(key)
    assert loaded is not None
    assert loaded.to_dict() == stats.to_dict()


def test_result_key_separates_inputs(disk_cache):
    spec = _spec()
    base = diskcache.result_key("app", "tiny", "design", ICELAKE, 0.3, spec=spec)
    assert diskcache.result_key("app2", "tiny", "design", ICELAKE, 0.3, spec=spec) != base
    assert diskcache.result_key("app", "tiny", "other", ICELAKE, 0.3, spec=spec) != base
    assert diskcache.result_key("app", "tiny", "design", ICELAKE, 0.5, spec=spec) != base
    assert (
        diskcache.result_key(
            "app", "tiny", "design", ICELAKE.scaled_pipeline(2.0), 0.3, spec=spec
        )
        != base
    )


def test_result_version_mismatch_is_a_miss(disk_cache):
    key = diskcache.result_key("app", "tiny", "design", ICELAKE, 0.3)
    diskcache.store_result(key, _stats())
    path = disk_cache / f"v{diskcache.CACHE_VERSION}" / "results" / f"{key}.json"
    payload = json.loads(path.read_text())
    payload["result_version"] = -1
    path.write_text(json.dumps(payload))
    assert diskcache.load_result(key) is None
    assert diskcache.disk_cache_info()["quarantined"] == 1


# -- concurrency and atomicity ----------------------------------------------


def test_racing_writers_leave_one_valid_file_and_no_temps(disk_cache):
    key = diskcache.result_key("app", "tiny", "design", ICELAKE, 0.3)
    stats = _stats()
    errors = []

    def writer():
        try:
            for _ in range(20):
                diskcache.store_result(key, stats)
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    results_dir = disk_cache / f"v{diskcache.CACHE_VERSION}" / "results"
    assert not list(results_dir.glob("*.tmp-*")), "temp files leaked"
    assert [p.name for p in results_dir.glob("*.json")] == [f"{key}.json"]
    loaded = diskcache.load_result(key)
    assert loaded is not None and loaded.to_dict() == stats.to_dict()


# -- knobs -------------------------------------------------------------------


def test_env_knob_bypasses_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
    diskcache.reset_disk_telemetry()
    spec = _spec()
    assert not diskcache.disk_cache_enabled()
    diskcache.store_trace(spec, generate_trace(spec))
    diskcache.store_result(
        diskcache.result_key("a", "tiny", "d", ICELAKE, 0.3), _stats()
    )
    assert not (tmp_path / "cache").exists(), "disabled cache touched disk"
    assert diskcache.load_trace(spec) is None
    info = diskcache.disk_cache_info()
    assert info["enabled"] is False
    assert info["stores"] == 0


def test_clear_disk_cache_removes_everything(disk_cache):
    spec = _spec()
    diskcache.store_trace(spec, generate_trace(spec))
    diskcache.store_result(
        diskcache.result_key("a", "tiny", "d", ICELAKE, 0.3), _stats()
    )
    removed = diskcache.clear_disk_cache()
    assert removed == 2
    assert not (disk_cache / f"v{diskcache.CACHE_VERSION}").exists()


# -- harness wiring ----------------------------------------------------------


def test_warm_disk_cache_serves_results_without_simulating(disk_cache):
    from repro.experiments.designs import baseline_design
    from repro.experiments.harness import cache_info, clear_cache, run_design
    from repro.workloads import suite

    clear_cache()
    design = baseline_design(entries=256, key="dc-harness-probe")
    first = run_design("server_oltp_00", design, scale="tiny")

    # A "new process": every in-memory cache emptied; only disk remains.
    clear_cache()
    suite._cached_trace.cache_clear()
    diskcache.reset_disk_telemetry()

    second = run_design("server_oltp_00", design, scale="tiny")
    assert second.to_dict() == first.to_dict()
    info = diskcache.disk_cache_info()
    assert info["result_hits"] == 1, info
    assert cache_info()["misses"] == 1  # memo missed; the disk answered
    # And the memo was refilled: a third call is a pure memory hit.
    run_design("server_oltp_00", design, scale="tiny")
    assert cache_info()["hits"] == 1
    clear_cache()
