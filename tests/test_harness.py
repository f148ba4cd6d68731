"""Unit tests for the experiment harness and design registry."""

import pytest

from repro.core.config import PDedeMode
from repro.experiments import diskcache, resultstore
from repro.experiments.designs import (
    baseline_design,
    dedup_only_design,
    partition_only_design,
    pdede_design,
    shotgun_design,
    standard_designs,
    two_level_design,
    with_ittage,
    with_perfect_direction,
    with_returns_in_btb,
)
from repro.experiments.harness import (
    clear_cache,
    format_table,
    lookup_cached,
    percent,
    run_design,
    run_suite,
)
from repro.obs.metrics import MetricsRegistry, use_registry


def test_design_keys_stable():
    assert baseline_design().key == "baseline-4096"
    assert pdede_design(PDedeMode.MULTI_ENTRY).key == "pdede-multi-entry"
    assert dedup_only_design().key == "dedup-only"
    assert partition_only_design().key == "partition-only"
    assert shotgun_design().key == "shotgun"


def test_design_build_returns_fresh_instances():
    design = baseline_design()
    first, _ = design.build()
    second, _ = design.build()
    assert first is not second


def test_wrappers_extend_key_and_kwargs():
    design = pdede_design(PDedeMode.MULTI_ENTRY)
    perfect = with_perfect_direction(design)
    assert perfect.key.endswith("+perfect-dir")
    assert perfect.simulator_kwargs()["direction"].is_perfect
    ittage = with_ittage(design)
    assert "ittage" in ittage.simulator_kwargs()
    returns = with_returns_in_btb(design)
    assert returns.simulator_kwargs() == {"returns_use_ras": False}


def test_two_level_design_composition():
    hierarchy = two_level_design(256, baseline_design(entries=4096, key="l1"))
    btb, _ = hierarchy.build()
    assert btb.level0.entries == 256
    assert btb.level1.entries == 4096


def test_standard_designs_lineup():
    designs = standard_designs()
    assert list(designs) == [
        "baseline",
        "pdede-default",
        "pdede-multi-target",
        "pdede-multi-entry",
    ]


def test_run_design_caches(monkeypatch):
    clear_cache()
    calls = {"count": 0}
    import repro.experiments.harness as harness_module

    original = harness_module.FrontendSimulator

    class CountingSimulator(original):
        def __init__(self, *args, **kwargs):
            calls["count"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness_module, "FrontendSimulator", CountingSimulator)
    design = baseline_design(entries=256, key="tiny-baseline")
    first = run_design("server_oltp_00", design, scale="tiny")
    second = run_design("server_oltp_00", design, scale="tiny")
    assert calls["count"] == 1
    assert first is second
    clear_cache()


@pytest.mark.parametrize(
    ("tier", "layer"),
    [("default", "disk"), ("fake", "store"), ("disk-elsewhere", "store")],
)
def test_result_tier_outcomes_and_one_publish(tier, layer, tmp_path, monkeypatch):
    """Below the memo sits one store: the default disk-cache store
    (hits report ``disk``) or the explicit one (``store``), even when
    the explicit store is a DiskStore and the local disk cache is on.
    A fresh run publishes once, and on the default store that publish
    is one call of the module attribute ``diskcache.store_result``."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(cache_dir))
    writes = []
    real_store_result = diskcache.store_result

    def counting_store_result(key, stats, root=None):
        writes.append(root)
        real_store_result(key, stats, root=root)

    monkeypatch.setattr(diskcache, "store_result", counting_store_result)
    store = None
    if tier == "fake":
        store = resultstore.FakeStore()
    elif tier == "disk-elsewhere":
        store = resultstore.DiskStore(root=tmp_path / "shared")
    resultstore.set_active_store(store)
    design = baseline_design(entries=256, key="tiny-baseline")
    registry = MetricsRegistry()
    clear_cache()
    with use_registry(registry):
        fresh = run_design("server_oltp_00", design, scale="tiny")
        clear_cache()  # a new process: only the store survives
        peeked, outcome = lookup_cached("server_oltp_00", design, scale="tiny")
        clear_cache()
        again = run_design("server_oltp_00", design, scale="tiny")
    clear_cache()
    assert outcome == layer
    counter = registry.get("harness_result_cache_total")
    assert counter.value(outcome="miss") == 1
    assert counter.value(outcome=f"{layer}-hit") == 1
    assert peeked.to_dict() == fresh.to_dict() == again.to_dict()
    local_results = list((cache_dir / f"v{diskcache.CACHE_VERSION}" / "results").glob("*"))
    if tier == "default":
        assert writes == [diskcache.cache_root()]
        assert len(local_results) == 1
    else:
        # The explicit store replaces the local disk cache as a tier.
        assert local_results == []
        assert writes == ([] if tier == "fake" else [tmp_path / "shared"])
    if tier == "fake":
        assert store.calls["put_result"] == 1


def test_run_suite_aggregates():
    clear_cache()
    baseline = baseline_design(entries=1024, key="small-base")
    design = pdede_design(PDedeMode.MULTI_ENTRY)
    result = run_suite(design, baseline, scale="tiny")
    assert set(result.per_app) == set(result.baseline_per_app)
    assert len(result.per_app) == 4  # tiny scale: one app per category
    assert result.mean_speedup() > 0
    assert -1.0 <= result.mean_mpki_reduction() <= 1.0
    categories = result.category_mean_speedup()
    assert set(categories) == {"Server", "Browser", "BP", "Personal"}
    clear_cache()


def test_format_table_and_percent():
    table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "333" in table
    assert percent(0.1234) == "12.3%"
    assert percent(0.5, 0) == "50%"
