"""Tests for the report generator and the parallel suite runner."""

import os

import pytest

from repro.core.config import PDedeMode
from repro.experiments.designs import baseline_design, pdede_design
from repro.experiments.harness import clear_cache, engine_mix, run_suite


def test_parallel_run_suite_matches_serial():
    if not hasattr(os, "fork"):
        pytest.skip("fork not available")
    design = pdede_design(PDedeMode.MULTI_ENTRY)
    baseline = baseline_design()
    clear_cache()
    serial = run_suite(design, baseline, scale="tiny")
    serial_mix = engine_mix()
    clear_cache()
    parallel = run_suite(design, baseline, scale="tiny", workers=2)
    assert serial.per_app.keys() == parallel.per_app.keys()
    for app in serial.per_app:
        assert serial.per_app[app].cycles == parallel.per_app[app].cycles
        assert serial.per_app[app].btb_misses == parallel.per_app[app].btb_misses
    # Engine telemetry survives the worker pipe: the report's appendix
    # shows the same engines and run counts under --workers.
    assert {engine: row["runs"] for engine, row in engine_mix().items()} == {
        engine: row["runs"] for engine, row in serial_mix.items()
    }
    clear_cache()


def test_report_sections_cover_every_experiment():
    from repro.experiments.report import generate_report

    clear_cache()
    seen = []
    report = generate_report(scale="tiny", progress=lambda eid, s: seen.append(eid))
    ids = [section.experiment_id for section in report.sections]
    assert ids == seen
    for expected in (
        "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "tab2", "tab4", "fig10", "fig11a", "fig11b", "fig11c",
        "fig12a", "fig12b", "fig12c", "s5.5", "s5.6", "s5.7", "s5.11",
    ):
        assert expected in ids, expected
    text = report.render()
    assert "# EXPERIMENTS" in text
    assert "*Paper:*" in text
    assert "*Measured:*" in text
    clear_cache()
