"""Unit tests for the Top-Down report module (Figure 1 machinery)."""

from repro.analysis.topdown import TopDownReport, topdown_report, topdown_row
from repro.frontend.stats import FrontendStats
from repro.workloads.suite import get_trace


def test_topdown_row_from_stats():
    stats = FrontendStats(
        instructions=1000,
        cycles=2000.0,
        base_cycles=1000.0,
        icache_stall_cycles=300.0,
        btb_resteer_cycles=500.0,
        bad_speculation_cycles=200.0,
    )
    trace = get_trace("server_oltp_00", "tiny")
    row = topdown_row(trace, stats)
    assert row.name == "server_oltp_00"
    assert row.category == "Server"
    assert row.retiring_fraction == 0.5
    assert row.frontend_bound_fraction == 0.4
    assert row.bad_speculation_fraction == 0.1
    assert abs(row.btb_resteer_share_of_frontend - 500.0 / 800.0) < 1e-9


def test_topdown_report_aggregates():
    traces = [get_trace("server_oltp_00", "tiny")]
    report = topdown_report(traces, warmup_fraction=0.2)
    assert len(report.rows) == 1
    assert 0.0 < report.mean_frontend_bound < 1.0
    assert 0.0 <= report.mean_btb_resteer_share <= 1.0


def test_empty_report_guards():
    report = TopDownReport()
    assert report.mean_frontend_bound == 0.0
    assert report.mean_btb_resteer_share == 0.0
