"""Experiment runners for Figure 1 and the Section 3 figures (3-8)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import (
    aggregate_mean,
    branch_type_mix,
    density_stats,
    distance_stats,
    runtime_series,
    taken_stats,
    topdown_report,
    uniqueness_stats,
)
from repro.analysis.topdown import TopDownReport
from repro.experiments.harness import format_table, percent
from repro.workloads.suite import build_suite, current_scale, get_trace


def _suite_traces(scale: str | None):
    scale = scale or current_scale()
    return [get_trace(spec.name, scale) for spec in build_suite(scale)]


@dataclass
class Fig1Result:
    """Figure 1: frontend stalls and the BTB-resteer share."""

    report: TopDownReport

    def render(self) -> str:
        rows = [
            [
                row.name,
                row.category,
                percent(row.frontend_bound_fraction),
                percent(row.bad_speculation_fraction),
                percent(row.btb_resteer_share_of_frontend),
            ]
            for row in self.report.rows
        ]
        rows.append(
            [
                "MEAN",
                "",
                percent(self.report.mean_frontend_bound),
                "",
                percent(self.report.mean_btb_resteer_share),
            ]
        )
        return format_table(
            ["app", "category", "frontend-bound", "bad-spec", "BTB share of FE stalls"],
            rows,
            title="Figure 1: Top-Down frontend stall breakdown (baseline BTB)",
        )


def run_fig1(scale: str | None = None) -> Fig1Result:
    """Reproduce Figure 1 on the active suite."""
    return Fig1Result(report=topdown_report(_suite_traces(scale)))


@dataclass
class Fig3Result:
    rows: list

    @property
    def mean_static(self) -> float:
        return aggregate_mean(r.static_taken_fraction for r in self.rows)

    @property
    def mean_dynamic(self) -> float:
        return aggregate_mean(r.dynamic_taken_fraction for r in self.rows)

    def render(self) -> str:
        body = [
            [r.name, percent(r.static_taken_fraction), percent(r.dynamic_taken_fraction)]
            for r in self.rows
        ]
        body.append(["MEAN", percent(self.mean_static), percent(self.mean_dynamic)])
        return format_table(
            ["app", "static taken", "dynamic taken"],
            body,
            title="Figure 3: taken-branch fractions",
        )


def run_fig3(scale: str | None = None) -> Fig3Result:
    return Fig3Result(rows=[taken_stats(trace) for trace in _suite_traces(scale)])


@dataclass
class Fig4Result:
    rows: list

    def mean_fractions(self) -> dict[str, float]:
        keys = sorted({key for row in self.rows for key in row.fractions})
        return {
            key: aggregate_mean(row.fractions.get(key, 0.0) for row in self.rows)
            for key in keys
        }

    def render(self) -> str:
        means = self.mean_fractions()
        body = [[kind, percent(fraction)] for kind, fraction in means.items()]
        return format_table(
            ["branch kind", "share of taken branches"],
            body,
            title="Figure 4: branch type mix (suite mean)",
        )


def run_fig4(scale: str | None = None) -> Fig4Result:
    return Fig4Result(rows=[branch_type_mix(trace) for trace in _suite_traces(scale)])


@dataclass
class Fig5Result:
    series: object

    def render(self) -> str:
        s = self.series
        return (
            f"Figure 5: runtime target-component series for {s.name}\n"
            f"samples={len(s.sample_indices)} distinct regions={s.distinct_regions()} "
            f"distinct pages={s.distinct_pages()}\n"
            "(regions/pages/offsets series available on the result object)"
        )


def run_fig5(app: str = "browser_js_static_analyzer", scale: str | None = None) -> Fig5Result:
    """Figure 5's runtime plot for one browser application."""
    return Fig5Result(series=runtime_series(get_trace(app, scale or current_scale())))


@dataclass
class Fig6Result:
    rows: list

    @property
    def mean_targets_per_page(self) -> float:
        return aggregate_mean(r.targets_per_page for r in self.rows)

    @property
    def mean_targets_per_region(self) -> float:
        return aggregate_mean(r.targets_per_region for r in self.rows)

    def render(self) -> str:
        body = [
            [r.name, f"{r.targets_per_page:.1f}", f"{r.targets_per_region:.0f}"]
            for r in self.rows
        ]
        body.append(
            ["MEAN", f"{self.mean_targets_per_page:.1f}", f"{self.mean_targets_per_region:.0f}"]
        )
        return format_table(
            ["app", "targets/page", "targets/region"],
            body,
            title="Figure 6: target density per page and region",
        )


def run_fig6(scale: str | None = None) -> Fig6Result:
    return Fig6Result(rows=[density_stats(trace) for trace in _suite_traces(scale)])


@dataclass
class Fig7Result:
    rows: list

    def means(self) -> dict[str, float]:
        return {
            "targets": aggregate_mean(r.target_fraction for r in self.rows),
            "regions": aggregate_mean(r.region_fraction for r in self.rows),
            "pages": aggregate_mean(r.page_fraction for r in self.rows),
            "offsets": aggregate_mean(r.offset_fraction for r in self.rows),
        }

    def render(self) -> str:
        means = self.means()
        body = [[k, percent(v, 2)] for k, v in means.items()]
        return format_table(
            ["component", "unique count / unique branch PCs"],
            body,
            title="Figure 7: uniqueness of targets and their components",
        )


def run_fig7(scale: str | None = None) -> Fig7Result:
    return Fig7Result(rows=[uniqueness_stats(trace) for trace in _suite_traces(scale)])


@dataclass
class Fig8Result:
    rows: list

    @property
    def mean_same_page(self) -> float:
        return aggregate_mean(r.same_page_fraction for r in self.rows)

    def mean_buckets(self) -> dict[str, float]:
        keys = list(self.rows[0].buckets) if self.rows else []
        return {
            key: aggregate_mean(row.buckets.get(key, 0.0) for row in self.rows)
            for key in keys
        }

    def render(self) -> str:
        body = [[k, percent(v)] for k, v in self.mean_buckets().items()]
        return format_table(
            ["PC-to-target distance", "share of taken branches"],
            body,
            title="Figure 8: branch-PC-to-target page distance (suite mean)",
        )


def run_fig8(scale: str | None = None) -> Fig8Result:
    return Fig8Result(rows=[distance_stats(trace) for trace in _suite_traces(scale)])
