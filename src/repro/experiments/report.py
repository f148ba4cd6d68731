"""Full-evaluation report generator (the EXPERIMENTS.md engine).

Runs every experiment of the paper's evaluation at the requested scale
and emits a markdown report with paper-vs-measured values.  Used by
``python -m repro report`` and to regenerate ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments import characterization, fig10, fig11, fig12, sensitivity, tables
from repro.experiments import scheduler
from repro.experiments.harness import cache_info, engine_mix, percent, slowest_runs
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.workloads.suite import SCALES, current_scale


@dataclass
class ReportSection:
    experiment_id: str
    title: str
    paper_claim: str
    measured: str
    body: str
    seconds: float = 0.0

    def render(self) -> str:
        return (
            f"## {self.experiment_id}: {self.title}\n\n"
            f"*Paper:* {self.paper_claim}\n\n"
            f"*Measured:* {self.measured}\n\n"
            "```\n"
            f"{self.body}\n"
            "```\n"
        )


@dataclass
class EvaluationReport:
    scale: str
    sections: list[ReportSection] = field(default_factory=list)
    #: Run telemetry captured by generate_report (cache hit rate, slowest
    #: simulations); rendered as the report's appendix.
    telemetry: dict | None = None
    #: Scheduler tasks that exhausted their retries during this run
    #: (:class:`repro.experiments.scheduler.TaskFailure`).  Their groups
    #: were re-run inline by the harness, so result rows are complete;
    #: the appendix records the degradation anyway.
    failures: list = field(default_factory=list)

    def render(self) -> str:
        counts, events = SCALES[self.scale]
        header = (
            "# EXPERIMENTS — paper vs measured\n\n"
            "Generated by `python -m repro report`.\n\n"
            f"Suite scale: `{self.scale}` "
            f"({sum(counts.values())} applications, {events:,}-event traces; "
            "the paper uses 102 applications at 10M+ instructions after "
            "100M+ warmup).  Absolute IPC/MPKI differ from the paper's "
            "silicon-correlated simulator by design; the claims below are "
            "about the *shape*: orderings, approximate factors, and "
            "crossovers.\n"
        )
        body = header + "\n" + "\n".join(s.render() for s in self.sections)
        if self.telemetry:
            body += self._render_telemetry()
        if self.failures:
            body += self._render_failures()
        return body

    def _render_failures(self) -> str:
        lines = [
            "\n## Scheduler failures\n",
            f"{len(self.failures)} task(s) exhausted their retries; the "
            "affected (app, design) groups were re-run serially, so every "
            "result above is complete.\n",
            "| task | kind | attempts | error |",
            "|---|---|---|---|",
        ]
        for failure in self.failures:
            message = failure.message.replace("|", "\\|")
            lines.append(
                f"| {failure.task_id} | {failure.kind} | {failure.attempts} "
                f"| {message} |"
            )
        return "\n".join(lines) + "\n"

    def _render_telemetry(self) -> str:
        info = self.telemetry
        lines = [
            "\n## Run telemetry\n",
            f"Total wall time: {info['total_seconds']:.1f}s over "
            f"{len(self.sections)} sections.  Result cache: "
            f"{info['cache']['hits']} hits / {info['cache']['misses']} misses "
            f"({info['cache']['hit_rate']:.0%} hit rate, "
            f"{info['cache']['size']} entries).\n",
            "| section | seconds |",
            "|---|---|",
        ]
        ranked = sorted(self.sections, key=lambda s: -s.seconds)
        for section in ranked[: info.get("top_sections", 8)]:
            lines.append(f"| {section.experiment_id} | {section.seconds:.1f} |")
        if info.get("slowest_runs"):
            lines.append("\nSlowest fresh simulations (app × design):\n")
            lines.append("| app | design | seconds |")
            lines.append("|---|---|---|")
            for app, design, seconds in info["slowest_runs"]:
                lines.append(f"| {app} | {design} | {seconds:.2f} |")
        if info.get("engines"):
            mix = ", ".join(
                f"{engine} {row['runs']} runs "
                f"(median {row['events_per_sec_median']:,.0f} events/s)"
                for engine, row in info["engines"].items()
            )
            lines.append(f"\nFresh simulations by engine tier: {mix}.\n")
        if info.get("latency"):
            latency = info["latency"]
            lines.append(
                "\nFresh-simulation latency (bucket-interpolated, across "
                f"{latency['count']} runs): "
                f"p50 {latency['p50']:.2f}s · p95 {latency['p95']:.2f}s · "
                f"p99 {latency['p99']:.2f}s.\n"
            )
        return "\n".join(lines) + "\n"


def _timed(experiment_id: str, fn, *args, **kwargs):
    """Run one experiment under an ``experiment`` span, returning
    (result, seconds)."""
    with obs_events.span("experiment", id=experiment_id):
        start = time.time()
        result = fn(*args, **kwargs)
        return result, time.time() - start


def generate_report(scale: str | None = None, progress=None) -> EvaluationReport:
    """Run the complete evaluation matrix and build the report.

    Args:
        scale: suite scale (defaults to ``REPRO_SCALE``).
        progress: optional callable invoked with each section id as it
            completes (the CLI uses it for status lines).
    """
    scale = scale or current_scale()
    report = EvaluationReport(scale=scale)

    def add(section: ReportSection) -> None:
        report.sections.append(section)
        if progress is not None:
            progress(section.experiment_id, section.seconds)

    result, seconds = _timed("fig1", characterization.run_fig1, scale=scale)
    add(ReportSection(
        "fig1", "Top-Down frontend stalls",
        "frontend stalls dominate these applications; BTB-induced "
        "resteers are the largest contributor (>40% of frontend stalls).",
        f"mean frontend-bound {percent(result.report.mean_frontend_bound)}; "
        f"BTB resteers {percent(result.report.mean_btb_resteer_share)} of "
        "frontend stalls.",
        result.render(), seconds))

    result, seconds = _timed("fig3", characterization.run_fig3, scale=scale)
    add(ReportSection(
        "fig3", "Taken-branch fractions",
        "branches are taken more than 50% of the time, statically and dynamically.",
        f"static {percent(result.mean_static)}, dynamic {percent(result.mean_dynamic)}.",
        result.render(), seconds))

    result, seconds = _timed("fig4", characterization.run_fig4, scale=scale)
    mix = result.mean_fractions()
    add(ReportSection(
        "fig4", "Branch type mix",
        "skewed to conditional/unconditional direct; all types frequent "
        "enough to matter (indirects ~10% of dynamic branches).",
        ", ".join(f"{k} {percent(v)}" for k, v in mix.items()),
        result.render(), seconds))

    result, seconds = _timed("fig5", characterization.run_fig5, scale=scale)
    series = result.series
    add(ReportSection(
        "fig5", "Runtime region/page locality",
        "applications execute from few regions with strong temporal "
        "locality; pages are ~100x more numerous than regions.",
        f"{series.distinct_regions()} regions vs {series.distinct_pages()} pages "
        f"for {series.name}.",
        result.render(), seconds))

    result, seconds = _timed("fig6", characterization.run_fig6, scale=scale)
    add(ReportSection(
        "fig6", "Targets per page/region",
        "~18 branch targets per page, ~2200 per region.",
        f"{result.mean_targets_per_page:.1f} per page, "
        f"{result.mean_targets_per_region:.0f} per region.",
        result.render(), seconds))

    result, seconds = _timed("fig7", characterization.run_fig7, scale=scale)
    means = result.means()
    add(ReportSection(
        "fig7", "Uniqueness of targets and components",
        "unique targets 67% of branch PCs; regions 0.07%, pages 5%, offsets 18%.",
        f"targets {percent(means['targets'])}, regions {percent(means['regions'], 2)}, "
        f"pages {percent(means['pages'])}, offsets {percent(means['offsets'])}.",
        result.render(), seconds))

    result, seconds = _timed("fig8", characterization.run_fig8, scale=scale)
    add(ReportSection(
        "fig8", "Branch-PC-to-target distance",
        "over 60% of branches have PC and target in the same page.",
        f"same-page {percent(result.mean_same_page)}.",
        result.render(), seconds))

    result, seconds = _timed("tab2", tables.run_table2)
    rows = {row.name: row for row in result.rows}
    add(ReportSection(
        "tab2", "Storage requirements",
        "PDede configurations match the 37.5 KiB baseline as closely as possible.",
        "; ".join(f"{name} {row.total_kib:.1f} KiB" for name, row in rows.items()),
        result.render(), seconds))

    result, seconds = _timed("tab4", tables.run_table4)
    add(ReportSection(
        "tab4", "Access latency (22nm)",
        "baseline 0.24/0.72 ns; BTBM alone faster than baseline; "
        "BTBM+Page-BTB chain 0.30/0.71 ns (one extra cycle at 3.9 GHz).",
        "; ".join(
            f"{name} {ports[1]:.2f}/{ports[6]:.2f} ns"
            for name, ports in result.entries.items()
        ),
        result.render(), seconds))

    result, seconds = _timed("fig10", fig10.run_fig10, scale=scale)
    speed = result.mean_speedups()
    mpki = result.mean_mpki_reductions()
    curve = result.per_app_gain_curve()
    add(ReportSection(
        "fig10", "IPC and MPKI of the PDede designs",
        "Default +9.4% IPC / -35.4% MPKI; Multi-Target +11.4% / -40%; "
        "Multi-Entry +14.4% / -54.7%; per-app gains 3%..76%; a 50%-larger "
        "baseline lands in the Default gain class.",
        "; ".join(
            f"{key} {percent(speed[key] - 1)} IPC / {percent(mpki[key])} MPKI"
            for key in speed
        )
        + f"; per-app {percent(curve[0][1])}..{percent(curve[-1][1])}.",
        result.render(), seconds))

    result, seconds = _timed("fig11a", fig11.run_fig11a, scale=scale)
    add(ReportSection(
        "fig11a", "Technique ladder",
        "dedup alone 1.6%; +partitioning 6.9%; +delta 9.4%; "
        "multi-target 11.4%; multi-entry 14.4% (cumulative IPC gains).",
        "; ".join(f"{key} {percent(gain)}" for key, gain in result.ladder()),
        result.render(), seconds))

    result, seconds = _timed("fig11b", fig11.run_fig11b, scale=scale)
    add(ReportSection(
        "fig11b", "Lookup latency & fetch queue",
        "always-2-cycle lowers 14.4% to 13.4%; gains grow with fetch "
        "queue depth (12.7% small to 15.4% at 128).",
        f"default {percent(result.default_gain)}, always-2-cycle "
        f"{percent(result.always_two_cycle_gain)}; "
        + ", ".join(
            f"fq{entries} {percent(gain)}"
            for entries, gain in sorted(result.fetch_queue_gains.items())
        ),
        result.render(), seconds))

    result, seconds = _timed("fig11c", fig11.run_fig11c, scale=scale)
    add(ReportSection(
        "fig11c", "Two-level BTB",
        "PDede-ifying only the L1 still provides significant gains at "
        "every L0 size.",
        ", ".join(
            f"L0={entries}: {percent(gain)}"
            for entries, gain in sorted(result.gains_by_l0.items())
        ),
        result.render(), seconds))

    result, seconds = _timed("fig12a", fig12.run_fig12a, scale=scale)
    add(ReportSection(
        "fig12a", "Comparison to Shotgun",
        "Shotgun gains ~0.8% iso-storage / ~2.7% at 45KB; far below PDede.",
        f"Shotgun iso {percent(result.shotgun_iso_gain)}, 45KB "
        f"{percent(result.shotgun_45k_gain)}, PDede {percent(result.pdede_gain)}.",
        result.render(), seconds))

    result, seconds = _timed("fig12b", fig12.run_fig12b, scale=scale)
    add(ReportSection(
        "fig12b", "Larger BTB capacities",
        "gains persist but shrink as working sets fit (3.3% at 16K entries).",
        ", ".join(
            f"{entries}: {percent(gain)}"
            for entries, gain in sorted(result.gains_by_size.items())
        ),
        result.render(), seconds))

    result, seconds = _timed("fig12c", fig12.run_fig12c, scale=scale)
    add(ReportSection(
        "fig12c", "Iso-MPKI storage savings",
        "smallest iso-MPKI PDede needs 19KB -- 49% below the baseline.",
        f"{result.chosen} at {result.chosen_kib:.1f} KiB "
        f"({percent(result.saving_fraction)} saving).",
        result.render(), seconds))

    result, seconds = _timed("s5.5", sensitivity.run_perfect_direction, scale=scale)
    add(ReportSection(
        "s5.5", "Perfect direction predictor",
        "gain rises from 14.4% to 15.2% with an oracle direction predictor.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("s5.6", sensitivity.run_ittage, scale=scale)
    add(ReportSection(
        "s5.6", "ITTAGE indirect predictor",
        "with a 64KB ITTAGE owning indirects, PDede still gains 13.9%.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("s5.7", sensitivity.run_returns_in_btb, scale=scale)
    add(ReportSection(
        "s5.7", "Returns stored in the BTB",
        "13.7% gain when return targets live in the BTB instead of a RAS.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("s5.11", sensitivity.run_future_pipelines, scale=scale)
    add(ReportSection(
        "s5.11", "Deeper future pipelines",
        "gains grow to 16.8% (1.5x) and 20.1% (2x Icelake-like cores).",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ablation-replacement", sensitivity.run_replacement_ablation, scale=scale)
    add(ReportSection(
        "ablation-replacement", "Replacement policy (DESIGN.md extra)",
        "the paper uses SRRIP throughout; this quantifies the choice.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ablation-stale", sensitivity.run_stale_pointer_ablation, scale=scale)
    add(ReportSection(
        "ablation-stale", "Stale pointer handling (DESIGN.md extra)",
        "the paper leaves dangling pointers (0.06% wrong targets) rather "
        "than adding invalidation hardware.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ablation-tags", sensitivity.run_tag_width_ablation, scale=scale)
    add(ReportSection(
        "ablation-tags", "BTBM tag width (DESIGN.md extra)",
        "12-bit hashed partial tags keep aliasing resteers negligible.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("alt-multitag", sensitivity.run_multitag_alternative, scale=scale)
    add(ReportSection(
        "alt-multitag", "Rejected multi-tag alternative (Section 4.2)",
        "the paper rejects per-entry tag lists in the Page/Region-BTBs: "
        "tag overhead plus a static limit on sharing.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ext-next-tag", sensitivity.run_next_target_tag_extension, scale=scale)
    add(ReportSection(
        "ext-next-tag", "Tagged next-target provisions (Section 4.3.1 future work)",
        "'adding simple tags to provide targets beyond the next taken "
        "branch' -- the guard variant of that idea.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ext-prefetch", sensitivity.run_prefetch_complement, scale=scale)
    add(ReportSection(
        "ext-prefetch", "PDede + temporal BTB prefetching (Section 5.10)",
        "'PDede can definitely complement ... BTB prefetching techniques'.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ext-ghrp", sensitivity.run_ghrp_combination, scale=scale)
    add(ReportSection(
        "ext-ghrp", "GHRP predictive replacement (related work)",
        "GHRP 'is again orthogonal to our work and can be combined with PDede'.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    result, seconds = _timed("ext-multiprog", sensitivity.run_multiprogramming, scale=scale)
    add(ReportSection(
        "ext-multiprog", "Multiprogramming (the PID bit's scenario)",
        "not evaluated in the paper; per-entry PID bits exist for "
        "timeshared cores, where consolidated working sets raise BTB "
        "pressure -- PDede's best case.",
        "; ".join(f"{k} {percent(v)}" for k, v in result.gains.items()),
        result.render(), seconds))

    report.telemetry = {
        "total_seconds": sum(section.seconds for section in report.sections),
        "cache": cache_info(),
        "slowest_runs": slowest_runs(5),
        "engines": engine_mix(),
    }
    # With a recording registry active (--metrics-out), fold the fresh-
    # simulation latency histogram into the appendix as percentiles.
    histogram = get_registry().get("harness_simulation_seconds")
    if histogram is not None and histogram.to_dict().get("series"):
        report.telemetry["latency"] = {
            "count": sum(
                series["count"] for series in histogram.to_dict()["series"]
            ),
            "p50": histogram.percentile(50),
            "p95": histogram.percentile(95),
            "p99": histogram.percentile(99),
        }
    report.failures = scheduler.drain_failures()
    return report
