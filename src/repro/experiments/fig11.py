"""Figure 11: ablation ladder, lookup-latency study, two-level BTBs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PDedeMode, paper_config
from repro.experiments.designs import (
    baseline_design,
    dedup_only_design,
    partition_only_design,
    pdede_design,
    two_level_design,
)
from repro.experiments.harness import SuiteResult, format_table, percent, run_suite
from repro.frontend.params import CoreParams, ICELAKE


@dataclass
class Fig11aResult:
    """The technique ladder: dedup -> +partition -> +delta -> MT / ME."""

    results: dict[str, SuiteResult] = field(default_factory=dict)

    def ladder(self) -> list[tuple[str, float]]:
        order = [
            "dedup-only",
            "partition-only",
            "pdede-default",
            "pdede-multi-target",
            "pdede-multi-entry",
        ]
        return [
            (key, self.results[key].mean_speedup() - 1.0)
            for key in order
            if key in self.results
        ]

    def render(self) -> str:
        rows = [[key, percent(gain)] for key, gain in self.ladder()]
        return format_table(
            ["technique", "IPC gain over baseline"],
            rows,
            title="Figure 11a: contribution of each technique",
        )


def run_fig11a(scale: str | None = None, params: CoreParams = ICELAKE) -> Fig11aResult:
    baseline = baseline_design()
    designs = [
        dedup_only_design(),
        partition_only_design(),
        pdede_design(PDedeMode.DEFAULT),
        pdede_design(PDedeMode.MULTI_TARGET),
        pdede_design(PDedeMode.MULTI_ENTRY),
    ]
    result = Fig11aResult()
    for design in designs:
        result.results[design.key] = run_suite(design, baseline, params=params, scale=scale)
    return result


@dataclass
class Fig11bResult:
    """Latency sensitivity: always-2-cycle BTB and fetch-queue sweep."""

    default_gain: float = 0.0
    always_two_cycle_gain: float = 0.0
    fetch_queue_gains: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [["default (delta bypass)", percent(self.default_gain)],
                ["always 2-cycle lookup", percent(self.always_two_cycle_gain)]]
        rows += [
            [f"fetch queue = {entries}", percent(gain)]
            for entries, gain in sorted(self.fetch_queue_gains.items())
        ]
        return format_table(
            ["configuration", "PDede-ME IPC gain"],
            rows,
            title="Figure 11b: lookup-latency and fetch-queue sensitivity",
        )


def run_fig11b(
    scale: str | None = None,
    params: CoreParams = ICELAKE,
    fetch_queue_sizes: tuple[int, ...] = (32, 64, 128),
) -> Fig11bResult:
    baseline = baseline_design()
    result = Fig11bResult()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    result.default_gain = run_suite(me, baseline, params=params, scale=scale).mean_speedup() - 1.0

    two_cycle_config = paper_config(PDedeMode.MULTI_ENTRY).replace(always_two_cycle=True)
    two_cycle = pdede_design(
        PDedeMode.MULTI_ENTRY, config=two_cycle_config, key="pdede-multi-entry-2cyc"
    )
    result.always_two_cycle_gain = (
        run_suite(two_cycle, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )

    for entries in fetch_queue_sizes:
        sized = params.with_fetch_queue(entries)
        gain = run_suite(me, baseline, params=sized, scale=scale).mean_speedup() - 1.0
        result.fetch_queue_gains[entries] = gain
    return result


@dataclass
class Fig11cResult:
    """Two-level BTBs: PDede as the L1, across L0 sizes."""

    gains_by_l0: dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [f"L0 = {entries} entries", percent(gain)]
            for entries, gain in sorted(self.gains_by_l0.items())
        ]
        return format_table(
            ["configuration", "IPC gain (PDede L1 vs conventional L1)"],
            rows,
            title="Figure 11c: two-level BTB with a PDede L1",
        )


def run_fig11c(
    scale: str | None = None,
    params: CoreParams = ICELAKE,
    l0_sizes: tuple[int, ...] = (256, 512, 1024),
) -> Fig11cResult:
    result = Fig11cResult()
    for entries in l0_sizes:
        conventional_l1 = baseline_design(entries=4096, key="l1-baseline", latency=1)
        pdede_l1 = pdede_design(PDedeMode.MULTI_ENTRY, key="l1-pdede")
        baseline_hierarchy = two_level_design(entries, conventional_l1)
        pdede_hierarchy = two_level_design(entries, pdede_l1)
        suite = run_suite(pdede_hierarchy, baseline_hierarchy, params=params, scale=scale)
        result.gains_by_l0[entries] = suite.mean_speedup() - 1.0
    return result
