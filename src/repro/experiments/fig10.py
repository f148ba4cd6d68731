"""Figure 10: the headline IPC and MPKI comparison.

Three panels:

* 10a -- mean BTB-MPKI reduction per PDede design (and per category);
* 10b -- mean IPC speedup per PDede design, plus the 50%-larger
  baseline reference the text discusses;
* 10c -- the per-application IPC-gain curve (sorted), highlighting the
  named applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.designs import baseline_design, standard_designs
from repro.experiments.harness import SuiteResult, format_table, percent, run_suite
from repro.frontend.params import CoreParams, ICELAKE


@dataclass
class Fig10Result:
    """All three Figure 10 panels."""

    results: dict[str, SuiteResult] = field(default_factory=dict)

    def mean_speedups(self) -> dict[str, float]:
        return {key: result.mean_speedup() for key, result in self.results.items()}

    def mean_mpki_reductions(self) -> dict[str, float]:
        return {key: result.mean_mpki_reduction() for key, result in self.results.items()}

    def per_app_gain_curve(self, design: str = "pdede-multi-entry") -> list[tuple[str, float]]:
        """Figure 10c: sorted per-application IPC gains."""
        speedups = self.results[design].speedups()
        return sorted(((name, value - 1.0) for name, value in speedups.items()),
                      key=lambda item: item[1])

    def render(self) -> str:
        headers = ["design", "mean IPC gain", "mean MPKI reduction"]
        rows = [
            [key, percent(result.mean_speedup() - 1.0), percent(result.mean_mpki_reduction())]
            for key, result in self.results.items()
        ]
        parts = [format_table(headers, rows, title="Figure 10a/b: suite means")]
        category_rows = []
        for key, result in self.results.items():
            for category, speedup in sorted(result.category_mean_speedup().items()):
                reduction = result.category_mean_mpki_reduction()[category]
                category_rows.append([key, category, percent(speedup - 1.0), percent(reduction)])
        parts.append(
            format_table(
                ["design", "category", "IPC gain", "MPKI reduction"],
                category_rows,
                title="Figure 10a/b: per-category breakdown",
            )
        )
        curve = self.per_app_gain_curve()
        curve_rows = [[name, percent(gain)] for name, gain in curve]
        parts.append(
            format_table(
                ["app", "PDede-Multi-Entry IPC gain"],
                curve_rows,
                title="Figure 10c: per-application gain curve",
            )
        )
        return "\n\n".join(parts)


def run_fig10(
    scale: str | None = None,
    params: CoreParams = ICELAKE,
    include_larger_baseline: bool = True,
) -> Fig10Result:
    """Run the Figure 10 design matrix over the active suite."""
    baseline = baseline_design()
    result = Fig10Result()
    for key, design in standard_designs().items():
        if key == "baseline":
            continue
        result.results[key] = run_suite(design, baseline, params=params, scale=scale)
    if include_larger_baseline:
        larger = baseline_design(entries=6144, key="baseline-6144")
        result.results["baseline-150pct"] = run_suite(
            larger, baseline, params=params, scale=scale
        )
    return result
