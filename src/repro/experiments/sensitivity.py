"""Sensitivity studies: Sections 5.5, 5.6, 5.7, 5.11 and DESIGN.md ablations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PDedeMode, paper_config
from repro.experiments.designs import (
    baseline_design,
    ghrp_design,
    multitag_design,
    pdede_design,
    with_ittage,
    with_perfect_direction,
    with_returns_in_btb,
    with_temporal_prefetch,
)
from repro.experiments.harness import format_table, percent, run_suite
from repro.frontend.params import CoreParams, ICELAKE


@dataclass
class SensitivityResult:
    """Generic single-axis sensitivity outcome."""

    title: str
    gains: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [[label, percent(gain)] for label, gain in self.gains.items()]
        return format_table(["configuration", "PDede-ME IPC gain"], rows, title=self.title)


def run_perfect_direction(scale: str | None = None, params: CoreParams = ICELAKE) -> SensitivityResult:
    """Section 5.5: PDede under a perfect direction predictor."""
    result = SensitivityResult(title="Section 5.5: perfect direction predictor")
    baseline = baseline_design()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    result.gains["default predictor"] = (
        run_suite(me, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    result.gains["perfect predictor"] = (
        run_suite(
            with_perfect_direction(me),
            with_perfect_direction(baseline),
            params=params,
            scale=scale,
        ).mean_speedup()
        - 1.0
    )
    return result


def ittage_designs() -> dict:
    """Section 5.6's designs by key: multi-entry PDede and the baseline,
    neither allocating indirect branches, each with ITTAGE attached."""
    baseline = baseline_design(key="baseline-no-ind", allocate_indirect=False)
    config = paper_config(PDedeMode.MULTI_ENTRY).replace(allocate_indirect=False)
    me = pdede_design(PDedeMode.MULTI_ENTRY, config=config, key="pdede-me-no-ind")
    return {design.key: design for design in (with_ittage(me), with_ittage(baseline))}


def run_ittage(scale: str | None = None, params: CoreParams = ICELAKE) -> SensitivityResult:
    """Section 5.6: +64KB ITTAGE; indirects bypass the BTB entirely."""
    result = SensitivityResult(title="Section 5.6: impact of an ITTAGE indirect predictor")
    baseline = baseline_design()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    result.gains["no ITTAGE"] = (
        run_suite(me, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    me_ittage, baseline_ittage = ittage_designs().values()
    result.gains["with ITTAGE"] = (
        run_suite(me_ittage, baseline_ittage, params=params, scale=scale).mean_speedup()
        - 1.0
    )
    return result


def run_returns_in_btb(scale: str | None = None, params: CoreParams = ICELAKE) -> SensitivityResult:
    """Section 5.7: returns stored in the BTB instead of a RAS."""
    result = SensitivityResult(title="Section 5.7: storing return targets in the BTB")
    baseline = baseline_design()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    result.gains["returns via RAS"] = (
        run_suite(me, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    result.gains["returns in BTB"] = (
        run_suite(
            with_returns_in_btb(me),
            with_returns_in_btb(baseline),
            params=params,
            scale=scale,
        ).mean_speedup()
        - 1.0
    )
    return result


def run_future_pipelines(
    scale: str | None = None,
    params: CoreParams = ICELAKE,
    factors: tuple[float, ...] = (1.0, 1.5, 2.0),
) -> SensitivityResult:
    """Section 5.11: wider/deeper future cores amplify PDede's gains."""
    result = SensitivityResult(title="Section 5.11: PDede on deeper future pipelines")
    baseline = baseline_design()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    for factor in factors:
        scaled = params.scaled_pipeline(factor)
        gain = run_suite(me, baseline, params=scaled, scale=scale).mean_speedup() - 1.0
        result.gains[f"{factor:.1f}x pipeline"] = gain
    return result


def run_replacement_ablation(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """DESIGN.md ablation: SRRIP vs LRU vs random in the PDede tables."""
    result = SensitivityResult(title="Ablation: replacement policy in PDede structures")
    baseline = baseline_design()
    for policy in ("srrip", "lru", "random", "fifo"):
        config = paper_config(PDedeMode.MULTI_ENTRY).replace(replacement=policy)
        design = pdede_design(
            PDedeMode.MULTI_ENTRY, config=config, key=f"pdede-me-{policy}"
        )
        gain = run_suite(design, baseline, params=params, scale=scale).mean_speedup() - 1.0
        result.gains[policy] = gain
    return result


def run_stale_pointer_ablation(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """DESIGN.md ablation: dangling pointers vs eager BTBM invalidation."""
    result = SensitivityResult(title="Ablation: stale Region/Page pointer handling")
    baseline = baseline_design()
    dangling = pdede_design(PDedeMode.MULTI_ENTRY)
    invalidating_config = paper_config(PDedeMode.MULTI_ENTRY).replace(
        invalidate_stale_pointers=True
    )
    invalidating = pdede_design(
        PDedeMode.MULTI_ENTRY, config=invalidating_config, key="pdede-me-invalidate"
    )
    result.gains["dangling pointers (paper)"] = (
        run_suite(dangling, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    result.gains["eager invalidation"] = (
        run_suite(invalidating, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    return result


def run_multitag_alternative(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """Section 4.2's rejected alternative: multi-tag Page/Region sharing.

    The paper chose the BTBM indirection over per-entry tag lists; this
    quantifies the choice at comparable storage.
    """
    result = SensitivityResult(title="Ablation: BTBM indirection vs multi-tag sharing")
    baseline = baseline_design()
    result.gains["pdede (BTBM indirection)"] = (
        run_suite(pdede_design(PDedeMode.DEFAULT), baseline, params=params, scale=scale)
        .mean_speedup() - 1.0
    )
    result.gains["multi-tag alternative"] = (
        run_suite(multitag_design(), baseline, params=params, scale=scale)
        .mean_speedup() - 1.0
    )
    return result


def run_next_target_tag_extension(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """Section 4.3.1 future work: tag-guarded Next Target provisions."""
    result = SensitivityResult(title="Extension: tagged next-target provisions")
    baseline = baseline_design()
    result.gains["untagged (paper)"] = (
        run_suite(pdede_design(PDedeMode.MULTI_TARGET), baseline, params=params, scale=scale)
        .mean_speedup() - 1.0
    )
    tagged_config = paper_config(PDedeMode.MULTI_TARGET).replace(next_target_tag_bits=4)
    tagged = pdede_design(
        PDedeMode.MULTI_TARGET, config=tagged_config, key="pdede-mt-tagged"
    )
    result.gains["4-bit next tag"] = (
        run_suite(tagged, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    return result


def run_prefetch_complement(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """Section 5.10's closing claim: PDede complements BTB prefetching.

    Compares the baseline and PDede-ME with and without a temporal
    (Twig/Phantom-style) prefetcher layered on top; every gain is
    relative to the plain baseline BTB.
    """
    result = SensitivityResult(title="Extension: PDede + temporal BTB prefetching")
    baseline = baseline_design()
    me = pdede_design(PDedeMode.MULTI_ENTRY)
    result.gains["baseline + prefetch"] = (
        run_suite(with_temporal_prefetch(baseline), baseline, params=params, scale=scale)
        .mean_speedup() - 1.0
    )
    result.gains["pdede-me"] = (
        run_suite(me, baseline, params=params, scale=scale).mean_speedup() - 1.0
    )
    result.gains["pdede-me + prefetch"] = (
        run_suite(with_temporal_prefetch(me), baseline, params=params, scale=scale)
        .mean_speedup() - 1.0
    )
    return result


def run_ghrp_combination(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """Related-work claim: predictive replacement (GHRP) is orthogonal.

    GHRP attacks the same storage-efficiency problem from the replacement
    side; PDede from the encoding side.  Both gains are reported relative
    to the plain baseline.
    """
    result = SensitivityResult(title="Extension: GHRP predictive replacement vs PDede")
    baseline = baseline_design()
    result.gains["ghrp baseline"] = (
        run_suite(ghrp_design(), baseline, params=params, scale=scale).mean_speedup()
        - 1.0
    )
    result.gains["pdede-me"] = (
        run_suite(pdede_design(PDedeMode.MULTI_ENTRY), baseline, params=params,
                  scale=scale).mean_speedup() - 1.0
    )
    return result


def run_multiprogramming(
    scale: str | None = None,
    params: CoreParams = ICELAKE,
    quantum_events: int = 2000,
) -> SensitivityResult:
    """Consolidation study: two programs timesharing one core.

    Interleaves pairs of suite traces in scheduling quanta (the scenario
    the per-entry PID bit exists for) and measures PDede's gain on the
    union working set -- capacity pressure at its worst.
    """
    from repro.frontend.simulator import FrontendSimulator
    from repro.workloads.mixing import interleave_traces
    from repro.workloads.suite import build_suite, current_scale, get_trace

    scale = scale or current_scale()
    specs = build_suite(scale)
    by_category: dict[str, str] = {}
    for spec in specs:
        by_category.setdefault(spec.category, spec.name)
    pairs = []
    names = [by_category[c] for c in ("Server", "Browser", "BP", "Personal")
             if c in by_category]
    for first, second in zip(names, names[1:]):
        pairs.append((first, second))
    result = SensitivityResult(title="Extension: PDede under multiprogramming")
    for first, second in pairs:
        mixed = interleave_traces(
            [get_trace(first, scale), get_trace(second, scale)],
            quantum_events=quantum_events,
        )
        base_stats = FrontendSimulator(
            baseline_design().build()[0], params=params
        ).run(mixed, warmup_fraction=0.3)
        pdede_stats = FrontendSimulator(
            pdede_design(PDedeMode.MULTI_ENTRY).build()[0], params=params
        ).run(mixed, warmup_fraction=0.3)
        result.gains[mixed.name] = pdede_stats.speedup_over(base_stats) - 1.0
    return result


def run_tag_width_ablation(
    scale: str | None = None, params: CoreParams = ICELAKE
) -> SensitivityResult:
    """DESIGN.md ablation: BTBM partial-tag width vs aliasing resteers."""
    result = SensitivityResult(title="Ablation: BTBM tag width")
    baseline = baseline_design()
    for tag_bits in (8, 10, 12, 14):
        config = paper_config(PDedeMode.MULTI_ENTRY).replace(tag_bits=tag_bits)
        design = pdede_design(
            PDedeMode.MULTI_ENTRY, config=config, key=f"pdede-me-tag{tag_bits}"
        )
        gain = run_suite(design, baseline, params=params, scale=scale).mean_speedup() - 1.0
        result.gains[f"{tag_bits}-bit tags"] = gain
    return result
