"""Named design factories used across the experiment runners.

A *design* is everything the frontend simulator needs besides the
trace: the BTB instance plus simulator options (direction predictor,
ITTAGE, RAS policy).  Factories are registered under stable string
names so the harness can cache results per ``(trace, design)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.branch.direction import PerfectDirectionPredictor
from repro.btb.base import BranchTargetPredictor
from repro.btb.baseline import BaselineBTB
from repro.btb.ittage import ITTagePredictor
from repro.btb.shotgun import ShotgunBTB
from repro.btb.twolevel import TwoLevelBTB
from repro.core.ablations import DedupOnlyBTB, partition_only_config
from repro.core.config import PDedeConfig, PDedeMode, paper_config
from repro.core.multitag import MultiTagPartitionedBTB
from repro.core.pdede import PDedeBTB


@dataclass
class Design:
    """A named, reproducible simulator configuration."""

    key: str
    build_btb: Callable[[], BranchTargetPredictor]
    simulator_kwargs: Callable[[], dict] = field(default=lambda: {})

    def build(self) -> tuple[BranchTargetPredictor, dict]:
        return self.build_btb(), self.simulator_kwargs()


def baseline_design(entries: int = 4096, key: str | None = None, **kwargs) -> Design:
    """The conventional BTB (Section 2), any capacity."""
    key = key or f"baseline-{entries}"
    return Design(key=key, build_btb=lambda: BaselineBTB(entries=entries, **kwargs))


def pdede_design(
    mode: PDedeMode = PDedeMode.MULTI_ENTRY,
    config: PDedeConfig | None = None,
    key: str | None = None,
) -> Design:
    """A PDede design in the requested mode (Table 2 config by default)."""
    resolved = config or paper_config(mode)
    key = key or f"pdede-{mode.value.replace('_', '-')}"
    return Design(key=key, build_btb=lambda: PDedeBTB(resolved))


def dedup_only_design(key: str = "dedup-only", **kwargs) -> Design:
    """Figure 11a rung 1: full-target dedup, no partitioning."""
    return Design(key=key, build_btb=lambda: DedupOnlyBTB(**kwargs))


def partition_only_design(key: str = "partition-only") -> Design:
    """Figure 11a rung 2: region/page partition + dedup, no delta."""
    config = partition_only_config()
    return Design(key=key, build_btb=lambda: PDedeBTB(config))


def shotgun_design(key: str = "shotgun", **kwargs) -> Design:
    """The Section 5.10 comparator."""
    return Design(key=key, build_btb=lambda: ShotgunBTB(**kwargs))


def multitag_design(key: str = "multitag", **kwargs) -> Design:
    """The Section 4.2 alternative PDede rejected (multi-tag sharing)."""
    return Design(key=key, build_btb=lambda: MultiTagPartitionedBTB(**kwargs))


def ghrp_design(entries: int = 4096, key: str | None = None, **kwargs) -> Design:
    """Predictive-replacement baseline (GHRP, cited as orthogonal work)."""
    from repro.btb.ghrp import GhrpBTB

    key = key or f"ghrp-{entries}"
    return Design(key=key, build_btb=lambda: GhrpBTB(entries=entries, **kwargs))


def micro_btb_design(key: str = "micro-btb", **kwargs) -> Design:
    """Two-tier last-level BTB hierarchy (Micro BTB, Gupta & Panda)."""
    from repro.btb.microbtb import MicroBTB

    return Design(key=key, build_btb=lambda: MicroBTB(**kwargs))


def shadow_design(
    inner: str = "baseline", key: str | None = None, **kwargs
) -> Design:
    """Decode-assisted shadow-branch fill (Pepi et al.) over Baseline/PDede.

    ``inner`` selects the main predictor the shadow table backs.
    """
    from repro.btb.shadow import ShadowBTB

    if inner not in ("baseline", "pdede"):
        raise ValueError(f"inner must be 'baseline' or 'pdede', got {inner!r}")
    key = key or f"shadow-{inner}"

    def build() -> BranchTargetPredictor:
        if inner == "baseline":
            core: BranchTargetPredictor = BaselineBTB()
        else:
            core = PDedeBTB(paper_config(PDedeMode.MULTI_ENTRY))
        return ShadowBTB(core, **kwargs)

    return Design(key=key, build_btb=build)


def with_temporal_prefetch(design: Design, **kwargs) -> Design:
    """Wrap a design with Twig/Phantom-style temporal BTB prefetching.

    Measures the paper's closing §5.10 claim that PDede *complements*
    BTB prefetching techniques.
    """
    from repro.btb.prefetch import TemporalPrefetchBTB

    def build() -> BranchTargetPredictor:
        inner, _ = design.build()
        return TemporalPrefetchBTB(inner, **kwargs)

    return Design(
        key=design.key + "+prefetch",
        build_btb=build,
        simulator_kwargs=design.simulator_kwargs,
    )


def two_level_design(
    l0_entries: int,
    l1_design: Design,
    key: str | None = None,
) -> Design:
    """Section 5.9: small L0 + large L1 (conventional or PDede)."""
    key = key or f"twolevel-{l0_entries}-{l1_design.key}"

    def build() -> BranchTargetPredictor:
        level0 = BaselineBTB(entries=l0_entries, ways=min(4, max(1, l0_entries // 64)))
        level1, _ = l1_design.build()
        return TwoLevelBTB(level0, level1)

    return Design(key=key, build_btb=build)


def with_perfect_direction(design: Design) -> Design:
    """Section 5.5 variant: oracle conditional direction prediction."""
    return Design(
        key=design.key + "+perfect-dir",
        build_btb=design.build_btb,
        simulator_kwargs=lambda: {"direction": PerfectDirectionPredictor()},
    )


def with_ittage(design: Design, indirect_in_btb: bool = False) -> Design:
    """Section 5.6 variant: 64KB-class ITTAGE owns indirect branches.

    The wrapped BTB should be built with ``allocate_indirect=False`` by
    the caller when ``indirect_in_btb`` is False (the paper's setup).
    """
    return Design(
        key=design.key + "+ittage",
        build_btb=design.build_btb,
        simulator_kwargs=lambda: {"ittage": ITTagePredictor()},
    )


def with_returns_in_btb(design: Design) -> Design:
    """Section 5.7 variant: no RAS; returns stored in the BTB."""
    return Design(
        key=design.key + "+ret-in-btb",
        build_btb=design.build_btb,
        simulator_kwargs=lambda: {"returns_use_ras": False},
    )


def standard_designs() -> dict[str, Design]:
    """The Figure 10 line-up: baseline and the three PDede designs."""
    return {
        "baseline": baseline_design(),
        "pdede-default": pdede_design(PDedeMode.DEFAULT),
        "pdede-multi-target": pdede_design(PDedeMode.MULTI_TARGET),
        "pdede-multi-entry": pdede_design(PDedeMode.MULTI_ENTRY),
    }


def design_registry() -> dict[str, Design]:
    """Every stably-named design a request may ask for by key.

    Shared by the CLI (``simulate DESIGN`` / ``--design``) and the
    serving layer, which validates incoming requests against exactly
    this mapping.  Note the ``"baseline"`` registry name maps to the
    4096-entry design whose internal key is ``baseline-4096``.
    """
    return {
        "baseline": baseline_design(),
        "baseline-6144": baseline_design(entries=6144, key="baseline-6144"),
        "baseline-8192": baseline_design(entries=8192),
        "pdede-default": pdede_design(PDedeMode.DEFAULT),
        "pdede-multi-target": pdede_design(PDedeMode.MULTI_TARGET),
        "pdede-multi-entry": pdede_design(PDedeMode.MULTI_ENTRY),
        "dedup-only": dedup_only_design(),
        "partition-only": partition_only_design(),
        "shotgun": shotgun_design(),
        "micro-btb": micro_btb_design(),
        "shadow-baseline": shadow_design("baseline"),
        "shadow-pdede": shadow_design("pdede"),
    }
