"""Section 3 characterisation: the analyses behind Figures 3-8.

Each function consumes one or more traces and returns plain dataclasses
so the experiment runners and tests can assert on them directly.
Returns are excluded from the target-uniqueness analyses: they never
consume BTB entries (Section 2), so including their (per-call-site)
return addresses would distort the dedup statistics the BTB cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.branch.address import (
    OFFSET_BITS,
    page_number,
    page_offset,
    region_id,
)
from repro.branch.types import BranchKind
from repro.workloads.trace import Trace

_RETURN = int(BranchKind.RETURN)


def _taken_non_returns(trace: Trace) -> np.ndarray:
    """Mask of the taken, BTB-relevant (non-return) events."""
    return trace.takens & (trace.kinds != _RETURN)


@dataclass
class TakenStats:
    """Figure 3: taken fractions, static and dynamic."""

    name: str
    static_taken_fraction: float
    dynamic_taken_fraction: float


def taken_stats(trace: Trace) -> TakenStats:
    """Fraction of static branch PCs / dynamic instances that are taken."""
    return TakenStats(
        name=trace.name,
        static_taken_fraction=trace.static_taken_fraction(),
        dynamic_taken_fraction=trace.dynamic_taken_fraction(),
    )


@dataclass
class BranchTypeMix:
    """Figure 4: share of each branch kind among taken branches."""

    name: str
    fractions: dict[str, float] = field(default_factory=dict)


def branch_type_mix(trace: Trace, include_returns: bool = False) -> BranchTypeMix:
    """Taken-branch kind distribution (Figure 4).

    Returns are excluded by default -- they are served by the RAS, and
    Figure 4 classifies the BTB-relevant branch types.
    """
    mask = trace.takens if include_returns else _taken_non_returns(trace)
    kinds = trace.kinds[mask]
    total = len(kinds)
    fractions = {
        BranchKind(kind).name: count / total
        for kind, count in enumerate(np.bincount(kinds, minlength=len(BranchKind)).tolist())
        if count
    }
    return BranchTypeMix(name=trace.name, fractions=fractions)


@dataclass
class UniquenessStats:
    """Figure 7: unique targets / regions / pages / offsets vs unique PCs."""

    name: str
    unique_pcs: int
    unique_targets: int
    unique_regions: int
    unique_pages: int
    unique_offsets: int

    @property
    def target_fraction(self) -> float:
        return self.unique_targets / self.unique_pcs if self.unique_pcs else 0.0

    @property
    def region_fraction(self) -> float:
        return self.unique_regions / self.unique_pcs if self.unique_pcs else 0.0

    @property
    def page_fraction(self) -> float:
        return self.unique_pages / self.unique_pcs if self.unique_pcs else 0.0

    @property
    def offset_fraction(self) -> float:
        return self.unique_offsets / self.unique_pcs if self.unique_pcs else 0.0


def uniqueness_stats(trace: Trace) -> UniquenessStats:
    """Count unique branch PCs and unique target components (Figure 7)."""
    mask = _taken_non_returns(trace)
    targets = np.unique(trace.targets[mask]).tolist()
    return UniquenessStats(
        name=trace.name,
        unique_pcs=len(np.unique(trace.pcs[mask])),
        unique_targets=len(targets),
        unique_regions=len({region_id(t) for t in targets}),
        unique_pages=len({page_number(t) for t in targets}),
        unique_offsets=len({page_offset(t) for t in targets}),
    )


@dataclass
class DensityStats:
    """Figure 6: average branch targets per page and per region."""

    name: str
    targets_per_page: float
    targets_per_region: float


def density_stats(trace: Trace) -> DensityStats:
    """Unique targets divided by unique pages / regions (Figure 6)."""
    stats = uniqueness_stats(trace)
    return DensityStats(
        name=trace.name,
        targets_per_page=(
            stats.unique_targets / stats.unique_pages if stats.unique_pages else 0.0
        ),
        targets_per_region=(
            stats.unique_targets / stats.unique_regions if stats.unique_regions else 0.0
        ),
    )


@dataclass
class DistanceStats:
    """Figure 8: distance in pages between branch PC and target."""

    name: str
    same_page_fraction: float
    #: Histogram over |page distance| buckets, as fractions.
    buckets: dict[str, float] = field(default_factory=dict)
    #: Same-page fraction per branch kind name.
    by_kind: dict[str, float] = field(default_factory=dict)

_DISTANCE_BUCKETS = (
    ("same page", 0),
    ("<= 16 pages", 16),
    ("<= 256 pages", 256),
    ("<= 65536 pages", 65536),
    ("> 65536 pages", None),
)


def distance_stats(trace: Trace) -> DistanceStats:
    """Branch-PC-to-target page distance distribution (Figure 8)."""
    mask = _taken_non_returns(trace)
    kinds = trace.kinds[mask]
    total = len(kinds)
    if total == 0:
        return DistanceStats(name=trace.name, same_page_fraction=0.0)
    shift = np.uint64(OFFSET_BITS)
    # Page numbers are at most 52 bits, so the signed difference is exact.
    distance = np.abs(
        (trace.targets[mask] >> shift).astype(np.int64)
        - (trace.pcs[mask] >> shift).astype(np.int64)
    )
    # Each event lands in the first bucket whose bound covers it.
    bounds = np.array([bound for _, bound in _DISTANCE_BUCKETS[:-1]], dtype=np.int64)
    counts = np.bincount(
        np.searchsorted(bounds, distance), minlength=len(_DISTANCE_BUCKETS)
    ).tolist()
    kind_total = np.bincount(kinds, minlength=len(BranchKind)).tolist()
    kind_same = np.bincount(kinds[distance == 0], minlength=len(BranchKind)).tolist()
    return DistanceStats(
        name=trace.name,
        same_page_fraction=counts[0] / total,
        buckets={label: count / total for (label, _), count in zip(_DISTANCE_BUCKETS, counts)},
        by_kind={
            BranchKind(kind).name: same / kinds_seen
            for kind, (kinds_seen, same) in enumerate(zip(kind_total, kind_same))
            if kinds_seen
        },
    )


@dataclass
class RuntimeSeries:
    """Figure 5: region / page / offset of each taken target over time."""

    name: str
    sample_indices: list[int]
    regions: list[int]
    pages: list[int]
    offsets: list[int]

    def distinct_regions(self) -> int:
        return len(set(self.regions))

    def distinct_pages(self) -> int:
        return len(set(self.pages))


def runtime_series(trace: Trace, max_samples: int = 4096) -> RuntimeSeries:
    """Sampled time series of target components (Figure 5's three plots)."""
    taken_indices = np.flatnonzero(_taken_non_returns(trace))
    stride = max(1, len(taken_indices) // max_samples)
    sample_indices = taken_indices[::stride]
    regions, pages, offsets = [], [], []
    for target in trace.targets[sample_indices].tolist():
        regions.append(region_id(target))
        pages.append(page_number(target))
        offsets.append(page_offset(target))
    return RuntimeSeries(
        name=trace.name,
        sample_indices=sample_indices.tolist(),
        regions=regions,
        pages=pages,
        offsets=offsets,
    )


def aggregate_mean(values: Iterable[float]) -> float:
    """Arithmetic mean helper used by the suite-level summaries."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


# -- the characterization profile and import gate ----------------------------
#
# Real traces enter through repro.workloads.ingest; before one is allowed
# to drive experiments it is condensed into a CharacterizationProfile
# (one flat record combining the Figs 3-8 analyses above) and checked
# against a CharacterizationEnvelope.  The envelope encodes what the
# paper's characterization -- and this repo's own synthetic suite --
# establish as plausible branch behaviour; a capture that falls outside
# it is far more often a broken converter (byte-swapped addresses, gap
# column dropped, returns mislabelled) than a genuinely novel workload,
# so the gate rejects it with diagnostics naming each violated bound.


@dataclass
class CharacterizationProfile:
    """One flat record of the Figs 3-8 analyses for a single trace."""

    name: str
    category: str
    n_events: int
    instruction_count: int
    static_branches: int
    #: Figure 3.
    static_taken_fraction: float
    dynamic_taken_fraction: float
    #: Figure 4: taken, BTB-relevant (returns excluded) kind mix.
    kind_mix: dict[str, float] = field(default_factory=dict)
    #: Figure 7 (fractions of unique taken-branch PCs).
    unique_pcs: int = 0
    unique_targets: int = 0
    unique_regions: int = 0
    unique_pages: int = 0
    target_fraction: float = 0.0
    region_fraction: float = 0.0
    page_fraction: float = 0.0
    #: Figure 6.
    targets_per_page: float = 0.0
    targets_per_region: float = 0.0
    #: Figure 8.
    same_page_fraction: float = 0.0
    distance_buckets: dict[str, float] = field(default_factory=dict)
    #: Mean non-branch instructions between branch events.
    mean_gap: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (the ``repro convert`` report)."""
        return {
            "name": self.name,
            "category": self.category,
            "n_events": self.n_events,
            "instruction_count": self.instruction_count,
            "static_branches": self.static_branches,
            "static_taken_fraction": self.static_taken_fraction,
            "dynamic_taken_fraction": self.dynamic_taken_fraction,
            "kind_mix": dict(self.kind_mix),
            "unique_pcs": self.unique_pcs,
            "unique_targets": self.unique_targets,
            "unique_regions": self.unique_regions,
            "unique_pages": self.unique_pages,
            "target_fraction": self.target_fraction,
            "region_fraction": self.region_fraction,
            "page_fraction": self.page_fraction,
            "targets_per_page": self.targets_per_page,
            "targets_per_region": self.targets_per_region,
            "same_page_fraction": self.same_page_fraction,
            "distance_buckets": dict(self.distance_buckets),
            "mean_gap": self.mean_gap,
        }


def characterize(trace: Trace) -> CharacterizationProfile:
    """Condense the Figs 3-8 analyses into one profile record."""
    taken = taken_stats(trace)
    mix = branch_type_mix(trace)
    unique = uniqueness_stats(trace)
    density = density_stats(trace)
    distance = distance_stats(trace)
    n_events = len(trace)
    mean_gap = (int(trace.gaps.sum(dtype=np.uint64)) / n_events) if n_events else 0.0
    return CharacterizationProfile(
        name=trace.name,
        category=trace.category,
        n_events=n_events,
        instruction_count=trace.instruction_count,
        static_branches=trace.static_branch_count(),
        static_taken_fraction=taken.static_taken_fraction,
        dynamic_taken_fraction=taken.dynamic_taken_fraction,
        kind_mix=dict(mix.fractions),
        unique_pcs=unique.unique_pcs,
        unique_targets=unique.unique_targets,
        unique_regions=unique.unique_regions,
        unique_pages=unique.unique_pages,
        target_fraction=unique.target_fraction,
        region_fraction=unique.region_fraction,
        page_fraction=unique.page_fraction,
        targets_per_page=density.targets_per_page,
        targets_per_region=density.targets_per_region,
        same_page_fraction=distance.same_page_fraction,
        distance_buckets=dict(distance.buckets),
        mean_gap=mean_gap,
    )


@dataclass(frozen=True)
class EnvelopeBound:
    """One closed interval on a profile metric, with a diagnosis hint."""

    metric: str
    low: float | None
    high: float | None
    hint: str

    def violation(self, value: float) -> "EnvelopeViolation | None":
        if self.low is not None and value < self.low:
            return EnvelopeViolation(self.metric, value, self.low, self.high, self.hint)
        if self.high is not None and value > self.high:
            return EnvelopeViolation(self.metric, value, self.low, self.high, self.hint)
        return None


@dataclass(frozen=True)
class EnvelopeViolation:
    """One metric outside its envelope bound, rendered with its hint."""

    metric: str
    value: float
    low: float | None
    high: float | None
    hint: str

    def message(self) -> str:
        low = "-inf" if self.low is None else f"{self.low:g}"
        high = "+inf" if self.high is None else f"{self.high:g}"
        return (
            f"{self.metric} = {self.value:g} outside [{low}, {high}]: {self.hint}"
        )


class EnvelopeError(ValueError):
    """A trace the characterization gate refuses, with all diagnostics."""

    def __init__(self, name: str, violations: list[EnvelopeViolation]) -> None:
        lines = "\n".join(f"  - {violation.message()}" for violation in violations)
        super().__init__(
            f"trace {name!r} fails the characterization envelope "
            f"({len(violations)} violation(s)):\n{lines}\n"
            "Pass gate=False / --no-gate to import anyway."
        )
        self.name = name
        self.violations = violations


@dataclass(frozen=True)
class CharacterizationEnvelope:
    """A set of bounds a profile must satisfy to pass the import gate."""

    bounds: tuple[EnvelopeBound, ...]

    def validate(self, profile: CharacterizationProfile) -> list[EnvelopeViolation]:
        """Every violated bound, in declaration order (empty: in envelope)."""
        conditional = profile.kind_mix.get(BranchKind.COND_DIRECT.name, 0.0)
        indirect = profile.kind_mix.get(
            BranchKind.UNCOND_INDIRECT.name, 0.0
        ) + profile.kind_mix.get(BranchKind.CALL_INDIRECT.name, 0.0)
        values = {
            "n_events": float(profile.n_events),
            "unique_pcs": float(profile.unique_pcs),
            "dynamic_taken_fraction": profile.dynamic_taken_fraction,
            "static_taken_fraction": profile.static_taken_fraction,
            "conditional_fraction": conditional,
            "indirect_fraction": indirect,
            "target_fraction": profile.target_fraction,
            "region_fraction": profile.region_fraction,
            "page_fraction": profile.page_fraction,
            "targets_per_page": profile.targets_per_page,
            "same_page_fraction": profile.same_page_fraction,
            "mean_gap": profile.mean_gap,
        }
        violations = []
        for bound in self.bounds:
            value = values.get(bound.metric)
            if value is None:
                continue
            violation = bound.violation(value)
            if violation is not None:
                violations.append(violation)
        return violations

    def check(self, profile: CharacterizationProfile) -> None:
        """Raise :class:`EnvelopeError` when the profile is out of envelope."""
        violations = self.validate(profile)
        if violations:
            raise EnvelopeError(profile.name, violations)


def paper_envelope() -> CharacterizationEnvelope:
    """The default import gate, calibrated to the paper's Figs 3-8.

    Bounds are deliberately generous -- real server/browser/personal
    workloads all sit comfortably inside them (as does every synthetic
    suite member at every scale) -- so a violation almost always means
    the *converter* is broken, which is what each hint says.
    """
    return CharacterizationEnvelope(
        bounds=(
            EnvelopeBound(
                "n_events", 64, None,
                "too few branch events to characterize; capture a longer window",
            ),
            EnvelopeBound(
                "unique_pcs", 16, None,
                "almost no static branches: is the capture stuck in one loop, "
                "or the PC column constant?",
            ),
            EnvelopeBound(
                "dynamic_taken_fraction", 0.2, 1.0,
                "Fig 3 puts dynamic taken fractions near 60-75%; a very low "
                "value suggests the taken bit is inverted or dropped",
            ),
            EnvelopeBound(
                "static_taken_fraction", 0.2, 1.0,
                "most static branches are taken at least once (Fig 3); check "
                "the taken-flag column",
            ),
            EnvelopeBound(
                "conditional_fraction", 0.05, 0.98,
                "Fig 4: conditional branches dominate the taken mix but never "
                "vanish; an extreme value suggests the kind column is "
                "misdecoded",
            ),
            EnvelopeBound(
                "indirect_fraction", None, 0.6,
                "Fig 4 puts indirect branches well under half the taken mix; "
                "check the kind mapping for swapped direct/indirect codes",
            ),
            EnvelopeBound(
                "target_fraction", 0.05, 2.0,
                "unique targets should be comparable to unique branch PCs "
                "(Fig 7 dedup opportunity); a tiny value means targets are "
                "constant, a huge one means targets are noise",
            ),
            EnvelopeBound(
                "region_fraction", None, 0.5,
                "Fig 7: target regions are a small fraction of branch PCs "
                "(code clusters in few 256 MiB regions); random-looking "
                "addresses suggest byte-swapped or truncated targets",
            ),
            EnvelopeBound(
                "page_fraction", None, 0.98,
                "Fig 7: unique target pages stay below unique branch PCs; "
                "one-target-per-page is address-randomisation noise",
            ),
            EnvelopeBound(
                "targets_per_page", 1.0, None,
                "Fig 6: pages hold multiple branch targets; below 1 is "
                "impossible unless the page split is broken",
            ),
            EnvelopeBound(
                "same_page_fraction", 0.05, 1.0,
                "Fig 8: a large share of branches stay within their 4 KiB "
                "page; near-zero means pc and target columns do not belong "
                "to the same instruction stream",
            ),
            EnvelopeBound(
                "mean_gap", 0.5, 64.0,
                "branches occur every ~4-10 instructions; a huge mean gap "
                "means the gap column is an absolute instruction count, not "
                "a delta",
            ),
        )
    )
