"""PDede configuration and bit-level storage accounting (Table 2).

The defaults reproduce the architecturally feasible configuration of
Section 4.4.3: a 4K-entry BTBM, a 1K-entry Page-BTB and a 4-entry
Region-BTB, sized so that the multi-entry variant lands at iso-storage
with the 37.5 KiB baseline BTB.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.branch.address import OFFSET_BITS, PAGE_IN_REGION_BITS, REGION_BITS


class PDedeMode(enum.Enum):
    """The three PDede designs evaluated in Figure 10."""

    #: BTBM + Region-/Page-BTB + delta encoding (Section 4.1-4.3).
    DEFAULT = "default"
    #: Opportunistically packs the next taken same-page target into the
    #: unused pointer fields of a same-page entry (Section 4.3.1).
    MULTI_TARGET = "multi_target"
    #: Half of each set's ways drop the pointer fields; the savings double
    #: the BTBM entry count at iso-storage (Section 4.3.1).
    MULTI_ENTRY = "multi_entry"


@dataclass(frozen=True)
class PDedeConfig:
    """Geometry and feature knobs for a :class:`~repro.core.pdede.PDedeBTB`.

    Attributes:
        btbm_entries: BTB-Monitor entries.  With ``MULTI_ENTRY`` this is
            the *doubled* count (half the ways are short entries).
        btbm_ways: BTBM set associativity.
        page_entries / page_ways: Page-BTB geometry (value-indexed,
            pointer-addressed, tagless).
        region_entries: Region-BTB entries (fully associative).
        tag_bits: hashed partial tag width in the BTBM.
        conf_bits: confidence-counter width per BTBM entry.
        srrip_bits: RRPV width used in BTBM / Page-BTB / Region-BTB.
        pid_bits: process-ID bits per BTBM entry.
        mode: which of the three designs to build.
        delta_encoding: store only the offset for same-page branches;
            disabling this yields the partition+dedup ablation point of
            Figure 11a.
        always_two_cycle: charge 2 cycles on every taken-branch lookup
            (Figure 11b latency study) instead of only on pointer chases.
        invalidate_stale_pointers: eagerly invalidate BTBM entries whose
            Region-/Page-BTB entry was replaced (the paper leaves them
            dangling; Section 4.4.2 measures 0.06% wrong targets).
        next_target_tag_bits: Section 4.3.1's future-work extension --
            guard the Next Target Offset provision with a small tag of
            the next PC so mismatched misses are not served a bogus
            target (0 = the paper's untagged behaviour; multi-target
            mode only).
        replacement: replacement-policy name for all PDede structures.
        allocate_indirect: when False, indirect branches bypass the BTBM
            (the Section 5.6 ITTAGE configuration).
    """

    btbm_entries: int = 4096
    btbm_ways: int = 8
    page_entries: int = 1024
    page_ways: int = 4
    region_entries: int = 4
    tag_bits: int = 12
    conf_bits: int = 2
    srrip_bits: int = 2
    pid_bits: int = 1
    mode: PDedeMode = PDedeMode.DEFAULT
    delta_encoding: bool = True
    always_two_cycle: bool = False
    invalidate_stale_pointers: bool = False
    next_target_tag_bits: int = 0
    replacement: str = "srrip"
    allocate_indirect: bool = True

    def __post_init__(self) -> None:
        for label, value in (
            ("btbm_entries", self.btbm_entries),
            ("page_entries", self.page_entries),
            ("region_entries", self.region_entries),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive")
        if self.btbm_entries % self.btbm_ways:
            raise ValueError("btbm_entries must be divisible by btbm_ways")
        if self.page_entries % self.page_ways:
            raise ValueError("page_entries must be divisible by page_ways")
        if self.mode is PDedeMode.MULTI_ENTRY and self.btbm_ways % 2:
            raise ValueError("multi-entry mode needs an even way count")
        if self.mode is not PDedeMode.DEFAULT and not self.delta_encoding:
            raise ValueError(f"{self.mode.value} requires delta encoding")
        if self.next_target_tag_bits and self.mode is not PDedeMode.MULTI_TARGET:
            raise ValueError("next_target_tag_bits requires multi-target mode")

    # -- derived geometry ---------------------------------------------------

    @property
    def btbm_sets(self) -> int:
        return self.btbm_entries // self.btbm_ways

    @property
    def page_sets(self) -> int:
        return self.page_entries // self.page_ways

    @property
    def page_ptr_bits(self) -> int:
        return (self.page_entries - 1).bit_length()

    @property
    def region_ptr_bits(self) -> int:
        return (self.region_entries - 1).bit_length()

    # -- storage accounting (Table 2) -----------------------------------------

    def btbm_long_entry_bits(self) -> int:
        """Bits of a full BTBM entry (pointer fields present)."""
        bits = (
            self.pid_bits
            + self.tag_bits
            + 1  # delta bit
            + self.srrip_bits
            + self.conf_bits
            + OFFSET_BITS
            + self.page_ptr_bits
            + self.region_ptr_bits
        )
        if self.mode is PDedeMode.MULTI_TARGET:
            bits += 1  # Next Target valid bit; the 12-bit next offset
            # re-uses the pointer fields, costing nothing.
            bits += self.next_target_tag_bits  # future-work tag guard
        return bits

    def btbm_short_entry_bits(self) -> int:
        """Bits of a short (same-page-only) multi-entry-mode entry."""
        return self.btbm_long_entry_bits() - self.page_ptr_bits - self.region_ptr_bits

    def btbm_bits(self) -> int:
        if self.mode is PDedeMode.MULTI_ENTRY:
            half = self.btbm_entries // 2
            return half * self.btbm_long_entry_bits() + half * self.btbm_short_entry_bits()
        return self.btbm_entries * self.btbm_long_entry_bits()

    def page_btb_bits(self) -> int:
        # Tagless: the stored page value doubles as the dedup search key.
        return self.page_entries * (PAGE_IN_REGION_BITS + self.srrip_bits)

    def region_btb_bits(self) -> int:
        return self.region_entries * (REGION_BITS + self.srrip_bits)

    def storage_bits(self) -> int:
        return self.btbm_bits() + self.page_btb_bits() + self.region_btb_bits()

    def storage_kib(self) -> float:
        return self.storage_bits() / 8192.0

    # -- convenience constructors ------------------------------------------------

    def replace(self, **changes) -> "PDedeConfig":
        """Copy with the given fields changed."""
        from dataclasses import replace as _dc_replace

        return _dc_replace(self, **changes)

    def scaled(self, factor: int) -> "PDedeConfig":
        """Config with ``factor``x the BTBM/Page-BTB capacity (Section 5.8)."""
        return self.replace(
            btbm_entries=self.btbm_entries * factor,
            page_entries=self.page_entries * factor,
        )


def paper_config(mode: PDedeMode = PDedeMode.MULTI_ENTRY) -> PDedeConfig:
    """The iso-storage Table 2 configuration for each design.

    The baseline BTB spends 37.5 KiB on 4K branches.  Re-investing
    PDede's per-entry savings at (or just under) the same budget yields:

    * ``DEFAULT``: 6K BTBM entries (42 b each) + tables = ~33.8 KiB,
    * ``MULTI_TARGET``: 6K entries (43 b each) = ~34.5 KiB,
    * ``MULTI_ENTRY``: 8K entries (half long at 42 b, half short at
      30 b) = ~36.0 KiB -- twice the baseline's branch count, matching
      "storing targets for twice the number of branches as baseline".
    """
    if mode is PDedeMode.MULTI_ENTRY:
        return PDedeConfig(btbm_entries=8192, mode=mode)
    return PDedeConfig(btbm_entries=6144, mode=mode)


def default_config(mode: PDedeMode = PDedeMode.MULTI_ENTRY) -> PDedeConfig:
    """Alias for :func:`paper_config` (kept for API symmetry)."""
    return paper_config(mode)
