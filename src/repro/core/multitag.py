"""The multi-tag partitioned BTB: the alternative PDede rejected.

Section 4.2 considers (and rejects) a design without the BTB-Monitor:
the Page- and Region-BTBs are extended to store *multiple PC tags per
entry*, so a single page/region entry can be re-used across several
branch PCs directly.  The paper names two disadvantages, and this model
exhibits both:

1. **tag overhead** -- every shared entry pays ``slots x tag_bits``
   extra storage, visible in :meth:`MultiTagPartitionedBTB.storage_bits`;
2. **statically limited sharing** -- at most ``slots`` branches can
   share one target page; the ``sharing_overflows`` counter measures how
   often an additional would-be sharer is turned away (forcing a
   duplicate entry or an eviction).

The design exists for the DESIGN.md ablation bench: quantifying why the
BTBM indirection is the better trade.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.address import (
    PAGE_IN_REGION_BITS,
    REGION_BITS,
    join_target,
    page_in_region,
    page_offset,
    region_id,
)
from repro.btb.base import BranchTargetPredictor
from repro.btb.replacement import make_replacement_table


@dataclass
class _SharedEntry:
    """A value entry shareable by up to ``slots`` PC tags."""

    valid: bool = False
    value: int = 0
    tags: tuple = ()


class _MultiTagTable:
    """Set-associative table of shared value entries with k PC tags."""

    def __init__(self, entries: int, ways: int, value_bits: int, slots: int,
                 tag_bits: int, replacement: str = "srrip") -> None:
        if entries <= 0 or entries % ways:
            raise ValueError("entries must be positive and divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.value_bits = value_bits
        self.slots = slots
        self.tag_bits = tag_bits
        self._pow2 = self.sets & (self.sets - 1) == 0
        self._table = [[_SharedEntry() for _ in range(ways)] for _ in range(self.sets)]
        self._replacement = make_replacement_table(replacement, self.sets, ways, 2)
        self.sharing_overflows = 0

    def _slot(self, hashed: int) -> tuple[int, int]:
        """(set index, nonzero PC tag) of the branch whose ``hash_pc`` is
        ``hashed``."""
        index = hashed & (self.sets - 1) if self._pow2 else hashed % self.sets
        return index, ((hashed >> 40) & ((1 << self.tag_bits) - 1)) or 1

    def lookup(self, hashed: int) -> int | None:
        """Associative lookup by PC tag; returns the shared value."""
        set_index, tag = self._slot(hashed)
        for way, entry in enumerate(self._table[set_index]):
            if entry.valid and tag in entry.tags:
                self._replacement.on_hit(set_index * self.ways + way)
                return entry.value
        return None

    def insert(self, hashed: int, value: int) -> None:
        """Attach the branch to an entry holding ``value`` (sharing-limited)."""
        set_index, tag = self._slot(hashed)
        row = self._table[set_index]
        replacement = self._replacement
        base = set_index * self.ways
        # Already attached somewhere? Retarget if the value changed.
        for way, entry in enumerate(row):
            if entry.valid and tag in entry.tags:
                if entry.value == value:
                    replacement.on_hit(base + way)
                    return
                entry.tags = tuple(t for t in entry.tags if t != tag)
        # Attach to an existing entry with the same value and a free slot.
        for way, entry in enumerate(row):
            if entry.valid and entry.value == value:
                if len(entry.tags) < self.slots:
                    entry.tags = entry.tags + (tag,)
                    replacement.on_hit(base + way)
                    return
                # The static sharing limit bites: a would-be sharer is
                # turned away and must burn a whole new entry.
                self.sharing_overflows += 1
                break
        victim = replacement.victim([entry.valid for entry in row], base)
        row[victim] = _SharedEntry(valid=True, value=value, tags=(tag,))
        replacement.on_insert(base + victim)

    def storage_bits(self) -> int:
        per_entry = self.value_bits + self.slots * self.tag_bits + 2  # + SRRIP
        return self.entries * per_entry


class MultiTagPartitionedBTB(BranchTargetPredictor):
    """Partitioned BTB using multi-tag sharing instead of a BTB-Monitor.

    Per-branch state (offset + delta bit) lives in an offset table; the
    page and region components come from multi-tag shared tables looked
    up associatively by the branch PC.

    Args:
        offset_entries / offset_ways: per-branch offset-table geometry.
        page_entries / page_ways / page_slots: shared page table.
        region_entries / region_slots: shared region table.
        tag_bits: PC tag width used in all three structures.
    """

    def __init__(
        self,
        offset_entries: int = 4096,
        offset_ways: int = 8,
        page_entries: int = 1024,
        page_ways: int = 4,
        page_slots: int = 4,
        region_entries: int = 4,
        region_slots: int = 16,
        tag_bits: int = 12,
        delta_encoding: bool = True,
        replacement: str = "srrip",
    ) -> None:
        super().__init__()
        if offset_entries <= 0 or offset_entries % offset_ways:
            raise ValueError("offset_entries must be positive and divisible by ways")
        self.offset_entries = offset_entries
        self.offset_ways = offset_ways
        self.offset_sets = offset_entries // offset_ways
        self.tag_bits = tag_bits
        self.delta_encoding = delta_encoding
        self.replacement_name = replacement
        self._pow2 = self.offset_sets & (self.offset_sets - 1) == 0
        self._valid = [[False] * offset_ways for _ in range(self.offset_sets)]
        self._tags = [[0] * offset_ways for _ in range(self.offset_sets)]
        self._offsets = [[0] * offset_ways for _ in range(self.offset_sets)]
        self._delta = [[False] * offset_ways for _ in range(self.offset_sets)]
        self._replacement = make_replacement_table(
            replacement, self.offset_sets, offset_ways, 2
        )
        self.pages = _MultiTagTable(
            page_entries, page_ways, PAGE_IN_REGION_BITS, page_slots, tag_bits,
            replacement,
        )
        self.regions = _MultiTagTable(
            region_entries, region_entries, REGION_BITS, region_slots, tag_bits,
            replacement,
        )

    # -- offset-table addressing -------------------------------------------

    def _slot(self, hashed: int) -> tuple[int, int]:
        """(set index, tag) of the branch whose ``hash_pc`` is ``hashed``."""
        index = hashed & (self.offset_sets - 1) if self._pow2 else hashed % self.offset_sets
        return index, (hashed >> 40) & ((1 << self.tag_bits) - 1)

    def _find_way(self, set_index: int, tag: int) -> int | None:
        for way in range(self.offset_ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                return way
        return None

    # -- BranchTargetPredictor ------------------------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        set_index, tag = self._slot(hashed)
        way = self._find_way(set_index, tag)
        if way is None:
            return (None, False, 1, "miss")
        self._replacement.on_hit(set_index * self.offset_ways + way)
        offset = self._offsets[set_index][way]
        if self._delta[set_index][way]:
            return ((pc & ~0xFFF) | offset, True, 1, "multitag-delta")
        page_value = self.pages.lookup(hashed)
        region_value = self.regions.lookup(hashed)
        if page_value is None or region_value is None:
            # Component entry lost (evicted or sharing-limited): miss.
            return (None, False, 2, "component-miss")
        return (join_target(region_value, page_value, offset), True, 2, "multitag-ptr")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        if not taken:
            return
        use_delta = self.delta_encoding and is_same_page
        set_index, tag = self._slot(hashed)
        way = self._find_way(set_index, tag)
        if way is None:
            base = set_index * self.offset_ways
            way = self._replacement.victim(self._valid[set_index], base)
            if self._valid[set_index][way]:
                self.stats.evictions += 1
            self._valid[set_index][way] = True
            self._tags[set_index][way] = tag
            self._replacement.on_insert(base + way)
            self.stats.allocations += 1
        self._offsets[set_index][way] = page_offset(target)
        self._delta[set_index][way] = use_delta
        if not use_delta:
            self.pages.insert(hashed, page_in_region(target))
            self.regions.insert(hashed, region_id(target))

    def storage_bits(self) -> int:
        offset_entry = 1 + self.tag_bits + 1 + 12 + 2  # pid+tag+delta+offset+srrip
        return (
            self.offset_entries * offset_entry
            + self.pages.storage_bits()
            + self.regions.storage_bits()
        )

    @property
    def sharing_overflows(self) -> int:
        return self.pages.sharing_overflows + self.regions.sharing_overflows

    @property
    def name(self) -> str:
        return "MultiTagPartitionedBTB"
