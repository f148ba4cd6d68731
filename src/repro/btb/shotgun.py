"""Shotgun-like BTB (Kumar et al., ASPLOS 2018) -- the §5.10 comparator.

Shotgun splits the BTB by branch type: a U-BTB holds unconditional
branches together with a *spatial footprint* of the code around their
target, and a compact C-BTB holds conditional branches.  On a U-BTB hit
the footprint pre-installs the conditional branches around the target
into the C-BTB.

Modelled properties (the ones the paper says cap Shotgun's gains):

* the C-BTB must capture both taken **and** not-taken conditionals
  (Shotgun's prefetch works at basic-block granularity), so its
  effective reach per entry is lower than a taken-only PC-indexed BTB;
* C-BTB entries are *compact*: they store only a 12-bit same-page target
  offset (Shotgun's premise that conditional displacements are short);
  conditionals with cross-page targets must fall back to the U-BTB;
* prefetching triggers only on a prior unconditional U-BTB hit and only
  covers conditionals within a limited window of its target;
* returns are served by the RAS (the RIB is not modelled, matching the
  paper's own §5.10 methodology).
"""

from __future__ import annotations

from repro.branch.address import hash_pc, page_base, page_offset
from repro.branch.types import BranchKind
from repro.btb.base import BranchTargetPredictor
from repro.btb.baseline import BaselineBTB
from repro.btb.replacement import make_replacement_table

_COND = int(BranchKind.COND_DIRECT)
_RETURN = int(BranchKind.RETURN)


class _CompactCBTB:
    """Set-associative conditional BTB with 12-bit target offsets, indexed
    and tagged by the branch pc's ``hash_pc``."""

    def __init__(self, entries: int, ways: int, tag_bits: int, replacement: str) -> None:
        if entries <= 0 or entries % ways:
            raise ValueError("entries must be positive and divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.tag_bits = tag_bits
        self._pow2 = self.sets & (self.sets - 1) == 0
        self._valid = [[False] * ways for _ in range(self.sets)]
        self._tags = [[0] * ways for _ in range(self.sets)]
        self._offsets = [[0] * ways for _ in range(self.sets)]
        self._replacement = make_replacement_table(replacement, self.sets, ways, 2)

    def _slot(self, hashed: int) -> tuple[int, int]:
        index = hashed & (self.sets - 1) if self._pow2 else hashed % self.sets
        return index, (hashed >> 40) & ((1 << self.tag_bits) - 1)

    def lookup(self, pc: int, hashed: int) -> int | None:
        """Return the predicted same-page target, or None on miss."""
        set_index, tag = self._slot(hashed)
        for way in range(self.ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                self._replacement.on_hit(set_index * self.ways + way)
                return page_base(pc) | self._offsets[set_index][way]
        return None

    def insert(self, hashed: int, target: int, overwrite: bool = True) -> bool:
        """Install/refresh the branch whose ``hash_pc`` is ``hashed``;
        True when it was not present.

        With ``overwrite=False`` (a not-taken occurrence) an existing
        entry's stored *taken-target* offset is preserved -- presence is
        refreshed, the target is not clobbered by the fall-through.
        """
        set_index, tag = self._slot(hashed)
        base = set_index * self.ways
        for way in range(self.ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                if overwrite:
                    self._offsets[set_index][way] = page_offset(target)
                self._replacement.on_hit(base + way)
                return False
        way = self._replacement.victim(self._valid[set_index], base)
        self._valid[set_index][way] = True
        self._tags[set_index][way] = tag
        self._offsets[set_index][way] = page_offset(target)
        self._replacement.on_insert(base + way)
        return True

    def contains(self, pc: int) -> bool:
        set_index, tag = self._slot(hash_pc(pc))
        return any(
            self._valid[set_index][way] and self._tags[set_index][way] == tag
            for way in range(self.ways)
        )

    def occupancy(self) -> int:
        return sum(sum(valid) for valid in self._valid)

    def storage_bits(self) -> int:
        # tag + offset + SRRIP + valid
        return self.entries * (self.tag_bits + 12 + 2 + 1)


class ShotgunBTB(BranchTargetPredictor):
    """U-BTB + compact C-BTB with footprint-driven pre-installation.

    Args:
        u_entries / u_ways: geometry of the unconditional-branch BTB
            (also hosts the rare cross-page conditionals).
        c_entries / c_ways: geometry of the compact conditional BTB.
        footprint_slots: conditional branches remembered per U-BTB entry.
        footprint_window: byte window around the unconditional's target
            within which conditionals are recorded into the footprint.
    """

    def __init__(
        self,
        u_entries: int = 2048,
        u_ways: int = 4,
        c_entries: int = 4096,
        c_ways: int = 8,
        footprint_slots: int = 2,
        footprint_window: int = 512,
        tag_bits: int = 12,
        latency: int = 1,
        replacement: str = "srrip",
    ) -> None:
        super().__init__()
        self.u_btb = BaselineBTB(
            entries=u_entries, ways=u_ways, tag_bits=tag_bits, latency=latency,
            replacement=replacement,
        )
        self.c_btb = _CompactCBTB(c_entries, c_ways, tag_bits, replacement)
        self.footprint_slots = footprint_slots
        self.footprint_window = footprint_window
        self.latency = latency
        # Footprint memory: unconditional branch PC -> [(cond pc, target)].
        self._footprints: dict[int, list[tuple[int, int]]] = {}
        self._recording_pc: int | None = None
        self._recording_base: int = 0
        self.prefetch_installs = 0

    # -- the hashed pair -------------------------------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        cond_target = self.c_btb.lookup(pc, hashed)
        if cond_target is not None:
            return (cond_target, True, self.latency, "c-btb")
        target, hit, _, _ = self.u_btb.lookup_fast(pc, hashed)
        if hit:
            # A U-BTB hit triggers the footprint prefetch into the C-BTB.
            self._prefetch_footprint(pc)
            return (target, True, self.latency, "u-btb")
        return (None, False, self.latency, "miss")

    def _prefetch_footprint(self, uncond_pc: int) -> None:
        footprint = self._footprints.get(uncond_pc)
        if not footprint:
            return
        for cond_pc, cond_target in footprint:
            if self.c_btb.insert(hash_pc(cond_pc), cond_target):
                self.prefetch_installs += 1

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        if kind == _COND:
            if taken:
                if is_same_page:
                    self.c_btb.insert(hashed, target)
                else:
                    # Rare cross-page conditional: full-width entry.
                    self.u_btb.update_fast(pc, target, True, kind, hashed, False)
                self._record_into_footprint(pc, target, is_same_page)
            else:
                # Not-taken conditionals still occupy C-BTB entries (the
                # basic-block bookkeeping cost the paper highlights) but
                # must not clobber a learned taken target.
                self.c_btb.insert(hashed, pc + 4, overwrite=False)
            return
        if kind == _RETURN:
            return  # RAS territory; the RIB is not modelled (per §5.10).
        self.u_btb.update_fast(pc, target, taken, kind, hashed, is_same_page)
        # Begin recording this unconditional's spatial footprint.
        self._recording_pc = pc
        self._recording_base = target

    def _record_into_footprint(self, pc: int, resolved: int, is_same_page: bool) -> None:
        if self._recording_pc is None:
            return
        if abs(pc - self._recording_base) > self.footprint_window:
            self._recording_pc = None
            return
        if not is_same_page:
            return  # footprints hold compact (same-page) conds only
        footprint = self._footprints.setdefault(self._recording_pc, [])
        record = (pc, resolved)
        for slot, (recorded_pc, _) in enumerate(footprint):
            if recorded_pc == pc:
                footprint[slot] = record
                return
        if len(footprint) >= self.footprint_slots:
            footprint.pop(0)
        footprint.append(record)

    def storage_bits(self) -> int:
        # Footprints live inside U-BTB entries as compressed offsets: one
        # slot = a 9-bit block offset + 12-bit target offset + valid bit.
        footprint_bits = self.u_btb.entries * self.footprint_slots * (9 + 12 + 1)
        return self.u_btb.storage_bits() + self.c_btb.storage_bits() + footprint_bits

    @property
    def name(self) -> str:
        return "ShotgunBTB"
