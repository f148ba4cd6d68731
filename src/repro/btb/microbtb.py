"""Two-tier last-level BTB hierarchy after Micro BTB (Gupta & Panda).

Servers blow out any single-level BTB; Micro BTB's answer is a small,
fast first-level BTB backed by a *last-level* BTB (LLBTB) whose entries
are cheap because they store branch targets as short signed deltas from
the branch PC rather than full 57-bit addresses -- the same locality
observation PDede's same-page delta encoding exploits (Fig 8).  The
LLBTB is filled either from first-level victims (the default, so the
last level acts as a victim cache over the hot working set) or on every
resolved branch, and first-level misses that hit the last level are
promoted back up.

This model keeps both levels self-contained (unlike
:class:`~repro.btb.twolevel.TwoLevelBTB`, which composes two opaque
predictors) because victim filling needs eviction visibility: the L1
must hand its evicted entry to the LLBTB, which a generic wrapper
cannot see.

Engine support: both engines.  The class implements the hashed pair
only, so the fresh-run engine runs the base class's ``observe_fast``
loop over it and the live pass its adapters; the seed referee is the
frozen ``SeedMicroBTB``.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS, hash_pc
from repro.branch.types import IS_INDIRECT
from repro.btb.base import BranchTargetPredictor, drop_tag, find_way, tag_directory
from repro.btb.replacement import make_replacement_table
from repro.checks.sanitizer import sanitizer_step

_NO_TAG = -1

_FILL_POLICIES = ("victim", "all")


class MicroBTB(BranchTargetPredictor):
    """Small L1 BTB + delta-compressed last-level BTB.

    Args:
        l1_entries / l1_ways: geometry of the fast first level.
        ll_entries / ll_ways: geometry of the last-level BTB.
        tag_bits: hashed partial-tag width (both levels).
        delta_bits: signed target-delta width in the last level; branches
            whose ``target - pc`` does not fit are *uncompressible* and
            never stored there (counted in :meth:`metrics`).
        conf_bits: L1 confidence-counter width (target replacement
            arbitration, as in :class:`~repro.btb.baseline.BaselineBTB`).
        replacement / srrip_bits: replacement policy of both levels.
        fill_policy: ``"victim"`` fills the last level only from L1
            evictions; ``"all"`` writes it on every resolved taken
            branch.
        promote_on_hit: install last-level hits into the L1.
        ll_extra_latency: cycles added to a last-level answer on top of
            the L1 latency.
        latency: L1 lookup latency in cycles.
        allocate_indirect: when False, indirect branches are not stored
            (ITTAGE setups).
    """

    def __init__(
        self,
        l1_entries: int = 1024,
        l1_ways: int = 4,
        ll_entries: int = 16384,
        ll_ways: int = 8,
        tag_bits: int = 12,
        delta_bits: int = 16,
        conf_bits: int = 2,
        replacement: str = "srrip",
        srrip_bits: int = 3,
        fill_policy: str = "victim",
        promote_on_hit: bool = True,
        ll_extra_latency: int = 2,
        latency: int = 1,
        allocate_indirect: bool = True,
    ) -> None:
        super().__init__()
        for label, entries, ways in (("l1", l1_entries, l1_ways),
                                     ("ll", ll_entries, ll_ways)):
            if entries <= 0:
                raise ValueError(f"{label}_entries must be positive")
            if entries % ways:
                raise ValueError(f"{label}_entries must be divisible by {label}_ways")
        if fill_policy not in _FILL_POLICIES:
            raise ValueError(
                f"fill_policy must be one of {_FILL_POLICIES}, got {fill_policy!r}"
            )
        if delta_bits < 2:
            raise ValueError("delta_bits must be at least 2")
        self.l1_entries = l1_entries
        self.l1_ways = l1_ways
        self.l1_sets = l1_entries // l1_ways
        self.ll_entries = ll_entries
        self.ll_ways = ll_ways
        self.ll_sets = ll_entries // ll_ways
        self.tag_bits = tag_bits
        self.delta_bits = delta_bits
        self.conf_bits = conf_bits
        self._conf_max = (1 << conf_bits) - 1
        self.srrip_bits = srrip_bits
        self.fill_policy = fill_policy
        self.promote_on_hit = promote_on_hit
        self.ll_extra_latency = ll_extra_latency
        self.latency = latency
        self.allocate_indirect = allocate_indirect
        self.replacement_name = replacement
        self._delta_max = (1 << (delta_bits - 1)) - 1
        self._delta_min = -(1 << (delta_bits - 1))
        self._tag_mask = (1 << tag_bits) - 1
        self._l1_sets_pow2 = self.l1_sets & (self.l1_sets - 1) == 0
        self._ll_sets_pow2 = self.ll_sets & (self.ll_sets - 1) == 0
        self._l1_mask = self.l1_sets - 1
        self._ll_mask = self.ll_sets - 1
        self._l1_replacement = make_replacement_table(
            replacement, self.l1_sets, l1_ways, srrip_bits
        )
        self._ll_replacement = make_replacement_table(
            replacement, self.ll_sets, ll_ways, srrip_bits
        )
        self._l1_touch = self._l1_replacement.on_hit
        self._ll_touch = self._ll_replacement.on_hit
        l1_size = self.l1_sets * l1_ways
        self._l1_valid = [False] * l1_size
        self._l1_tags = [_NO_TAG] * l1_size
        self._l1_directory = tag_directory(self._l1_tags, l1_ways)
        self._l1_targets = [0] * l1_size
        self._l1_conf = [0] * l1_size
        #: Model bookkeeping only (not charged in storage_bits): the PC
        #: behind each L1 entry, so a victim fill can recompute the
        #: last-level index/tag and the target delta.  Hardware keeps the
        #: delta alongside the entry instead; the information content is
        #: identical.
        self._l1_pcs = [0] * l1_size
        ll_size = self.ll_sets * ll_ways
        self._ll_valid = [False] * ll_size
        self._ll_tags = [_NO_TAG] * ll_size
        self._ll_directory = tag_directory(self._ll_tags, ll_ways)
        self._ll_deltas = [0] * ll_size
        self.l1_hits = 0
        self.ll_hits = 0
        self.promotions = 0
        self.victim_fills = 0
        self.uncompressible = 0

    # -- address mapping -----------------------------------------------------
    #
    # Both levels share the tag, ``(hashed >> 40) & _tag_mask``.  The L1
    # index is the hash's low bits; the last level draws its index from
    # ``hashed >> 17`` so the two levels do not mirror each other's
    # conflict sets.  The hashed pair inlines both.

    def _ll_slot(self, hashed: int) -> tuple[int, int]:
        shifted = hashed >> 17
        index = shifted & self._ll_mask if self._ll_sets_pow2 else shifted % self.ll_sets
        return index, (hashed >> 40) & self._tag_mask

    # -- the hashed pair -------------------------------------------------------
    #
    # Each half runs in one frame: index, tag, the L1 directory probe
    # (find_way's two lines) and, in the update, the L1 training are
    # inlined; only allocation and the last-level fill are calls.

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        index = hashed & self._l1_mask if self._l1_sets_pow2 else hashed % self.l1_sets
        tag = (hashed >> 40) & self._tag_mask
        base = index * self.l1_ways
        way = self._l1_directory[index].get(tag)
        if way is not None and self._l1_tags[base + way] == tag:
            self.l1_hits += 1
            self._l1_touch(base + way)
            return (self._l1_targets[base + way], True, self.latency, "l1btb")
        shifted = hashed >> 17
        ll_index = shifted & self._ll_mask if self._ll_sets_pow2 else shifted % self.ll_sets
        ll_slot = ll_index * self.ll_ways
        ll_way = self._ll_directory[ll_index].get(tag)
        if ll_way is None or self._ll_tags[ll_slot + ll_way] != tag:
            return (None, False, self.latency, "miss")
        ll_slot += ll_way
        self.ll_hits += 1
        self._ll_touch(ll_slot)
        target = pc + self._ll_deltas[ll_slot]
        if self.promote_on_hit:
            self.promotions += 1
            self._l1_allocate(index, tag, pc, target)
        return (target, True, self.latency + self.ll_extra_latency, "llbtb")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        if not taken:
            return
        if IS_INDIRECT[kind] and not self.allocate_indirect:
            return
        index = hashed & self._l1_mask if self._l1_sets_pow2 else hashed % self.l1_sets
        tag = (hashed >> 40) & self._tag_mask
        slot = index * self.l1_ways
        way = self._l1_directory[index].get(tag)
        if way is not None and self._l1_tags[slot + way] == tag:
            slot += way
            conf = self._l1_conf
            if self._l1_targets[slot] == target:
                if conf[slot] < self._conf_max:
                    conf[slot] += 1
            elif conf[slot] > 0:
                # Keep the incumbent target until confidence drains.
                conf[slot] -= 1
            else:
                self._l1_targets[slot] = target
                self._l1_pcs[slot] = pc
            self._l1_touch(slot)
        else:
            self._l1_allocate(index, tag, pc, target)
        if self.fill_policy == "all":
            self._ll_fill(pc, target, hashed)

    # -- level internals -----------------------------------------------------

    def _l1_allocate(self, index: int, tag: int, pc: int, target: int) -> None:
        replacement = self._l1_replacement
        base = index * self.l1_ways
        way = replacement.victim(self._l1_valid[base:base + self.l1_ways], base)
        slot = base + way
        row = self._l1_directory[index]
        if self._l1_valid[slot]:
            self.stats.evictions += 1
            drop_tag(row, self._l1_tags[slot], way)
            if self.fill_policy == "victim":
                self.victim_fills += 1
                victim_pc = self._l1_pcs[slot]
                self._ll_fill(victim_pc, self._l1_targets[slot], hash_pc(victim_pc))
        self._l1_valid[slot] = True
        self._l1_tags[slot] = tag
        row[tag] = way
        self._l1_targets[slot] = target
        self._l1_pcs[slot] = pc
        self._l1_conf[slot] = 0
        replacement.on_insert(slot)
        self.stats.allocations += 1

    def _ll_fill(self, pc: int, target: int, hashed: int) -> None:
        delta = target - pc
        if not self._delta_min <= delta <= self._delta_max:
            self.uncompressible += 1
            return
        index, tag = self._ll_slot(hashed)
        row = self._ll_directory[index]
        base = index * self.ll_ways
        way = find_way(row, self._ll_tags, base, tag)
        replacement = self._ll_replacement
        if way is None:
            way = replacement.victim(self._ll_valid[base:base + self.ll_ways], base)
            slot = base + way
            if self._ll_valid[slot]:
                drop_tag(row, self._ll_tags[slot], way)
            self._ll_valid[slot] = True
            self._ll_tags[slot] = tag
            row[tag] = way
            replacement.on_insert(slot)
        else:
            replacement.on_hit(base + way)
        self._ll_deltas[base + way] = delta

    # -- storage and introspection -------------------------------------------

    def storage_bits(self) -> int:
        l1_per_entry = (
            self.tag_bits
            + ADDRESS_BITS
            + self.conf_bits
            + self._l1_replacement.metadata_bits_per_entry()
        )
        ll_per_entry = (
            self.tag_bits
            + self.delta_bits
            + self._ll_replacement.metadata_bits_per_entry()
        )
        return self.l1_entries * l1_per_entry + self.ll_entries * ll_per_entry

    def occupancy(self) -> int:
        """Valid entries across both levels."""
        return sum(self._l1_valid) + sum(self._ll_valid)

    def metrics(self) -> dict:
        data = super().metrics()
        data["btb_l1_hits_total"] = self.l1_hits
        data["btb_ll_hits_total"] = self.ll_hits
        data["btb_ll_promotions_total"] = self.promotions
        data["btb_ll_victim_fills_total"] = self.victim_fills
        data["btb_ll_uncompressible_total"] = self.uncompressible
        data["btb_l1_entries"] = self.l1_entries
        data["btb_ll_entries"] = self.ll_entries
        return data

    @property
    def name(self) -> str:
        return f"MicroBTB({self.l1_entries}+{self.ll_entries}x{self.delta_bits}b)"
