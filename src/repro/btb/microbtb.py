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

Engine support: both engines.  The class has no combined
``observe_fast`` hook, so the fresh-run engine's BTB pass calls
``lookup`` then ``update`` per event, exactly as the live loop does; the
seed referee passes instances through unchanged, which is what the
differential tests lean on.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS, hash_pc
from repro.branch.types import BranchEvent
from repro.btb.base import BTBLookup, BranchTargetPredictor
from repro.btb.replacement import make_replacement_policy
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
        replacement / srrip_bits: per-set replacement policy of both
            levels.
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
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._l1_policies = [
            make_replacement_policy(replacement, l1_ways, **repl_kwargs)
            for _ in range(self.l1_sets)
        ]
        self._ll_policies = [
            make_replacement_policy(replacement, ll_ways, **repl_kwargs)
            for _ in range(self.ll_sets)
        ]
        l1_size = self.l1_sets * l1_ways
        self._l1_valid = [False] * l1_size
        self._l1_tags = [_NO_TAG] * l1_size
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
        self._ll_deltas = [0] * ll_size
        self.l1_hits = 0
        self.ll_hits = 0
        self.promotions = 0
        self.victim_fills = 0
        self.uncompressible = 0

    # -- address mapping -----------------------------------------------------

    def _l1_slot(self, hashed: int) -> tuple[int, int]:
        index = hashed & (self.l1_sets - 1) if self._l1_sets_pow2 else hashed % self.l1_sets
        return index, (hashed >> 40) & self._tag_mask

    def _ll_slot(self, hashed: int) -> tuple[int, int]:
        # The last level draws its index from a different hash byte so the
        # two levels do not mirror each other's conflict sets.
        shifted = hashed >> 17
        index = shifted & (self.ll_sets - 1) if self._ll_sets_pow2 else shifted % self.ll_sets
        return index, (hashed >> 40) & self._tag_mask

    @staticmethod
    def _find_way(tags: list[int], index: int, ways: int, tag: int) -> int | None:
        base = index * ways
        try:
            return tags.index(tag, base, base + ways) - base
        except ValueError:
            return None

    # -- BranchTargetPredictor API -------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        hashed = hash_pc(pc)
        index, tag = self._l1_slot(hashed)
        way = self._find_way(self._l1_tags, index, self.l1_ways, tag)
        if way is not None:
            self.l1_hits += 1
            self._l1_policies[index].on_hit(way)
            return BTBLookup(
                hit=True,
                target=self._l1_targets[index * self.l1_ways + way],
                latency=self.latency,
                provider="l1btb",
            )
        ll_index, ll_tag = self._ll_slot(hashed)
        ll_way = self._find_way(self._ll_tags, ll_index, self.ll_ways, ll_tag)
        if ll_way is None:
            return BTBLookup(
                hit=False, target=None, latency=self.latency, provider="miss"
            )
        self.ll_hits += 1
        self._ll_policies[ll_index].on_hit(ll_way)
        target = pc + self._ll_deltas[ll_index * self.ll_ways + ll_way]
        if self.promote_on_hit:
            self.promotions += 1
            self._l1_allocate(index, tag, pc, target)
        return BTBLookup(
            hit=True,
            target=target,
            latency=self.latency + self.ll_extra_latency,
            provider="llbtb",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        if not event.taken:
            return
        if event.kind.is_indirect and not self.allocate_indirect:
            return
        hashed = hash_pc(event.pc)
        index, tag = self._l1_slot(hashed)
        way = self._find_way(self._l1_tags, index, self.l1_ways, tag)
        if way is not None:
            self._l1_train(index, way, event.pc, event.target)
        else:
            self._l1_allocate(index, tag, event.pc, event.target)
        if self.fill_policy == "all":
            self._ll_fill(event.pc, event.target)

    # -- level internals -----------------------------------------------------

    def _l1_train(self, index: int, way: int, pc: int, target: int) -> None:
        slot = index * self.l1_ways + way
        if self._l1_targets[slot] == target:
            if self._l1_conf[slot] < self._conf_max:
                self._l1_conf[slot] += 1
        elif self._l1_conf[slot] > 0:
            # Keep the incumbent target until confidence drains.
            self._l1_conf[slot] -= 1
        else:
            self._l1_targets[slot] = target
            self._l1_pcs[slot] = pc
        self._l1_policies[index].on_hit(way)

    def _l1_allocate(self, index: int, tag: int, pc: int, target: int) -> None:
        policy = self._l1_policies[index]
        base = index * self.l1_ways
        way = policy.victim(self._l1_valid[base:base + self.l1_ways])
        slot = base + way
        if self._l1_valid[slot]:
            self.stats.evictions += 1
            if self.fill_policy == "victim":
                self.victim_fills += 1
                self._ll_fill(self._l1_pcs[slot], self._l1_targets[slot])
        self._l1_valid[slot] = True
        self._l1_tags[slot] = tag
        self._l1_targets[slot] = target
        self._l1_pcs[slot] = pc
        self._l1_conf[slot] = 0
        policy.on_insert(way)
        self.stats.allocations += 1

    def _ll_fill(self, pc: int, target: int) -> None:
        delta = target - pc
        if not self._delta_min <= delta <= self._delta_max:
            self.uncompressible += 1
            return
        hashed = hash_pc(pc)
        index, tag = self._ll_slot(hashed)
        way = self._find_way(self._ll_tags, index, self.ll_ways, tag)
        policy = self._ll_policies[index]
        if way is None:
            base = index * self.ll_ways
            way = policy.victim(self._ll_valid[base:base + self.ll_ways])
            self._ll_valid[base + way] = True
            self._ll_tags[base + way] = tag
            policy.on_insert(way)
        else:
            policy.on_hit(way)
        self._ll_deltas[index * self.ll_ways + way] = delta

    # -- storage and introspection -------------------------------------------

    def storage_bits(self) -> int:
        l1_per_entry = (
            self.tag_bits
            + ADDRESS_BITS
            + self.conf_bits
            + self._l1_policies[0].metadata_bits_per_entry()
        )
        ll_per_entry = (
            self.tag_bits
            + self.delta_bits
            + self._ll_policies[0].metadata_bits_per_entry()
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
