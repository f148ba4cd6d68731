"""PDede: the Partitioned, Deduplicated, Delta BTB (Section 4).

Structure (Figure 9A):

* **BTB-Monitor (BTBM)** -- set-associative, indexed and tagged by the
  branch PC.  Each entry carries the 12-bit target page offset directly
  (offsets are dense and do not deduplicate), a delta bit, and pointers
  into the Page-/Region-BTBs for different-page branches.
* **Page-BTB / Region-BTB** -- tagless dedup tables storing each distinct
  target page / region exactly once (:mod:`repro.core.tables`).

Lookup (Section 4.4.1): index+tag-match the BTBM.  With the delta bit
set the target is the branch PC's own page concatenated with the stored
offset -- one cycle.  Otherwise the page and region pointers are chased
(Region-BTB reads in parallel with the Page-BTB once the pointer is
known), costing one extra cycle (Figure 9D).

The two storage-recycling designs of Section 4.3.1 are selected by
:class:`~repro.core.config.PDedeMode`:

* ``MULTI_TARGET`` re-uses the pointer fields of same-page entries to
  hold the *next taken branch's* target offset, staged through a global
  Next Target Offset register at lookup time.
* ``MULTI_ENTRY`` reserves half the ways of every set for short
  (pointer-less, same-page-only) entries and doubles the entry count.

Storage layout: every per-entry field is one flat list indexed by
``set_index * ways + way``.  Tag match is a single ``list.index`` over
the set's slice -- invalid slots hold the ``_NO_TAG`` sentinel (-1),
which no real tag (non-negative) can equal, so the first index hit is
exactly the seed implementation's first valid-and-matching way.  The
invariant that makes this sound: **every** path that clears ``_valid``
must store ``_NO_TAG`` into ``_tags`` (the sanitizer's tag-sentinel
invariant guards it).  Short ways sit above ``_short_base``
(``ways // 2`` in multi-entry mode, else ``ways``), so way-class tests
are an integer compare instead of a list membership scan.
"""

from __future__ import annotations

from repro.branch.address import (
    REGION_BITS,
    PAGE_IN_REGION_BITS,
    fold_bits,
    hash_pc,
    join_target,
    page_base,
    page_in_region,
    page_offset,
    region_id,
    same_page,
)
from repro.branch.types import BranchEvent
from repro.btb.base import BTBLookup, BranchTargetPredictor
from repro.btb.replacement import make_replacement_policy
from repro.checks.sanitizer import sanitizer_step
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.tables import DedupValueTable

_NO_PTR = -1
#: Tag sentinel stored in invalid slots; real tags are non-negative.
_NO_TAG = -1


class PDedeBTB(BranchTargetPredictor):
    """The PDede branch target buffer.

    Args:
        config: geometry and feature selection; see
            :class:`~repro.core.config.PDedeConfig`.
    """

    def __init__(self, config: PDedeConfig | None = None) -> None:
        super().__init__()
        self.config = config or PDedeConfig()
        cfg = self.config
        self._sets = cfg.btbm_sets
        self._ways = cfg.btbm_ways
        self._sets_pow2 = self._sets & (self._sets - 1) == 0
        self._index_mask = self._sets - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._conf_max = (1 << cfg.conf_bits) - 1
        on_evict_page = self._invalidate_page_ptr if cfg.invalidate_stale_pointers else None
        on_evict_region = (
            self._invalidate_region_ptr if cfg.invalidate_stale_pointers else None
        )
        self.page_btb = DedupValueTable(
            cfg.page_entries,
            cfg.page_ways,
            PAGE_IN_REGION_BITS,
            replacement=cfg.replacement,
            srrip_bits=cfg.srrip_bits,
            name="page-btb",
            on_evict=on_evict_page,
        )
        self.region_btb = DedupValueTable(
            cfg.region_entries,
            cfg.region_entries,  # fully associative
            REGION_BITS,
            replacement=cfg.replacement,
            srrip_bits=cfg.srrip_bits,
            name="region-btb",
            on_evict=on_evict_region,
        )
        sets, ways = self._sets, self._ways
        size = sets * ways
        self._valid = [False] * size
        self._tags = [_NO_TAG] * size
        self._delta = [False] * size
        self._offsets = [0] * size
        self._page_ptr = [_NO_PTR] * size
        self._region_ptr = [_NO_PTR] * size
        self._page_gen = [0] * size
        self._region_gen = [0] * size
        self._conf = [0] * size
        # Multi-target per-entry state (physically the re-used ptr fields).
        self._next_valid = [False] * size
        self._next_offset = [0] * size
        # Future-work extension: small tag of the next PC (Section 4.3.1).
        self._next_tag = [0] * size
        repl_kwargs = {"m": cfg.srrip_bits} if cfg.replacement == "srrip" else {}
        if cfg.mode is PDedeMode.MULTI_ENTRY:
            half = ways // 2
            self._short_base = half
            self._long_ways = list(range(half))
            self._short_ways = list(range(half, ways))
            self._long_policies = [
                make_replacement_policy(cfg.replacement, half, **repl_kwargs)
                for _ in range(sets)
            ]
            self._short_policies = [
                make_replacement_policy(cfg.replacement, half, **repl_kwargs)
                for _ in range(sets)
            ]
            self._policies = None
        else:
            self._short_base = ways
            self._long_ways = list(range(ways))
            self._short_ways = []
            self._long_policies = self._short_policies = None
            self._policies = [
                make_replacement_policy(cfg.replacement, ways, **repl_kwargs)
                for _ in range(sets)
            ]
        # Multi-target global registers (Section 4.3.1 / 4.4.2).
        self._pending_next_offset: int | None = None
        self._pending_next_tag: int = 0
        self._last_btbm_slot: tuple[int, int] | None = None
        # Reverse pointer maps, maintained only in invalidating mode.
        self._page_ptr_users: dict[int, set[tuple[int, int]]] = {}
        self._region_ptr_users: dict[int, set[tuple[int, int]]] = {}
        #: Mutation journal for the ``btb/vectorops.py`` struct-of-arrays
        #: mirrors (no engine arms it): every write to lookup-visible
        #: BTBM state appends its flat slot here while armed.
        self._vec_journal: list[int] | None = None
        # Extra observability.
        self.stale_pointer_reads = 0
        self.delta_hits = 0
        self.pointer_hits = 0
        self.next_target_provisions = 0
        self.next_target_correct = 0

    # -- address mapping -----------------------------------------------------

    def _index(self, pc: int) -> int:
        hashed = hash_pc(pc)
        if self._sets_pow2:
            return hashed & self._index_mask
        return hashed % self._sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & self._tag_mask

    def _slot(self, pc: int) -> tuple[int, int]:
        """(set index, tag) from a single hash (hot path)."""
        hashed = hash_pc(pc)
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        return index, (hashed >> 40) & self._tag_mask

    def _find_way(self, set_index: int, tag: int) -> int | None:
        base = set_index * self._ways
        try:
            return self._tags.index(tag, base, base + self._ways) - base
        except ValueError:
            return None

    # -- replacement plumbing ---------------------------------------------------

    def _touch(self, set_index: int, way: int) -> None:
        if self._policies is not None:
            self._policies[set_index].on_hit(way)
        elif way >= self._short_base:
            self._short_policies[set_index].on_hit(way - self._short_base)
        else:
            self._long_policies[set_index].on_hit(way)

    def _choose_victim(self, set_index: int, needs_pointers: bool) -> int:
        """Pick the way to (re)fill, honouring multi-entry way reservation."""
        base = set_index * self._ways
        valid = self._valid[base:base + self._ways]
        if self._policies is not None:
            return self._policies[set_index].victim(valid)
        half = self._short_base
        long_valid = valid[:half]
        short_valid = valid[half:]
        if needs_pointers:
            # Different-page branches cannot use pointer-less short ways.
            return self._long_policies[set_index].victim(long_valid)
        # Same-page branches prefer the reserved short ways, then any
        # invalid long way, then evict from the short half.
        if not all(short_valid):
            return half + self._short_policies[set_index].victim(short_valid)
        if not all(long_valid):
            return self._long_policies[set_index].victim(long_valid)
        return half + self._short_policies[set_index].victim(short_valid)

    def _mark_inserted(self, set_index: int, way: int) -> None:
        if self._policies is not None:
            self._policies[set_index].on_insert(way)
        elif way >= self._short_base:
            self._short_policies[set_index].on_insert(way - self._short_base)
        else:
            self._long_policies[set_index].on_insert(way)

    # -- stale-pointer invalidation (optional mode) --------------------------------

    def _invalidate_page_ptr(self, pointer: int) -> None:
        ways = self._ways
        for set_index, way in self._page_ptr_users.pop(pointer, ()):  # pragma: no branch
            # Unlink the entry's *other* pointer too: an invalidated entry
            # left in the region user map would let a later Region-BTB
            # eviction kill whatever unrelated branch re-allocates this
            # slot (the sanitizer's link-balance invariant catches this).
            self._unlink_pointers(set_index, way)
            slot = set_index * ways + way
            self._valid[slot] = False
            self._tags[slot] = _NO_TAG
            if self._vec_journal is not None:
                self._vec_journal.append(slot)

    def _invalidate_region_ptr(self, pointer: int) -> None:
        ways = self._ways
        for set_index, way in self._region_ptr_users.pop(pointer, ()):
            self._unlink_pointers(set_index, way)
            slot = set_index * ways + way
            self._valid[slot] = False
            self._tags[slot] = _NO_TAG
            if self._vec_journal is not None:
                self._vec_journal.append(slot)

    def _unlink_pointers(self, set_index: int, way: int) -> None:
        if not self.config.invalidate_stale_pointers:
            return
        slot = (set_index, way)
        flat = set_index * self._ways + way
        page_ptr = self._page_ptr[flat]
        if page_ptr != _NO_PTR:
            self._page_ptr_users.get(page_ptr, set()).discard(slot)
        region_ptr = self._region_ptr[flat]
        if region_ptr != _NO_PTR:
            self._region_ptr_users.get(region_ptr, set()).discard(slot)

    def _link_pointers(self, set_index: int, way: int) -> None:
        if not self.config.invalidate_stale_pointers:
            return
        slot = (set_index, way)
        flat = set_index * self._ways + way
        page_ptr = self._page_ptr[flat]
        if page_ptr != _NO_PTR:
            self._page_ptr_users.setdefault(page_ptr, set()).add(slot)
        region_ptr = self._region_ptr[flat]
        if region_ptr != _NO_PTR:
            self._region_ptr_users.setdefault(region_ptr, set()).add(slot)

    # -- target reconstruction -----------------------------------------------------

    def _reconstruct(self, set_index: int, way: int, pc: int) -> tuple[int, int]:
        """Rebuild the predicted target of a valid entry.

        Returns ``(target, latency)``.  Pointer-chasing entries cost the
        extra cycle (Figure 9D) and count stale reads when the pointed-to
        slot was re-allocated under them.
        """
        slot = set_index * self._ways + way
        if self._delta[slot]:
            self.delta_hits += 1
            return page_base(pc) | self._offsets[slot], 1
        page_ptr = self._page_ptr[slot]
        region_ptr = self._region_ptr[slot]
        if self.page_btb.is_stale(page_ptr, self._page_gen[slot]) or (
            self.region_btb.is_stale(region_ptr, self._region_gen[slot])
        ):
            self.stale_pointer_reads += 1
        page_value = self.page_btb.read(page_ptr)
        region_value = self.region_btb.read(region_ptr)
        self.page_btb.touch(page_ptr)
        self.region_btb.touch(region_ptr)
        self.pointer_hits += 1
        target = join_target(region_value, page_value, self._offsets[slot])
        return target, 2

    # -- lookup (Section 4.4.1) ------------------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        pending = self._pending_next_offset
        pending_tag = self._pending_next_tag
        self._pending_next_offset = None
        set_index, tag = self._slot(pc)
        way = self._find_way(set_index, tag)
        if way is None:
            if pending is not None and (
                not self.config.next_target_tag_bits
                or pending_tag == fold_bits(pc >> 1, self.config.next_target_tag_bits)
            ):
                # BTBM miss served by the Next Target Offset register: the
                # missing PC is the next taken branch after the entry that
                # staged the register, so its target shares the PC's page.
                self.next_target_provisions += 1
                return BTBLookup(
                    hit=False,
                    target=page_base(pc) | pending,
                    latency=2 if self.config.always_two_cycle else 1,
                    provider="next-target",
                )
            return BTBLookup(hit=False, target=None, latency=1, provider="miss")
        target, latency = self._reconstruct(set_index, way, pc)
        if self.config.always_two_cycle:
            latency = 2
        slot = set_index * self._ways + way
        if (
            self.config.mode is PDedeMode.MULTI_TARGET
            and self._delta[slot]
            and self._next_valid[slot]
        ):
            self._pending_next_offset = self._next_offset[slot]
            self._pending_next_tag = self._next_tag[slot]
        self._touch(set_index, way)
        provider = "btbm-delta" if self._delta[slot] else "btbm-ptr"
        return BTBLookup(hit=True, target=target, latency=latency, provider=provider)

    # -- update / allocation (Section 4.4.2) ---------------------------------------

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        if not event.taken:
            return
        if event.kind.is_indirect and not self.config.allocate_indirect:
            self._last_btbm_slot = None
            return
        pc, target = event.pc, event.target
        is_same_page = same_page(pc, target)
        use_delta = is_same_page and self.config.delta_encoding
        set_index, tag = self._slot(pc)
        way = self._find_way(set_index, tag)
        if way is not None:
            self._train_existing(set_index, way, pc, target, use_delta)
        else:
            way = self._allocate(set_index, tag, target, use_delta)
        if self.config.mode is PDedeMode.MULTI_TARGET:
            self._chain_next_target(set_index, way, pc, target, use_delta)

    # -- scalar hooks used by the fresh-run engine's BTB pass ----------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int]:
        """`lookup` on a precomputed hash; returns ``(target, hit, latency)``.

        Exact state evolution of :meth:`lookup` minus the BTBLookup
        allocation; ``observe_fast`` and ``TwoLevelBTB.observe_fast``
        are the only callers.
        """
        pending = self._pending_next_offset
        pending_tag = self._pending_next_tag
        self._pending_next_offset = None
        cfg = self.config
        set_index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        tag = (hashed >> 40) & self._tag_mask
        ways = self._ways
        base = set_index * ways
        try:
            slot = self._tags.index(tag, base, base + ways)
        except ValueError:
            if pending is not None and (
                not cfg.next_target_tag_bits
                or pending_tag == fold_bits(pc >> 1, cfg.next_target_tag_bits)
            ):
                self.next_target_provisions += 1
                return (
                    page_base(pc) | pending,
                    False,
                    2 if cfg.always_two_cycle else 1,
                )
            return (None, False, 1)
        way = slot - base
        target, latency = self._reconstruct(set_index, way, pc)
        if cfg.always_two_cycle:
            latency = 2
        if (
            cfg.mode is PDedeMode.MULTI_TARGET
            and self._delta[slot]
            and self._next_valid[slot]
        ):
            self._pending_next_offset = self._next_offset[slot]
            self._pending_next_tag = self._next_tag[slot]
        self._touch(set_index, way)
        return (target, True, latency)

    def update_fast(
        self,
        pc: int,
        target: int,
        taken: bool,
        is_indirect: bool,
        hashed: int,
        is_same_page: bool,
    ) -> None:
        """`update` on precomputed hash and page bits (no event object).

        The sanitizer hook is omitted: the fresh-run engine only runs
        with the sanitizer disarmed (the simulator gates on it).
        """
        self.stats.updates += 1
        if not taken:
            return
        cfg = self.config
        if is_indirect and not cfg.allocate_indirect:
            self._last_btbm_slot = None
            return
        use_delta = is_same_page and cfg.delta_encoding
        set_index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        tag = (hashed >> 40) & self._tag_mask
        way = self._find_way(set_index, tag)
        if way is not None:
            self._train_existing(set_index, way, pc, target, use_delta)
        else:
            way = self._allocate(set_index, tag, target, use_delta)
        if cfg.mode is PDedeMode.MULTI_TARGET:
            self._chain_next_target(set_index, way, pc, target, use_delta)

    def observe_fast(
        self,
        pc: int,
        target: int,
        taken: bool,
        is_indirect: bool,
        hashed: int,
        is_same_page: bool,
    ) -> tuple[int | None, bool, int]:
        """Combined lookup+update sharing one tag match.

        Returns the lookup's ``(target, hit, latency)``.  Nothing between
        the seed's ``lookup`` and ``update`` calls can change the tag
        match (lookup touches only replacement/pending/counter state), so
        one ``list.index`` serves both halves; every other state
        transition happens in the seed order.
        """
        cfg = self.config
        pending = self._pending_next_offset
        pending_tag = self._pending_next_tag
        self._pending_next_offset = None
        set_index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        tag = (hashed >> 40) & self._tag_mask
        ways = self._ways
        base = set_index * ways
        try:
            slot = self._tags.index(tag, base, base + ways)
        except ValueError:
            # -- lookup outcome on a tag miss --
            if pending is not None and (
                not cfg.next_target_tag_bits
                or pending_tag == fold_bits(pc >> 1, cfg.next_target_tag_bits)
            ):
                self.next_target_provisions += 1
                ltarget: int | None = page_base(pc) | pending
                latency = 2 if cfg.always_two_cycle else 1
            else:
                ltarget = None
                latency = 1
            # -- update half --
            self.stats.updates += 1
            if not taken:
                return (ltarget, False, latency)
            if is_indirect and not cfg.allocate_indirect:
                self._last_btbm_slot = None
                return (ltarget, False, latency)
            use_delta = is_same_page and cfg.delta_encoding
            way = self._allocate(set_index, tag, target, use_delta)
            if cfg.mode is PDedeMode.MULTI_TARGET:
                self._chain_next_target(set_index, way, pc, target, use_delta)
            return (ltarget, False, latency)
        way = slot - base
        ltarget, latency = self._reconstruct(set_index, way, pc)
        if cfg.always_two_cycle:
            latency = 2
        if (
            cfg.mode is PDedeMode.MULTI_TARGET
            and self._delta[slot]
            and self._next_valid[slot]
        ):
            self._pending_next_offset = self._next_offset[slot]
            self._pending_next_tag = self._next_tag[slot]
        self._touch(set_index, way)
        # -- update half --
        self.stats.updates += 1
        if not taken:
            return (ltarget, True, latency)
        if is_indirect and not cfg.allocate_indirect:
            self._last_btbm_slot = None
            return (ltarget, True, latency)
        use_delta = is_same_page and cfg.delta_encoding
        self._train_existing(set_index, way, pc, target, use_delta)
        if cfg.mode is PDedeMode.MULTI_TARGET:
            self._chain_next_target(set_index, way, pc, target, use_delta)
        return (ltarget, True, latency)

    def _train_existing(
        self, set_index: int, way: int, pc: int, target: int, use_delta: bool
    ) -> None:
        predicted, _ = self._reconstruct(set_index, way, pc)
        slot = set_index * self._ways + way
        if predicted == target:
            if self._conf[slot] < self._conf_max:
                self._conf[slot] += 1
        elif self._conf[slot] > 0:
            self._conf[slot] -= 1
        else:
            self._write_target_fields(set_index, way, target, use_delta)
        self._touch(set_index, way)

    def _write_target_fields(
        self, set_index: int, way: int, target: int, use_delta: bool
    ) -> None:
        """(Re)encode an entry's target, allocating table entries if needed."""
        slot = set_index * self._ways + way
        if not use_delta and way >= self._short_base:
            # A short multi-entry way cannot hold pointers: the entry is
            # abandoned and the branch re-allocates into a long way on its
            # next update (hardware simply invalidates).
            self._unlink_pointers(set_index, way)
            self._valid[slot] = False
            self._tags[slot] = _NO_TAG
            if self._vec_journal is not None:
                self._vec_journal.append(slot)
            return
        self._unlink_pointers(set_index, way)
        self._offsets[slot] = page_offset(target)
        self._delta[slot] = use_delta
        self._next_valid[slot] = False
        if use_delta:
            self._page_ptr[slot] = _NO_PTR
            self._region_ptr[slot] = _NO_PTR
        else:
            region_ptr, region_gen = self.region_btb.allocate(region_id(target))
            page_ptr, page_gen = self.page_btb.allocate(page_in_region(target))
            self._region_ptr[slot] = region_ptr
            self._region_gen[slot] = region_gen
            self._page_ptr[slot] = page_ptr
            self._page_gen[slot] = page_gen
            self._link_pointers(set_index, way)
        if self._vec_journal is not None:
            self._vec_journal.append(slot)

    def _allocate(self, set_index: int, tag: int, target: int, use_delta: bool) -> int:
        # Region/Page-BTB allocations come first: a BTBM entry is created
        # only after both succeed, so the BTBM never holds dangling-new
        # pointers (Section 4.4.2).
        way = self._choose_victim(set_index, needs_pointers=not use_delta)
        slot = set_index * self._ways + way
        if self._valid[slot]:
            self.stats.evictions += 1
            self._unlink_pointers(set_index, way)
        self._valid[slot] = True
        self._tags[slot] = tag
        self._conf[slot] = 0
        self._next_valid[slot] = False
        self._page_ptr[slot] = _NO_PTR
        self._region_ptr[slot] = _NO_PTR
        if self._vec_journal is not None:
            self._vec_journal.append(slot)
        self._write_target_fields(set_index, way, target, use_delta)
        self._mark_inserted(set_index, way)
        self.stats.allocations += 1
        return way

    def _chain_next_target(
        self, set_index: int, way: int, pc: int, target: int, is_same_page: bool
    ) -> None:
        """Multi-target bookkeeping after an update (Section 4.4.2)."""
        ways = self._ways
        if self._last_btbm_slot is not None and is_same_page:
            last_set, last_way = self._last_btbm_slot
            last = last_set * ways + last_way
            if self._valid[last] and self._delta[last]:
                self._next_valid[last] = True
                self._next_offset[last] = page_offset(target)
                if self.config.next_target_tag_bits:
                    self._next_tag[last] = fold_bits(
                        pc >> 1, self.config.next_target_tag_bits
                    )
        if is_same_page and self._valid[set_index * ways + way]:
            self._last_btbm_slot = (set_index, way)
        else:
            self._last_btbm_slot = None

    # -- accounting / introspection ---------------------------------------------------

    def storage_bits(self) -> int:
        return self.config.storage_bits()

    @property
    def name(self) -> str:
        return f"PDede[{self.config.mode.value}]"

    def occupancy(self) -> int:
        return sum(self._valid)

    def delta_entry_count(self) -> int:
        return sum(
            1
            for valid, delta in zip(self._valid, self._delta)
            if valid and delta
        )

    def contains(self, pc: int) -> bool:
        return self._find_way(self._index(pc), self._tag(pc)) is not None

    def metrics(self) -> dict:
        """Per-structure snapshot: BTBM, Page-BTB, Region-BTB internals.

        The delta-vs-pointer hit split and the dedup-table occupancies
        are the numbers Section 4's arguments turn on; exposing them per
        run is the point of the observability layer.
        """
        data = super().metrics()
        data.update(
            btbm_occupancy=self.occupancy(),
            btbm_entries=self._sets * self._ways,
            btbm_delta_entries=self.delta_entry_count(),
            pdede_delta_hits_total=self.delta_hits,
            pdede_pointer_hits_total=self.pointer_hits,
            pdede_stale_pointer_reads_total=self.stale_pointer_reads,
            pdede_next_target_provisions_total=self.next_target_provisions,
            pdede_next_target_correct_total=self.next_target_correct,
        )
        data.update(self.page_btb.metrics("page_btb"))
        data.update(self.region_btb.metrics("region_btb"))
        return data
