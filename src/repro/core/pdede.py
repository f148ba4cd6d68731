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
``set_index * ways + way``.  Invalid slots hold the ``_NO_TAG`` sentinel
(-1), which no real tag (non-negative) can equal, so a slot whose tag
matches is exactly the seed implementation's valid-and-matching way.
The invariant that makes this sound: **every** path that clears
``_valid`` must store ``_NO_TAG`` into ``_tags`` (the sanitizer's
tag-sentinel invariant guards it).  Every tag match probes the
table's ``{tag: way}`` directory per set
(:func:`~repro.btb.base.tag_directory`), which allocation keeps, and
checks the slot's tag, so a miss raises nothing and a slot since
abandoned or invalidated reads as a miss.  Short ways sit above
``_short_base`` (``ways // 2`` in multi-entry mode, else ``ways``), so
way-class tests are an integer compare instead of a list membership
scan.  One replacement-state object covers the whole BTBM and its
slots are the flat slots: in multi-entry mode it has ``2 * sets`` sets
of ``ways // 2`` ways, a BTBM set's long half then its short half, so
each half keeps its own replacement order as in the seed.
"""

from __future__ import annotations

from repro.branch.address import (
    ADDRESS_MASK,
    OFFSET_BITS,
    REGION_BITS,
    PAGE_IN_REGION_BITS,
    fold_bits,
    hash_pc,
    join_target,
    page_base,
    page_in_region,
    region_id,
    same_page,
)
from repro.branch.types import IS_INDIRECT, BranchEvent
from repro.btb.base import (
    NO_TARGET, BranchTargetPredictor, drop_tag, find_way, tag_directory,
)
from repro.btb.replacement import make_replacement_table
from repro.checks.sanitizer import sanitizer_step
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.tables import DedupValueTable

_NO_PTR = -1
_OFFSET_MASK = (1 << OFFSET_BITS) - 1
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
        self._directory = tag_directory(self._tags, ways)
        if cfg.mode is PDedeMode.MULTI_ENTRY:
            self._short_base = ways // 2
            self._replacement = make_replacement_table(
                cfg.replacement, 2 * sets, ways // 2, cfg.srrip_bits
            )
        else:
            self._short_base = ways
            self._replacement = make_replacement_table(
                cfg.replacement, sets, ways, cfg.srrip_bits
            )
        # Multi-target global registers (Section 4.3.1 / 4.4.2).
        self._pending_next_offset: int | None = None
        self._pending_next_tag: int = 0
        self._last_btbm_slot: int | None = None  # flat slot
        # Reverse pointer maps, maintained only in invalidating mode.
        self._page_ptr_users: dict[int, set[tuple[int, int]]] = {}
        self._region_ptr_users: dict[int, set[tuple[int, int]]] = {}
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

    def _find_way(self, set_index: int, tag: int) -> int | None:
        return find_way(self._directory[set_index], self._tags, set_index * self._ways, tag)

    # -- replacement plumbing ---------------------------------------------------

    def _choose_victim(self, set_index: int, needs_pointers: bool) -> int:
        """Pick the way to (re)fill, honouring multi-entry way reservation."""
        base = set_index * self._ways
        valid = self._valid
        victim = self._replacement.victim
        half = self._short_base
        long_valid = valid[base:base + half]
        if half == self._ways or needs_pointers:
            # One replacement set, or a different-page branch, which
            # cannot use the pointer-less short ways.
            return victim(long_valid, base)
        # Same-page branches prefer the reserved short ways, then any
        # invalid long way, then evict from the short half.
        short_valid = valid[base + half:base + self._ways]
        if False in short_valid or False not in long_valid:
            return half + victim(short_valid, base + half)
        return victim(long_valid, base)

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

    def _invalidate_region_ptr(self, pointer: int) -> None:
        ways = self._ways
        for set_index, way in self._region_ptr_users.pop(pointer, ()):
            self._unlink_pointers(set_index, way)
            slot = set_index * ways + way
            self._valid[slot] = False
            self._tags[slot] = _NO_TAG

    def _unlink_pointers(self, set_index: int, way: int) -> None:
        # This and _link_pointers run in invalidating mode only; callers check.
        slot = (set_index, way)
        flat = set_index * self._ways + way
        page_ptr = self._page_ptr[flat]
        if page_ptr != _NO_PTR:
            self._page_ptr_users.get(page_ptr, set()).discard(slot)
        region_ptr = self._region_ptr[flat]
        if region_ptr != _NO_PTR:
            self._region_ptr_users.get(region_ptr, set()).discard(slot)

    def _link_pointers(self, set_index: int, way: int) -> None:
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

    # -- lookup (Section 4.4.1) and update / allocation (Section 4.4.2) -----------

    def update(self, event: BranchEvent) -> None:
        # The base adapter, minus the hash of a not-taken branch, which
        # an update only counts.
        if not event.taken:
            sanitizer_step(self)
            self.stats.updates += 1
            return
        pc, target = event.pc, event.target
        self.update_fast(pc, target, True, int(event.kind), hash_pc(pc), same_page(pc, target))

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        """The lookup: ``(target, hit, latency, provider)``.

        The provider is ``"btbm-delta"`` or ``"btbm-ptr"`` on a hit,
        ``"next-target"`` on a miss the Next Target Offset register
        serves, and ``"miss"`` otherwise.
        """
        pending = self._pending_next_offset
        pending_tag = self._pending_next_tag
        self._pending_next_offset = None
        cfg = self.config
        set_index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        tag = (hashed >> 40) & self._tag_mask
        base = set_index * self._ways
        # find_way, inlined: the call would cost a hit about 10%.
        way = self._directory[set_index].get(tag)
        if way is None or self._tags[base + way] != tag:
            if pending is not None and (
                not cfg.next_target_tag_bits
                or pending_tag == fold_bits(pc >> 1, cfg.next_target_tag_bits)
            ):
                # BTBM miss served by the Next Target Offset register: the
                # missing PC is the next taken branch after the entry that
                # staged the register, so its target shares the PC's page.
                self.next_target_provisions += 1
                return (
                    page_base(pc) | pending,
                    False,
                    2 if cfg.always_two_cycle else 1,
                    "next-target",
                )
            return (None, False, 1, "miss")
        slot = base + way
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
        self._replacement.on_hit(slot)
        return (target, True, latency, "btbm-delta" if self._delta[slot] else "btbm-ptr")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        """The update (Section 4.4.2)."""
        sanitizer_step(self)
        self.stats.updates += 1
        if not taken:
            return
        cfg = self.config
        if IS_INDIRECT[kind] and not cfg.allocate_indirect:
            self._last_btbm_slot = None
            return
        use_delta = is_same_page and cfg.delta_encoding
        set_index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        tag = (hashed >> 40) & self._tag_mask
        way = find_way(self._directory[set_index], self._tags, set_index * self._ways, tag)
        if way is not None:
            self._train_existing(set_index, way, pc, target, use_delta)
        else:
            way = self._allocate(set_index, tag, target, use_delta)
        if cfg.mode is PDedeMode.MULTI_TARGET:
            self._chain_next_target(set_index, way, pc, target, use_delta)

    # -- the fresh-run engine's inlined BTB pass ------------------------------------

    def observe_fast(self, columns, start: int, stop: int, results) -> None:
        """The fresh-run engine's BTB pass over active events ``start:stop``.

        Same contract as the base loop (this pass reads every column but
        ``is_direct`` and ``kinds``).  The state evolution is exactly
        :meth:`lookup_fast` then :meth:`update_fast` per event, in one
        frame, with two shortcuts:

        * one tag match serves both halves: lookup writes only
          replacement, pending-register and counter state, none of which
          the match reads.  The match probes the
          table's tag directory (:func:`~repro.btb.base.find_way`'s
          probe, inlined), so a miss raises nothing; an entry whose slot
          was since evicted, abandoned as a short way or invalidated
          fails its ``tags[slot] == tag`` check and reads as a miss;
        * a hit reconstructs its target once.  The update (Section 4.4.2)
          retrains the entry the lookup (Section 4.4.1) just read, and
          nothing in between writes that entry or the dedup tables, so a
          second reconstruction would return the same target; its touches
          would repeat the lookup's back to back, which no replacement
          policy distinguishes from one.  The hit counters still advance
          twice for an event that trains, as the seed's second
          reconstruction does.

        Counters are accumulated in locals and flushed on return, so a
        ``reset_stats`` between two calls splits them at the call
        boundary.  The sanitizer hook is omitted: the fresh-run engine
        only runs with it disarmed (the simulator gates on it).
        """
        pcs, targets, takens, is_indirect, hashes, same_page_col, _, _ = columns
        out_target, out_hit, out_latency = (column.append for column in results)
        cfg = self.config
        multi_target = cfg.mode is PDedeMode.MULTI_TARGET
        next_tag_bits = cfg.next_target_tag_bits
        # A delta hit or a Next-Target provision: one cycle unless every
        # lookup is charged two; a pointer chase always takes two.
        short_latency = 2 if cfg.always_two_cycle else 1
        skip_indirect = not cfg.allocate_indirect
        delta_encoding = cfg.delta_encoding
        sets_pow2, index_mask, sets = self._sets_pow2, self._index_mask, self._sets
        tag_mask, ways = self._tag_mask, self._ways
        tags, delta, offsets = self._tags, self._delta, self._offsets
        directory = self._directory
        page_ptr, region_ptr = self._page_ptr, self._region_ptr
        page_gen, region_gen = self._page_gen, self._region_gen
        conf, conf_max = self._conf, self._conf_max
        next_valid, next_offset, next_tag = (
            self._next_valid, self._next_offset, self._next_tag
        )
        touch = self._replacement.on_hit
        page, region = self.page_btb, self.region_btb
        page_ways, page_values = page.ways, page._values
        page_gens, page_touch = page._generations, page.touch
        region_ways, region_values = region.ways, region._values
        region_gens, region_touch = region._generations, region.touch
        page_mask = page_base(ADDRESS_MASK)
        allocate = self._allocate
        write_target_fields = self._write_target_fields
        chain_next_target = self._chain_next_target
        pending = self._pending_next_offset
        pending_tag = self._pending_next_tag
        delta_reads = pointer_reads = stale_reads = provisions = 0
        for i in range(start, stop):
            hashed = hashes[i]
            set_index = hashed & index_mask if sets_pow2 else hashed % sets
            tag = (hashed >> 40) & tag_mask
            staged = pending
            pending = None
            way = directory[set_index].get(tag)
            base = set_index * ways
            if way is None or tags[base + way] != tag:
                # -- lookup: tag miss, maybe served by the Next Target
                # Offset register (see lookup_fast) --
                pc = pcs[i]
                if staged is not None and (
                    not next_tag_bits
                    or pending_tag == fold_bits(pc >> 1, next_tag_bits)
                ):
                    provisions += 1
                    out_target((pc & page_mask) | staged)
                    out_latency(short_latency)
                else:
                    out_target(NO_TARGET)
                    out_latency(1)
                out_hit(False)
                # -- update: allocate --
                if not takens[i]:
                    continue
                if skip_indirect and is_indirect[i]:
                    self._last_btbm_slot = None
                    continue
                target = targets[i]
                use_delta = same_page_col[i] and delta_encoding
                way = allocate(set_index, tag, target, use_delta)
                if multi_target:
                    chain_next_target(set_index, way, pc, target, use_delta)
                continue
            # -- lookup: hit, reconstructed once --
            slot = base + way
            taken = takens[i]
            trains = taken and not (skip_indirect and is_indirect[i])
            # The seed's update reconstructs again, counting every read twice.
            reads = 2 if trains else 1
            if delta[slot]:
                delta_reads += reads
                predicted = (pcs[i] & page_mask) | offsets[slot]
                out_latency(short_latency)
                if multi_target and next_valid[slot]:
                    pending = next_offset[slot]
                    pending_tag = next_tag[slot]
            else:
                pointer_reads += reads
                page_pointer, region_pointer = page_ptr[slot], region_ptr[slot]
                page_set, page_way = divmod(page_pointer, page_ways)
                region_set, region_way = divmod(region_pointer, region_ways)
                if (
                    page_gens[page_set][page_way] != page_gen[slot]
                    or region_gens[region_set][region_way] != region_gen[slot]
                ):
                    stale_reads += reads
                predicted = join_target(
                    region_values[region_set][region_way],
                    page_values[page_set][page_way],
                    offsets[slot],
                )
                page_touch(page_pointer)
                region_touch(region_pointer)
                out_latency(2)
            out_target(predicted)
            out_hit(True)
            touch(slot)
            # -- update: retrain the entry just read --
            if not trains:
                if taken:
                    self._last_btbm_slot = None
                continue
            target = targets[i]
            use_delta = same_page_col[i] and delta_encoding
            if predicted == target:
                if conf[slot] < conf_max:
                    conf[slot] += 1
            elif conf[slot] > 0:
                conf[slot] -= 1
            else:
                write_target_fields(set_index, way, target, use_delta)
            if multi_target:
                chain_next_target(set_index, way, pcs[i], target, use_delta)
        self._pending_next_offset = pending
        self._pending_next_tag = pending_tag
        self.stats.updates += stop - start
        self.delta_hits += delta_reads
        self.pointer_hits += pointer_reads
        self.stale_pointer_reads += stale_reads
        self.next_target_provisions += provisions

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
        self._replacement.on_hit(slot)

    def _write_target_fields(
        self, set_index: int, way: int, target: int, use_delta: bool
    ) -> None:
        """(Re)encode an entry's target, allocating table entries if needed.

        In invalidating mode the entry's old pointers are unlinked first
        and its new ones linked last; an invalid slot links none.
        """
        slot = set_index * self._ways + way
        invalidating = self.config.invalidate_stale_pointers
        if invalidating:
            self._unlink_pointers(set_index, way)
        if not use_delta and way >= self._short_base:
            # A short multi-entry way cannot hold pointers: the entry is
            # abandoned and the branch re-allocates into a long way on its
            # next update (hardware simply invalidates).
            self._valid[slot] = False
            self._tags[slot] = _NO_TAG
            return
        self._offsets[slot] = target & _OFFSET_MASK
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
            if invalidating:
                self._link_pointers(set_index, way)

    def _allocate(self, set_index: int, tag: int, target: int, use_delta: bool) -> int:
        # Region/Page-BTB allocations come first: a BTBM entry is created
        # only after both succeed, so the BTBM never holds dangling-new
        # pointers (Section 4.4.2).  _write_target_fields also unlinks the
        # victim's old pointers and rewrites every field the entry reads.
        way = self._choose_victim(set_index, needs_pointers=not use_delta)
        slot = set_index * self._ways + way
        row = self._directory[set_index]
        if self._valid[slot]:
            self.stats.evictions += 1
            drop_tag(row, self._tags[slot], way)
        self._valid[slot] = True
        self._tags[slot] = tag
        row[tag] = way
        self._conf[slot] = 0
        self._write_target_fields(set_index, way, target, use_delta)
        self._replacement.on_insert(slot)
        self.stats.allocations += 1
        return way

    def _chain_next_target(
        self, set_index: int, way: int, pc: int, target: int, is_same_page: bool
    ) -> None:
        """Multi-target bookkeeping after an update (Section 4.4.2)."""
        if not is_same_page:
            self._last_btbm_slot = None
            return
        valid = self._valid
        last = self._last_btbm_slot
        if last is not None and valid[last] and self._delta[last]:
            self._next_valid[last] = True
            self._next_offset[last] = target & _OFFSET_MASK
            tag_bits = self.config.next_target_tag_bits
            if tag_bits:
                self._next_tag[last] = fold_bits(pc >> 1, tag_bits)
        slot = set_index * self._ways + way
        self._last_btbm_slot = slot if valid[slot] else None

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
