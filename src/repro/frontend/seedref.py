"""Frozen seed reference engine (the pre-optimization implementation).

The hot-path engine (``FrontendSimulator`` vector engine, flat-storage
``PDedeBTB``/``BaselineBTB``) is an *optimization*, and its contract is
bit-identical ``FrontendStats`` and BTB counters.  That contract needs a
referee that cannot drift with the code under test, so this module keeps
a verbatim copy of the seed implementations:

* :class:`SeedFrontendSimulator` -- the original per-event ``run`` loop
  (``_EventView`` allocation per branch, live ICache / direction calls);
* :class:`SeedPDedeBTB` / :class:`SeedBaselineBTB` /
  :class:`SeedTwoLevelBTB` -- the original list-of-lists storage with
  O(ways) ``way in self._short_ways`` membership scans;
* :class:`SeedShadowBTB` -- the shadow-branch wrapper's per-event
  ``lookup`` / ``update``, frozen before its fresh-run pass hook;
* :class:`SeedMicroBTB`, :class:`SeedShotgunBTB`,
  :class:`SeedDedupOnlyBTB`, :class:`SeedMultiTagPartitionedBTB`,
  :class:`SeedGhrpBTB` and :class:`SeedTemporalPrefetchBTB` -- the
  literature and ablation designs, each hashing its own pc, frozen
  before every BTB took the hashed ``lookup_fast`` / ``update_fast``
  pair.  The GHRP copy sits on :class:`SeedBaselineBTB`, Shotgun's
  U-BTB is one, and the prefetch wrapper maps over its inner's copy.

Every frozen BTB derives from ``_SeedPredictor``: its ``lookup`` and
``update`` are the algorithm, and it implements no hashed pair.

Shared leaf modules (address hashing, the tag directory helpers, dedup
tables, ICache, RAS, direction predictors, ITTAGE) are imported, not copied, so
a behavioural change in one of them is *supposed* to move both engines
together, and the referee cannot catch a fault there.  Where one has
been optimised -- the raise-free ``SrripPolicy.victim`` and
``DedupValueTable.allocate`` -- tests hold it to the seed's loop,
copied into ``tests/test_replacement.py`` and
``tests/test_dedup_table.py``.  Replacement is no longer shared: the
frozen classes here build the per-set policies (``make_replacement_policy``)
and every live class one replacement table per structure
(``make_replacement_table``), so the referee checks the tables
independently.  ``DedupValueTable`` is still shared, and its
replacement is a table, so for the PDede and dedup-only Page/Region/
target tables the referee still runs the code under test.  ITTAGE's
per-event methods are shared too: the referee steps ``record_history``,
``predict`` and ``update`` per event, where the live engines run
``ITTagePredictor.replay``, so it checks the replay's loop but not
those methods.

Two consumers:

* ``tests/test_engine_equivalence.py`` runs every design through both
  engines and asserts exact equality;
* ``benchmarks/bench_hotpath.py`` measures the live speedup ratio of the
  optimized engine over this one (machine-independent, unlike absolute
  events/sec).

Do not "fix" or modernise this file alongside engine changes -- that is
the one edit that would blind the referee.  Behavioural changes to the
model belong in the live engine plus a deliberate update here.

Deliberate update (sharded-scheduler PR): cycle accounting moved from
sequential float accumulation to exact integer ticks
(``CoreParams.cycle_tick``; see :class:`FrontendStats`), in lockstep
with the live engines.  This is a model-accounting change -- cycle
buckets shift by ulps; every microarchitectural event outcome is
untouched -- and it is what makes per-shard stats mergeable bit for bit
(``FrontendStats.merge``), with this referee still pinning both live
engines exactly.

Deliberate update (one ITTAGE path): the optional wrong-path ICache
pollution was removed from the live simulator and from
:class:`SeedFrontendSimulator` together; no experiment turned it on.

:func:`seed_slack_walk` freezes the timing model's fetch-queue slack
walk as it stood before the scanned walk
(``repro.frontend.vector._slack_walk``) replaced it: the prefix-summed
scalar loop over interesting events.  ``tests/test_vector_engine.py``
holds the scan to it, and ``benchmarks/bench_hotpath.py`` races the two.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.branch.address import (
    ADDRESS_BITS,
    REGION_BITS,
    PAGE_IN_REGION_BITS,
    fold_bits,
    hash_pc,
    join_target,
    mix64,
    page_base,
    page_in_region,
    page_offset,
    region_id,
    same_page,
)
from repro.branch.direction import DirectionPredictor, TageLitePredictor
from repro.branch.types import BranchEvent, BranchKind
from repro.btb.base import BTBLookup, BranchTargetPredictor, find_way, tag_directory
from repro.btb.ittage import ITTagePredictor
from repro.btb.ras import ReturnAddressStack
from repro.btb.replacement import make_replacement_policy
from repro.core.config import PDedeConfig, PDedeMode
from repro.core.tables import DedupValueTable
from repro.frontend.icache import ICache
from repro.frontend.params import CoreParams, ICELAKE, exact_ticks
from repro.frontend.stats import FrontendStats
from repro.workloads.trace import Trace

_NO_PTR = -1
_SHADOW_NO_TAG = -1
_NO_TAG = -1
_INSTR_BYTES = 4
_REFILL_WINDOW = 4
_OVERLAPPED_MISS_CYCLES = 1.5

_KIND_RETURN = int(BranchKind.RETURN)
_KIND_COND = int(BranchKind.COND_DIRECT)
_KINDS = [BranchKind(value) for value in range(len(BranchKind))]
_IS_CALL = [kind.is_call for kind in _KINDS]
_IS_INDIRECT = [kind.is_indirect for kind in _KINDS]
_FILL_POLICIES = ("victim", "all")


class _SeedPredictor(BranchTargetPredictor):
    """Base of the frozen BTBs: the seed protocol, in which ``lookup`` and
    ``update`` are each class's own algorithm.  The hashed pair the live
    classes implement is not part of it, so a frozen BTB runs only where
    ``lookup`` and ``update`` are called: the seed engine and tests."""

    def lookup_fast(self, pc: int, hashed: int):
        raise NotImplementedError("a frozen seed BTB implements lookup and update only")

    def update_fast(self, pc, target, taken, kind, hashed, is_same_page) -> None:
        raise NotImplementedError("a frozen seed BTB implements lookup and update only")


class SeedBaselineBTB(_SeedPredictor):
    """Verbatim seed copy of :class:`repro.btb.baseline.BaselineBTB`."""

    def __init__(
        self,
        entries: int = 4096,
        ways: int = 8,
        tag_bits: int = 12,
        target_bits: int = ADDRESS_BITS,
        conf_bits: int = 2,
        replacement: str = "srrip",
        srrip_bits: int = 3,
        pid_bits: int = 1,
        latency: int = 1,
        allocate_indirect: bool = True,
    ) -> None:
        super().__init__()
        if entries <= 0:
            raise ValueError("entries must be positive")
        if entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.tag_bits = tag_bits
        self.target_bits = target_bits
        self.conf_bits = conf_bits
        self._conf_max = (1 << conf_bits) - 1
        self.srrip_bits = srrip_bits
        self.pid_bits = pid_bits
        self.latency = latency
        self.allocate_indirect = allocate_indirect
        self._sets_pow2 = self.sets & (self.sets - 1) == 0
        self._index_mask = self.sets - 1
        self.replacement_name = replacement
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]
        self._valid = [[False] * ways for _ in range(self.sets)]
        self._tags = [[0] * ways for _ in range(self.sets)]
        self._targets = [[0] * ways for _ in range(self.sets)]
        self._conf = [[0] * ways for _ in range(self.sets)]

    def _slot(self, pc: int) -> tuple[int, int]:
        hashed = hash_pc(pc)
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        return index, (hashed >> 40) & ((1 << self.tag_bits) - 1)

    def _find_way(self, index: int, tag: int) -> int | None:
        valid = self._valid[index]
        tags = self._tags[index]
        for way in range(self.ways):
            if valid[way] and tags[way] == tag:
                return way
        return None

    def lookup(self, pc: int) -> BTBLookup:
        index, tag = self._slot(pc)
        way = self._find_way(index, tag)
        if way is None:
            return BTBLookup(hit=False, target=None, latency=self.latency)
        self._policies[index].on_hit(way)
        return BTBLookup(
            hit=True,
            target=self._targets[index][way],
            latency=self.latency,
            provider="btb",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        if not event.taken:
            return
        if event.kind.is_indirect and not self.allocate_indirect:
            return
        index, tag = self._slot(event.pc)
        way = self._find_way(index, tag)
        if way is not None:
            self._train_existing(index, way, event.target)
            return
        self._allocate(index, tag, event.target)

    def _train_existing(self, index: int, way: int, target: int) -> None:
        conf = self._conf[index]
        if self._targets[index][way] == target:
            if conf[way] < self._conf_max:
                conf[way] += 1
        elif conf[way] > 0:
            conf[way] -= 1
        else:
            self._targets[index][way] = target
        self._policies[index].on_hit(way)

    def _allocate(self, index: int, tag: int, target: int) -> None:
        policy = self._policies[index]
        way = policy.victim(self._valid[index])
        if self._valid[index][way]:
            self.stats.evictions += 1
        self._valid[index][way] = True
        self._tags[index][way] = tag
        self._targets[index][way] = target
        self._conf[index][way] = 0
        policy.on_insert(way)
        self.stats.allocations += 1

    def storage_bits(self) -> int:
        per_entry = (
            self.pid_bits
            + self.tag_bits
            + self.target_bits
            + self.conf_bits
            + self._policies[0].metadata_bits_per_entry()
        )
        return self.entries * per_entry

    def occupancy(self) -> int:
        return sum(sum(valid) for valid in self._valid)

    def metrics(self) -> dict:
        data = super().metrics()
        data["btb_entries"] = self.entries
        data["btb_ways"] = self.ways
        return data


class SeedPDedeBTB(_SeedPredictor):
    """Verbatim seed copy of :class:`repro.core.pdede.PDedeBTB`."""

    def __init__(self, config: PDedeConfig | None = None) -> None:
        super().__init__()
        self.config = config or PDedeConfig()
        cfg = self.config
        self._sets = cfg.btbm_sets
        self._ways = cfg.btbm_ways
        self._sets_pow2 = self._sets & (self._sets - 1) == 0
        self._index_mask = self._sets - 1
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
            cfg.region_entries,
            REGION_BITS,
            replacement=cfg.replacement,
            srrip_bits=cfg.srrip_bits,
            name="region-btb",
            on_evict=on_evict_region,
        )
        sets, ways = self._sets, self._ways
        self._valid = [[False] * ways for _ in range(sets)]
        self._tags = [[0] * ways for _ in range(sets)]
        self._delta = [[False] * ways for _ in range(sets)]
        self._offsets = [[0] * ways for _ in range(sets)]
        self._page_ptr = [[_NO_PTR] * ways for _ in range(sets)]
        self._region_ptr = [[_NO_PTR] * ways for _ in range(sets)]
        self._page_gen = [[0] * ways for _ in range(sets)]
        self._region_gen = [[0] * ways for _ in range(sets)]
        self._conf = [[0] * ways for _ in range(sets)]
        self._next_valid = [[False] * ways for _ in range(sets)]
        self._next_offset = [[0] * ways for _ in range(sets)]
        self._next_tag = [[0] * ways for _ in range(sets)]
        repl_kwargs = {"m": cfg.srrip_bits} if cfg.replacement == "srrip" else {}
        if cfg.mode is PDedeMode.MULTI_ENTRY:
            half = ways // 2
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
            self._long_ways = list(range(ways))
            self._short_ways = []
            self._long_policies = self._short_policies = None
            self._policies = [
                make_replacement_policy(cfg.replacement, ways, **repl_kwargs)
                for _ in range(sets)
            ]
        self._pending_next_offset: int | None = None
        self._pending_next_tag: int = 0
        self._last_btbm_slot: tuple[int, int] | None = None
        self._page_ptr_users: dict[int, set[tuple[int, int]]] = {}
        self._region_ptr_users: dict[int, set[tuple[int, int]]] = {}
        self.stale_pointer_reads = 0
        self.delta_hits = 0
        self.pointer_hits = 0
        self.next_target_provisions = 0
        self.next_target_correct = 0

    def _slot(self, pc: int) -> tuple[int, int]:
        hashed = hash_pc(pc)
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self._sets
        return index, (hashed >> 40) & ((1 << self.config.tag_bits) - 1)

    def _find_way(self, set_index: int, tag: int) -> int | None:
        valid = self._valid[set_index]
        tags = self._tags[set_index]
        for way in range(self._ways):
            if valid[way] and tags[way] == tag:
                return way
        return None

    def _touch(self, set_index: int, way: int) -> None:
        if self._policies is not None:
            self._policies[set_index].on_hit(way)
        elif way in self._short_ways:
            self._short_policies[set_index].on_hit(way - self._short_ways[0])
        else:
            self._long_policies[set_index].on_hit(way)

    def _choose_victim(self, set_index: int, needs_pointers: bool) -> int:
        valid = self._valid[set_index]
        if self._policies is not None:
            return self._policies[set_index].victim(valid)
        half = len(self._long_ways)
        long_valid = valid[:half]
        short_valid = valid[half:]
        if needs_pointers:
            return self._long_policies[set_index].victim(long_valid)
        if not all(short_valid):
            return half + self._short_policies[set_index].victim(short_valid)
        if not all(long_valid):
            return self._long_policies[set_index].victim(long_valid)
        return half + self._short_policies[set_index].victim(short_valid)

    def _mark_inserted(self, set_index: int, way: int) -> None:
        if self._policies is not None:
            self._policies[set_index].on_insert(way)
        elif way in self._short_ways:
            self._short_policies[set_index].on_insert(way - self._short_ways[0])
        else:
            self._long_policies[set_index].on_insert(way)

    def _invalidate_page_ptr(self, pointer: int) -> None:
        for set_index, way in self._page_ptr_users.pop(pointer, ()):
            self._unlink_pointers(set_index, way)
            self._valid[set_index][way] = False

    def _invalidate_region_ptr(self, pointer: int) -> None:
        for set_index, way in self._region_ptr_users.pop(pointer, ()):
            self._unlink_pointers(set_index, way)
            self._valid[set_index][way] = False

    def _unlink_pointers(self, set_index: int, way: int) -> None:
        if not self.config.invalidate_stale_pointers:
            return
        slot = (set_index, way)
        page_ptr = self._page_ptr[set_index][way]
        if page_ptr != _NO_PTR:
            self._page_ptr_users.get(page_ptr, set()).discard(slot)
        region_ptr = self._region_ptr[set_index][way]
        if region_ptr != _NO_PTR:
            self._region_ptr_users.get(region_ptr, set()).discard(slot)

    def _link_pointers(self, set_index: int, way: int) -> None:
        if not self.config.invalidate_stale_pointers:
            return
        slot = (set_index, way)
        page_ptr = self._page_ptr[set_index][way]
        if page_ptr != _NO_PTR:
            self._page_ptr_users.setdefault(page_ptr, set()).add(slot)
        region_ptr = self._region_ptr[set_index][way]
        if region_ptr != _NO_PTR:
            self._region_ptr_users.setdefault(region_ptr, set()).add(slot)

    def _reconstruct(self, set_index: int, way: int, pc: int) -> tuple[int, int]:
        if self._delta[set_index][way]:
            self.delta_hits += 1
            return page_base(pc) | self._offsets[set_index][way], 1
        page_ptr = self._page_ptr[set_index][way]
        region_ptr = self._region_ptr[set_index][way]
        if self.page_btb.is_stale(page_ptr, self._page_gen[set_index][way]) or (
            self.region_btb.is_stale(region_ptr, self._region_gen[set_index][way])
        ):
            self.stale_pointer_reads += 1
        page_value = self.page_btb.read(page_ptr)
        region_value = self.region_btb.read(region_ptr)
        self.page_btb.touch(page_ptr)
        self.region_btb.touch(region_ptr)
        self.pointer_hits += 1
        target = join_target(region_value, page_value, self._offsets[set_index][way])
        return target, 2

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
        if (
            self.config.mode is PDedeMode.MULTI_TARGET
            and self._delta[set_index][way]
            and self._next_valid[set_index][way]
        ):
            self._pending_next_offset = self._next_offset[set_index][way]
            self._pending_next_tag = self._next_tag[set_index][way]
        self._touch(set_index, way)
        provider = "btbm-delta" if self._delta[set_index][way] else "btbm-ptr"
        return BTBLookup(hit=True, target=target, latency=latency, provider=provider)

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
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

    def _train_existing(
        self, set_index: int, way: int, pc: int, target: int, use_delta: bool
    ) -> None:
        predicted, _ = self._reconstruct(set_index, way, pc)
        conf = self._conf[set_index]
        if predicted == target:
            if conf[way] < self._conf_max:
                conf[way] += 1
        elif conf[way] > 0:
            conf[way] -= 1
        else:
            self._write_target_fields(set_index, way, target, use_delta)
        self._touch(set_index, way)

    def _write_target_fields(
        self, set_index: int, way: int, target: int, use_delta: bool
    ) -> None:
        if not use_delta and way in self._short_ways:
            self._unlink_pointers(set_index, way)
            self._valid[set_index][way] = False
            return
        self._unlink_pointers(set_index, way)
        self._offsets[set_index][way] = page_offset(target)
        self._delta[set_index][way] = use_delta
        self._next_valid[set_index][way] = False
        if use_delta:
            self._page_ptr[set_index][way] = _NO_PTR
            self._region_ptr[set_index][way] = _NO_PTR
        else:
            region_ptr, region_gen = self.region_btb.allocate(region_id(target))
            page_ptr, page_gen = self.page_btb.allocate(page_in_region(target))
            self._region_ptr[set_index][way] = region_ptr
            self._region_gen[set_index][way] = region_gen
            self._page_ptr[set_index][way] = page_ptr
            self._page_gen[set_index][way] = page_gen
            self._link_pointers(set_index, way)

    def _allocate(self, set_index: int, tag: int, target: int, use_delta: bool) -> int:
        way = self._choose_victim(set_index, needs_pointers=not use_delta)
        if self._valid[set_index][way]:
            self.stats.evictions += 1
            self._unlink_pointers(set_index, way)
        self._valid[set_index][way] = True
        self._tags[set_index][way] = tag
        self._conf[set_index][way] = 0
        self._next_valid[set_index][way] = False
        self._page_ptr[set_index][way] = _NO_PTR
        self._region_ptr[set_index][way] = _NO_PTR
        self._write_target_fields(set_index, way, target, use_delta)
        self._mark_inserted(set_index, way)
        self.stats.allocations += 1
        return way

    def _chain_next_target(
        self, set_index: int, way: int, pc: int, target: int, is_same_page: bool
    ) -> None:
        if self._last_btbm_slot is not None and is_same_page:
            last_set, last_way = self._last_btbm_slot
            if self._valid[last_set][last_way] and self._delta[last_set][last_way]:
                self._next_valid[last_set][last_way] = True
                self._next_offset[last_set][last_way] = page_offset(target)
                if self.config.next_target_tag_bits:
                    self._next_tag[last_set][last_way] = fold_bits(
                        pc >> 1, self.config.next_target_tag_bits
                    )
        if is_same_page and self._valid[set_index][way]:
            self._last_btbm_slot = (set_index, way)
        else:
            self._last_btbm_slot = None

    def storage_bits(self) -> int:
        return self.config.storage_bits()

    @property
    def name(self) -> str:
        return f"PDede[{self.config.mode.value}]"

    def occupancy(self) -> int:
        return sum(sum(valid) for valid in self._valid)

    def delta_entry_count(self) -> int:
        return sum(
            1
            for set_index in range(self._sets)
            for way in range(self._ways)
            if self._valid[set_index][way] and self._delta[set_index][way]
        )

    def metrics(self) -> dict:
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


class SeedTwoLevelBTB(_SeedPredictor):
    """Verbatim seed copy of :class:`repro.btb.twolevel.TwoLevelBTB`."""

    def __init__(
        self,
        level0: BranchTargetPredictor,
        level1: BranchTargetPredictor,
        l1_extra_latency: int = 1,
    ) -> None:
        super().__init__()
        self.level0 = level0
        self.level1 = level1
        self.l1_extra_latency = l1_extra_latency
        self.l0_hits = 0
        self.l1_hits = 0

    def lookup(self, pc: int) -> BTBLookup:
        l0_result = self.level0.lookup(pc)
        if l0_result.hit:
            self.l0_hits += 1
            return BTBLookup(
                hit=True,
                target=l0_result.target,
                latency=l0_result.latency,
                provider="l0." + l0_result.provider,
            )
        l1_result = self.level1.lookup(pc)
        if l1_result.hit or l1_result.target is not None:
            self.l1_hits += 1
            return BTBLookup(
                hit=l1_result.hit,
                target=l1_result.target,
                latency=l1_result.latency + self.l1_extra_latency,
                provider="l1." + l1_result.provider,
            )
        return BTBLookup(
            hit=False,
            target=None,
            latency=l1_result.latency + self.l1_extra_latency,
            provider="miss",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        self.level0.update(event)
        self.level1.update(event)

    def storage_bits(self) -> int:
        return self.level0.storage_bits() + self.level1.storage_bits()

    @property
    def name(self) -> str:
        return f"TwoLevel({self.level0.name}+{self.level1.name})"


class SeedShadowBTB(_SeedPredictor):
    """Verbatim seed copy of :class:`repro.btb.shadow.ShadowBTB`.

    Args:
        inner: the main predictor (Baseline, PDede, ...).
        shadow_entries / shadow_ways: geometry of the shadow table.
        tag_bits: hashed partial-tag width of the shadow table.
        line_bytes: fetch-line size the pre-decoder sees (power of two).
        decode_lines: sequential lines exposed per resolved branch
            (1 = only the branch's own line).
        line_map_entries: bound on remembered (line, branch) pairs; the
            oldest line is forgotten first (the line map stands in for
            "instruction bytes still in the I-cache").
    """

    def __init__(
        self,
        inner: BranchTargetPredictor,
        shadow_entries: int = 2048,
        shadow_ways: int = 4,
        tag_bits: int = 10,
        line_bytes: int = 64,
        decode_lines: int = 2,
        line_map_entries: int = 4096,
        replacement: str = "srrip",
        srrip_bits: int = 3,
    ) -> None:
        super().__init__()
        if shadow_entries <= 0:
            raise ValueError("shadow_entries must be positive")
        if shadow_entries % shadow_ways:
            raise ValueError("shadow_entries must be divisible by shadow_ways")
        if line_bytes & (line_bytes - 1) or line_bytes <= 0:
            raise ValueError("line_bytes must be a power of two")
        if decode_lines < 1:
            raise ValueError("decode_lines must be at least 1")
        if line_map_entries < 1:
            raise ValueError("line_map_entries must be at least 1")
        self.inner = inner
        self.shadow_entries = shadow_entries
        self.shadow_ways = shadow_ways
        self.shadow_sets = shadow_entries // shadow_ways
        self.tag_bits = tag_bits
        self.line_bytes = line_bytes
        self.decode_lines = decode_lines
        self.line_map_entries = line_map_entries
        self.replacement_name = replacement
        self.srrip_bits = srrip_bits
        self._line_shift = line_bytes.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._sets_pow2 = self.shadow_sets & (self.shadow_sets - 1) == 0
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, shadow_ways, **repl_kwargs)
            for _ in range(self.shadow_sets)
        ]
        size = self.shadow_sets * shadow_ways
        self._valid = [False] * size
        self._tags = [_SHADOW_NO_TAG] * size
        self._targets = [0] * size
        #: line number -> {pc: target} for direct branches seen in that
        #: line.  Insertion-ordered; the oldest line is evicted when the
        #: total pair count exceeds ``line_map_entries``.
        self._line_map: dict[int, dict[int, int]] = {}
        self._line_map_size = 0
        self.shadow_hits = 0
        self.shadow_fills = 0
        self.exposures = 0

    # -- address mapping -----------------------------------------------------

    def _slot(self, pc: int) -> tuple[int, int]:
        hashed = hash_pc(pc)
        index = hashed & (self.shadow_sets - 1) if self._sets_pow2 else hashed % self.shadow_sets
        return index, (hashed >> 40) & self._tag_mask

    def _find_way(self, index: int, tag: int) -> int | None:
        base = index * self.shadow_ways
        try:
            return self._tags.index(tag, base, base + self.shadow_ways) - base
        except ValueError:
            return None

    # -- BranchTargetPredictor API -------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        result = self.inner.lookup(pc)
        if result.hit:
            return result
        index, tag = self._slot(pc)
        way = self._find_way(index, tag)
        if way is None:
            return result
        self.shadow_hits += 1
        self._policies[index].on_hit(way)
        return BTBLookup(
            hit=True,
            target=self._targets[index * self.shadow_ways + way],
            latency=result.latency,
            provider="shadow",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        self.inner.update(event)
        if event.kind.is_direct and event.taken:
            self._remember(event.pc, event.target)
            # A branch the inner BTB now knows about needs no shadow
            # entry; keep the shadow copy coherent if one exists.
            self._shadow_refresh(event.pc, event.target)
        self._expose(event.pc)

    # -- shadow machinery ----------------------------------------------------

    def _remember(self, pc: int, target: int) -> None:
        line = pc >> self._line_shift
        branches = self._line_map.get(line)
        if branches is None:
            branches = {}
            self._line_map[line] = branches
        if pc not in branches:
            self._line_map_size += 1
        branches[pc] = target
        while self._line_map_size > self.line_map_entries:
            oldest = next(iter(self._line_map))
            self._line_map_size -= len(self._line_map.pop(oldest))

    def _expose(self, pc: int) -> None:
        """Pre-decode the fetched lines: install remembered shadow
        branches (any line branch other than ``pc`` itself)."""
        line = pc >> self._line_shift
        for ahead in range(self.decode_lines):
            branches = self._line_map.get(line + ahead)
            if not branches:
                continue
            for shadow_pc in branches:
                if shadow_pc == pc:
                    continue
                self.exposures += 1
                self._shadow_install(shadow_pc, branches[shadow_pc])

    def _shadow_install(self, pc: int, target: int) -> None:
        index, tag = self._slot(pc)
        way = self._find_way(index, tag)
        if way is not None:
            self._targets[index * self.shadow_ways + way] = target
            return
        policy = self._policies[index]
        base = index * self.shadow_ways
        way = policy.victim(self._valid[base:base + self.shadow_ways])
        slot = base + way
        if self._valid[slot]:
            self.stats.evictions += 1
        self._valid[slot] = True
        self._tags[slot] = tag
        self._targets[slot] = target
        policy.on_insert(way)
        self.shadow_fills += 1
        self.stats.allocations += 1

    def _shadow_refresh(self, pc: int, target: int) -> None:
        index, tag = self._slot(pc)
        way = self._find_way(index, tag)
        if way is not None:
            self._targets[index * self.shadow_ways + way] = target

    # -- storage and introspection -------------------------------------------

    def storage_bits(self) -> int:
        # The line map models bytes already present in the I-cache (the
        # paper's point: shadow decode reuses fetched lines), so only the
        # shadow table itself is charged.
        per_entry = (
            self.tag_bits
            + ADDRESS_BITS
            + self._policies[0].metadata_bits_per_entry()
        )
        return self.inner.storage_bits() + self.shadow_entries * per_entry

    def occupancy(self) -> int:
        """Valid shadow-table entries (inner occupancy not included)."""
        return sum(self._valid)

    def metrics(self) -> dict:
        data = super().metrics()
        data["btb_shadow_hits_total"] = self.shadow_hits
        data["btb_shadow_fills_total"] = self.shadow_fills
        data["btb_shadow_exposures_total"] = self.exposures
        data["btb_shadow_entries"] = self.shadow_entries
        return data

    @property
    def name(self) -> str:
        return f"Shadow({self.inner.name})"


class SeedGhrpBTB(SeedBaselineBTB):
    """Copy of :class:`repro.btb.ghrp.GhrpBTB`, frozen before it took the
    hashed pair, over the frozen baseline.  Its overrides read the
    baseline's per-set lists where the live class reads flat slots; the
    algorithm is the live class's, line for line.

    Args:
        predictor_entries: dead-block predictor counters (power of two).
        dead_threshold: counter value at and above which an entry is
            predicted dead.
        history_bits: global branch-history bits mixed into signatures.
    """

    def __init__(
        self,
        *args,
        predictor_entries: int = 4096,
        dead_threshold: int = 2,
        history_bits: int = 16,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if predictor_entries <= 0 or predictor_entries & (predictor_entries - 1):
            raise ValueError("predictor_entries must be a positive power of two")
        self._predictor_mask = predictor_entries - 1
        self.predictor_entries = predictor_entries
        self.dead_threshold = dead_threshold
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._dead_counters = [0] * predictor_entries
        self._signatures = [[0] * self.ways for _ in range(self.sets)]
        self._referenced = [[False] * self.ways for _ in range(self.sets)]
        self.dead_predictions_used = 0

    def _signature(self, pc: int) -> int:
        return mix64((pc >> 1) ^ (self._history << 17)) & self._predictor_mask

    def record_history(self, pc: int, taken: bool) -> None:
        bit = (int(taken) ^ (pc >> 3)) & 1
        self._history = ((self._history << 1) | bit) & self._history_mask

    def lookup(self, pc: int) -> BTBLookup:
        result = super().lookup(pc)
        if result.hit:
            index, tag = self._slot(pc)
            way = self._find_way(index, tag)
            if way is not None and not self._referenced[index][way]:
                self._referenced[index][way] = True
                signature = self._signatures[index][way]
                if self._dead_counters[signature] > 0:
                    self._dead_counters[signature] -= 1
        return result

    def update(self, event: BranchEvent) -> None:
        super().update(event)
        self.record_history(event.pc, event.taken)

    def _allocate(self, index: int, tag: int, target: int) -> None:
        policy = self._policies[index]
        valid = self._valid[index]
        way = None
        for candidate in range(self.ways):
            if not valid[candidate]:
                way = candidate
                break
        if way is None:
            for candidate in range(self.ways):
                signature = self._signatures[index][candidate]
                if (
                    not self._referenced[index][candidate]
                    and self._dead_counters[signature] >= self.dead_threshold
                ):
                    way = candidate
                    self.dead_predictions_used += 1
                    break
        if way is None:
            way = policy.victim(valid)
        if valid[way]:
            self.stats.evictions += 1
            signature = self._signatures[index][way]
            if not self._referenced[index][way]:
                if self._dead_counters[signature] < 3:
                    self._dead_counters[signature] += 1
        valid[way] = True
        self._tags[index][way] = tag
        self._targets[index][way] = target
        self._conf[index][way] = 0
        self._signatures[index][way] = self._signature(tag)
        self._referenced[index][way] = False
        policy.on_insert(way)
        self.stats.allocations += 1

    def storage_bits(self) -> int:
        return super().storage_bits() + 2 * self.predictor_entries

    @property
    def name(self) -> str:
        return "GhrpBTB"


class SeedMicroBTB(_SeedPredictor):
    """Verbatim copy of :class:`repro.btb.microbtb.MicroBTB`, frozen before
    it took the hashed pair (no sanitizer hook, as every frozen BTB).

    Small L1 BTB + delta-compressed last-level BTB.

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

    def _l1_slot(self, hashed: int) -> tuple[int, int]:
        index = hashed & (self.l1_sets - 1) if self._l1_sets_pow2 else hashed % self.l1_sets
        return index, (hashed >> 40) & self._tag_mask

    def _ll_slot(self, hashed: int) -> tuple[int, int]:
        # The last level draws its index from a different hash byte so the
        # two levels do not mirror each other's conflict sets.
        shifted = hashed >> 17
        index = shifted & (self.ll_sets - 1) if self._ll_sets_pow2 else shifted % self.ll_sets
        return index, (hashed >> 40) & self._tag_mask

    # -- BranchTargetPredictor API -------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        hashed = hash_pc(pc)
        index, tag = self._l1_slot(hashed)
        way = find_way(self._l1_directory[index], self._l1_tags, index * self.l1_ways, tag)
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
        ll_way = find_way(
            self._ll_directory[ll_index], self._ll_tags, ll_index * self.ll_ways, ll_tag
        )
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
        if not event.taken:
            return
        if event.kind.is_indirect and not self.allocate_indirect:
            return
        hashed = hash_pc(event.pc)
        index, tag = self._l1_slot(hashed)
        way = find_way(self._l1_directory[index], self._l1_tags, index * self.l1_ways, tag)
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
        self._l1_directory[index][tag] = way
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
        way = find_way(self._ll_directory[index], self._ll_tags, index * self.ll_ways, tag)
        policy = self._ll_policies[index]
        if way is None:
            base = index * self.ll_ways
            way = policy.victim(self._ll_valid[base:base + self.ll_ways])
            self._ll_valid[base + way] = True
            self._ll_tags[base + way] = tag
            self._ll_directory[index][tag] = way
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


class _SeedCompactCBTB:
    """Set-associative conditional BTB with 12-bit target offsets."""

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
        repl_kwargs = {"m": 2} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]

    def _index(self, pc: int) -> int:
        hashed = hash_pc(pc)
        return hashed & (self.sets - 1) if self._pow2 else hashed % self.sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & ((1 << self.tag_bits) - 1)

    def lookup(self, pc: int) -> int | None:
        """Return the predicted same-page target, or None on miss."""
        set_index = self._index(pc)
        tag = self._tag(pc)
        for way in range(self.ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                self._policies[set_index].on_hit(way)
                return page_base(pc) | self._offsets[set_index][way]
        return None

    def insert(self, pc: int, target: int, overwrite: bool = True) -> None:
        """Install/refresh ``pc``.

        With ``overwrite=False`` (a not-taken occurrence) an existing
        entry's stored *taken-target* offset is preserved -- presence is
        refreshed, the target is not clobbered by the fall-through.
        """
        set_index = self._index(pc)
        tag = self._tag(pc)
        for way in range(self.ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                if overwrite:
                    self._offsets[set_index][way] = page_offset(target)
                self._policies[set_index].on_hit(way)
                return
        policy = self._policies[set_index]
        way = policy.victim(self._valid[set_index])
        self._valid[set_index][way] = True
        self._tags[set_index][way] = tag
        self._offsets[set_index][way] = page_offset(target)
        policy.on_insert(way)

    def contains(self, pc: int) -> bool:
        set_index = self._index(pc)
        tag = self._tag(pc)
        return any(
            self._valid[set_index][way] and self._tags[set_index][way] == tag
            for way in range(self.ways)
        )

    def occupancy(self) -> int:
        return sum(sum(valid) for valid in self._valid)

    def storage_bits(self) -> int:
        # tag + offset + SRRIP + valid
        return self.entries * (self.tag_bits + 12 + 2 + 1)


class SeedShotgunBTB(_SeedPredictor):
    """Verbatim copy of :class:`repro.btb.shotgun.ShotgunBTB`, frozen before
    it took the hashed pair, over a frozen baseline U-BTB.

    U-BTB + compact C-BTB with footprint-driven pre-installation.

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
        self.u_btb = SeedBaselineBTB(
            entries=u_entries, ways=u_ways, tag_bits=tag_bits, latency=latency,
            replacement=replacement,
        )
        self.c_btb = _SeedCompactCBTB(c_entries, c_ways, tag_bits, replacement)
        self.footprint_slots = footprint_slots
        self.footprint_window = footprint_window
        self.latency = latency
        # Footprint memory: unconditional branch PC -> [(cond pc, target)].
        self._footprints: dict[int, list[tuple[int, int]]] = {}
        self._recording_pc: int | None = None
        self._recording_base: int = 0
        self.prefetch_installs = 0

    # -- lookup --------------------------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        cond_target = self.c_btb.lookup(pc)
        if cond_target is not None:
            return BTBLookup(True, cond_target, self.latency, "c-btb")
        uncond = self.u_btb.lookup(pc)
        if uncond.hit:
            # A U-BTB hit triggers the footprint prefetch into the C-BTB.
            self._prefetch_footprint(pc)
            return BTBLookup(True, uncond.target, self.latency, "u-btb")
        return BTBLookup(False, None, self.latency, "miss")

    def _prefetch_footprint(self, uncond_pc: int) -> None:
        footprint = self._footprints.get(uncond_pc)
        if not footprint:
            return
        for cond_pc, cond_target in footprint:
            if not self.c_btb.contains(cond_pc):
                self.prefetch_installs += 1
            self.c_btb.insert(cond_pc, cond_target)

    # -- update ----------------------------------------------------------------

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        if event.kind.is_conditional:
            if event.taken:
                if same_page(event.pc, event.target):
                    self.c_btb.insert(event.pc, event.target)
                else:
                    # Rare cross-page conditional: full-width entry.
                    self.u_btb.update(event)
                self._record_into_footprint(event, event.target)
            else:
                # Not-taken conditionals still occupy C-BTB entries (the
                # basic-block bookkeeping cost the paper highlights) but
                # must not clobber a learned taken target.
                self.c_btb.insert(event.pc, event.fall_through, overwrite=False)
            return
        if event.kind.is_return:
            return  # RAS territory; the RIB is not modelled (per §5.10).
        self.u_btb.update(event)
        # Begin recording this unconditional's spatial footprint.
        self._recording_pc = event.pc
        self._recording_base = event.target

    def _record_into_footprint(self, event: BranchEvent, resolved: int) -> None:
        if self._recording_pc is None:
            return
        if abs(event.pc - self._recording_base) > self.footprint_window:
            self._recording_pc = None
            return
        if not same_page(event.pc, resolved):
            return  # footprints hold compact (same-page) conds only
        footprint = self._footprints.setdefault(self._recording_pc, [])
        record = (event.pc, resolved)
        for slot, (pc, _) in enumerate(footprint):
            if pc == event.pc:
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


class SeedDedupOnlyBTB(_SeedPredictor):
    """Verbatim copy of :class:`repro.core.ablations.DedupOnlyBTB`, frozen
    before it took the hashed pair.

    Full-target deduplication through a pointer table, no partitioning.

    Each monitor entry stores a hashed tag, a confidence counter, and a
    pointer into a table of unique 57-bit targets.  Every hit chases the
    pointer, costing the same extra cycle as PDede's pointer path.
    Monitor entries whose target-table entry gets evicted are invalidated
    eagerly (one reverse pointer map), so a lost target yields a clean
    miss rather than a wrong-target resteer.

    Args:
        entries / ways: monitor geometry (iso-storage default: 4608
            entries; with the 3072-entry target table ~38 KiB total).
        target_entries / target_ways: unique-target table geometry --
            the design's Achilles heel: unique targets are ~67% of
            branch PCs (Figure 7), so an iso-storage table cannot cover
            large working sets, which is why dedup alone only buys the
            paper ~1.6%.
    """

    def __init__(
        self,
        entries: int = 4608,
        ways: int = 8,
        target_entries: int = 3072,
        target_ways: int = 8,
        tag_bits: int = 12,
        conf_bits: int = 2,
        srrip_bits: int = 2,
        pid_bits: int = 1,
        replacement: str = "srrip",
    ) -> None:
        super().__init__()
        if entries <= 0 or entries % ways:
            raise ValueError("entries must be positive and divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.tag_bits = tag_bits
        self.conf_bits = conf_bits
        self.srrip_bits = srrip_bits
        self.pid_bits = pid_bits
        self._conf_max = (1 << conf_bits) - 1
        self._sets_pow2 = self.sets & (self.sets - 1) == 0
        self._ptr_users: dict[int, set[tuple[int, int]]] = {}
        self.targets = DedupValueTable(
            target_entries,
            target_ways,
            ADDRESS_BITS,
            replacement=replacement,
            srrip_bits=srrip_bits,
            name="target-table",
            on_evict=self._invalidate_pointer,
        )
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]
        self._valid = [[False] * ways for _ in range(self.sets)]
        self._tags = [[0] * ways for _ in range(self.sets)]
        self._ptr = [[0] * ways for _ in range(self.sets)]
        self._gen = [[0] * ways for _ in range(self.sets)]
        self._conf = [[0] * ways for _ in range(self.sets)]
        self.stale_pointer_reads = 0

    def _invalidate_pointer(self, pointer: int) -> None:
        """Target-table eviction: drop every monitor entry pointing there."""
        for set_index, way in self._ptr_users.pop(pointer, ()):
            if self._valid[set_index][way] and self._ptr[set_index][way] == pointer:
                self._valid[set_index][way] = False

    def _link(self, set_index: int, way: int, pointer: int) -> None:
        self._ptr_users.setdefault(pointer, set()).add((set_index, way))

    def _unlink(self, set_index: int, way: int) -> None:
        if self._valid[set_index][way]:
            users = self._ptr_users.get(self._ptr[set_index][way])
            if users is not None:
                users.discard((set_index, way))

    def _index(self, pc: int) -> int:
        hashed = hash_pc(pc)
        if self._sets_pow2:
            return hashed & (self.sets - 1)
        return hashed % self.sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & ((1 << self.tag_bits) - 1)

    def _find_way(self, set_index: int, tag: int) -> int | None:
        valid = self._valid[set_index]
        tags = self._tags[set_index]
        for way in range(self.ways):
            if valid[way] and tags[way] == tag:
                return way
        return None

    def lookup(self, pc: int) -> BTBLookup:
        set_index = self._index(pc)
        way = self._find_way(set_index, self._tag(pc))
        if way is None:
            return BTBLookup(hit=False, target=None, latency=1, provider="miss")
        pointer = self._ptr[set_index][way]
        if self.targets.is_stale(pointer, self._gen[set_index][way]):
            self.stale_pointer_reads += 1
        target = self.targets.read(pointer)
        self.targets.touch(pointer)
        self._policies[set_index].on_hit(way)
        # The indirection always costs the extra pointer-chase cycle.
        return BTBLookup(hit=True, target=target, latency=2, provider="dedup")

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        if not event.taken:
            return
        set_index = self._index(event.pc)
        tag = self._tag(event.pc)
        way = self._find_way(set_index, tag)
        if way is not None:
            self._train_existing(set_index, way, event.target)
            return
        pointer, generation = self.targets.allocate(event.target)
        policy = self._policies[set_index]
        way = policy.victim(self._valid[set_index])
        if self._valid[set_index][way]:
            self.stats.evictions += 1
            self._unlink(set_index, way)
        self._valid[set_index][way] = True
        self._tags[set_index][way] = tag
        self._ptr[set_index][way] = pointer
        self._gen[set_index][way] = generation
        self._conf[set_index][way] = 0
        self._link(set_index, way, pointer)
        policy.on_insert(way)
        self.stats.allocations += 1

    def _train_existing(self, set_index: int, way: int, target: int) -> None:
        pointer = self._ptr[set_index][way]
        stored = self.targets.read(pointer)
        conf = self._conf[set_index]
        if stored == target and not self.targets.is_stale(
            pointer, self._gen[set_index][way]
        ):
            if conf[way] < self._conf_max:
                conf[way] += 1
        elif conf[way] > 0:
            conf[way] -= 1
        else:
            self._unlink(set_index, way)
            new_pointer, generation = self.targets.allocate(target)
            self._ptr[set_index][way] = new_pointer
            self._gen[set_index][way] = generation
            self._link(set_index, way, new_pointer)
        self._policies[set_index].on_hit(way)

    def storage_bits(self) -> int:
        pointer_bits = (self.targets.entries - 1).bit_length()
        per_entry = (
            self.pid_bits + self.tag_bits + pointer_bits + self.conf_bits + self.srrip_bits
        )
        return self.entries * per_entry + self.targets.storage_bits()

    @property
    def name(self) -> str:
        return "DedupOnlyBTB"


@dataclass
class _SeedSharedEntry:
    """A value entry shareable by up to ``slots`` PC tags."""

    valid: bool = False
    value: int = 0
    tags: tuple = ()


class _SeedMultiTagTable:
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
        self._table = [[_SeedSharedEntry() for _ in range(ways)] for _ in range(self.sets)]
        repl_kwargs = {"m": 2} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]
        self.sharing_overflows = 0

    def _set_of(self, pc: int) -> int:
        hashed = hash_pc(pc)
        return hashed & (self.sets - 1) if self._pow2 else hashed % self.sets

    def _tag_of(self, pc: int) -> int:
        return ((hash_pc(pc) >> 40) & ((1 << self.tag_bits) - 1)) or 1

    def lookup(self, pc: int) -> int | None:
        """Associative lookup by PC tag; returns the shared value."""
        row = self._table[self._set_of(pc)]
        tag = self._tag_of(pc)
        for way, entry in enumerate(row):
            if entry.valid and tag in entry.tags:
                self._policies[self._set_of(pc)].on_hit(way)
                return entry.value
        return None

    def insert(self, pc: int, value: int) -> None:
        """Attach ``pc`` to an entry holding ``value`` (sharing-limited)."""
        set_index = self._set_of(pc)
        row = self._table[set_index]
        tag = self._tag_of(pc)
        policy = self._policies[set_index]
        # Already attached somewhere? Retarget if the value changed.
        for way, entry in enumerate(row):
            if entry.valid and tag in entry.tags:
                if entry.value == value:
                    policy.on_hit(way)
                    return
                entry.tags = tuple(t for t in entry.tags if t != tag)
        # Attach to an existing entry with the same value and a free slot.
        for way, entry in enumerate(row):
            if entry.valid and entry.value == value:
                if len(entry.tags) < self.slots:
                    entry.tags = entry.tags + (tag,)
                    policy.on_hit(way)
                    return
                # The static sharing limit bites: a would-be sharer is
                # turned away and must burn a whole new entry.
                self.sharing_overflows += 1
                break
        victim = policy.victim([entry.valid for entry in row])
        row[victim] = _SeedSharedEntry(valid=True, value=value, tags=(tag,))
        policy.on_insert(victim)

    def storage_bits(self) -> int:
        per_entry = self.value_bits + self.slots * self.tag_bits + 2  # + SRRIP
        return self.entries * per_entry


class SeedMultiTagPartitionedBTB(_SeedPredictor):
    """Verbatim copy of :class:`repro.core.multitag.MultiTagPartitionedBTB`,
    frozen before it took the hashed pair.

    Partitioned BTB using multi-tag sharing instead of a BTB-Monitor.

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
        self._pow2 = self.offset_sets & (self.offset_sets - 1) == 0
        self._valid = [[False] * offset_ways for _ in range(self.offset_sets)]
        self._tags = [[0] * offset_ways for _ in range(self.offset_sets)]
        self._offsets = [[0] * offset_ways for _ in range(self.offset_sets)]
        self._delta = [[False] * offset_ways for _ in range(self.offset_sets)]
        repl_kwargs = {"m": 2} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, offset_ways, **repl_kwargs)
            for _ in range(self.offset_sets)
        ]
        self.pages = _SeedMultiTagTable(
            page_entries, page_ways, PAGE_IN_REGION_BITS, page_slots, tag_bits,
            replacement,
        )
        self.regions = _SeedMultiTagTable(
            region_entries, region_entries, REGION_BITS, region_slots, tag_bits,
            replacement,
        )

    # -- offset-table addressing -------------------------------------------

    def _index(self, pc: int) -> int:
        hashed = hash_pc(pc)
        return hashed & (self.offset_sets - 1) if self._pow2 else hashed % self.offset_sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & ((1 << self.tag_bits) - 1)

    def _find_way(self, set_index: int, tag: int) -> int | None:
        for way in range(self.offset_ways):
            if self._valid[set_index][way] and self._tags[set_index][way] == tag:
                return way
        return None

    # -- BranchTargetPredictor ------------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        set_index = self._index(pc)
        way = self._find_way(set_index, self._tag(pc))
        if way is None:
            return BTBLookup(hit=False, target=None, latency=1, provider="miss")
        self._policies[set_index].on_hit(way)
        offset = self._offsets[set_index][way]
        if self._delta[set_index][way]:
            return BTBLookup(
                hit=True,
                target=(pc & ~0xFFF) | offset,
                latency=1,
                provider="multitag-delta",
            )
        page_value = self.pages.lookup(pc)
        region_value = self.regions.lookup(pc)
        if page_value is None or region_value is None:
            # Component entry lost (evicted or sharing-limited): miss.
            return BTBLookup(hit=False, target=None, latency=2, provider="component-miss")
        return BTBLookup(
            hit=True,
            target=join_target(region_value, page_value, offset),
            latency=2,
            provider="multitag-ptr",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        if not event.taken:
            return
        pc, target = event.pc, event.target
        use_delta = self.delta_encoding and (pc >> 12) == (target >> 12)
        set_index = self._index(pc)
        tag = self._tag(pc)
        way = self._find_way(set_index, tag)
        if way is None:
            policy = self._policies[set_index]
            way = policy.victim(self._valid[set_index])
            if self._valid[set_index][way]:
                self.stats.evictions += 1
            self._valid[set_index][way] = True
            self._tags[set_index][way] = tag
            policy.on_insert(way)
            self.stats.allocations += 1
        self._offsets[set_index][way] = page_offset(target)
        self._delta[set_index][way] = use_delta
        if not use_delta:
            self.pages.insert(pc, page_in_region(target))
            self.regions.insert(pc, region_id(target))

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


class SeedTemporalPrefetchBTB(_SeedPredictor):
    """Verbatim copy of :class:`repro.btb.prefetch.TemporalPrefetchBTB`,
    frozen before it took the hashed pair.

    Wrap any BTB with miss-triggered temporal-group prefetching.

    Args:
        inner: the wrapped branch-target predictor (baseline, PDede, ...).
        table_entries: learned temporal groups kept (LRU).
        group_size: taken branches recorded per group.
        prefetch_on: ``"hit"`` installs a group when its key branch hits
            (run-ahead, Twig-flavoured); ``"miss"`` installs when the
            keyed miss recurs (demand fill, Phantom-BTB-flavoured).
    """

    def __init__(
        self,
        inner: BranchTargetPredictor,
        table_entries: int = 2048,
        group_size: int = 8,
        prefetch_on: str = "hit",
    ) -> None:
        super().__init__()
        if prefetch_on not in ("hit", "miss"):
            raise ValueError("prefetch_on must be 'hit' or 'miss'")
        if table_entries <= 0 or group_size <= 0:
            raise ValueError("table_entries and group_size must be positive")
        self.inner = inner
        self.table_entries = table_entries
        self.group_size = group_size
        self.prefetch_on = prefetch_on
        #: key branch PC -> [(pc, kind, target)] temporal group (LRU).
        self._groups: OrderedDict[int, list[tuple[int, int, int]]] = OrderedDict()
        #: groups still being recorded: [(key pc, [entries])].
        self._recording: list[tuple[int, list[tuple[int, int, int]]]] = []
        self._previous_taken_pc: int | None = None
        self._last_lookup: tuple[int, BTBLookup] | None = None
        self.prefetches_issued = 0
        self.groups_learned = 0

    # -- lookup ----------------------------------------------------------------

    def lookup(self, pc: int) -> BTBLookup:
        result = self.inner.lookup(pc)
        self._last_lookup = (pc, result)
        key_hit = result.hit if self.prefetch_on == "hit" else not result.hit
        if key_hit and pc in self._groups:
            self._install_group(pc)
        return result

    def _install_group(self, key_pc: int) -> None:
        group = self._groups[key_pc]
        self._groups.move_to_end(key_pc)
        for branch_pc, kind_value, target in group:
            event = BranchEvent(branch_pc, BranchKind(kind_value), True, target, 0)
            self.inner.update(event)
            self.prefetches_issued += 1

    # -- update / learning --------------------------------------------------------

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        # Detect whether the branch missed using the result of its own
        # fetch-time lookup (re-probing would perturb replacement state).
        missed = False
        if event.taken:
            if self._last_lookup is not None and self._last_lookup[0] == event.pc:
                missed = self._last_lookup[1].target != event.target
            else:
                missed = True  # never looked up -> unknown to the BTB
        self.inner.update(event)
        if not event.taken:
            return
        # Extend any open recordings with this taken branch.
        record = (event.pc, int(event.kind), event.target)
        finished = []
        for slot, (key_pc, entries) in enumerate(self._recording):
            entries.append(record)
            if len(entries) >= self.group_size:
                finished.append(slot)
        for slot in reversed(finished):
            key_pc, entries = self._recording.pop(slot)
            self._store_group(key_pc, entries)
        # A miss opens a new recording keyed by the preceding taken
        # branch (the branch the frontend *did* know about).
        if missed and self._previous_taken_pc is not None:
            key = (
                self._previous_taken_pc if self.prefetch_on == "hit" else event.pc
            )
            if len(self._recording) < 4:  # bounded in-flight recorders
                self._recording.append((key, [record]))
        self._previous_taken_pc = event.pc

    def _store_group(self, key_pc: int, entries: list[tuple[int, int, int]]) -> None:
        if key_pc in self._groups:
            self._groups.move_to_end(key_pc)
        self._groups[key_pc] = entries
        self.groups_learned += 1
        while len(self._groups) > self.table_entries:
            self._groups.popitem(last=False)

    # -- accounting --------------------------------------------------------------

    def storage_bits(self) -> int:
        """SRAM budget: the wrapped BTB only (metadata is virtualized)."""
        return self.inner.storage_bits()

    @property
    def metadata_bits(self) -> int:
        """Memory-resident metadata: key + group of (pc, kind, target)."""
        per_entry = 57 + self.group_size * (57 + 3 + 57)
        return self.table_entries * per_entry

    @property
    def name(self) -> str:
        return f"TemporalPrefetch[{self.prefetch_on}]({self.inner.name})"


def seed_counterpart(btb: BranchTargetPredictor) -> BranchTargetPredictor:
    """Map a freshly-built live BTB onto its frozen seed equivalent.

    Every BTB class the live engines run is frozen above, because each
    was rewritten for the fresh-run engine: Baseline, PDede and the
    two-level hierarchy for flat storage, the shadow wrapper for its
    pass, and Micro BTB, Shotgun, dedup-only, multi-tag, GHRP and the
    temporal-prefetch wrapper for the hashed ``lookup_fast`` /
    ``update_fast`` pair.  A wrapper maps over the counterpart of its
    inner BTB (each level, for the hierarchy).  The match is on exact
    types: a subclass overrides behaviour its base copy lacks, so any
    other class passes through unchanged, and the referee then runs the
    code under test.
    """
    from repro.btb.baseline import BaselineBTB
    from repro.btb.ghrp import GhrpBTB
    from repro.btb.microbtb import MicroBTB
    from repro.btb.prefetch import TemporalPrefetchBTB
    from repro.btb.shadow import ShadowBTB
    from repro.btb.shotgun import ShotgunBTB
    from repro.btb.twolevel import TwoLevelBTB
    from repro.core.ablations import DedupOnlyBTB
    from repro.core.multitag import MultiTagPartitionedBTB
    from repro.core.pdede import PDedeBTB

    kind = type(btb)
    if kind is PDedeBTB:
        return SeedPDedeBTB(btb.config)
    if kind is BaselineBTB or kind is GhrpBTB:
        baseline = dict(
            entries=btb.entries,
            ways=btb.ways,
            tag_bits=btb.tag_bits,
            target_bits=btb.target_bits,
            conf_bits=btb.conf_bits,
            replacement=btb.replacement_name,
            srrip_bits=btb.srrip_bits,
            pid_bits=btb.pid_bits,
            latency=btb.latency,
            allocate_indirect=btb.allocate_indirect,
        )
        if kind is BaselineBTB:
            return SeedBaselineBTB(**baseline)
        return SeedGhrpBTB(
            **baseline,
            predictor_entries=btb.predictor_entries,
            dead_threshold=btb.dead_threshold,
            history_bits=btb._history_mask.bit_length(),
        )
    if kind is TwoLevelBTB:
        return SeedTwoLevelBTB(
            seed_counterpart(btb.level0),
            seed_counterpart(btb.level1),
            l1_extra_latency=btb.l1_extra_latency,
        )
    if kind is ShadowBTB:
        return SeedShadowBTB(
            seed_counterpart(btb.inner),
            shadow_entries=btb.shadow_entries,
            shadow_ways=btb.shadow_ways,
            tag_bits=btb.tag_bits,
            line_bytes=btb.line_bytes,
            decode_lines=btb.decode_lines,
            line_map_entries=btb.line_map_entries,
            replacement=btb.replacement_name,
            srrip_bits=btb.srrip_bits,
        )
    if kind is TemporalPrefetchBTB:
        return SeedTemporalPrefetchBTB(
            seed_counterpart(btb.inner),
            table_entries=btb.table_entries,
            group_size=btb.group_size,
            prefetch_on=btb.prefetch_on,
        )
    if kind is MicroBTB:
        return SeedMicroBTB(
            l1_entries=btb.l1_entries,
            l1_ways=btb.l1_ways,
            ll_entries=btb.ll_entries,
            ll_ways=btb.ll_ways,
            tag_bits=btb.tag_bits,
            delta_bits=btb.delta_bits,
            conf_bits=btb.conf_bits,
            replacement=btb.replacement_name,
            srrip_bits=btb.srrip_bits,
            fill_policy=btb.fill_policy,
            promote_on_hit=btb.promote_on_hit,
            ll_extra_latency=btb.ll_extra_latency,
            latency=btb.latency,
            allocate_indirect=btb.allocate_indirect,
        )
    if kind is ShotgunBTB:
        return SeedShotgunBTB(
            u_entries=btb.u_btb.entries,
            u_ways=btb.u_btb.ways,
            c_entries=btb.c_btb.entries,
            c_ways=btb.c_btb.ways,
            footprint_slots=btb.footprint_slots,
            footprint_window=btb.footprint_window,
            tag_bits=btb.u_btb.tag_bits,
            latency=btb.latency,
            replacement=btb.u_btb.replacement_name,
        )
    if kind is DedupOnlyBTB:
        return SeedDedupOnlyBTB(
            entries=btb.entries,
            ways=btb.ways,
            target_entries=btb.targets.entries,
            target_ways=btb.targets.ways,
            tag_bits=btb.tag_bits,
            conf_bits=btb.conf_bits,
            srrip_bits=btb.srrip_bits,
            pid_bits=btb.pid_bits,
            replacement=btb.replacement_name,
        )
    if kind is MultiTagPartitionedBTB:
        return SeedMultiTagPartitionedBTB(
            offset_entries=btb.offset_entries,
            offset_ways=btb.offset_ways,
            page_entries=btb.pages.entries,
            page_ways=btb.pages.ways,
            page_slots=btb.pages.slots,
            region_entries=btb.regions.entries,
            region_slots=btb.regions.slots,
            tag_bits=btb.tag_bits,
            delta_encoding=btb.delta_encoding,
            replacement=btb.replacement_name,
        )
    return btb


class SeedFrontendSimulator:
    """Verbatim seed copy of the pre-optimization ``FrontendSimulator``.

    Differences from the live class are limited to plumbing that plays no
    role in the equivalence contract: no metrics publishing at the end of
    ``run`` and no sanitizer hook (the frozen BTBs are not registered
    with the sanitizer's checker table anyway).
    """

    def __init__(
        self,
        btb: BranchTargetPredictor,
        params: CoreParams = ICELAKE,
        direction: DirectionPredictor | None = None,
        ittage: ITTagePredictor | None = None,
        returns_use_ras: bool = True,
        ras_depth: int = 32,
    ) -> None:
        self.btb = btb
        self.params = params
        self.direction = direction or TageLitePredictor()
        self.ittage = ittage
        self.returns_use_ras = returns_use_ras
        self.ras = ReturnAddressStack(ras_depth)
        self.icache = ICache(params.icache_kib, params.icache_line_bytes, params.icache_ways)

    def run(self, trace: Trace, warmup_fraction: float = 0.25) -> FrontendStats:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        params = self.params
        stats = FrontendStats()
        warm_limit = int(len(trace) * warmup_fraction)
        # Deliberate update: integer-tick cycle accounting (module docs).
        tick = params.cycle_tick
        slack = 0
        slack_max = exact_ticks(params.max_slack_cycles, tick)
        fetch_tick = tick // params.fetch_width
        commit_tick = tick // params.commit_width
        miss_ticks = params.icache_miss_cycles * tick
        overlap_ticks = exact_ticks(_OVERLAPPED_MISS_CYCLES, tick)
        refill_shadow = exact_ticks(params.resteer_refill_cycles, tick)
        decode_penalty = params.decode_resteer_cycles * tick + refill_shadow
        execute_penalty = params.execute_resteer_cycles * tick + refill_shadow
        measuring = warm_limit == 0
        blocks_since_resteer = _REFILL_WINDOW
        cycles_ticks = 0
        base_cycles_ticks = 0
        icache_stall_ticks = 0
        btb_bubble_ticks = 0
        btb_resteer_ticks = 0
        bad_speculation_ticks = 0

        btb = self.btb
        direction = self.direction
        direction_is_perfect = direction.is_perfect
        ittage = self.ittage
        ras = self.ras
        icache_touch = self.icache.touch_range
        returns_use_ras = self.returns_use_ras

        for index, (pc, kind_value, taken, target, gap) in enumerate(trace.events()):
            if not measuring and index >= warm_limit:
                measuring = True
                btb.reset_stats()
            kind = _KINDS[kind_value]
            kind_is_indirect = _IS_INDIRECT[kind_value]
            block_instructions = gap + 1
            block_start = pc - gap * _INSTR_BYTES
            icache_misses = icache_touch(block_start, pc)
            if icache_misses:
                if blocks_since_resteer < _REFILL_WINDOW:
                    icache_cost = icache_misses * miss_ticks
                else:
                    icache_cost = icache_misses * overlap_ticks
            else:
                icache_cost = 0

            penalty = 0
            bubble = 0
            resteer_kind = 0
            btb_miss = False
            direction_mispredict = False
            indirect_mispredict = False
            ras_mispredict = False

            if kind_value == _KIND_RETURN and returns_use_ras:
                if ras.pop() != target:
                    ras_mispredict = True
                    penalty = execute_penalty
                    resteer_kind = 2
                if ittage is not None:
                    ittage.record_history(pc, taken)
            else:
                if _IS_CALL[kind_value]:
                    ras.push(pc + _INSTR_BYTES)
                direction_correct = True
                if kind_value == _KIND_COND:
                    predicted_taken = taken if direction_is_perfect else direction.predict(pc)
                    direction.update(pc, taken)
                    direction_correct = predicted_taken == taken
                if ittage is not None:
                    ittage.record_history(pc, taken)
                if kind_is_indirect and ittage is not None:
                    predicted_target = ittage.predict(pc)
                    ittage.update(pc, target)
                    if taken and predicted_target != target:
                        indirect_mispredict = True
                        penalty = execute_penalty
                        resteer_kind = 2
                else:
                    lookup = btb.lookup(pc)
                    event = _SeedEventView(pc, kind, taken, target, gap)
                    btb_miss = btb.stats.record_outcome(event, lookup)
                    btb.update(event)
                    if not direction_correct:
                        direction_mispredict = True
                        penalty = execute_penalty
                        resteer_kind = 2
                    elif taken and btb_miss:
                        if kind_is_indirect or kind_value == _KIND_RETURN:
                            if kind_is_indirect:
                                indirect_mispredict = True
                            penalty = execute_penalty
                            resteer_kind = 2
                        else:
                            penalty = decode_penalty
                            resteer_kind = 1
                    elif taken and lookup.latency > 1:
                        bubble = (lookup.latency - 1) * tick

            supply = block_instructions * fetch_tick + icache_cost + bubble
            demand = block_instructions * commit_tick
            effective = supply - slack
            if effective > demand:
                block_cycles = effective
                slack = 0
            else:
                block_cycles = demand
                slack = slack + demand - supply
                if slack > slack_max:
                    slack = slack_max
            if penalty:
                slack = 0
                blocks_since_resteer = 0
            else:
                blocks_since_resteer += 1

            if not measuring:
                continue

            stats.instructions += block_instructions
            cycles_ticks += block_cycles + penalty
            base_cycles_ticks += demand
            overrun = block_cycles - demand
            if overrun > 0:
                icache_part = icache_cost if icache_cost < overrun else overrun
                icache_stall_ticks += icache_part
                rest = overrun - icache_part
                btb_bubble_ticks += bubble if bubble < rest else rest
            stats.icache_misses += icache_misses
            stats.branches += 1
            if taken:
                stats.taken_branches += 1
            if btb_miss:
                stats.btb_misses += 1
            if resteer_kind == 1:
                stats.decode_resteers += 1
                btb_resteer_ticks += penalty
            elif resteer_kind == 2:
                stats.execute_resteers += 1
                bad_speculation_ticks += penalty
            if direction_mispredict:
                stats.direction_mispredicts += 1
            if indirect_mispredict:
                stats.indirect_mispredicts += 1
            if ras_mispredict:
                stats.ras_mispredicts += 1
            if bubble:
                stats.extra_latency_lookups += 1
        stats.set_cycle_buckets(
            tick,
            cycles_ticks,
            base_cycles_ticks,
            icache_stall_ticks,
            btb_bubble_ticks,
            btb_resteer_ticks,
            bad_speculation_ticks,
        )
        return stats


class _SeedEventView:
    """Seed copy of the per-event BranchEvent stand-in."""

    __slots__ = ("pc", "kind", "taken", "target", "instr_gap")

    def __init__(self, pc: int, kind: BranchKind, taken: bool, target: int, gap: int) -> None:
        self.pc = pc
        self.kind = kind
        self.taken = taken
        self.target = target
        self.instr_gap = gap

    @property
    def fall_through(self) -> int:
        return self.pc + 4


def seed_slack_walk(d, has_pen, icache_cost, bubble_ticks, slack_max, warm_limit):
    """Verbatim copy of the timing model's scalar fetch-queue slack walk.

    Same arguments and result as ``repro.frontend.vector._slack_walk``:
    int64 per-event columns (demand minus supply, penalty flag, ICache
    cost, lookup bubble), the slack cap and the first measured event;
    returns ``(overrun, icache stall, BTB bubble)`` ticks summed over
    events ``warm_limit:``.
    """
    d_arr = d
    interesting = np.flatnonzero(has_pen | (d_arr < 0))
    prefix = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(d_arr)))
    slack = 0
    overrun_total = 0
    icache_stall_ticks = 0
    btb_bubble_ticks = 0
    event_at = interesting.tolist()
    d_at = d_arr[interesting].tolist()
    pen_at = has_pen[interesting].tolist()
    icache_at = icache_cost[interesting].tolist()
    bubble_at = bubble_ticks[interesting].tolist()
    prefix_at = prefix[interesting].tolist()
    gap_base = 0
    for k in range(len(event_at)):
        slack += prefix_at[k] - gap_base
        if slack > slack_max:
            slack = slack_max
        d_k = d_at[k]
        x = slack + d_k
        if x < 0:
            slack = 0
            if event_at[k] >= warm_limit:
                overrun = -x
                overrun_total += overrun
                ic = icache_at[k]
                icache_part = ic if ic < overrun else overrun
                icache_stall_ticks += icache_part
                rest = overrun - icache_part
                bubble = bubble_at[k]
                btb_bubble_ticks += bubble if bubble < rest else rest
        elif x < slack_max:
            slack = x
        else:
            slack = slack_max
        if pen_at[k]:
            slack = 0
        gap_base = prefix_at[k] + d_k
    return overrun_total, icache_stall_ticks, btb_bubble_ticks
