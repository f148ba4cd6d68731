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
  ``lookup`` / ``update``, frozen before its fresh-run pass hook.

Shared leaf modules (address hashing, replacement policies, dedup
tables, ICache, RAS, direction predictors) are imported, not copied,
so a behavioural change in one of them is *supposed* to move both
engines together, and the referee cannot catch a fault there.  Where
one has been optimised -- the raise-free ``SrripPolicy.victim`` and
``DedupValueTable.allocate`` -- tests hold it to the seed's loop,
copied into ``tests/test_replacement.py`` and
``tests/test_dedup_table.py``.

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
"""

from __future__ import annotations

from repro.branch.address import (
    ADDRESS_BITS,
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
from repro.branch.direction import DirectionPredictor, TageLitePredictor
from repro.branch.types import BranchEvent, BranchKind
from repro.btb.base import BTBLookup, BranchTargetPredictor
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
_INSTR_BYTES = 4
_REFILL_WINDOW = 4
_OVERLAPPED_MISS_CYCLES = 1.5

_KIND_RETURN = int(BranchKind.RETURN)
_KIND_COND = int(BranchKind.COND_DIRECT)
_KINDS = [BranchKind(value) for value in range(len(BranchKind))]
_IS_CALL = [kind.is_call for kind in _KINDS]
_IS_INDIRECT = [kind.is_indirect for kind in _KINDS]


class SeedBaselineBTB(BranchTargetPredictor):
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


class SeedPDedeBTB(BranchTargetPredictor):
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


class SeedTwoLevelBTB(BranchTargetPredictor):
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


class SeedShadowBTB(BranchTargetPredictor):
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


def seed_counterpart(btb: BranchTargetPredictor) -> BranchTargetPredictor:
    """Map a freshly-built live BTB onto its frozen seed equivalent.

    The optimization pass rewrote PDede / baseline / two-level storage
    and gave the shadow wrapper a fresh-run pass; those map onto the
    ``Seed*`` copies above, a wrapper over the counterpart of its inner
    BTB.  Every other design's model code is untouched by the pass, so
    the instance itself (fresh from ``Design.build()``) already *is* the
    seed behaviour and passes through unchanged.  The match is on exact
    types: a subclass such as ``GhrpBTB`` overrides the behaviour it
    inherits, so mapping it onto a plain seed copy would drop exactly
    what it adds.
    """
    from repro.btb.baseline import BaselineBTB
    from repro.btb.shadow import ShadowBTB
    from repro.btb.twolevel import TwoLevelBTB
    from repro.core.pdede import PDedeBTB

    if type(btb) is PDedeBTB:
        return SeedPDedeBTB(btb.config)
    if type(btb) is BaselineBTB:
        return SeedBaselineBTB(
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
    if type(btb) is TwoLevelBTB:
        return SeedTwoLevelBTB(
            seed_counterpart(btb.level0),
            seed_counterpart(btb.level1),
            l1_extra_latency=btb.l1_extra_latency,
        )
    if type(btb) is ShadowBTB:
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
        model_wrong_path: bool = False,
        wrong_path_bytes: int = 256,
    ) -> None:
        self.btb = btb
        self.params = params
        self.direction = direction or TageLitePredictor()
        self.ittage = ittage
        self.returns_use_ras = returns_use_ras
        self.ras = ReturnAddressStack(ras_depth)
        self.icache = ICache(params.icache_kib, params.icache_line_bytes, params.icache_ways)
        self.model_wrong_path = model_wrong_path
        self.wrong_path_bytes = wrong_path_bytes
        self.wrong_path_fetches = 0

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
            wrong_path_addr = -1

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
                        if taken:
                            wrong_path_addr = pc + _INSTR_BYTES
                        elif lookup.target is not None:
                            wrong_path_addr = lookup.target
                    elif taken and btb_miss:
                        if kind_is_indirect or kind_value == _KIND_RETURN:
                            if kind_is_indirect:
                                indirect_mispredict = True
                            penalty = execute_penalty
                            resteer_kind = 2
                            if lookup.target is not None:
                                wrong_path_addr = lookup.target
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
                if self.model_wrong_path and wrong_path_addr >= 0:
                    icache_touch(wrong_path_addr, wrong_path_addr + self.wrong_path_bytes)
                    self.wrong_path_fetches += 1
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
