"""Ablation designs for the Figure 11a ladder.

The paper attributes PDede's 14.4% IPC gain to a ladder of techniques:
target deduplication alone (+1.6%), region/page partitioning with
individual deduplication (+5.3%), delta encoding (+2.5%), and the
multi-target (+2%) / multi-entry (+5%) designs.  Two of these rungs need
dedicated models:

* :class:`DedupOnlyBTB` -- full 57-bit targets deduplicated through one
  level of indirection, no partitioning.  Only ~30% of targets are
  duplicates (Figure 7) and the pointer adds overhead, so the iso-storage
  capacity gain is small -- the paper's 1.6%.
* *Partition-only* -- region/page partitioning + dedup without delta
  encoding; built as a plain :class:`~repro.core.pdede.PDedeBTB` with
  ``delta_encoding=False`` via :func:`partition_only_config`.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS
from repro.btb.base import BranchTargetPredictor
from repro.btb.replacement import make_replacement_table
from repro.core.config import PDedeConfig, PDedeMode, paper_config
from repro.core.tables import DedupValueTable


def partition_only_config(btbm_entries: int = 6144) -> PDedeConfig:
    """Region/page partitioning + dedup, no delta encoding (Fig 11a)."""
    return paper_config(PDedeMode.DEFAULT).replace(
        btbm_entries=btbm_entries, delta_encoding=False
    )


class DedupOnlyBTB(BranchTargetPredictor):
    """Full-target deduplication through a pointer table, no partitioning.

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
        self.replacement_name = replacement
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
        self._replacement = make_replacement_table(replacement, self.sets, ways, srrip_bits)
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

    def _slot(self, hashed: int) -> tuple[int, int]:
        """(set index, tag) of the branch whose ``hash_pc`` is ``hashed``."""
        index = hashed & (self.sets - 1) if self._sets_pow2 else hashed % self.sets
        return index, (hashed >> 40) & ((1 << self.tag_bits) - 1)

    def _find_way(self, set_index: int, tag: int) -> int | None:
        valid = self._valid[set_index]
        tags = self._tags[set_index]
        for way in range(self.ways):
            if valid[way] and tags[way] == tag:
                return way
        return None

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        set_index, tag = self._slot(hashed)
        way = self._find_way(set_index, tag)
        if way is None:
            return (None, False, 1, "miss")
        pointer = self._ptr[set_index][way]
        if self.targets.is_stale(pointer, self._gen[set_index][way]):
            self.stale_pointer_reads += 1
        target = self.targets.read(pointer)
        self.targets.touch(pointer)
        self._replacement.on_hit(set_index * self.ways + way)
        # The indirection always costs the extra pointer-chase cycle.
        return (target, True, 2, "dedup")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        if not taken:
            return
        set_index, tag = self._slot(hashed)
        way = self._find_way(set_index, tag)
        if way is not None:
            self._train_existing(set_index, way, target)
            return
        pointer, generation = self.targets.allocate(target)
        base = set_index * self.ways
        way = self._replacement.victim(self._valid[set_index], base)
        if self._valid[set_index][way]:
            self.stats.evictions += 1
            self._unlink(set_index, way)
        self._valid[set_index][way] = True
        self._tags[set_index][way] = tag
        self._ptr[set_index][way] = pointer
        self._gen[set_index][way] = generation
        self._conf[set_index][way] = 0
        self._link(set_index, way, pointer)
        self._replacement.on_insert(base + way)
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
        self._replacement.on_hit(set_index * self.ways + way)

    def storage_bits(self) -> int:
        pointer_bits = (self.targets.entries - 1).bit_length()
        per_entry = (
            self.pid_bits + self.tag_bits + pointer_bits + self.conf_bits + self.srrip_bits
        )
        return self.entries * per_entry + self.targets.storage_bits()

    @property
    def name(self) -> str:
        return "DedupOnlyBTB"
