"""The conventional set-associative BTB the paper compares against.

Section 2 / Figure 2: an 8-way, 4096-entry BTB.  Each entry stores a
1-bit process ID, a 12-bit partial tag (hashed, so aliasing forces a
resteer but never breaks correctness), the full 57-bit target, 3 SRRIP
bits and a 2-bit confidence counter -- 75 bits per entry, 37.5 KiB total.

Confidence counters arbitrate target replacement for branches (mostly
indirect ones) whose target changes: a mispredicted target first drains
confidence before the stored target is overwritten.

Storage is flat (``set * ways + way`` indexing) with a ``-1`` tag
sentinel in invalid slots, and every tag match is one probe of the
table's tag directory; see :mod:`repro.core.pdede` for the layout
rationale.  The baseline never invalidates entries, so only allocation
writes tags: it records each in the directory and drops the victim's.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS, hash_pc
from repro.branch.types import IS_INDIRECT
from repro.btb.base import (
    NO_TARGET, BranchTargetPredictor, drop_tag, find_way, tag_directory,
)
from repro.btb.replacement import make_replacement_table
from repro.checks.sanitizer import sanitizer_step

_NO_TAG = -1


class BaselineBTB(BranchTargetPredictor):
    """Set-associative BTB with partial tags and confidence counters.

    Args:
        entries: total entry count (power of two).
        ways: set associativity.
        tag_bits: width of the hashed partial tag.
        target_bits: stored target width (57 for 5-level paging).
        conf_bits: confidence-counter width.
        replacement: replacement policy name (``srrip`` by default).
        srrip_bits: RRPV width when SRRIP is selected.
        pid_bits: process-ID bits per entry.
        latency: lookup latency in cycles.
        store_kinds: when False, ``update`` ignores indirect branches
            (Section 5.6 runs with indirects served by ITTAGE instead).
    """

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
        self._tag_mask = (1 << tag_bits) - 1
        self.replacement_name = replacement
        self._replacement = make_replacement_table(replacement, self.sets, ways, srrip_bits)
        size = self.sets * ways
        self._valid = [False] * size
        self._tags = [_NO_TAG] * size
        self._targets = [0] * size
        self._conf = [0] * size
        self._directory = tag_directory(self._tags, ways)

    # -- address mapping ---------------------------------------------------

    def _index(self, pc: int) -> int:
        # Index and tag come from disjoint ranges of an avalanche hash,
        # so structured code addresses do not alias systematically.
        hashed = hash_pc(pc)
        if self._sets_pow2:
            return hashed & self._index_mask
        return hashed % self.sets

    def _tag(self, pc: int) -> int:
        return (hash_pc(pc) >> 40) & self._tag_mask

    def _find_way(self, index: int, tag: int) -> int | None:
        return find_way(self._directory[index], self._tags, index * self.ways, tag)

    # -- the algorithm, on a precomputed hash -------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        """The lookup: ``(target, hit, latency, "btb")``."""
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        tag = (hashed >> 40) & self._tag_mask
        base = index * self.ways
        # find_way, inlined: the call would cost a hit about 10%.
        way = self._directory[index].get(tag)
        if way is None or self._tags[base + way] != tag:
            return (None, False, self.latency, "btb")
        self._replacement.on_hit(base + way)
        return (self._targets[base + way], True, self.latency, "btb")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        """The update; the page bit is PDede's, and the baseline never reads it."""
        sanitizer_step(self)
        self.stats.updates += 1
        if not taken:
            return
        if IS_INDIRECT[kind] and not self.allocate_indirect:
            return
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
        tag = (hashed >> 40) & self._tag_mask
        way = find_way(self._directory[index], self._tags, index * self.ways, tag)
        if way is not None:
            self._train_existing(index, way, target)
            return
        self._allocate(index, tag, target)

    # -- the fresh-run engine's inlined BTB pass -----------------------------

    def observe_fast(self, columns, start: int, stop: int, results) -> None:
        """The fresh-run engine's BTB pass over active events ``start:stop``.

        Same contract as the base loop, whose state evolution it keeps,
        in one frame: lookup mutates only replacement state, which cannot
        change the tag match, so one match serves both halves, and the
        update's ``on_hit`` of the way the lookup just promoted is
        dropped (no policy tells two back-to-back ``on_hit`` calls from
        one).  The match is :func:`~repro.btb.base.find_way`'s probe of
        the table's tag directory, inlined.  The sanitizer hook is
        omitted: the fresh-run engine only runs with it disarmed (the
        simulator gates on it).
        """
        _, targets, takens, is_indirect, hashes, _, _, _ = columns
        lookup_targets, lookup_hits, latencies = results
        out_target, out_hit = lookup_targets.append, lookup_hits.append
        skip_indirect = not self.allocate_indirect
        sets_pow2, index_mask, sets = self._sets_pow2, self._index_mask, self.sets
        tag_mask, ways = self._tag_mask, self.ways
        tags, stored, conf, conf_max = self._tags, self._targets, self._conf, self._conf_max
        touch = self._replacement.on_hit
        allocate = self._allocate
        directory = self._directory
        for i in range(start, stop):
            hashed = hashes[i]
            index = hashed & index_mask if sets_pow2 else hashed % sets
            tag = (hashed >> 40) & tag_mask
            way = directory[index].get(tag)
            base = index * ways
            if way is None or tags[base + way] != tag:
                out_target(NO_TARGET)
                out_hit(False)
                if takens[i] and not (skip_indirect and is_indirect[i]):
                    allocate(index, tag, targets[i])
                continue
            slot = base + way
            predicted = stored[slot]
            out_target(predicted)
            out_hit(True)
            touch(slot)
            if not takens[i] or (skip_indirect and is_indirect[i]):
                continue
            target = targets[i]
            if predicted == target:
                if conf[slot] < conf_max:
                    conf[slot] += 1
            elif conf[slot] > 0:
                conf[slot] -= 1
            else:
                stored[slot] = target
        latencies.extend([self.latency] * (stop - start))
        self.stats.updates += stop - start

    def _train_existing(self, index: int, way: int, target: int) -> None:
        slot = index * self.ways + way
        if self._targets[slot] == target:
            if self._conf[slot] < self._conf_max:
                self._conf[slot] += 1
        elif self._conf[slot] > 0:
            # Keep the incumbent target until confidence drains.
            self._conf[slot] -= 1
        else:
            self._targets[slot] = target
        self._replacement.on_hit(slot)

    def _allocate(self, index: int, tag: int, target: int) -> None:
        """Fill ``tag`` into the set's victim way, replacing the victim's
        tag with it in the tag directory."""
        replacement = self._replacement
        base = index * self.ways
        way = replacement.victim(self._valid[base:base + self.ways], base)
        slot = base + way
        row = self._directory[index]
        if self._valid[slot]:
            self.stats.evictions += 1
            drop_tag(row, self._tags[slot], way)
        self._valid[slot] = True
        self._tags[slot] = tag
        row[tag] = way
        self._targets[slot] = target
        self._conf[slot] = 0
        replacement.on_insert(slot)
        self.stats.allocations += 1

    def storage_bits(self) -> int:
        per_entry = (
            self.pid_bits
            + self.tag_bits
            + self.target_bits
            + self.conf_bits
            + self._replacement.metadata_bits_per_entry()
        )
        return self.entries * per_entry

    # -- introspection helpers (tests, characterisation) --------------------

    def occupancy(self) -> int:
        """Number of valid entries currently stored."""
        return sum(self._valid)

    def metrics(self) -> dict:
        data = super().metrics()
        data["btb_entries"] = self.entries
        data["btb_ways"] = self.ways
        return data

    def contains(self, pc: int) -> bool:
        return self._find_way(self._index(pc), self._tag(pc)) is not None
