"""Temporal BTB prefetching: a Twig/Phantom-BTB-style wrapper.

The paper closes Section 5.10 with: "PDede can definitely complement
Confluence, Shotgun, and other BTB prefetching techniques to hold more
branches in the BTB and in turn reduce the prefetching needed."  This
module provides that complement so the claim can be measured: a
composable wrapper that learns *temporal groups* -- the run of taken
branches that followed a BTB miss -- keyed by the branch that preceded
the miss, and pre-installs the group when the key branch is seen again
(the mechanism of Phantom-BTB (Burcea & Moshovos) and, with offline
profiles, Twig (Khan et al., MICRO'21)).

Group metadata is *virtualized* (memory-resident, as in both source
designs), so it does not count against the BTB's SRAM budget; the
``metadata_bits`` property reports its size separately.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.branch.types import BranchEvent, BranchKind
from repro.btb.base import BranchTargetPredictor


class TemporalPrefetchBTB(BranchTargetPredictor):
    """Wrap any BTB with miss-triggered temporal-group prefetching.

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
        #: (pc, predicted target) of the last lookup.
        self._last_lookup: tuple[int, int | None] | None = None
        self.prefetches_issued = 0
        self.groups_learned = 0

    # -- lookup ----------------------------------------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        result = self.inner.lookup_fast(pc, hashed)
        hit = result[1]
        self._last_lookup = (pc, result[0])
        key_hit = hit if self.prefetch_on == "hit" else not hit
        if key_hit and pc in self._groups:
            self._install_group(pc)
        return result

    def _install_group(self, key_pc: int) -> None:
        group = self._groups[key_pc]
        self._groups.move_to_end(key_pc)
        # Each install is a whole inner update, sanitizer step included.
        for branch_pc, kind_value, target in group:
            event = BranchEvent(branch_pc, BranchKind(kind_value), True, target, 0)
            self.inner.update(event)
            self.prefetches_issued += 1

    # -- update / learning --------------------------------------------------------

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        # Detect whether the branch missed using the result of its own
        # fetch-time lookup (re-probing would perturb replacement state).
        missed = False
        if taken:
            if self._last_lookup is not None and self._last_lookup[0] == pc:
                missed = self._last_lookup[1] != target
            else:
                missed = True  # never looked up -> unknown to the BTB
        self.inner.update_fast(pc, target, taken, kind, hashed, is_same_page)
        if not taken:
            return
        # Extend any open recordings with this taken branch.
        record = (pc, kind, target)
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
            key = self._previous_taken_pc if self.prefetch_on == "hit" else pc
            if len(self._recording) < 4:  # bounded in-flight recorders
                self._recording.append((key, [record]))
        self._previous_taken_pc = pc

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
