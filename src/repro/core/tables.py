"""Region-BTB and Page-BTB: the deduplicated target-component tables.

Both tables store *values* (a 29-bit region id, a 16-bit page-in-region
index) exactly once and hand out stable small pointers for the BTBM to
keep (Section 4.2).  Reads are plain memory addressing -- no tags, no
associative match -- because the BTBM pointer names the slot directly.
Allocation, however, is value-indexed so that an already-present value is
found and shared (that *is* the deduplication), with SRRIP choosing
victims when a set is full (Section 4.4.2).

Replacing a value leaves any BTBM entries that pointed at the slot
*dangling*: they now read the new value and predict a wrong target.  The
paper measures this at 0.06% and accepts it; we count these stale reads
via per-slot generation numbers so the experiment can report the rate.
"""

from __future__ import annotations

from repro.branch.address import mix64
from repro.btb.replacement import make_replacement_policy
from repro.checks.sanitizer import sanitizer_step


class DedupValueTable:
    """Set-associative, value-indexed, pointer-addressed dedup table.

    Pointers are ``set * ways + way`` and remain meaningful for the
    lifetime of the slot's current value; generations disambiguate reuse.
    """

    def __init__(
        self,
        entries: int,
        ways: int,
        value_bits: int,
        replacement: str = "srrip",
        srrip_bits: int = 2,
        name: str = "dedup-table",
        on_evict=None,
    ) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if entries % ways:
            raise ValueError("entries must be divisible by ways")
        self.entries = entries
        self.ways = ways
        self.sets = entries // ways
        self.value_bits = value_bits
        self.srrip_bits = srrip_bits
        self.name = name
        self._set_mask = self.sets - 1
        repl_kwargs = {"m": srrip_bits} if replacement == "srrip" else {}
        self._policies = [
            make_replacement_policy(replacement, ways, **repl_kwargs)
            for _ in range(self.sets)
        ]
        self._valid = [[False] * ways for _ in range(self.sets)]
        self._values = [[0] * ways for _ in range(self.sets)]
        self._generations = [[0] * ways for _ in range(self.sets)]
        self.allocations = 0
        self.dedup_hits = 0
        self.evictions = 0
        #: Optional callback fired with the evicted slot's pointer before
        #: reuse; the invalidating-BTBM mode hooks this.
        self.on_evict = on_evict
        #: Mutation journal for the ``btb/vectorops.py`` value/generation
        #: mirrors (no engine arms it): inserts append the written
        #: pointer while armed.
        self._vec_journal: list[int] | None = None

    def _set_of(self, value: int) -> int:
        if self.sets == 1:
            return 0
        hashed = mix64(value)
        if self.sets & (self.sets - 1) == 0:
            return hashed & self._set_mask
        return hashed % self.sets

    # -- allocation (value-indexed) -----------------------------------------

    def allocate(self, value: int) -> tuple[int, int]:
        """Find-or-insert ``value``; returns ``(pointer, generation)``.

        A find counts as a *dedup hit* -- the value is shared rather than
        stored twice.  An insert may evict, bumping the slot generation so
        dangling pointers are detectable.
        """
        if value >> self.value_bits:
            raise ValueError(
                f"value {value:#x} exceeds {self.value_bits} bits ({self.name})"
            )
        sanitizer_step(self)
        set_index = self._set_of(value)
        valid = self._valid[set_index]
        values = self._values[set_index]
        policy = self._policies[set_index]
        for way in range(self.ways):
            if valid[way] and values[way] == value:
                policy.on_hit(way)
                self.dedup_hits += 1
                return set_index * self.ways + way, self._generations[set_index][way]
        way = policy.victim(valid)
        if valid[way]:
            self.evictions += 1
            self._generations[set_index][way] += 1
            if self.on_evict is not None:
                self.on_evict(set_index * self.ways + way)
        valid[way] = True
        values[way] = value
        policy.on_insert(way)
        self.allocations += 1
        if self._vec_journal is not None:
            self._vec_journal.append(set_index * self.ways + way)
        return set_index * self.ways + way, self._generations[set_index][way]

    # -- reads (pointer-addressed) ----------------------------------------------

    def read(self, pointer: int) -> int:
        """Direct slot read -- the hardware's tagless RAM access."""
        set_index, way = divmod(pointer, self.ways)
        return self._values[set_index][way]

    def generation(self, pointer: int) -> int:
        set_index, way = divmod(pointer, self.ways)
        return self._generations[set_index][way]

    def is_stale(self, pointer: int, generation: int) -> bool:
        """True when the slot was re-allocated since ``generation``."""
        return self.generation(pointer) != generation

    def touch(self, pointer: int) -> None:
        """Promote the slot in its set's replacement order.

        Called on every pointer-chasing lookup: a popular shared entry is
        continuously referenced and therefore never chosen as a victim
        (the paper's argument for leaving pointers dangling).
        """
        set_index, way = divmod(pointer, self.ways)
        self._policies[set_index].on_hit(way)

    def occupancy(self) -> int:
        return sum(sum(valid) for valid in self._valid)

    def metrics(self, prefix: str | None = None) -> dict:
        """Flat metric snapshot, keyed ``<prefix>_*`` (README scheme)."""
        p = prefix or self.name.replace("-", "_")
        return {
            f"{p}_entries": self.entries,
            f"{p}_occupancy": self.occupancy(),
            f"{p}_unique_values": len(self.unique_values()),
            f"{p}_allocations_total": self.allocations,
            f"{p}_dedup_hits_total": self.dedup_hits,
            f"{p}_evictions_total": self.evictions,
        }

    def unique_values(self) -> set[int]:
        present = set()
        for set_index in range(self.sets):
            for way in range(self.ways):
                if self._valid[set_index][way]:
                    present.add(self._values[set_index][way])
        return present

    def storage_bits(self) -> int:
        return self.entries * (self.value_bits + self.srrip_bits)
