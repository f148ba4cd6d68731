"""Decode-assisted shadow-branch BTB fill (after Pepi et al.).

"Exposing Shadow Branches" observes that the fetch pipeline already
holds the raw instruction bytes of every fetched cache line, so *direct*
branches in those lines -- including ones the current fetch stream jumps
over ("shadow" branches) -- can be pre-decoded for free and their
(pc, target) pairs installed into a small shadow BTB before the stream
ever reaches them.  When the main BTB later misses on such a branch, the
shadow table answers instead of paying a decode resteer.

The model layers over any inner predictor (Baseline or PDede here):

* A bounded *line map* stands in for the program image: it remembers the
  direct branches previously observed in each 64-byte fetch line.  (A
  trace carries no raw instruction bytes, so "pre-decode the fetched
  line" becomes "recall the direct branches this line is known to
  contain".)
* Every resolved branch exposes its fetch line (and the next
  ``decode_lines - 1`` sequential lines, modelling the fetch-ahead
  window): remembered shadow branches from those lines are installed
  into a dedicated set-associative shadow table.  The inner BTB is never
  polluted -- predictions it did not earn stay attributable.
* Lookups try the inner BTB first and fall back to the shadow table in
  the same cycle (the paper's U-BTB/SBTB arrangement), tagging the
  result with provider ``"shadow"``.

Only direct branches participate: indirect targets and returns are not
recoverable from instruction bytes.

Engine support: both engines.  The class has no combined
``observe_fast`` hook -- one per-event hook could not see fetch-line
adjacency, which is the whole mechanism -- so the fresh-run engine's BTB
pass calls ``lookup`` then ``update``, exactly as the live loop does.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS, hash_pc
from repro.branch.types import BranchEvent
from repro.btb.base import BTBLookup, BranchTargetPredictor
from repro.btb.replacement import make_replacement_policy
from repro.checks.sanitizer import sanitizer_step

_NO_TAG = -1


class ShadowBTB(BranchTargetPredictor):
    """Shadow-branch decode-assisted fill over an inner BTB.

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
        self._tags = [_NO_TAG] * size
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
        sanitizer_step(self)
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
