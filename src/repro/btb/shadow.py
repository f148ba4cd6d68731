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

Engine support: both engines.  The live structure pass calls the
``lookup`` / ``update`` adapters over the hashed pair per event.  The
wrapper never writes its inner BTB, so the inner sees exactly the calls
it would see alone, and the shadow table depends only on the events and
the inner's hit bits.  The fresh-run engine's BTB pass therefore runs in
two steps: the inner's own ``observe_fast`` over the active events, then
one walk that probes the shadow table where the inner missed and
remembers, refreshes and exposes as ``update_fast`` does.  Both paths
call the same probe, line-map and exposure helpers, each one frame.
"""

from __future__ import annotations

from repro.branch.address import ADDRESS_BITS
from repro.branch.types import IS_DIRECT
from repro.btb.base import BranchTargetPredictor, drop_tag, lookup_buffers, tag_directory
from repro.btb.replacement import make_replacement_table
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
        self.srrip_bits = srrip_bits
        self._line_shift = line_bytes.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._sets_pow2 = self.shadow_sets & (self.shadow_sets - 1) == 0
        self._index_mask = self.shadow_sets - 1
        self._replacement = make_replacement_table(
            replacement, self.shadow_sets, shadow_ways, srrip_bits
        )
        self._touch = self._replacement.on_hit
        size = self.shadow_sets * shadow_ways
        self._valid = [False] * size
        self._tags = [_NO_TAG] * size
        self._directory = tag_directory(self._tags, shadow_ways)
        self._targets = [0] * size
        #: line number -> {pc: (target, hash_pc(pc))} for direct branches
        #: seen in that line (the hash saves re-hashing on every exposure).
        #: Insertion-ordered; the oldest line is evicted when the total
        #: pair count exceeds ``line_map_entries``.
        self._line_map: dict[int, dict[int, tuple[int, int]]] = {}
        self._line_map_size = 0
        self.shadow_hits = 0
        self.shadow_fills = 0
        self.exposures = 0

    # -- the hashed pair -------------------------------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        result = self.inner.lookup_fast(pc, hashed)
        if result[1]:
            return result
        slot = self._probe(hashed)
        if slot < 0:
            return result
        self.shadow_hits += 1
        self._touch(slot)
        return (self._targets[slot], True, result[2], "shadow")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        self.inner.update_fast(pc, target, taken, kind, hashed, is_same_page)
        if taken and IS_DIRECT[kind]:
            self._remember(pc, target, hashed)
            # A branch the inner BTB now knows about needs no shadow
            # entry; keep the shadow copy coherent if one exists.
            slot = self._probe(hashed)
            if slot >= 0:
                self._targets[slot] = target
        self._expose(pc)

    # -- the fresh-run engine's BTB pass --------------------------------------

    def observe_fast(self, columns, start: int, stop: int, results) -> None:
        """The fresh-run engine's BTB pass over active events ``start:stop``.

        Same contract as the base loop.  The wrapper never writes its
        inner BTB, so the inner sees the calls it would see alone and
        runs them as its own pass first; the shadow table depends only on
        the events and the inner's hit bits, so one walk then replays
        :meth:`lookup_fast`'s fallback and :meth:`update_fast`'s shadow
        half per event, in trace order.  One probe serves both halves:
        nothing between the fallback and the refresh writes a shadow tag.
        It reads the ``is_direct`` column, a numpy bool array, and takes
        a list of only its ``start:stop`` slice.  The sanitizer hook is
        omitted, as in the inner's pass.
        """
        inner_targets, inner_hits, latencies = inner_results = lookup_buffers()
        self.inner.observe_fast(columns, start, stop, inner_results)
        pcs, targets, takens, _, hashes, _, is_direct, _ = columns
        out_target, out_hit = results[0].append, results[1].append
        probe, touch, remember, expose = self._probe, self._touch, self._remember, self._expose
        shadow_targets = self._targets
        shadow_hits = 0
        for i, predicted, hit, direct in zip(
            range(start, stop), inner_targets, inner_hits, is_direct[start:stop].tolist()
        ):
            refresh = direct and takens[i]
            if not hit or refresh:
                slot = probe(hashes[i])
                if not hit and slot >= 0:
                    shadow_hits += 1
                    touch(slot)
                    predicted, hit = shadow_targets[slot], True
            out_target(predicted)
            out_hit(hit)
            pc = pcs[i]
            if refresh:
                target = targets[i]
                remember(pc, target, hashes[i])
                if slot >= 0:
                    shadow_targets[slot] = target
            expose(pc)
        results[2].extend(latencies)
        self.shadow_hits += shadow_hits
        self.stats.updates += stop - start

    # -- shadow machinery ----------------------------------------------------
    #
    # A branch's set index is the low bits of its ``hash_pc`` and its tag
    # ``(hashed >> 40) & _tag_mask``; the probe inlines both and the
    # directory probe (find_way's two lines).

    def _probe(self, hashed: int) -> int:
        """The shadow slot holding the branch whose ``hash_pc`` is
        ``hashed``, or -1."""
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.shadow_sets
        tag = (hashed >> 40) & self._tag_mask
        way = self._directory[index].get(tag)
        if way is None:
            return -1
        slot = index * self.shadow_ways + way
        return slot if self._tags[slot] == tag else -1

    def _remember(self, pc: int, target: int, hashed: int) -> None:
        line = pc >> self._line_shift
        branches = self._line_map.get(line)
        if branches is None:
            branches = {}
            self._line_map[line] = branches
        if pc not in branches:
            self._line_map_size += 1
        branches[pc] = (target, hashed)
        while self._line_map_size > self.line_map_entries:
            oldest = next(iter(self._line_map))
            self._line_map_size -= len(self._line_map.pop(oldest))

    def _expose(self, pc: int) -> None:
        """Pre-decode the fetched lines: install remembered shadow
        branches (any line branch other than ``pc`` itself).  A branch
        already in the shadow table has its target written in place."""
        line = pc >> self._line_shift
        line_map = self._line_map
        exposures = 0
        for ahead in range(self.decode_lines):
            branches = line_map.get(line + ahead)
            if not branches:
                continue
            for shadow_pc, (target, hashed) in branches.items():
                if shadow_pc == pc:
                    continue
                exposures += 1
                slot = self._probe(hashed)
                if slot >= 0:
                    self._targets[slot] = target
                else:
                    self._shadow_allocate(hashed, target)
        if exposures:
            self.exposures += exposures

    def _shadow_allocate(self, hashed: int, target: int) -> None:
        index = hashed & self._index_mask if self._sets_pow2 else hashed % self.shadow_sets
        tag = (hashed >> 40) & self._tag_mask
        replacement = self._replacement
        base = index * self.shadow_ways
        way = replacement.victim(self._valid[base:base + self.shadow_ways], base)
        slot = base + way
        row = self._directory[index]
        if self._valid[slot]:
            self.stats.evictions += 1
            drop_tag(row, self._tags[slot], way)
        self._valid[slot] = True
        self._tags[slot] = tag
        row[tag] = way
        self._targets[slot] = target
        replacement.on_insert(slot)
        self.shadow_fills += 1
        self.stats.allocations += 1

    # -- storage and introspection -------------------------------------------

    def storage_bits(self) -> int:
        # The line map models bytes already present in the I-cache (the
        # paper's point: shadow decode reuses fetched lines), so only the
        # shadow table itself is charged.
        per_entry = (
            self.tag_bits
            + ADDRESS_BITS
            + self._replacement.metadata_bits_per_entry()
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
