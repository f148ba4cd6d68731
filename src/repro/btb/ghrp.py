"""GHRP-style predictive BTB replacement (Ajorpaz et al., ISCA 2018).

The paper's related work cites GHRP as an orthogonal BTB improvement
("can be combined with PDede"); this module provides it so the claim is
testable.  The mechanism, simplified to its load-bearing parts:

* every filled entry records a *signature* -- a hash of the branch PC
  and the global history at fill time;
* a table of saturating counters learns, per signature, whether entries
  filled under that signature tend to die unreferenced (evicted without
  a single hit);
* victim selection prefers entries whose signature predicts death,
  falling back to SRRIP order otherwise.

Dead-on-arrival entries (one-shot branches, cold code) stop displacing
useful ones -- the same storage-efficiency goal as PDede, attacked from
the replacement side instead of the encoding side.
"""

from __future__ import annotations

from repro.branch.address import mix64
from repro.btb.base import BranchTargetPredictor, drop_tag
from repro.btb.baseline import BaselineBTB


class GhrpBTB(BaselineBTB):
    """A conventional BTB with history-based dead-entry replacement.

    Accepts every :class:`BaselineBTB` argument plus:

    Args:
        predictor_entries: dead-block predictor counters (power of two).
        dead_threshold: counter value at and above which an entry is
            predicted dead.
        history_bits: global branch-history bits mixed into signatures.
    """

    # Baseline's inlined pass runs Baseline's pair, not the overrides below.
    observe_fast = BranchTargetPredictor.observe_fast

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

    # -- signatures ---------------------------------------------------------

    def _signature(self, pc: int) -> int:
        return mix64((pc >> 1) ^ (self._history << 17)) & self._predictor_mask

    def record_history(self, pc: int, taken: bool) -> None:
        """Fold a resolved branch into the signature history."""
        bit = (int(taken) ^ (pc >> 3)) & 1
        self._history = ((self._history << 1) | bit) & self._history_mask

    # -- BaselineBTB overrides -------------------------------------------------

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        result = super().lookup_fast(pc, hashed)
        if result[1]:
            index = hashed & self._index_mask if self._sets_pow2 else hashed % self.sets
            way = self._find_way(index, (hashed >> 40) & self._tag_mask)
            if way is not None and not self._referenced[index][way]:
                self._referenced[index][way] = True
                # The signature produced a live entry: train toward live.
                signature = self._signatures[index][way]
                if self._dead_counters[signature] > 0:
                    self._dead_counters[signature] -= 1
        return result

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        super().update_fast(pc, target, taken, kind, hashed, is_same_page)
        self.record_history(pc, taken)

    def _allocate(self, index: int, tag: int, target: int) -> None:
        replacement = self._replacement
        base = index * self.ways
        way = None
        # Prefer invalid ways, then a predicted-dead entry.
        for candidate in range(self.ways):
            if not self._valid[base + candidate]:
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
            way = replacement.victim(self._valid[base:base + self.ways], base)
        slot = base + way
        row = self._directory[index]
        if self._valid[slot]:
            self.stats.evictions += 1
            drop_tag(row, self._tags[slot], way)
            # Train: entries evicted unreferenced were dead on arrival.
            signature = self._signatures[index][way]
            if not self._referenced[index][way]:
                if self._dead_counters[signature] < 3:
                    self._dead_counters[signature] += 1
        self._valid[slot] = True
        self._tags[slot] = tag
        row[tag] = way
        self._targets[slot] = target
        self._conf[slot] = 0
        self._signatures[index][way] = self._signature(
            tag  # the folded-tag stands in for the PC inside the set
        )
        self._referenced[index][way] = False
        replacement.on_insert(slot)
        self.stats.allocations += 1

    def storage_bits(self) -> int:
        # Base entries + per-entry signature pointer is not stored in
        # hardware GHRP (signatures index the predictor at fill time);
        # the predictor table itself costs 2 bits per counter.
        return super().storage_bits() + 2 * self.predictor_entries

    @property
    def name(self) -> str:
        return "GhrpBTB"
