"""ITTAGE: indirect-target predictor with tagged geometric history tables.

Section 5.6 evaluates PDede alongside a 64 KB-class ITTAGE (Seznec,
JILP 2011) that takes over indirect branches entirely (indirect targets
are then not allocated in the BTB).  This is a faithful-in-structure,
compact-in-size implementation: a PC-indexed base table plus several
tagged tables indexed by PC folded with geometrically longer slices of a
global path/direction history; the longest-history hit provides the
prediction, with useful-bit guarded allocation on mispredicts.

ITTAGE depends only on the trace: every event's ``(pc, taken)`` feeds
the history and every indirect branch's resolved target trains it, and
it reads neither the BTB nor any other structure.  So the simulator
runs it in one :meth:`ITTagePredictor.replay` over the trace's columns,
on either engine, rather than per event inside the structure pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.branch.address import ADDRESS_BITS, fold_bits

_HISTORY_MASK = (1 << 256) - 1


@dataclass(slots=True)
class _TaggedEntry:
    tag: int = 0
    target: int = 0
    confidence: int = 0  # 2-bit
    useful: int = 0  # 2-bit
    valid: bool = False


class ITTagePredictor:
    """Tagged geometric-history indirect target predictor."""

    def __init__(
        self,
        base_entries: int = 1024,
        table_entries: int = 1024,
        tag_bits: int = 10,
        history_lengths: tuple[int, ...] = (4, 10, 26, 67, 160),
        target_bits: int = ADDRESS_BITS,
    ) -> None:
        if base_entries & (base_entries - 1) or table_entries & (table_entries - 1):
            raise ValueError("table sizes must be powers of two")
        self.base_entries = base_entries
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.target_bits = target_bits
        self.history_lengths = history_lengths
        self._base_mask = base_entries - 1
        self._table_mask = table_entries - 1
        self._base_targets = [0] * base_entries
        self._base_valid = [False] * base_entries
        self._base_conf = [0] * base_entries
        self._tables = [
            [_TaggedEntry() for _ in range(table_entries)] for _ in history_lengths
        ]
        self._history = 0
        self._rng_state = 0x2545F4914F6CDD1D
        self.predictions = 0
        self.mispredictions = 0

    # -- history ------------------------------------------------------------

    def record_history(self, pc: int, taken: bool) -> None:
        """Fold every resolved branch into the global path history."""
        bit = (int(taken) ^ (pc >> 2) ^ (pc >> 7)) & 1
        self._history = ((self._history << 1) | bit) & ((1 << 256) - 1)

    def _next_random(self) -> int:
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x
        return x

    def _index(self, level: int, pc: int) -> int:
        history = self._history & ((1 << self.history_lengths[level]) - 1)
        return ((pc >> 1) ^ fold_bits(history, 14) ^ (level * 0x9E37)) & self._table_mask

    def _tag(self, level: int, pc: int) -> int:
        history = self._history & ((1 << self.history_lengths[level]) - 1)
        return fold_bits((pc >> 1) ^ (history * 5) ^ (level << 7), self.tag_bits) or 1

    def _provider(self, pc: int) -> tuple[int, _TaggedEntry] | None:
        for level in range(len(self._tables) - 1, -1, -1):
            entry = self._tables[level][self._index(level, pc)]
            if entry.valid and entry.tag == self._tag(level, pc):
                return level, entry
        return None

    # -- prediction / training ----------------------------------------------

    def predict(self, pc: int) -> int | None:
        """Predicted indirect target for ``pc``; None when untrained."""
        return self._predicted(pc, self._provider(pc))

    def _predicted(self, pc: int, provider: tuple[int, _TaggedEntry] | None) -> int | None:
        """The prediction for ``pc`` given its ``provider`` (:meth:`_provider`)."""
        if provider is not None:
            return provider[1].target
        base_index = (pc >> 1) & self._base_mask
        if self._base_valid[base_index]:
            return self._base_targets[base_index]
        return None

    def update(self, pc: int, target: int) -> None:
        """Train with the resolved target of the indirect branch at ``pc``."""
        self._train(pc, target, self._provider(pc))

    def _train(
        self, pc: int, target: int, provider: tuple[int, _TaggedEntry] | None
    ) -> int | None:
        """:meth:`update` from the ``provider`` :meth:`_provider` found for
        ``pc``, so one table scan serves the prediction and the training;
        returns the prediction :meth:`predict` would have made."""
        self.predictions += 1
        predicted = self._predicted(pc, provider)
        correct = predicted == target
        if not correct:
            self.mispredictions += 1
        if provider is not None:
            level, entry = provider
            if entry.target == target:
                entry.confidence = min(3, entry.confidence + 1)
                entry.useful = min(3, entry.useful + 1)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.target = target
                entry.confidence = 0
                entry.useful = max(0, entry.useful - 1)
        else:
            base_index = (pc >> 1) & self._base_mask
            if not self._base_valid[base_index]:
                self._base_valid[base_index] = True
                self._base_targets[base_index] = target
                self._base_conf[base_index] = 0
            elif self._base_targets[base_index] == target:
                self._base_conf[base_index] = min(3, self._base_conf[base_index] + 1)
            elif self._base_conf[base_index] > 0:
                self._base_conf[base_index] -= 1
            else:
                self._base_targets[base_index] = target
        if not correct:
            self._allocate(pc, target, provider[0] if provider else -1)
        return predicted

    def _allocate(self, pc: int, target: int, provider_level: int) -> None:
        for level in range(provider_level + 1, len(self._tables)):
            entry = self._tables[level][self._index(level, pc)]
            if not entry.valid or entry.useful == 0:
                entry.valid = True
                entry.tag = self._tag(level, pc)
                entry.target = target
                entry.confidence = 0
                entry.useful = 0
                return
            if self._next_random() & 1:
                entry.useful -= 1

    def replay(self, pcs, takens, indirect, targets) -> np.ndarray:
        """Run a trace's events through this predictor, in trace order;
        returns the per-event mispredict column.

        The calls a per-event loop makes: every event's ``(pc, taken)``
        goes into the history (:meth:`record_history`), and each event
        flagged ``indirect`` is predicted, then trained with its resolved
        target, one provider scan serving both.  An event mispredicts
        when it is taken and the prediction is not its target.  The
        arguments are equal-length numpy columns.
        """
        bits = ((takens.astype(pcs.dtype) ^ (pcs >> 2) ^ (pcs >> 7)) & 1).tolist()
        is_indirect = indirect.tolist()
        mispredicts = np.zeros(len(bits), dtype=np.bool_)
        history = self._history
        for index, bit in enumerate(bits):
            history = ((history << 1) | bit) & _HISTORY_MASK
            if is_indirect[index]:
                self._history = history
                pc, target = int(pcs[index]), int(targets[index])
                predicted = self._train(pc, target, self._provider(pc))
                mispredicts[index] = bool(takens[index]) and predicted != target
        self._history = history
        return mispredicts

    # -- accounting ----------------------------------------------------------

    def storage_bits(self) -> int:
        base_bits = self.base_entries * (self.target_bits + 2 + 1)
        table_bits = len(self._tables) * self.table_entries * (
            self.target_bits + self.tag_bits + 2 + 2 + 1
        )
        return base_bits + table_bits

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions
