"""Branch direction predictors.

The BTB answers *where* a taken branch goes; these predictors answer
*whether* a conditional branch is taken.  The paper's core uses a
state-of-the-art direction predictor (Table 3) and Section 5.5 evaluates
PDede under a *perfect* direction predictor; we provide a ladder of
predictors so both the default and the perfect configuration can be run,
plus cheaper ones for sensitivity studies.

All predictors share one small interface: ``predict(pc)`` returns the
predicted direction, ``update(pc, taken)`` trains with the real outcome.
A predictor with ``is_perfect`` set is treated as oracle by the frontend
model (no direction mispredict penalty is ever charged).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.branch.address import mix64, vmix64

_MASK64 = (1 << 64) - 1

#: TAGE-lite keeps the last 192 conditional outcomes (bit 0 newest).
_HISTORY_MASK = (1 << 192) - 1

#: Conditionals per key-column chunk in :meth:`TageLitePredictor.replay`:
#: bounds the replay's transient memory independently of trace length.
REPLAY_CHUNK = 8192


class DirectionPredictor(abc.ABC):
    """Interface for conditional-branch direction predictors."""

    #: Oracles set this; the frontend then never charges a mispredict.
    is_perfect: bool = False

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the resolved outcome of the branch at ``pc``."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def storage_bits(self) -> int:
        """Storage footprint of the predictor state, in bits."""
        return 0


class AlwaysTakenPredictor(DirectionPredictor):
    """Degenerate static predictor; useful as a worst-case baseline."""

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class PerfectDirectionPredictor(DirectionPredictor):
    """Oracle predictor for the Section 5.5 study.

    ``predict`` still returns a value (taken) so that the object can be
    used interchangeably, but the frontend model consults ``is_perfect``
    and substitutes the actual outcome.
    """

    is_perfect = True

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class BimodalPredictor(DirectionPredictor):
    """Classic per-PC table of 2-bit saturating counters."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self._entries = entries
        self._mask = entries - 1
        self._table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self._table[(pc >> 1) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = (pc >> 1) & self._mask
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1

    def storage_bits(self) -> int:
        return 2 * self._entries


class GSharePredictor(DirectionPredictor):
    """Global-history XOR predictor (McFarling gshare)."""

    def __init__(self, entries: int = 16384, history_bits: int = 12) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self._entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._table = [2] * entries

    def _index(self, pc: int) -> int:
        return ((pc >> 1) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def storage_bits(self) -> int:
        return 2 * self._entries


class _TageComponent:
    """One tagged table of a TAGE predictor."""

    __slots__ = (
        "entries", "mask", "tag_bits", "tag_mask", "history_length",
        "history_mask", "salt", "tags", "counters", "useful",
        "cached_mix", "cached_version",
    )

    def __init__(self, entries: int, tag_bits: int, history_length: int) -> None:
        self.entries = entries
        self.mask = entries - 1
        self.tag_bits = tag_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        # The key is mix64((history & history_mask) ^ salt).  mix64 keeps
        # only the low 64 bits of its input, so both are stored masked
        # to 64 bits: the key never sees an older outcome than the 64th.
        self.history_mask = ((1 << history_length) - 1) & _MASK64
        self.salt = (history_length * 0x9E3779B97F4A7C15) & _MASK64
        self.tags = [0] * entries
        self.counters = [0] * entries  # signed 3-bit: -4..3
        self.useful = [0] * entries
        # The history mix only changes when the history does; cache it.
        self.cached_mix = 0
        self.cached_version = -1


#: ``TageLitePredictor._probed`` before any ``predict``: matches no pc.
_NOT_PROBED: tuple = (None, -1, None)


class TageLitePredictor(DirectionPredictor):
    """A compact TAGE: bimodal base + tagged tables with geometric history.

    This is not a contest-grade TAGE-SC-L, but it captures the behaviour
    that matters here -- long-history correlation on the hard branches --
    at a fidelity adequate for a frontend study whose subject is the BTB.
    """

    def __init__(
        self,
        base_entries: int = 8192,
        table_entries: int = 2048,
        tag_bits: int = 9,
        history_lengths: tuple[int, ...] = (5, 15, 44, 130),
    ) -> None:
        self._base = BimodalPredictor(base_entries)
        self._components = [
            _TageComponent(table_entries, tag_bits, length) for length in history_lengths
        ]
        self._history = 0  # masked per component
        self._history_version = 0
        self._rng_state = 0x9E3779B97F4A7C15
        self._probed = _NOT_PROBED

    # -- internal helpers -------------------------------------------------

    def _next_random(self) -> int:
        """xorshift64 -- deterministic tie-breaking for allocation."""
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x
        return x

    def _component_key(self, component: _TageComponent, pc: int) -> tuple[int, int]:
        """(index, tag) of ``pc`` in ``component`` -- constant-time mix."""
        if component.cached_version != self._history_version:
            component.cached_mix = mix64(
                (self._history & component.history_mask) ^ component.salt
            )
            component.cached_version = self._history_version
        mixed = component.cached_mix
        index = ((pc >> 1) ^ mixed) & component.mask
        tag = ((pc >> 1) ^ (mixed >> 24)) & component.tag_mask
        return index, tag

    def _provider(self, pc: int) -> tuple[int, int] | None:
        """Longest-history component hitting on ``pc`` -> (level, index)."""
        for level in range(len(self._components) - 1, -1, -1):
            component = self._components[level]
            index, tag = self._component_key(component, pc)
            if component.tags[index] == tag:
                return level, index
        return None

    # -- DirectionPredictor API -------------------------------------------

    def predict(self, pc: int) -> bool:
        provider = self._provider(pc)
        self._probed = (pc, self._history_version, provider)
        if provider is None:
            return self._base.predict(pc)
        level, index = provider
        return self._components[level].counters[index] >= 0

    def update(self, pc: int, taken: bool) -> None:
        # The simulator calls predict(pc) and then update(pc, taken) for
        # every conditional.  Tables and history change only in _train
        # and replay, which bump the version, so a probe of the same pc
        # at the same version is still the provider: skip the second
        # table walk.
        probed_pc, version, provider = self._probed
        if probed_pc != pc or version != self._history_version:
            provider = self._provider(pc)
        self._train(pc, taken, provider)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Fused ``predict`` + ``update``; returns the prediction.

        State transitions and the returned prediction are identical to
        the two-call sequence.
        """
        return self._train(pc, taken, self._provider(pc))

    def _train(self, pc: int, taken: bool, provider: tuple[int, int] | None) -> bool:
        """Train on ``taken`` given ``pc``'s provider; returns the prediction."""
        if provider is not None:
            level, index = provider
            component = self._components[level]
            counter = component.counters[index]
            predicted = counter >= 0
            if taken:
                component.counters[index] = min(3, counter + 1)
            else:
                component.counters[index] = max(-4, counter - 1)
            if predicted == taken and component.useful[index] < 3:
                component.useful[index] += 1
        else:
            predicted = self._base.predict(pc)
            self._base.update(pc, taken)
        if predicted != taken:
            self._allocate(pc, taken, provider)
        self._history = ((self._history << 1) | int(taken)) & _HISTORY_MASK
        self._history_version += 1
        return predicted

    def _allocate(self, pc: int, taken: bool, provider: tuple[int, int] | None) -> None:
        """On a mispredict, claim an entry in a longer-history table."""
        start = 0 if provider is None else provider[0] + 1
        for level in range(start, len(self._components)):
            component = self._components[level]
            index, tag = self._component_key(component, pc)
            if component.useful[index] == 0:
                component.tags[index] = tag
                component.counters[index] = 0 if taken else -1
                return
            if self._next_random() & 1:
                component.useful[index] -= 1

    # -- whole-trace replay -----------------------------------------------

    def replay(self, pcs: np.ndarray, takens: np.ndarray) -> np.ndarray:
        """``predict_and_update`` over a conditional stream, in bulk.

        ``pcs`` (uint64) and ``takens`` (bool) are the conditionals only,
        in order.  Returns the predictions as a bool array and leaves
        the predictor in exactly the state the per-event loop would:
        tables, RNG, history, version and each component's cached mix.

        The global history holds only conditional outcomes, and a
        component's key reads only its low 64 bits, so every (index,
        tag) pair follows from ``pcs`` and ``takens`` alone.  Those key
        columns are built in numpy, :data:`REPLAY_CHUNK` conditionals at
        a time (64 history bits carry across each chunk boundary); the
        scalar loop then does only the table work: provider search,
        counter and useful updates, bimodal fallback and allocation.
        """
        pcs = np.asarray(pcs, dtype=np.uint64)
        takens = np.asarray(takens, dtype=np.bool_)
        total = len(pcs)
        components = self._components
        n_levels = len(components)
        levels = tuple(range(n_levels - 1, -1, -1))
        tags = [component.tags for component in components]
        counters = [component.counters for component in components]
        useful = [component.useful for component in components]
        base = self._base._table
        base_mask = np.uint64(self._base._mask)
        carry = self._history & _MASK64
        first_version = self._history_version
        wrong: list[int] = []

        for start in range(0, total, REPLAY_CHUNK):
            chunk_takens = takens[start:start + REPLAY_CHUNK]
            windows = _history_windows(carry, chunk_takens)
            carry = int(windows[-1])
            history = windows[:-1]
            half_pcs = pcs[start:start + REPLAY_CHUNK] >> np.uint64(1)
            mixes = [
                vmix64((history & np.uint64(component.history_mask))
                       ^ np.uint64(component.salt))
                for component in components
            ]
            index_cols = [
                ((half_pcs ^ mixed) & np.uint64(component.mask)).tolist()
                for component, mixed in zip(components, mixes)
            ]
            tag_cols = [
                ((half_pcs ^ (mixed >> np.uint64(24)))
                 & np.uint64(component.tag_mask)).tolist()
                for component, mixed in zip(components, mixes)
            ]
            base_indices = (half_pcs & base_mask).tolist()
            # last_probe[level + 1]: the last conditional of the chunk
            # whose provider was ``level`` (-1: none).  The search probes
            # every component from the top down to the provider, and
            # allocation only ever revisits those.
            last_probe = [-1] * (n_levels + 1)

            for i, taken in enumerate(chunk_takens.tolist()):
                for level in levels:
                    index = index_cols[level][i]
                    if tags[level][index] == tag_cols[level][i]:
                        break
                else:
                    level = -1
                last_probe[level + 1] = i
                if level >= 0:
                    level_counters = counters[level]
                    counter = level_counters[index]
                    if taken:
                        if counter < 3:
                            level_counters[index] = counter + 1
                    elif counter > -4:
                        level_counters[index] = counter - 1
                    if (counter >= 0) == taken:
                        level_useful = useful[level]
                        if level_useful[index] < 3:
                            level_useful[index] += 1
                        continue
                else:
                    slot = base_indices[i]
                    counter = base[slot]
                    if taken:
                        if counter < 3:
                            base[slot] = counter + 1
                    elif counter > 0:
                        base[slot] = counter - 1
                    if (counter >= 2) == taken:
                        continue
                # Mispredicted: claim an entry in a longer-history table.
                wrong.append(start + i)
                for alloc in range(level + 1, n_levels):
                    index = index_cols[alloc][i]
                    alloc_useful = useful[alloc]
                    if alloc_useful[index] == 0:
                        tags[alloc][index] = tag_cols[alloc][i]
                        counters[alloc][index] = 0 if taken else -1
                        break
                    if self._next_random() & 1:
                        alloc_useful[index] -= 1

            for level, component in enumerate(components):
                last = max(last_probe[:level + 2])
                if last >= 0:
                    component.cached_mix = int(mixes[level][last])
                    component.cached_version = first_version + start + last

        history = self._history
        for taken in takens[-192:].tolist():
            history = (history << 1) | taken
        self._history = history & _HISTORY_MASK
        self._history_version = first_version + total
        predictions = takens.copy()
        predictions[wrong] = ~predictions[wrong]
        return predictions

    def storage_bits(self) -> int:
        bits = self._base.storage_bits()
        for component in self._components:
            bits += component.entries * (component.tag_bits + 3 + 2)
        return bits

    def clone(self) -> "TageLitePredictor":
        """Independent copy of the full predictor state.

        Used by the vector engine: the direction replay is shared
        across designs, so each simulator adopts a clone of the end
        state rather than the cached replay object itself.  Plain
        ``list`` copies keep this far cheaper than ``copy.deepcopy``.
        """
        clone = TageLitePredictor.__new__(TageLitePredictor)
        base = BimodalPredictor.__new__(BimodalPredictor)
        base._entries = self._base._entries
        base._mask = self._base._mask
        base._table = list(self._base._table)
        clone._base = base
        clone._components = []
        for component in self._components:
            copied = _TageComponent(
                component.entries, component.tag_bits, component.history_length
            )
            copied.tags = list(component.tags)
            copied.counters = list(component.counters)
            copied.useful = list(component.useful)
            copied.cached_mix = component.cached_mix
            copied.cached_version = component.cached_version
            clone._components.append(copied)
        clone._history = self._history
        clone._history_version = self._history_version
        clone._rng_state = self._rng_state
        clone._probed = _NOT_PROBED
        return clone


def _history_windows(carry: int, takens: np.ndarray) -> np.ndarray:
    """Low 64 global-history bits before each outcome in ``takens``.

    ``carry`` is the history before the first outcome.  Element ``i`` of
    the result is the history the ``i``-th conditional sees (bit ``k`` is
    the outcome ``k + 1`` conditionals back); the extra last element is
    the history after them all, the next chunk's ``carry``.  Built by
    doubling 1-bit windows up to 64 bits over the carry's bits followed
    by the outcomes.
    """
    bits = np.empty(64 + len(takens), dtype=np.uint64)
    bits[:64] = (np.uint64(carry) >> np.arange(63, -1, -1, dtype=np.uint64)) & np.uint64(1)
    bits[64:] = takens
    windows = bits
    width = 1
    while width < 64:
        windows = windows[width:] | (windows[:-width] << np.uint64(width))
        width *= 2
    return windows


_PREDICTORS = {
    "always_taken": AlwaysTakenPredictor,
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "tage": TageLitePredictor,
    "perfect": PerfectDirectionPredictor,
}


def make_direction_predictor(name: str, **kwargs) -> DirectionPredictor:
    """Build a direction predictor by name.

    Args:
        name: one of ``always_taken``, ``bimodal``, ``gshare``, ``tage``,
            ``perfect``.
        **kwargs: forwarded to the predictor constructor.
    """
    try:
        factory = _PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown direction predictor {name!r}; options: {sorted(_PREDICTORS)}"
        ) from None
    return factory(**kwargs)
