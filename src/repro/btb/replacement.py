"""Replacement policies for BTB-like structures.

The paper's BTBs use SRRIP (Static Re-Reference Interval Prediction,
Jaleel et al. ISCA'10) everywhere: the baseline BTB, the BTBM, and the
Region-/Page-BTB allocations (Section 4.4.2).  LRU, FIFO and random are
provided for the replacement-policy ablation called out in DESIGN.md.

A live structure keeps one *table* object for all its sets
(:func:`make_replacement_table`), over flat per-slot state: slot
``set * ways + way``, the numbering the flat tag lists already use.
:meth:`ReplacementTable.on_hit` and :meth:`~ReplacementTable.on_insert`
take the slot, and :meth:`~ReplacementTable.victim` takes the set's
valid flags and its first slot and returns a way.  Building a table
allocates a few lists, not one object per set, and a hot loop touches a
slot through one bound method.

The per-set classes (:class:`ReplacementPolicy` and its subclasses, one
instance per set of ``ways`` ways, built by
:func:`make_replacement_policy`) are the seed's; only the frozen referee
(:mod:`repro.frontend.seedref`) builds them, so it checks the tables
independently.  ``tests/test_replacement.py`` drives both with the same
calls and asserts the same victims and state.
"""

from __future__ import annotations

import abc
import random


class ReplacementPolicy(abc.ABC):
    """Replacement state for a single set."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.ways = ways

    @abc.abstractmethod
    def on_hit(self, way: int) -> None:
        """Record a reference to ``way``."""

    @abc.abstractmethod
    def on_insert(self, way: int) -> None:
        """Record a fresh allocation into ``way``."""

    @abc.abstractmethod
    def victim(self, valid: list[bool]) -> int:
        """Pick the way to evict; invalid ways are always preferred."""

    def _first_invalid(self, valid: list[bool]) -> int | None:
        return valid.index(False) if False in valid else None

    def metadata_bits_per_entry(self) -> int:
        """Replacement metadata cost, in bits per entry."""
        return 0


class LruPolicy(ReplacementPolicy):
    """True LRU via a recency list (most recent last)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order = list(range(ways))

    def on_hit(self, way: int) -> None:
        self._order.remove(way)
        self._order.append(way)

    def on_insert(self, way: int) -> None:
        self.on_hit(way)

    def victim(self, valid: list[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._order[0]

    def metadata_bits_per_entry(self) -> int:
        # log2(ways) bits per entry for a rank encoding.
        return max(1, (self.ways - 1).bit_length())


class FifoPolicy(ReplacementPolicy):
    """Round-robin replacement."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._next = 0

    def on_hit(self, way: int) -> None:
        pass

    def on_insert(self, way: int) -> None:
        self._next = (way + 1) % self.ways

    def victim(self, valid: list[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._next

    def metadata_bits_per_entry(self) -> int:
        # A single pointer per set; amortise over the ways.
        return max(1, (self.ways - 1).bit_length()) // self.ways or 1


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection (seeded, reproducible)."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)

    def on_hit(self, way: int) -> None:
        pass

    def on_insert(self, way: int) -> None:
        pass

    def victim(self, valid: list[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._rng.randrange(self.ways)


class SrripPolicy(ReplacementPolicy):
    """Static RRIP with ``m``-bit re-reference prediction values.

    New blocks are inserted with a *long* re-reference interval
    (``2**m - 2``); hits promote to *near-immediate* (0); the victim is
    any way at the *distant* value (``2**m - 1``), ageing all ways until
    one reaches it.  This matches the paper's per-entry 2-3 SRRIP bits.
    """

    def __init__(self, ways: int, m: int = 2) -> None:
        super().__init__(ways)
        if m <= 0:
            raise ValueError("m must be positive")
        self._m = m
        self._max = (1 << m) - 1
        self.rrpv = [self._max] * ways

    def on_hit(self, way: int) -> None:
        self.rrpv[way] = 0

    def on_insert(self, way: int) -> None:
        self.rrpv[way] = self._max - 1

    def victim(self, valid: list[bool]) -> int:
        # The scans run at C speed and nothing raises on a full set.
        # Ageing every way one step until one reaches ``distant`` adds
        # ``distant - max(rrpv)`` to each, so it is done in one step; in
        # place, because external mirrors may hold a reference to the list.
        if False in valid:
            return valid.index(False)
        rrpv = self.rrpv
        distant = self._max
        step = distant - max(rrpv)
        if step:
            rrpv[:] = [value + step for value in rrpv]
        return rrpv.index(distant)

    def metadata_bits_per_entry(self) -> int:
        return self._m


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "srrip": SrripPolicy,
}


def make_replacement_policy(name: str, ways: int, **kwargs) -> ReplacementPolicy:
    """Build one per-set replacement-policy instance by name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; options: {sorted(_POLICIES)}"
        ) from None
    return factory(ways, **kwargs)


# -- one object per table ------------------------------------------------------


class ReplacementTable(abc.ABC):
    """Replacement state for every set of one table, over flat slots
    ``set * ways + way``; each set evolves exactly as one per-set policy
    of the same name would."""

    def __init__(self, sets: int, ways: int) -> None:
        if sets <= 0:
            raise ValueError("sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.sets = sets
        self.ways = ways

    @abc.abstractmethod
    def on_hit(self, slot: int) -> None:
        """Record a reference to ``slot``."""

    @abc.abstractmethod
    def on_insert(self, slot: int) -> None:
        """Record a fresh allocation into ``slot``."""

    @abc.abstractmethod
    def victim(self, valid: list[bool], base: int) -> int:
        """The way to evict from the set whose first slot is ``base`` and
        whose ways' valid flags are ``valid``; invalid ways are always
        preferred."""

    def metadata_bits_per_entry(self) -> int:
        """Replacement metadata cost, in bits per entry."""
        return 0


class LruTable(ReplacementTable):
    """True LRU: ``_order[base:base + ways]`` is the set's recency list of
    way numbers, most recent last."""

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._order = list(range(ways)) * sets

    def on_hit(self, slot: int) -> None:
        ways = self.ways
        way = slot % ways
        base = slot - way
        stop = base + ways
        order = self._order
        if order[stop - 1] != way:
            window = order[base:stop]
            window.remove(way)
            window.append(way)
            order[base:stop] = window

    on_insert = on_hit

    def victim(self, valid: list[bool], base: int) -> int:
        if False in valid:
            return valid.index(False)
        return self._order[base]

    def metadata_bits_per_entry(self) -> int:
        return max(1, (self.ways - 1).bit_length())


class FifoTable(ReplacementTable):
    """Round-robin replacement: one cursor per set."""

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._next = [0] * sets

    def on_hit(self, slot: int) -> None:
        pass

    def on_insert(self, slot: int) -> None:
        set_index, way = divmod(slot, self.ways)
        self._next[set_index] = (way + 1) % self.ways

    def victim(self, valid: list[bool], base: int) -> int:
        if False in valid:
            return valid.index(False)
        return self._next[base // self.ways]

    def metadata_bits_per_entry(self) -> int:
        return max(1, (self.ways - 1).bit_length()) // self.ways or 1


class RandomTable(ReplacementTable):
    """Uniform-random victims: one ``random.Random(seed)`` stream per set,
    created at the set's first draw (the same draws as creating it with
    the set, without paying for a stream per set up front)."""

    def __init__(self, sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(sets, ways)
        self.seed = seed
        self._rngs: dict[int, random.Random] = {}

    def on_hit(self, slot: int) -> None:
        pass

    def on_insert(self, slot: int) -> None:
        pass

    def victim(self, valid: list[bool], base: int) -> int:
        if False in valid:
            return valid.index(False)
        set_index = base // self.ways
        rng = self._rngs.get(set_index)
        if rng is None:
            rng = self._rngs[set_index] = random.Random(self.seed)
        return rng.randrange(self.ways)


class SrripTable(ReplacementTable):
    """Static RRIP (see :class:`SrripPolicy`) over one flat RRPV list."""

    def __init__(self, sets: int, ways: int, m: int = 2) -> None:
        super().__init__(sets, ways)
        if m <= 0:
            raise ValueError("m must be positive")
        self._m = m
        self._max = (1 << m) - 1
        self.rrpv = [self._max] * (sets * ways)

    def on_hit(self, slot: int) -> None:
        self.rrpv[slot] = 0

    def on_insert(self, slot: int) -> None:
        self.rrpv[slot] = self._max - 1

    def victim(self, valid: list[bool], base: int) -> int:
        # Ageing the set until a way reaches ``distant`` adds the same
        # step to every way, so the victim is the first way that held the
        # set's largest value.
        if False in valid:
            return valid.index(False)
        stop = base + self.ways
        rrpv = self.rrpv
        window = rrpv[base:stop]
        oldest = max(window)
        step = self._max - oldest
        if step:
            rrpv[base:stop] = [value + step for value in window]
        return window.index(oldest)

    def metadata_bits_per_entry(self) -> int:
        return self._m


_TABLES = {
    "lru": LruTable,
    "fifo": FifoTable,
    "random": RandomTable,
    "srrip": SrripTable,
}


def make_replacement_table(
    name: str, sets: int, ways: int, srrip_bits: int = 2
) -> ReplacementTable:
    """Build one table's replacement state by name; ``srrip_bits`` is the
    RRPV width when the policy is SRRIP."""
    try:
        factory = _TABLES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; options: {sorted(_TABLES)}"
        ) from None
    if factory is SrripTable:
        return SrripTable(sets, ways, m=srrip_bits)
    return factory(sets, ways)
