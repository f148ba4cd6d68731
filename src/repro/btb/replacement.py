"""Per-set replacement policies for BTB-like structures.

The paper's BTBs use SRRIP (Static Re-Reference Interval Prediction,
Jaleel et al. ISCA'10) everywhere: the baseline BTB, the BTBM, and the
Region-/Page-BTB allocations (Section 4.4.2).  LRU, FIFO and random are
provided for the replacement-policy ablation called out in DESIGN.md.

A policy instance manages exactly one set of ``ways`` ways.  Structures
instantiate one policy object per set via :func:`make_replacement_policy`.
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
