"""Common interface and statistics for all branch-target predictors.

A BTB model exposes two operations mirroring the hardware (Section 4.4):

* ``lookup(pc)`` -- performed at fetch, returns the predicted target (or
  a miss) and the access latency in cycles.
* ``update(event)`` -- performed when the branch resolves (decode for
  direct, execute for indirect), trains / allocates entries.

A *BTB miss* follows the paper's definition (Section 5.1): the branch PC
has no valid entry, **or** it has one with the wrong target.  Misses are
counted against taken branches only, because not-taken fall-through
addresses are computed trivially.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.branch.types import BranchEvent

#: "No target" in the lookup-target list an ``observe_fast`` BTB pass
#: fills (targets are 57-bit non-negative addresses, so -1 never
#: collides with a real one).
NO_TARGET = -1


def tag_directory(tags: list[int], ways: int) -> list[dict[int, int]]:
    """One ``{tag: way}`` dict per set, over the valid slots of a flat tag
    list (slot ``set * ways + way``, a negative sentinel tag when invalid).

    Each set-associative table builds its directory with its tag list
    (every slot invalid, so every dict empty) and keeps it for its
    lifetime: every write of a tag into a slot records the way, so the
    tag match is one dict probe that cannot raise (:func:`find_way`).
    Nothing else keeps the directory current: a slot since evicted,
    abandoned or invalidated holds another tag, so every probe checks
    ``tags[slot] == tag`` and a stale entry reads as a miss.  A tag sits
    in at most one way of its set (only a miss allocates), so the entry
    is the way ``list.index`` would find.  Per-set dicts of the tags' own
    int objects and small way numbers take about half the memory of one
    ``(set, tag)``-keyed dict of slots.
    """
    return [
        {tag: way for way, tag in enumerate(tags[base:base + ways]) if tag >= 0}
        for base in range(0, len(tags), ways)
    ]


def find_way(row: dict[int, int], tags: list[int], base: int, tag: int) -> int | None:
    """The way holding ``tag`` in the set whose slots start at ``base``.

    ``row`` is the set's :func:`tag_directory` entry.  A miss costs a
    dict probe where ``tags.index(tag, base, base + ways)`` raised a
    ``ValueError`` (about 1.1 µs against 0.15 µs for a hit), and a hit
    costs no more.  The per-event hot loops (the pass hooks and
    ``lookup_fast``) inline the same two-line probe.
    """
    way = row.get(tag)
    if way is None or tags[base + way] != tag:
        return None
    return way


@dataclass(slots=True)
class BTBLookup:
    """Result of one BTB lookup.

    Attributes:
        hit: whether a valid entry matched the branch PC.
        target: predicted target address (None on miss, unless a
            speculative provider such as PDede's Next Target Offset
            register supplies one).
        latency: access latency in cycles (baseline: 1; PDede charges 2
            when the Region/Page-BTB pointer chase is needed).
        provider: short label naming the structure that produced the
            prediction, for diagnostics ("btb", "btbm-delta", ...).
    """

    hit: bool
    target: int | None = None
    latency: int = 1
    provider: str = "btb"


@dataclass(slots=True)
class BTBStats:
    """Aggregate counters maintained by every predictor.

    ``misses`` uses the paper's definition (no entry *or* wrong target,
    on taken branches).  ``wrong_target`` counts the subset of misses
    where an entry existed but predicted the wrong address.
    """

    lookups: int = 0
    taken_lookups: int = 0
    hits: int = 0
    misses: int = 0
    wrong_target: int = 0
    allocations: int = 0
    evictions: int = 0
    updates: int = 0
    misses_by_kind: dict = field(default_factory=dict)

    def record_outcome(self, event: BranchEvent, lookup: BTBLookup) -> bool:
        """Score ``lookup`` against the resolved ``event``.

        Returns True when the lookup counts as a BTB miss.  Only taken
        branches are scored, mirroring Section 5.1.
        """
        self.lookups += 1
        if not event.taken:
            return False
        self.taken_lookups += 1
        if lookup.target == event.target:
            self.hits += 1
            return False
        self.misses += 1
        if lookup.hit:
            self.wrong_target += 1
        kind_name = event.kind.name
        self.misses_by_kind[kind_name] = self.misses_by_kind.get(kind_name, 0) + 1
        return True

    @property
    def miss_rate(self) -> float:
        """Miss fraction over taken-branch lookups."""
        if self.taken_lookups == 0:
            return 0.0
        return self.misses / self.taken_lookups

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction given the retired-instruction count."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of the counters."""
        return {
            "lookups": self.lookups,
            "taken_lookups": self.taken_lookups,
            "hits": self.hits,
            "misses": self.misses,
            "wrong_target": self.wrong_target,
            "allocations": self.allocations,
            "evictions": self.evictions,
            "updates": self.updates,
            "miss_rate": self.miss_rate,
            "misses_by_kind": dict(self.misses_by_kind),
        }


class BranchTargetPredictor(abc.ABC):
    """Abstract base class for every BTB design in this library."""

    def __init__(self) -> None:
        self.stats = BTBStats()

    @abc.abstractmethod
    def lookup(self, pc: int) -> BTBLookup:
        """Predict the target of the branch at ``pc`` (fetch time)."""

    @abc.abstractmethod
    def update(self, event: BranchEvent) -> None:
        """Train with the resolved branch ``event``."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total SRAM bits of the design (tags + data + metadata)."""

    @property
    def has_pass_hook(self) -> bool:
        """Whether ``observe_fast(columns, start, stop, results)`` is this
        BTB's fresh-run pass: exactly :meth:`lookup` then :meth:`update`
        per active event.

        Each class declares its own; without one the fresh-run engine
        calls ``lookup`` and ``update`` itself.  A class that inherits a
        hook but overrides ``lookup`` or ``update`` must not declare it.
        """
        return False

    @property
    def name(self) -> str:
        return type(self).__name__

    def storage_kib(self) -> float:
        """Storage footprint in KiB."""
        return self.storage_bits() / 8192.0

    def reset_stats(self) -> None:
        self.stats = BTBStats()

    def metrics(self) -> dict:
        """Flat metric snapshot for the observability registry.

        Keys follow the README naming scheme: ``_total`` suffixes mark
        monotonic counts (published as counters), everything else is a
        point-in-time gauge.  ``misses_by_kind`` is excluded -- the
        simulator publishes it separately with a ``kind=`` label.
        Subclasses extend this with per-structure internals (occupancy,
        the delta/pointer hit split, dedup-table state, ...).
        """
        stats = self.stats
        data = {
            "btb_lookups_total": stats.lookups,
            "btb_taken_lookups_total": stats.taken_lookups,
            "btb_hits_total": stats.hits,
            "btb_misses_total": stats.misses,
            "btb_wrong_target_total": stats.wrong_target,
            "btb_allocations_total": stats.allocations,
            "btb_evictions_total": stats.evictions,
            "btb_updates_total": stats.updates,
            "btb_miss_rate": stats.miss_rate,
            "btb_storage_kib": self.storage_kib(),
        }
        occupancy = getattr(self, "occupancy", None)
        if callable(occupancy):
            data["btb_occupancy"] = occupancy()
        return data

    def observe(self, event: BranchEvent) -> tuple[BTBLookup, bool]:
        """Convenience: lookup, score, and update in trace order.

        Returns the lookup result and whether it was a BTB miss.  The
        frontend simulator uses the lower-level calls directly; this
        helper serves the characterisation tools and tests.
        """
        lookup = self.lookup(event.pc)
        missed = self.stats.record_outcome(event, lookup)
        self.update(event)
        return lookup, missed
