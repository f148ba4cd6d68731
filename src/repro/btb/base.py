"""Common interface and statistics for all branch-target predictors.

A BTB model exposes two operations mirroring the hardware (Section 4.4):

* ``lookup(pc)`` -- performed at fetch, returns the predicted target (or
  a miss) and the access latency in cycles.
* ``update(event)`` -- performed when the branch resolves (decode for
  direct, execute for indirect), trains / allocates entries.

Each class implements them once, on the branch pc's avalanche hash
(:func:`~repro.branch.address.hash_pc`), which the decoded trace already
holds for every event: ``lookup_fast`` and ``update_fast`` (see
:class:`BranchTargetPredictor`).

A *BTB miss* follows the paper's definition (Section 5.1): the branch PC
has no valid entry, **or** it has one with the wrong target.  Misses are
counted against taken branches only, because not-taken fall-through
addresses are computed trivially.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass, field

from repro.branch.address import hash_pc, same_page
from repro.branch.types import BranchEvent

#: "No target" in the lookup-target buffer an ``observe_fast`` BTB pass
#: fills (targets are 57-bit non-negative addresses, so -1 never
#: collides with a real one).
NO_TARGET = -1


def lookup_buffers() -> tuple[array, array, array]:
    """Empty ``(targets, hits, latencies)`` buffers for a BTB pass:
    ``array('q')``, ``array('b')`` and ``array('q')``.

    Both column sources (``observe_fast`` and the live structure pass)
    append each lookup's fields to these, and the timing model reads
    them with ``np.frombuffer``, so no Python list is built and no
    list-to-array copy is made.  Targets fit in a signed 64-bit slot.
    """
    return array("q"), array("b"), array("q")


def tag_directory(tags: list[int], ways: int) -> list[dict[int, int]]:
    """One ``{tag: way}`` dict per set, over the valid slots of a flat tag
    list (slot ``set * ways + way``, a negative sentinel tag when invalid).

    Each set-associative table builds its directory with its tag list
    (every slot invalid, so every dict empty) and keeps it for its
    lifetime: every write of a tag into a slot records the way, and an
    allocation that overwrites a valid slot drops the victim's tag
    (:func:`drop_tag`), so the tag match is one dict probe that cannot
    raise (:func:`find_way`).  An invalidated or abandoned slot's entry
    stays until its tag is written again, so every probe checks
    ``tags[slot] == tag`` and a stale entry reads as a miss; a table
    that never invalidates keeps at most one entry per way.  A tag sits
    in at most one way of its set (only a miss allocates), so the entry
    is the way ``list.index`` would find.  Per-set dicts of the tags' own
    int objects and small way numbers take about half the memory of one
    ``(set, tag)``-keyed dict of slots.
    """
    if max(tags, default=-1) < 0:
        # A new table: every slot invalid, every row empty.
        return [{} for _ in range(len(tags) // ways)]
    return [
        {tag: way for way, tag in enumerate(tags[base:base + ways]) if tag >= 0}
        for base in range(0, len(tags), ways)
    ]


def drop_tag(row: dict[int, int], tag: int, way: int) -> None:
    """Forget ``tag``, the old tag of ``way``'s slot being overwritten, if
    the set's directory ``row`` still maps it to that way."""
    if row.get(tag) == way:
        del row[tag]


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
    """Abstract base class for every BTB design in this library.

    The contract is one pair of methods on a precomputed ``hashed =
    hash_pc(pc)``, from which a class derives every index and tag of the
    branch (a class never hashes the pc it is given again):

    * ``lookup_fast(pc, hashed)`` returns ``(target, hit, latency,
      provider)``, with ``None`` for no target;
    * ``update_fast(pc, target, taken, kind, hashed, is_same_page)``
      trains with the resolved branch: ``kind`` is ``int(BranchKind)``
      and ``is_same_page`` is ``same_page(pc, target)``.  A class that
      steps the sanitizer steps here, once per update.

    :meth:`lookup` and :meth:`update` are adapters that hash the pc, and
    :meth:`observe_fast` is the fresh-run engine's BTB pass over the
    decoded columns; all three run the pair, so every path runs one
    algorithm.  A class may inline its own pass (Baseline, PDede, the
    shadow wrapper); a subclass that overrides either half of the pair
    then rebinds this loop (``GhrpBTB``).
    """

    def __init__(self) -> None:
        self.stats = BTBStats()

    @abc.abstractmethod
    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        """Predict the target of the branch at ``pc`` (fetch time)."""

    @abc.abstractmethod
    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        """Train with the resolved branch at ``pc``."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total SRAM bits of the design (tags + data + metadata)."""

    def lookup(self, pc: int) -> BTBLookup:
        """:meth:`lookup_fast` on ``hash_pc(pc)``, as a :class:`BTBLookup`."""
        target, hit, latency, provider = self.lookup_fast(pc, hash_pc(pc))
        return BTBLookup(hit=hit, target=target, latency=latency, provider=provider)

    def update(self, event: BranchEvent) -> None:
        """:meth:`update_fast` on the fields of the resolved ``event``."""
        pc, target = event.pc, event.target
        self.update_fast(
            pc, target, event.taken, int(event.kind), hash_pc(pc), same_page(pc, target)
        )

    def observe_fast(self, columns, start: int, stop: int, results) -> None:
        """The fresh-run engine's BTB pass over active events ``start:stop``.

        ``columns`` are the active events' ``(pcs, targets, takens,
        is_indirect, hashes, same_page, is_direct, kinds)`` columns:
        lists, except ``is_direct`` and ``kinds``, numpy arrays of which
        a pass that reads one takes a list of only its slice.  Each
        event's lookup ``(target, hit, latency)`` is appended to the three
        ``results`` buffers (:func:`lookup_buffers`), with
        :data:`NO_TARGET` for no target.  This loop runs
        :meth:`lookup_fast` then :meth:`update_fast` per event, as the
        live pass runs the adapters.
        """
        pcs, targets, takens, _, hashes, same_page_col, _, kinds = columns
        lookup, update = self.lookup_fast, self.update_fast
        out_target, out_hit, out_latency = (column.append for column in results)
        for i, kind in zip(range(start, stop), kinds[start:stop].tolist()):
            pc, hashed = pcs[i], hashes[i]
            target, hit, latency, _ = lookup(pc, hashed)
            update(pc, targets[i], takens[i], kind, hashed, same_page_col[i])
            out_target(NO_TARGET if target is None else target)
            out_hit(hit)
            out_latency(latency)

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
