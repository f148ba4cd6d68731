"""Precomputed per-event columns for the simulation engines.

The fresh-run engine (:mod:`repro.frontend.vector`) needs, for every event
of every design in a sweep, quantities that depend only on the trace:
block geometry, the branch-PC avalanche hash, the ``same_page(pc,
target)`` bit, the per-event ICache miss count, the RAS outcome, and
(when the default predictor is used) the conditional-direction outcome.
A :class:`DecodedTrace` computes each of these once per trace and caches
them on the trace object (:meth:`repro.workloads.trace.Trace.decoded`),
so an N-design sweep pays the trace-pure work once instead of N times.

Two kinds of columns:

* **vectorised** -- pure element-wise functions of the event columns,
  computed with numpy on first use and kept as numpy arrays only:
  ``vector_columns()`` holds the signed targets, kinds, taken bits, block
  instruction counts, branch-PC hashes, ``same_page`` bits and the
  indirect / return kind properties, and ``supply_demand_arrays()`` the
  per-event fetch supply and commit demand in ticks;
* **replayed** -- sequential state machines that are nevertheless
  independent of the BTB under test: the ICache miss count per event
  (the *cost* of a miss depends on resteer proximity, but whether a line
  misses depends only on the reference stream), the TAGE direction
  outcome per conditional (direction state never observes the BTB), and
  the RAS outcome per return.  Replays run against the real model
  classes' state and keep the final state object so a simulator can
  adopt it after a full run.  The TAGE replay goes through
  :meth:`TageLitePredictor.replay`, which takes the trace-pure history
  keys from numpy; the ICache replay builds the line reference stream in
  numpy, drops every access to the line the access just before it
  touched (a sure hit that leaves the LRU order as it is), and walks the
  rest in one Python frame over the :class:`ICache`'s own set lists.

Decoding itself builds nothing: the raw columns are the trace's own
read-only arrays, and no per-event Python list is memoised here.  The
BTB pass masks the lists it indexes out of the numpy columns for each
run, over its active events only (:func:`repro.frontend.vector._btb_pass`),
and drops them with the run; the RAS replay converts only the calls and
returns it walks.

Everything here is derived, deterministic data; the equivalence suite
(``tests/test_engine_equivalence.py``) checks the vector engine against
the frozen seed engine bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.branch.address import vmix64
from repro.branch.direction import TageLitePredictor
from repro.branch.types import IS_CALL, IS_DIRECT, IS_INDIRECT, BranchKind
from repro.btb.ras import ReturnAddressStack
from repro.frontend.icache import ICache

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

_INSTR_BYTES = 4
_KIND_COND = int(BranchKind.COND_DIRECT)
_KIND_RETURN = int(BranchKind.RETURN)

_IS_CALL_BY_KIND = np.array(IS_CALL, dtype=np.bool_)
_IS_INDIRECT_BY_KIND = np.array(IS_INDIRECT, dtype=np.bool_)
_IS_DIRECT_BY_KIND = np.array(IS_DIRECT, dtype=np.bool_)

_PAGE_SHIFT = np.uint64(12)


class DecodedTrace:
    """One-time derived columns of a :class:`Trace` (see module docs).

    Every column is built lazily and memoised: the vectorised ones on
    first use, the replayed ones per configuration key, since different
    sweeps may use different core geometries or predictors.
    """

    __slots__ = (
        "n_events",
        "_icache",
        "_direction",
        "_raw",
        "_vector",
        "_supply_demand",
        "_ras",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self._icache: dict[tuple[int, int, int], tuple[np.ndarray, ICache]] = {}
        self._direction: dict[str, tuple[np.ndarray, object]] = {}
        self._raw: tuple[np.ndarray, ...] = ()
        self._vector: dict[str, np.ndarray] | None = None
        self._supply_demand: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ras: dict[tuple[bool, int], tuple[np.ndarray, ReturnAddressStack]] = {}

    @classmethod
    def from_trace(cls, trace: "Trace") -> "DecodedTrace":
        decoded = cls()
        decoded.n_events = len(trace)
        decoded._raw = (trace.pcs, trace.kinds, trace.takens, trace.targets, trace.gaps)
        return decoded

    # -- vectorised-engine columns ------------------------------------------

    def vector_columns(self) -> dict[str, np.ndarray]:
        """Numpy event columns for the fresh-run vector engine, built once.

        ``targets`` (signed ``int64``; addresses are 57-bit, so the
        conversion is lossless), ``kinds``, ``taken``, block
        ``instructions``, the ``hashes`` of every branch PC, the
        ``same_page`` bit and the ``is_indirect`` / ``is_direct`` /
        ``is_return`` kind properties; every array is the full trace length.
        """
        cached = self._vector
        if cached is None:
            pcs, kinds, takens, targets, gaps = self._raw
            with np.errstate(over="ignore"):
                hashes = vmix64(pcs >> np.uint64(1))  # hash_pc of every event
            cached = {
                "targets": targets.astype(np.int64),
                "kinds": kinds,
                "taken": takens,
                "instructions": gaps.astype(np.int64) + 1,
                "hashes": hashes,
                "same_page": (pcs >> _PAGE_SHIFT) == (targets >> _PAGE_SHIFT),
                "is_indirect": _IS_INDIRECT_BY_KIND[kinds],
                "is_direct": _IS_DIRECT_BY_KIND[kinds],
                "is_return": kinds == np.uint8(_KIND_RETURN),
            }
            self._vector = cached
        return cached

    def supply_demand_arrays(
        self, fetch_tick: int, commit_tick: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-event supply/demand in integer ticks, as int64 arrays.

        ``fetch_tick``/``commit_tick`` are the per-instruction tick
        weights ``cycle_tick // fetch_width`` and
        ``cycle_tick // commit_width`` (exact by construction of
        :attr:`repro.frontend.params.CoreParams.cycle_tick`), so the
        vectorised int64 multiply is exact -- bit-identical to the
        per-event Python multiply and associative under column
        summation.
        """
        key = (fetch_tick, commit_tick)
        cached = self._supply_demand.get(key)
        if cached is None:
            instructions = self.vector_columns()["instructions"]
            cached = (instructions * fetch_tick, instructions * commit_tick)
            self._supply_demand[key] = cached
        return cached

    # -- replayed / per-configuration columns -------------------------------

    def ras_outcomes(
        self, use_ras: bool, depth: int
    ) -> tuple[np.ndarray, ReturnAddressStack]:
        """Per-event RAS-correct bits plus the final stack state.

        The RAS sees only the call/return stream -- never the BTB -- so a
        single replay of the real :class:`ReturnAddressStack` serves
        every design, exactly like the ICache and direction replays.
        With ``use_ras`` False returns flow through the BTB and the stack
        only accumulates pushes (the column stays all-True); either way
        the returned stack is the end-of-trace state for adoption after a
        full vector run.
        """
        key = (bool(use_ras), depth)
        cached = self._ras.get(key)
        if cached is None:
            pcs, kinds, _, targets, _ = self._raw
            touched = _IS_CALL_BY_KIND[kinds]
            if use_ras:
                touched |= kinds == np.uint8(_KIND_RETURN)
            touched = np.flatnonzero(touched)
            ok = [True] * self.n_events
            ras = ReturnAddressStack(depth)
            ras_pop = ras.pop
            ras_push = ras.push
            kind_return = _KIND_RETURN
            for index, pc, kind, target in zip(
                touched.tolist(),
                pcs[touched].tolist(),
                kinds[touched].tolist(),
                targets[touched].tolist(),
            ):
                if use_ras and kind == kind_return:
                    ok[index] = ras_pop() == target
                else:
                    ras_push(pc + _INSTR_BYTES)
            cached = (np.array(ok, dtype=np.bool_), ras)
            self._ras[key] = cached
        return cached

    def icache_misses(
        self, size_kib: int, line_bytes: int, ways: int
    ) -> tuple[np.ndarray, ICache]:
        """Per-event L1-I miss counts (int64) plus the final cache state.

        The reference stream -- one ``touch_range(block_start, pc)`` per
        event -- does not depend on the BTB under test (only the *charge*
        per miss does), so a single replay of the real :class:`ICache`
        serves every design.  The replay is one Python loop over the
        collapsed line stream of :meth:`_line_stream`, over the cache's
        own set lists (each access's set looked up in numpy first) and
        with no method calls: a hit moves the line to the most recent
        slot unless it is there already, a miss evicts the least recent
        line of a full set.  Misses fold back to their events with
        ``np.bincount``; ``accesses`` counts the dropped sure hits too, so
        the cache ends exactly as a per-event ``touch_range`` loop leaves
        it.  The returned cache is the end-of-trace state; a full vector
        run clones it into the simulator so post-run inspection matches a
        live run.
        """
        key = (size_kib, line_bytes, ways)
        cached = self._icache.get(key)
        if cached is None:
            icache = ICache(size_kib, line_bytes, ways)
            owner, lines, accesses = self._line_stream(icache._line_shift)
            table = icache._lines
            residents = [table[index] for index in (lines % icache.sets).tolist()]
            missed: list[int] = []
            record_miss = missed.append
            for position, line, resident in zip(
                range(len(residents)), lines.tolist(), residents
            ):
                if line in resident:
                    if resident[-1] != line:
                        resident.remove(line)
                        resident.append(line)
                else:
                    record_miss(position)
                    if len(resident) >= ways:
                        del resident[0]
                    resident.append(line)
            icache.accesses = accesses
            icache.misses = len(missed)
            misses = np.bincount(
                owner[np.array(missed, dtype=np.int64)], minlength=self.n_events
            )
            cached = (misses, icache)
            self._icache[key] = cached
        return cached

    def _line_stream(self, line_shift: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The ICache reference stream, collapsed: ``(owner, lines, total)``.

        Event ``i`` touches every line from ``(pc - 4*gap) >> line_shift``
        to ``pc >> line_shift``, as :meth:`ICache.touch_range` does.  The
        starts are signed, so a block that begins below address 0 touches
        the negative lines a Python-int replay touches.  Flattened in trace
        order, an access to the same line as the access just before it
        always hits and leaves that line most recent, so it is dropped;
        ``lines`` holds the rest and ``owner`` their event indices.
        ``total`` counts every access, dropped ones included.
        """
        pcs, _, _, _, gaps = self._raw
        ends = pcs.astype(np.int64)
        first = (ends - gaps.astype(np.int64) * _INSTR_BYTES) >> line_shift
        counts = (ends >> line_shift) - first + 1
        total = int(counts.sum())
        # Access k of event i is line first[i] + (k - offset[i]), where
        # offset[i] is the position of event i's first access.
        offsets = np.cumsum(counts) - counts
        lines = np.arange(total, dtype=np.int64) + np.repeat(first - offsets, counts)
        owner = np.repeat(np.arange(self.n_events, dtype=np.int64), counts)
        keep = np.empty(total, dtype=np.bool_)
        keep[:1] = True  # a slice, so an empty trace needs no branch
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        return owner[keep], lines[keep], total

    def direction_outcomes(self, signature: str) -> tuple[np.ndarray, object]:
        """Per-event direction-correct bits (bool) plus the final predictor.

        Only resolvable predictor configurations are replayable:
        ``"tage-default"`` (the predictor ``FrontendSimulator`` builds
        when none is supplied) replays a fresh
        :class:`TageLitePredictor`; the perfect oracle never needs a
        column.  Conditional direction state sees only (pc, outcome)
        pairs, never the BTB, so the replay is design-independent.
        """
        cached = self._direction.get(signature)
        if cached is None:
            if signature != "tage-default":
                raise ValueError(f"unknown direction signature {signature!r}")
            pcs, kinds, takens = self._raw[:3]
            conditional = kinds == np.uint8(_KIND_COND)
            cond_takens = takens[conditional]
            predictor = TageLitePredictor()
            predictions = predictor.replay(pcs[conditional], cond_takens)
            outcomes = np.ones(self.n_events, dtype=np.bool_)
            outcomes[conditional] = predictions == cond_takens
            cached = (outcomes, predictor)
            self._direction[signature] = cached
        return cached
