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

* **vectorised** -- pure element-wise functions of the event columns
  (block instructions, hashes, page bits, kind property bytes), computed
  with numpy on first use; the few that the scalar BTB pass indexes
  per event (hashes, page bits, indirect bits) are also offered as plain
  lists, built on first use too, since the BTB hooks want native ints;
* **replayed** -- sequential state machines that are nevertheless
  independent of the BTB under test: the ICache miss count per event
  (the *cost* of a miss depends on resteer proximity, but whether a line
  misses depends only on the reference stream), the TAGE direction
  outcome per conditional (direction state never observes the BTB), and
  the RAS outcome per return.  Replays run on the real model classes
  (the TAGE one through :meth:`TageLitePredictor.replay`, which takes
  the trace-pure history keys from numpy) and keep the final state
  object so a simulator can adopt it after a full run.

Decoding itself builds nothing: every per-event Python list is built by
the first consumer that needs it (a BTB pass with a combined
``observe_fast`` hook wants the hash, page and indirect lists; one that
calls ``lookup`` + ``update`` wants none), and the ICache replay's block
starts live only for the replay.

Everything here is derived, deterministic data; the equivalence suite
(``tests/test_engine_equivalence.py``) checks the vector engine against
the frozen seed engine bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.branch.address import vmix64
from repro.branch.direction import TageLitePredictor
from repro.branch.types import BranchKind
from repro.btb.ras import ReturnAddressStack
from repro.frontend.icache import ICache

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

_INSTR_BYTES = 4
_KIND_COND = int(BranchKind.COND_DIRECT)
_KIND_RETURN = int(BranchKind.RETURN)

_ALL_KINDS = [BranchKind(value) for value in range(len(BranchKind))]
_IS_CALL_BY_KIND = np.array([kind.is_call for kind in _ALL_KINDS], dtype=np.bool_)
_IS_INDIRECT_BY_KIND = np.array([kind.is_indirect for kind in _ALL_KINDS], dtype=np.bool_)

_PAGE_SHIFT = np.uint64(12)


class DecodedTrace:
    """One-time derived columns of a :class:`Trace` (see module docs).

    Every column is built lazily and memoised: the vectorised ones on
    first use, the replayed ones per configuration key, since different
    sweeps may use different core geometries or predictors.
    """

    __slots__ = (
        "n_events",
        "_pcs",
        "_kinds",
        "_targets",
        "_icache",
        "_direction",
        "_raw",
        "_vector",
        "_lists",
        "_index_tag",
        "_supply_demand",
        "_ras",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self._pcs: list[int] = []
        self._kinds: list[int] = []
        self._targets: list[int] = []
        self._icache: dict[tuple[int, int, int], tuple[np.ndarray, ICache]] = {}
        self._direction: dict[str, tuple[np.ndarray, object]] = {}
        self._raw: tuple[np.ndarray, ...] = ()
        self._vector: dict[str, np.ndarray] | None = None
        self._lists: dict[str, list] = {}
        self._index_tag: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._supply_demand: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ras: dict[tuple[bool, int], tuple[np.ndarray, ReturnAddressStack]] = {}

    @classmethod
    def from_trace(cls, trace: "Trace") -> "DecodedTrace":
        decoded = cls()
        decoded.n_events = len(trace)
        decoded._pcs = trace.pcs
        decoded._kinds = trace.kinds
        decoded._targets = trace.targets
        decoded._raw = trace.columns()
        return decoded

    # -- vectorised-engine columns ------------------------------------------

    def vector_columns(self) -> dict[str, np.ndarray]:
        """Numpy event columns for the fresh-run vector engine, built once.

        Signed ``int64`` variants of the address columns (addresses are
        57-bit, so the conversion is lossless) plus the boolean kind
        properties; every array is the full trace length.
        """
        cached = self._vector
        if cached is None:
            pcs, kinds, takens, targets, gaps = self._raw
            with np.errstate(over="ignore"):
                hashes = vmix64(pcs >> np.uint64(1))  # hash_pc of every event
            cached = {
                "pcs": pcs.astype(np.int64),
                "targets": targets.astype(np.int64),
                "kinds": kinds,
                "taken": np.ascontiguousarray(takens, dtype=np.bool_),
                "instructions": gaps.astype(np.int64) + 1,
                "hashes": hashes,
                "same_page": (pcs >> _PAGE_SHIFT) == (targets >> _PAGE_SHIFT),
                "is_call": _IS_CALL_BY_KIND[kinds],
                "is_indirect": _IS_INDIRECT_BY_KIND[kinds],
                "is_return": kinds == np.uint8(_KIND_RETURN),
            }
            self._vector = cached
        return cached

    def _as_list(self, name: str) -> list:
        cached = self._lists.get(name)
        if cached is None:
            cached = self._lists[name] = self.vector_columns()[name].tolist()
        return cached

    @property
    def hashes(self) -> list[int]:
        """``hash_pc`` of every event, as native ints (BTB pass)."""
        return self._as_list("hashes")

    @property
    def same_page(self) -> list[bool]:
        """``same_page(pc, target)`` of every event (BTB pass)."""
        return self._as_list("same_page")

    @property
    def is_indirect(self) -> list[bool]:
        """Whether each event's kind is indirect (BTB pass)."""
        return self._as_list("is_indirect")

    def btb_index_tag(self, sets: int, tag_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-event BTB (set index, partial tag) columns for a geometry.

        Exactly the scalar ``hash & mask`` / ``(hash >> 40) & tag_mask``
        mapping of the flat-storage BTBs, vectorised over the cached
        ``hash_pc`` column and memoised per ``(sets, tag_bits)`` so every
        design sharing a geometry reuses the arrays.
        """
        key = (sets, tag_bits)
        cached = self._index_tag.get(key)
        if cached is None:
            hashes = self.vector_columns()["hashes"]
            if sets & (sets - 1) == 0:
                index = (hashes & np.uint64(sets - 1)).astype(np.int64)
            else:
                index = (hashes % np.uint64(sets)).astype(np.int64)
            tag = (
                (hashes >> np.uint64(40)) & np.uint64((1 << tag_bits) - 1)
            ).astype(np.int64)
            cached = (index, tag)
            self._index_tag[key] = cached
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
            kinds = self._raw[1]
            touched = _IS_CALL_BY_KIND[kinds]
            if use_ras:
                touched |= kinds == np.uint8(_KIND_RETURN)
            touched = np.flatnonzero(touched)
            ok = [True] * self.n_events
            ras = ReturnAddressStack(depth)
            pcs = self._pcs
            targets = self._targets
            kinds = self._kinds
            ras_pop = ras.pop
            ras_push = ras.push
            kind_return = _KIND_RETURN
            for index in touched.tolist():
                if use_ras and kinds[index] == kind_return:
                    ok[index] = ras_pop() == targets[index]
                else:
                    ras_push(pcs[index] + _INSTR_BYTES)
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
        serves every design.  The returned cache is the end-of-trace
        state; a full vector run clones it into the simulator so post-run
        inspection matches a live run.
        """
        key = (size_kib, line_bytes, ways)
        cached = self._icache.get(key)
        if cached is None:
            pcs, _, _, _, gaps = self._raw
            with np.errstate(over="ignore"):
                starts = (pcs - gaps.astype(np.uint64) * np.uint64(_INSTR_BYTES)).tolist()
            icache = ICache(size_kib, line_bytes, ways)
            touch_range = icache.touch_range
            misses = [touch_range(start, pc) for start, pc in zip(starts, self._pcs)]
            del starts
            cached = (np.array(misses, dtype=np.int64), icache)
            self._icache[key] = cached
        return cached

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
