"""Precomputed per-event columns for the vector engine.

The columnar engine (:mod:`repro.frontend.vector`) needs, for every event
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
  with numpy; the few that scalar boundary replay indexes per event
  (hashes, page bits, indirect bits) are also kept as plain lists, since
  the BTB hooks want native ints;
* **replayed** -- sequential state machines that are nevertheless
  independent of the BTB under test: the ICache miss count per event
  (the *cost* of a miss depends on resteer proximity, but whether a line
  misses depends only on the reference stream), the TAGE direction
  outcome per conditional (direction state never observes the BTB), and
  the RAS outcome per return.  Replays run on the real model classes
  (the TAGE one through :meth:`TageLitePredictor.replay`, which takes
  the trace-pure history keys from numpy) and keep the final state
  object so a simulator can adopt it after a full vector run.

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

    Vectorised columns are built eagerly in :meth:`from_trace`; replayed
    columns are built lazily per configuration key and memoised, since
    different sweeps may use different core geometries or predictors.
    """

    __slots__ = (
        "n_events",
        "hashes",
        "same_page",
        "is_indirect",
        "_pcs",
        "_block_starts",
        "_kinds",
        "_targets",
        "_icache",
        "_direction",
        "_raw",
        "_vector",
        "_index_tag",
        "_supply_demand",
        "_ras",
    )

    def __init__(self) -> None:
        self.n_events = 0
        self.hashes: list[int] = []
        self.same_page: list[bool] = []
        self.is_indirect: list[bool] = []
        self._pcs: list[int] = []
        self._block_starts: list[int] = []
        self._kinds: list[int] = []
        self._targets: list[int] = []
        self._icache: dict[tuple[int, int, int], tuple[np.ndarray, ICache]] = {}
        self._direction: dict[str, tuple[np.ndarray, object]] = {}
        self._raw: tuple[np.ndarray, ...] | None = None
        self._vector: dict[str, np.ndarray] | None = None
        self._index_tag: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._supply_demand: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ras: dict[tuple[bool, int], tuple[np.ndarray, ReturnAddressStack]] = {}

    @classmethod
    def from_trace(cls, trace: "Trace") -> "DecodedTrace":
        pcs, kinds, takens, targets, gaps = trace.columns()
        decoded = cls()
        decoded.n_events = len(trace)
        with np.errstate(over="ignore"):
            decoded._block_starts = (
                pcs - gaps.astype(np.uint64) * np.uint64(_INSTR_BYTES)
            ).tolist()
            hash_arr = vmix64(pcs >> np.uint64(1))  # hash_pc of every event
            decoded.hashes = hash_arr.tolist()
            same_page_arr = (pcs >> _PAGE_SHIFT) == (targets >> _PAGE_SHIFT)
            decoded.same_page = same_page_arr.tolist()
        decoded.is_indirect = _IS_INDIRECT_BY_KIND[kinds].tolist()
        decoded._pcs = trace.pcs
        decoded._kinds = trace.kinds
        decoded._targets = trace.targets
        decoded._raw = (pcs, kinds, takens, targets, gaps, hash_arr, same_page_arr)
        return decoded

    # -- vectorised-engine columns ------------------------------------------

    def vector_columns(self) -> dict[str, np.ndarray]:
        """Numpy event columns for the chunked vector engine, built once.

        Signed ``int64`` variants of the address columns (addresses are
        57-bit, so the conversion is lossless) plus the boolean kind
        properties; every array is the full trace length and sliced per
        chunk by the engine.
        """
        cached = self._vector
        if cached is None:
            if self._raw is None:
                raise RuntimeError("DecodedTrace built without raw columns")
            pcs, kinds, takens, targets, gaps, hash_arr, same_page_arr = self._raw
            cached = {
                "pcs": pcs.astype(np.int64),
                "targets": targets.astype(np.int64),
                "kinds": kinds,
                "taken": np.ascontiguousarray(takens, dtype=np.bool_),
                "instructions": gaps.astype(np.int64) + 1,
                "hashes": hash_arr,
                "same_page": np.ascontiguousarray(same_page_arr, dtype=np.bool_),
                "is_call": _IS_CALL_BY_KIND[kinds],
                "is_indirect": _IS_INDIRECT_BY_KIND[kinds],
                "is_return": kinds == np.uint8(_KIND_RETURN),
            }
            self._vector = cached
        return cached

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
            cols = self.vector_columns()
            if use_ras:
                touched = np.flatnonzero(cols["is_call"] | cols["is_return"])
            else:
                touched = np.flatnonzero(cols["is_call"])
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
            icache = ICache(size_kib, line_bytes, ways)
            touch_range = icache.touch_range
            misses = [
                touch_range(start, pc)
                for start, pc in zip(self._block_starts, self._pcs)
            ]
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
            if self._raw is None:
                raise RuntimeError("DecodedTrace built without raw columns")
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
