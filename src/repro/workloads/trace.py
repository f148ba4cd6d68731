"""Trace container: the dynamic branch stream a simulation consumes.

A trace is a sequence of :class:`~repro.branch.types.BranchEvent` items
plus the instruction counts between them, held as five read-only numpy
columns of fixed dtypes (:data:`COLUMN_DTYPES`: ``uint64`` pcs and
targets, ``uint8`` kinds, ``bool`` takens, ``uint32`` gaps -- 22 bytes
per event).  Producers collect their columns and construct the trace
once; numpy consumers (:mod:`repro.workloads.decoded`, the BTB pass)
read the arrays themselves.  ``events()`` yields ``(pc, kind, taken,
target, gap)`` tuples of native Python ints and bools, converted a chunk
at a time, and ``branch_events()`` yields full ``BranchEvent`` objects
when the richer API is wanted.

Traces can be persisted to ``.npz`` so characterisation and simulation
runs share identical inputs.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.branch.types import BranchEvent, BranchKind

if TYPE_CHECKING:
    from repro.workloads.decoded import DecodedTrace

#: The event columns in ``events()`` tuple order, with their dtypes.
COLUMN_DTYPES = {
    "pcs": np.uint64,
    "kinds": np.uint8,
    "takens": np.bool_,
    "targets": np.uint64,
    "gaps": np.uint32,
}

#: Events per ``tolist()`` batch in :meth:`Trace.events`.
_EVENT_CHUNK = 1 << 14


def _column(values: np.ndarray | Sequence, dtype: type) -> np.ndarray:
    """``values`` as a read-only contiguous ``dtype`` array.  A view, so
    an array the caller passed keeps its own flags."""
    column = np.ascontiguousarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


class Trace:
    """Column-major dynamic branch trace.

    Attributes:
        name: workload name the trace was generated from.
        category: workload category label (Server / Browser / BP / Personal).
        pcs / kinds / takens / targets / gaps: parallel event columns,
            read-only arrays of :data:`COLUMN_DTYPES`, built from arrays or
            sequences of equal length.
    """

    def __init__(
        self,
        name: str = "trace",
        category: str = "uncategorised",
        pcs: np.ndarray | Sequence[int] = (),
        kinds: np.ndarray | Sequence[int] = (),
        takens: np.ndarray | Sequence[bool] = (),
        targets: np.ndarray | Sequence[int] = (),
        gaps: np.ndarray | Sequence[int] = (),
    ) -> None:
        self.name = name
        self.category = category
        self.pcs = _column(pcs, np.uint64)
        self.kinds = _column(kinds, np.uint8)
        self.takens = _column(takens, np.bool_)
        self.targets = _column(targets, np.uint64)
        self.gaps = _column(gaps, np.uint32)
        if len({len(column) for column in self._columns()}) != 1:
            raise ValueError("ragged trace columns")
        self._decoded: DecodedTrace | None = None

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.pcs, self.kinds, self.takens, self.targets, self.gaps

    def truncate(self, length: int) -> None:
        """Trim the trace to at most ``length`` events."""
        if length < 0:
            raise ValueError("length must be non-negative")
        self.pcs, self.kinds, self.takens, self.targets, self.gaps = (
            column[:length] for column in self._columns()
        )
        self._decoded = None

    @property
    def is_decoded(self) -> bool:
        """Whether :meth:`decoded` would return a cached decode.

        The serving layer's micro-batcher uses this to account decodes
        (one per batch of requests sharing a trace) without forcing one.
        """
        return self._decoded is not None

    def decoded(self) -> "DecodedTrace":
        """The one-time :class:`DecodedTrace` for this trace, cached.

        Derived per-event columns (block geometry, target page bits,
        address hashes) plus lazily-built replay columns; see
        :mod:`repro.workloads.decoded`.
        """
        from repro.workloads.decoded import DecodedTrace

        if self._decoded is None:
            self._decoded = DecodedTrace.from_trace(self)
        return self._decoded

    # -- iteration ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pcs)

    def events(self) -> Iterator[tuple[int, int, bool, int, int]]:
        """Yield raw ``(pc, kind, taken, target, gap)`` tuples of native
        Python ints and bools (fast path; ``pc - 4*gap`` cannot wrap)."""
        columns = self._columns()
        return chain.from_iterable(
            zip(*(column[start:start + _EVENT_CHUNK].tolist() for column in columns))
            for start in range(0, len(self), _EVENT_CHUNK)
        )

    def branch_events(self) -> Iterator[BranchEvent]:
        """Yield full :class:`BranchEvent` objects (convenient path)."""
        for pc, kind, taken, target, gap in self.events():
            yield BranchEvent(pc, BranchKind(kind), taken, target, gap)

    # -- aggregate statistics -----------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Total retired instructions: branches plus the gaps between them."""
        return len(self) + int(self.gaps.sum(dtype=np.uint64))

    @property
    def taken_count(self) -> int:
        return int(np.count_nonzero(self.takens))

    def dynamic_taken_fraction(self) -> float:
        """Fraction of dynamic branch instances that are taken (Fig 3)."""
        if not len(self):
            return 0.0
        return self.taken_count / len(self)

    def static_taken_fraction(self) -> float:
        """Fraction of static branch PCs that are ever taken (Fig 3)."""
        seen = self.static_branch_count()
        if not seen:
            return 0.0
        return len(np.unique(self.pcs[self.takens])) / seen

    def static_branch_count(self) -> int:
        return len(np.unique(self.pcs))

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise to a compressed ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            name=np.array(self.name),
            category=np.array(self.category),
            **dict(zip(COLUMN_DTYPES, self._columns())),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`save`.

        The file may be foreign, so its columns are range-checked before
        the cast to :data:`COLUMN_DTYPES` (which would wrap a negative
        gap or target silently); a bad one raises a coded
        :class:`~repro.workloads.ingest.IngestError`.
        """
        from repro.workloads.ingest import check_columns  # late: ingest imports trace

        with np.load(Path(path)) as data:
            columns = {column: data[column] for column in COLUMN_DTYPES if column in data}
            check_columns(columns)
            return cls(name=str(data["name"]), category=str(data["category"]), **columns)
