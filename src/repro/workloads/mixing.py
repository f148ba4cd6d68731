"""Multiprogrammed trace mixing (the PID bit's reason to exist).

Every BTB entry in the paper carries a 1-bit process ID (Figure 2 /
Section 4.4): data-center cores timeshare, and a context switch must not
let one process consume another's predictions.  This module builds that
scenario: it interleaves complete traces in round-robin scheduling
quanta, producing one merged trace whose BTB pressure is the *union* of
the programs' working sets -- the consolidation workload where extra
effective capacity (PDede's whole point) matters most.

Address spaces of distinct suite workloads are disjoint by construction
(each seed draws its own random region ids), so the merged trace needs
no remapping and the PID is implicit in the region bits.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.trace import COLUMN_DTYPES, Trace


def interleave_traces(
    traces: list[Trace],
    quantum_events: int = 2000,
    name: str | None = None,
) -> Trace:
    """Round-robin interleave ``traces`` in quanta of ``quantum_events``.

    Each quantum switches to the next program, resuming where it left
    off; programs that run out are skipped.  The merged trace ends when
    every input is exhausted, so every input event appears exactly once.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if quantum_events <= 0:
        raise ValueError("quantum_events must be positive")
    slices: list[tuple[Trace, int, int]] = []
    cursors = [0] * len(traces)
    live = sum(1 for trace in traces if len(trace))
    current = 0
    while live:
        trace = traces[current]
        cursor = cursors[current]
        if cursor >= len(trace):
            current = (current + 1) % len(traces)
            continue
        end = min(cursor + quantum_events, len(trace))
        slices.append((trace, cursor, end))
        cursors[current] = end
        if end >= len(trace):
            live -= 1
        current = (current + 1) % len(traces)
    return Trace(
        name or ("mix(" + "+".join(trace.name for trace in traces) + ")"),
        "Mixed",
        *(
            np.concatenate(
                [getattr(trace, column)[start:end] for trace, start, end in slices]
                or [np.empty(0, dtype)]
            )
            for column, dtype in COLUMN_DTYPES.items()
        ),
    )


def working_set_overlap(first: Trace, second: Trace) -> float:
    """Fraction of the smaller trace's branch PCs shared with the other.

    Suite traces should report ~0 (disjoint address spaces); use this to
    sanity-check externally imported traces before mixing.
    """
    pcs_first = np.unique(first.pcs)
    pcs_second = np.unique(second.pcs)
    if not len(pcs_first) or not len(pcs_second):
        return 0.0
    shared = len(np.intersect1d(pcs_first, pcs_second, assume_unique=True))
    return shared / min(len(pcs_first), len(pcs_second))
