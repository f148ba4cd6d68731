"""The benchmark's yardstick for machine speed.

The virtual machines this benchmark runs on share physical cores with
other tenants, and a core's speed drifts by tens of percent over seconds
to minutes.  So the benchmark runs a fixed CPU task, ``reference_work``,
on the same CPU right before and right after each measured job, and
reports times at one reference speed:

    time at reference speed = measured time * REFERENCE_S / reference time

where the reference time is the mean of the two samples around the job.
Sampling on another CPU, or only between passes, does not track the
drift; sampling next to each job on the same CPU cancels most of it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds ``reference_work`` takes on an unloaded 2-vCPU Xeon VM (the
#: machine the benchmark's bounds were set on).
REFERENCE_S = 0.012


def reference_work() -> None:
    """A fixed CPU task: dict and integer work, then a numpy sort."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        key = (i * 2654435761) & 0xFFFF
        acc = (acc + (table.get(key, i) ^ (acc >> 3))) & 0xFFFFFFF
        table[key] = acc
    values = (np.arange(150_000, dtype=np.int64) * 2654435761) & 0xFFFFF
    np.cumsum(np.sort(values))


def reference_seconds() -> float:
    """Seconds ``reference_work`` takes right now."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def at_reference(seconds: float, before: float, after: float, fixed: float = 0.0) -> float:
    """``seconds`` at the reference speed, given the reference times just
    ``before`` and ``after`` it.  ``fixed`` is a part that does not scale
    with CPU speed (a timer wait), kept as measured."""
    return fixed + (seconds - fixed) * 2 * REFERENCE_S / (before + after)
