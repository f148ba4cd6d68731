"""Core parameters: an Icelake-class configuration and future scalings.

Table 3 of the paper lists the simulator parameters of an Icelake-like
core at 3.9 GHz.  We model the parameters that the BTB study is
sensitive to: pipeline width and depth (resteer penalties), fetch-queue
depth (how much frontend run-ahead can hide lookup bubbles), and the
instruction-cache geometry.  Section 5.11 scales width/depth by 1.5x
and 2x to mimic future cores; :meth:`CoreParams.scaled_pipeline` does
the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def exact_ticks(cycles: float, tick: int) -> int:
    """Convert a cycle quantity to integer ticks, refusing any rounding.

    The tick-based engines only stay bit-identical to sequential float
    accounting if every per-event quantity is an exact multiple of
    ``1 / tick``; a configuration that violates that (e.g. an exotic
    ``resteer_refill_factor``) must fail loudly rather than drift.
    """
    scaled = cycles * tick
    ticks = round(scaled)
    if ticks != scaled:
        raise ValueError(
            f"{cycles!r} cycles is not an exact multiple of 1/{tick} cycles"
        )
    return ticks


@dataclass(frozen=True)
class CoreParams:
    """Microarchitectural parameters of the modelled core.

    Attributes:
        frequency_ghz: core clock (cosmetic; results are per-cycle).
        fetch_width: frontend supply bandwidth in instructions/cycle --
            the prediction-directed fetch path (a 32B prediction window
            at ~4B/instruction), which outruns the backend so the fetch
            queue can bank run-ahead slack.
        commit_width: instructions the backend retires per cycle.
        fetch_queue_entries: decoupling queue between branch-prediction-
            directed fetch and decode (FDIP); deeper queues hide more
            frontend bubbles (Figure 11b).
        decode_resteer_cycles: penalty when a BTB miss on a *direct*
            branch is caught at decode (frontend resteer, Figure 2).
        execute_resteer_cycles: penalty when the miss is only caught at
            execute -- indirect-branch wrong targets and conditional
            direction mispredictions (full pipeline flush).
        resteer_refill_factor: every resteer also discards the fetch
            queue's banked run-ahead; the refill shadow costs
            ``factor * fetch_queue_entries / fetch_width`` extra cycles.
            This is what makes deeper queues raise the price of a
            misprediction (and the value of a better BTB, Figure 11b).
        icache_kib / icache_line_bytes / icache_ways: L1-I geometry.
        icache_miss_cycles: L2 hit latency seen by a fetch that misses
            the L1-I (we do not model L2 misses for code; hot code in
            these traces is L2-resident).
    """

    frequency_ghz: float = 3.9
    fetch_width: int = 8
    commit_width: int = 5
    fetch_queue_entries: int = 64
    decode_resteer_cycles: int = 12
    execute_resteer_cycles: int = 17
    resteer_refill_factor: float = 0.5
    icache_kib: int = 32
    icache_line_bytes: int = 64
    icache_ways: int = 8
    icache_miss_cycles: int = 12

    def __post_init__(self) -> None:
        if self.fetch_width <= 0 or self.commit_width <= 0:
            raise ValueError("widths must be positive")
        if self.fetch_width < self.commit_width:
            raise ValueError("fetch width must be >= commit width (FDIP runs ahead)")
        if self.fetch_queue_entries <= 0:
            raise ValueError("fetch queue must have entries")

    def scaled_pipeline(self, factor: float) -> "CoreParams":
        """Wider-and-deeper future core (Section 5.11).

        Width and queue depth scale up with ``factor``; so do the resteer
        penalties, because a deeper pipeline has more stages between
        prediction and resolution.
        """
        return replace(
            self,
            fetch_width=max(1, round(self.fetch_width * factor)),
            commit_width=max(1, round(self.commit_width * factor)),
            fetch_queue_entries=max(1, round(self.fetch_queue_entries * factor)),
            decode_resteer_cycles=max(1, round(self.decode_resteer_cycles * factor)),
            execute_resteer_cycles=max(1, round(self.execute_resteer_cycles * factor)),
        )

    def with_fetch_queue(self, entries: int) -> "CoreParams":
        """Copy with a different fetch-queue depth (Figure 11b)."""
        return replace(self, fetch_queue_entries=entries)

    @property
    def max_slack_cycles(self) -> float:
        """Run-ahead the fetch queue can bank, in backend-cycles."""
        return self.fetch_queue_entries / self.commit_width

    @property
    def resteer_refill_cycles(self) -> float:
        """Extra cycles per resteer spent refilling the fetch queue."""
        return self.resteer_refill_factor * self.fetch_queue_entries / self.fetch_width

    @property
    def cycle_tick(self) -> int:
        """Ticks per cycle for exact integer cycle accounting.

        Every per-event cycle quantity in the timing model is a multiple
        of ``1 / fetch_width``, ``1 / commit_width``, or ``1/2`` (the
        overlapped ICache-miss cost and the default half-queue refill
        shadow), so ``lcm(2 * fetch_width, commit_width)`` ticks per
        cycle represents all of them exactly as integers.  Integer sums
        are associative, which is what lets the per-event and columnar
        engines agree bit for bit whatever order they sum in.
        """
        return math.lcm(2 * self.fetch_width, self.commit_width)


#: The paper's Table 3 core.
ICELAKE = CoreParams()
