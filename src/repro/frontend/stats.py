"""Cycle accounting for the frontend timing model.

Buckets follow the Top-Down methodology (Yasin, ISPASS 2014) that the
paper's Figure 1 uses: retiring (base), frontend-bound (split into
ICache supply stalls, BTB-resteer stalls, and BTB lookup bubbles), and
bad speculation (execute-stage flushes).

Cycle buckets are carried twice: as floats (the reporting surface every
figure reads) and as exact integer *ticks* of ``1 / cycle_tick`` cycles
(``CoreParams.cycle_tick``).  The engines accumulate in ticks and derive
each float with a single division, so the floats are a pure function of
the tick totals.  Because integer addition is associative, the per-event
seed engine and the columnar timing model (which sums whole numpy
columns) reach the same floats bit for bit -- something float
accumulation cannot do (``commit_width=5`` makes per-event demand
non-dyadic, so float sums depend on summation order).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class FrontendStats:
    """Aggregated results of one frontend simulation."""

    instructions: int = 0
    cycles: float = 0.0
    # Top-Down style cycle buckets.
    base_cycles: float = 0.0
    icache_stall_cycles: float = 0.0
    btb_bubble_cycles: float = 0.0
    btb_resteer_cycles: float = 0.0
    bad_speculation_cycles: float = 0.0
    # Event counts.
    branches: int = 0
    taken_branches: int = 0
    btb_misses: int = 0
    decode_resteers: int = 0
    execute_resteers: int = 0
    direction_mispredicts: int = 0
    indirect_mispredicts: int = 0
    ras_mispredicts: int = 0
    icache_misses: int = 0
    extra_latency_lookups: int = 0
    # Exact integer mirrors of the cycle buckets, in units of
    # ``1 / cycle_tick`` cycles (0 = this stats object predates tick
    # accounting or was built by hand).
    cycle_tick: int = 0
    cycles_ticks: int = 0
    base_cycles_ticks: int = 0
    icache_stall_ticks: int = 0
    btb_bubble_ticks: int = 0
    btb_resteer_ticks: int = 0
    bad_speculation_ticks: int = 0

    def set_cycle_buckets(
        self,
        cycle_tick: int,
        cycles_ticks: int,
        base_cycles_ticks: int,
        icache_stall_ticks: int,
        btb_bubble_ticks: int,
        btb_resteer_ticks: int,
        bad_speculation_ticks: int,
    ) -> None:
        """Adopt engine tick totals and derive the float buckets.

        Every engine finishes a run through this method, so the float
        buckets are always ``ticks / cycle_tick`` -- one correctly-
        rounded division per bucket.
        """
        self.cycle_tick = cycle_tick
        self.cycles_ticks = cycles_ticks
        self.base_cycles_ticks = base_cycles_ticks
        self.icache_stall_ticks = icache_stall_ticks
        self.btb_bubble_ticks = btb_bubble_ticks
        self.btb_resteer_ticks = btb_resteer_ticks
        self.bad_speculation_ticks = bad_speculation_ticks
        self.cycles = cycles_ticks / cycle_tick
        self.base_cycles = base_cycles_ticks / cycle_tick
        self.icache_stall_cycles = icache_stall_ticks / cycle_tick
        self.btb_bubble_cycles = btb_bubble_ticks / cycle_tick
        self.btb_resteer_cycles = btb_resteer_ticks / cycle_tick
        self.bad_speculation_cycles = bad_speculation_ticks / cycle_tick

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def btb_mpki(self) -> float:
        """BTB misses per kilo-instruction (the paper's MPKI metric)."""
        if self.instructions <= 0:
            return 0.0
        return 1000.0 * self.btb_misses / self.instructions

    @property
    def frontend_stall_cycles(self) -> float:
        return self.icache_stall_cycles + self.btb_bubble_cycles + self.btb_resteer_cycles

    @property
    def frontend_bound_fraction(self) -> float:
        """Share of all cycles lost to frontend supply (Figure 1)."""
        if self.cycles <= 0:
            return 0.0
        return self.frontend_stall_cycles / self.cycles

    @property
    def btb_resteer_share_of_frontend(self) -> float:
        """Share of frontend stalls caused by BTB resteers (Figure 1)."""
        total = self.frontend_stall_cycles
        if total <= 0:
            return 0.0
        return (self.btb_resteer_cycles + self.btb_bubble_cycles) / total

    @property
    def bad_speculation_fraction(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.bad_speculation_cycles / self.cycles

    @property
    def taken_branch_fraction(self) -> float:
        """Dynamically-taken share of all branches."""
        if self.branches <= 0:
            return 0.0
        return self.taken_branches / self.branches

    @property
    def btb_miss_rate(self) -> float:
        """BTB misses per taken branch (the per-lookup counterpart of MPKI)."""
        if self.taken_branches <= 0:
            return 0.0
        return self.btb_misses / self.taken_branches

    def speedup_over(self, baseline: "FrontendStats") -> float:
        """IPC speedup of this run relative to ``baseline`` (1.0 = equal)."""
        if baseline.ipc <= 0:
            return 0.0
        return self.ipc / baseline.ipc

    def mpki_reduction_vs(self, baseline: "FrontendStats") -> float:
        """Fractional BTB-MPKI reduction relative to ``baseline``."""
        if baseline.btb_mpki <= 0:
            return 0.0
        return 1.0 - self.btb_mpki / baseline.btb_mpki

    #: Derived properties serialised by :meth:`to_dict` (all are guarded
    #: against empty runs: any ratio over zero events is reported as 0.0).
    _DERIVED = (
        "ipc",
        "btb_mpki",
        "btb_miss_rate",
        "taken_branch_fraction",
        "frontend_stall_cycles",
        "frontend_bound_fraction",
        "btb_resteer_share_of_frontend",
        "bad_speculation_fraction",
    )

    def to_dict(self, derived: bool = True) -> dict:
        """JSON-serialisable snapshot: raw fields plus derived ratios.

        The ``--metrics-out`` surface and the report telemetry appendix
        use this; ``derived=False`` returns only the raw counters.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if derived:
            for name in self._DERIVED:
                data[name] = getattr(self, name)
        return data
