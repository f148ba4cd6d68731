"""Decoupled-frontend timing model (the IPC substrate).

The paper's results come from an industry cycle-accurate simulator; what
its IPC numbers respond to, for this study, is the *frontend*: how often
the fetch-directed-instruction-prefetch (FDIP) pipeline of Figure 2 is
resteered and how well the fetch queue hides smaller supply bubbles.
This model charges exactly those effects:

* every basic block costs ``instructions / fetch_width`` supply cycles
  and ``instructions / commit_width`` demand cycles;
* L1-I misses are charged at full L2 latency only on the *refill path*
  right after a resteer; on a correctly-predicted path the FDIP
  prefetcher has issued them ahead of fetch, leaving a small overlap
  cost.  This is the paper's central coupling: BTB misses do not just
  flush the pipeline, they expose instruction-fetch latency that FDIP
  would otherwise hide;
* a correct-but-slow BTB hit (PDede's 2-cycle pointer chase) adds a
  1-cycle supply bubble, absorbed by banked fetch-queue *slack* when the
  queue is running ahead (Figure 11b: deeper queue, more hiding);
* a BTB miss on a direct branch resteers at decode; indirect wrong
  targets and conditional direction mispredictions flush at execute
  (Figure 2); every resteer drains the fetch queue.

Absolute IPC is not that of the authors' silicon-correlated simulator;
relative IPC between two BTB designs -- the quantity every figure of the
paper reports -- tracks the same events.  Wrong-path ICache pollution is
not modelled (a second-order effect the paper notes qualitatively).
"""

from __future__ import annotations

import time

from repro.branch.direction import (
    DirectionPredictor,
    PerfectDirectionPredictor,
    TageLitePredictor,
)
from repro.obs.metrics import get_registry
from repro.branch.types import BranchKind
from repro.btb.base import BranchTargetPredictor
from repro.btb.ittage import ITTagePredictor
from repro.btb.vectorops import vector_supported
from repro.btb.ras import ReturnAddressStack
from repro.checks.sanitizer import get_sanitizer
from repro.frontend.icache import ICache
from repro.frontend.params import CoreParams, ICELAKE, exact_ticks
from repro.frontend.stats import FrontendStats
from repro.workloads.trace import Trace

_INSTR_BYTES = 4

#: Blocks after a resteer during which ICache misses are demand misses
#: (the prefetcher has not caught up yet).
_REFILL_WINDOW = 4

#: Residual cost of an ICache miss that FDIP prefetching overlapped.
_OVERLAPPED_MISS_CYCLES = 1.5

_KIND_RETURN = int(BranchKind.RETURN)
_KIND_COND = int(BranchKind.COND_DIRECT)

# Per-kind property tables indexed by int(kind) -- avoids enum-object
# construction in the hot loop.
_KINDS = [BranchKind(value) for value in range(len(BranchKind))]
_IS_CALL = [kind.is_call for kind in _KINDS]
_IS_INDIRECT = [kind.is_indirect for kind in _KINDS]


class FrontendSimulator:
    """Trace-driven frontend + backend-demand timing model.

    Args:
        btb: any :class:`BranchTargetPredictor` (baseline, PDede, ...).
        params: core configuration (defaults to the Icelake-like Table 3).
        direction: conditional direction predictor (default TAGE-lite).
        ittage: optional indirect-target predictor; when present,
            indirect branches are predicted by it and bypass the BTB
            (Section 5.6 -- pair with a BTB built with
            ``allocate_indirect=False``).
        returns_use_ras: serve returns from the RAS (default, Section 2)
            or push them through the BTB (Section 5.7).
        ras_depth: return-address-stack depth.
        model_wrong_path: also fetch ``wrong_path_bytes`` of code down
            the mispredicted path on execute-stage flushes, polluting the
            ICache (the paper notes this effect of BTB misses
            qualitatively; off by default).
        engine: ``"auto"`` (default) runs the vector engine when it
            applies and the general engine otherwise; ``"vector"``
            forces the vector engine and raises ``ValueError`` at
            :meth:`run` when the configuration cannot use it;
            ``"general"`` always applies.
    """

    _ENGINES = ("auto", "vector", "general")

    def __init__(
        self,
        btb: BranchTargetPredictor,
        params: CoreParams = ICELAKE,
        direction: DirectionPredictor | None = None,
        ittage: ITTagePredictor | None = None,
        returns_use_ras: bool = True,
        ras_depth: int = 32,
        model_wrong_path: bool = False,
        wrong_path_bytes: int = 256,
        engine: str = "auto",
    ) -> None:
        if engine not in self._ENGINES:
            raise ValueError(f"unknown engine {engine!r}; options: {self._ENGINES}")
        self.btb = btb
        self.params = params
        self._direction_is_default = direction is None
        self.direction = direction or TageLitePredictor()
        self.ittage = ittage
        self.returns_use_ras = returns_use_ras
        self.ras = ReturnAddressStack(ras_depth)
        self.icache = ICache(params.icache_kib, params.icache_line_bytes, params.icache_ways)
        self.model_wrong_path = model_wrong_path
        self.wrong_path_bytes = wrong_path_bytes
        self.wrong_path_fetches = 0
        self.engine = engine
        self._has_run = False
        #: Which engine the most recent :meth:`run` used ("vector" for
        #: the columnar engine, "general" otherwise).
        self.last_engine = "none"

    def run(
        self,
        trace: Trace,
        warmup_fraction: float = 0.25,
    ) -> FrontendStats:
        """Simulate ``trace``; collect statistics after the warmup prefix.

        The paper warms microarchitectural state on 100M+ instructions
        before measuring 10M+ (Section 5.1); ``warmup_fraction`` plays
        the same role at trace scale.

        Two engines produce the same ``FrontendStats`` bit for bit (the
        equivalence suite is the referee): the columnar *vector* engine
        (:mod:`repro.frontend.vector`), driven by the trace's
        precomputed :class:`~repro.workloads.decoded.DecodedTrace`
        columns and used when the configuration allows it, and the
        *general* per-event engine that handles every configuration
        (ITTAGE, wrong-path modelling, custom predictors, literature BTB
        families, armed sanitizer, reused simulators).
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        engine = self.engine
        if engine == "auto":
            engine = "vector" if self._vector_path_applicable() else "general"
        elif engine == "vector" and not self._vector_path_applicable():
            raise ValueError(
                "vector engine not applicable to this configuration "
                "(requires cold structures and a vector-capable BTB)"
            )
        self.last_engine = engine
        started = time.perf_counter()
        if engine == "vector":
            from repro.frontend.vector import run_vector

            stats = run_vector(self, trace, warmup_fraction)
        else:
            stats = self._run_general(trace, warmup_fraction)
        elapsed = time.perf_counter() - started
        # Engine telemetry rides on the stats object as plain instance
        # attributes (not dataclass fields, so digests/to_dict stay
        # unchanged): which tier ran and its raw event throughput.
        stats.engine = engine
        stats.events_per_sec = len(trace) / elapsed if elapsed > 0 else 0.0
        self._has_run = True
        registry = get_registry()
        if registry.enabled:
            self.publish_metrics(stats, registry, app=trace.name)
        return stats

    def _direction_signature(self) -> str | None:
        """Key naming a replayable direction configuration (or None).

        Only configurations whose predictor state this simulator built
        itself (and therefore knows to be cold and default-shaped) can be
        served from the decoded trace's direction replay.
        """
        if type(self.direction) is PerfectDirectionPredictor:
            return "perfect"
        if self._direction_is_default:
            return "tage-default"
        return None

    def _vector_path_applicable(self) -> bool:
        """Whether the columnar vector engine reproduces this configuration.

        The vector engine takes direction outcomes, ICache misses and
        RAS outcomes from the decoded trace's cold-state replays, so it
        only applies to a simulator's first run with cold structures and
        a design with exact struct-of-arrays kernels; anything it cannot
        replicate exactly (ITTAGE, wrong-path pollution, an armed
        sanitizer, a caller-supplied predictor, a pre-touched RAS, a BTB
        without kernels) falls back to the general engine.
        """
        return (
            not self._has_run
            and self.ittage is None
            and not self.model_wrong_path
            and self.icache.accesses == 0
            and not get_sanitizer().enabled
            and self._direction_signature() is not None
            and self.ras.pushes == 0
            and self.ras.pops == 0
            and len(self.ras) == 0
            and vector_supported(self.btb)
        )

    def _run_general(self, trace: Trace, warmup_fraction: float) -> FrontendStats:
        """Reference per-event engine (every configuration).

        All cycle quantities are integer *ticks* of ``1 / cycle_tick``
        cycles (see :class:`FrontendStats`), so both engines sum them
        exactly in any order.  The float buckets are derived once at the
        end.
        """
        params = self.params
        stats = FrontendStats()
        warm_limit = int(len(trace) * warmup_fraction)
        tick = params.cycle_tick
        slack = 0
        slack_max = exact_ticks(params.max_slack_cycles, tick)
        fetch_tick = tick // params.fetch_width
        commit_tick = tick // params.commit_width
        miss_ticks = params.icache_miss_cycles * tick
        overlap_ticks = exact_ticks(_OVERLAPPED_MISS_CYCLES, tick)
        refill_shadow = exact_ticks(params.resteer_refill_cycles, tick)
        decode_penalty = params.decode_resteer_cycles * tick + refill_shadow
        execute_penalty = params.execute_resteer_cycles * tick + refill_shadow
        measuring = warm_limit == 0
        blocks_since_resteer = _REFILL_WINDOW
        cycles_ticks = 0
        base_cycles_ticks = 0
        icache_stall_ticks = 0
        btb_bubble_ticks = 0
        btb_resteer_ticks = 0
        bad_speculation_ticks = 0

        btb = self.btb
        direction = self.direction
        direction_is_perfect = direction.is_perfect
        ittage = self.ittage
        ras = self.ras
        icache_touch = self.icache.touch_range
        returns_use_ras = self.returns_use_ras

        for index, (pc, kind_value, taken, target, gap) in enumerate(
            trace.events()
        ):
            if not measuring and index >= warm_limit:
                measuring = True
                btb.reset_stats()
            kind = _KINDS[kind_value]
            kind_is_indirect = _IS_INDIRECT[kind_value]
            block_instructions = gap + 1
            block_start = pc - gap * _INSTR_BYTES
            icache_misses = icache_touch(block_start, pc)
            if icache_misses:
                if blocks_since_resteer < _REFILL_WINDOW:
                    icache_cost = icache_misses * miss_ticks
                else:
                    icache_cost = icache_misses * overlap_ticks
            else:
                icache_cost = 0

            # ---- branch resolution -------------------------------------
            penalty = 0
            bubble = 0
            resteer_kind = 0  # 0 none, 1 decode, 2 execute
            btb_miss = False
            direction_mispredict = False
            indirect_mispredict = False
            ras_mispredict = False
            wrong_path_addr = -1

            if kind_value == _KIND_RETURN and returns_use_ras:
                if ras.pop() != target:
                    ras_mispredict = True
                    penalty = execute_penalty
                    resteer_kind = 2
                if ittage is not None:
                    ittage.record_history(pc, taken)
            else:
                if _IS_CALL[kind_value]:
                    ras.push(pc + _INSTR_BYTES)
                direction_correct = True
                if kind_value == _KIND_COND:
                    predicted_taken = taken if direction_is_perfect else direction.predict(pc)
                    direction.update(pc, taken)
                    direction_correct = predicted_taken == taken
                if ittage is not None:
                    ittage.record_history(pc, taken)
                if kind_is_indirect and ittage is not None:
                    predicted_target = ittage.predict(pc)
                    ittage.update(pc, target)
                    if taken and predicted_target != target:
                        indirect_mispredict = True
                        penalty = execute_penalty
                        resteer_kind = 2
                else:
                    lookup = btb.lookup(pc)
                    event = _EventView(pc, kind, taken, target, gap)
                    btb_miss = btb.stats.record_outcome(event, lookup)
                    btb.update(event)
                    if not direction_correct:
                        # Resolves at execute; dominates target issues.
                        direction_mispredict = True
                        penalty = execute_penalty
                        resteer_kind = 2
                        if taken:
                            wrong_path_addr = pc + _INSTR_BYTES  # fetched fall-through
                        elif lookup.target is not None:
                            wrong_path_addr = lookup.target  # fetched the taken path
                    elif taken and btb_miss:
                        if kind_is_indirect or kind_value == _KIND_RETURN:
                            if kind_is_indirect:
                                indirect_mispredict = True
                            penalty = execute_penalty
                            resteer_kind = 2
                            if lookup.target is not None:
                                wrong_path_addr = lookup.target
                        else:
                            penalty = decode_penalty
                            resteer_kind = 1
                    elif taken and lookup.latency > 1:
                        # Correct target, one cycle late (Figure 9D).
                        bubble = (lookup.latency - 1) * tick

            # ---- timing ------------------------------------------------
            supply = block_instructions * fetch_tick + icache_cost + bubble
            demand = block_instructions * commit_tick
            effective = supply - slack
            if effective > demand:
                block_cycles = effective
                slack = 0
            else:
                block_cycles = demand
                slack = slack + demand - supply
                if slack > slack_max:
                    slack = slack_max
            if penalty:
                slack = 0
                blocks_since_resteer = 0
                if self.model_wrong_path and wrong_path_addr >= 0:
                    # Wrong-path fetches pollute the ICache (lines pulled
                    # in for code that is then flushed).
                    icache_touch(wrong_path_addr, wrong_path_addr + self.wrong_path_bytes)
                    self.wrong_path_fetches += 1
            else:
                blocks_since_resteer += 1

            if not measuring:
                continue

            # ---- accounting ---------------------------------------------
            stats.instructions += block_instructions
            cycles_ticks += block_cycles + penalty
            base_cycles_ticks += demand
            overrun = block_cycles - demand
            if overrun > 0:
                icache_part = icache_cost if icache_cost < overrun else overrun
                icache_stall_ticks += icache_part
                rest = overrun - icache_part
                btb_bubble_ticks += bubble if bubble < rest else rest
            stats.icache_misses += icache_misses
            stats.branches += 1
            if taken:
                stats.taken_branches += 1
            if btb_miss:
                stats.btb_misses += 1
            if resteer_kind == 1:
                stats.decode_resteers += 1
                btb_resteer_ticks += penalty
            elif resteer_kind == 2:
                stats.execute_resteers += 1
                bad_speculation_ticks += penalty
            if direction_mispredict:
                stats.direction_mispredicts += 1
            if indirect_mispredict:
                stats.indirect_mispredicts += 1
            if ras_mispredict:
                stats.ras_mispredicts += 1
            if bubble:
                stats.extra_latency_lookups += 1
        stats.set_cycle_buckets(
            tick,
            cycles_ticks,
            base_cycles_ticks,
            icache_stall_ticks,
            btb_bubble_ticks,
            btb_resteer_ticks,
            bad_speculation_ticks,
        )
        return stats

    def publish_metrics(self, stats: FrontendStats, registry=None, app: str = "?") -> None:
        """Publish one run's aggregate metrics into the registry.

        Called once at the end of :meth:`run` (never per event, so the
        hot loop carries no instrumentation); every series is labelled
        ``app=<trace name>, design=<btb name>`` so sweeps stay separable.
        Publishes the frontend cycle accounting, the resteer-cause
        split, and each structure's own snapshot (BTB ``metrics()``,
        ICache / RAS ``snapshot()``).
        """
        registry = registry or get_registry()
        labels = {"app": app, "design": self.btb.name}
        frontend = {
            "frontend_instructions_total": stats.instructions,
            "frontend_cycles_total": stats.cycles,
            "frontend_branches_total": stats.branches,
            "frontend_taken_branches_total": stats.taken_branches,
            "frontend_btb_misses_total": stats.btb_misses,
            "frontend_icache_misses_total": stats.icache_misses,
            "frontend_extra_latency_lookups_total": stats.extra_latency_lookups,
            "frontend_wrong_path_fetches_total": self.wrong_path_fetches,
            "frontend_ipc": stats.ipc,
            "frontend_btb_mpki": stats.btb_mpki,
            "frontend_bound_fraction": stats.frontend_bound_fraction,
            "frontend_bad_speculation_fraction": stats.bad_speculation_fraction,
        }
        registry.publish(frontend, **labels)
        registry.gauge(
            "frontend_engine_events_per_sec",
            "raw event throughput of the engine tier that ran",
        ).set(
            float(getattr(stats, "events_per_sec", 0.0)),
            engine=getattr(stats, "engine", "none"),
            **labels,
        )
        stalls = registry.counter(
            "frontend_stall_cycles_total", "Top-Down cycle buckets (Figure 1)"
        )
        stalls.inc(stats.icache_stall_cycles, bucket="icache", **labels)
        stalls.inc(stats.btb_bubble_cycles, bucket="btb-bubble", **labels)
        stalls.inc(stats.btb_resteer_cycles, bucket="btb-resteer", **labels)
        stalls.inc(stats.bad_speculation_cycles, bucket="bad-speculation", **labels)
        resteers = registry.counter(
            "frontend_resteers_total", "resteers by pipeline stage and cause"
        )
        resteers.inc(stats.decode_resteers, stage="decode", cause="btb-direct", **labels)
        resteers.inc(
            stats.direction_mispredicts, stage="execute", cause="direction", **labels
        )
        resteers.inc(
            stats.indirect_mispredicts, stage="execute", cause="indirect", **labels
        )
        resteers.inc(stats.ras_mispredicts, stage="execute", cause="ras", **labels)
        registry.publish(self.btb.metrics(), **labels)
        by_kind = registry.counter(
            "btb_misses_by_kind_total", "BTB misses split by branch kind"
        )
        for kind, count in self.btb.stats.misses_by_kind.items():
            by_kind.inc(count, kind=kind, **labels)
        registry.publish(self.icache.snapshot(), **labels)
        registry.publish(self.ras.snapshot(), **labels)
        sanitizer = get_sanitizer()
        if sanitizer.enabled:
            registry.publish(sanitizer.snapshot(), **labels)


class _EventView:
    """Minimal BranchEvent stand-in built without validation (hot path)."""

    __slots__ = ("pc", "kind", "taken", "target", "instr_gap")

    def __init__(self, pc: int, kind: BranchKind, taken: bool, target: int, gap: int) -> None:
        self.pc = pc
        self.kind = kind
        self.taken = taken
        self.target = target
        self.instr_gap = gap

    @property
    def fall_through(self) -> int:
        return self.pc + 4
