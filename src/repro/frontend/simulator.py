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
paper reports -- tracks the same events.

The model is implemented once, as the timing phase of
:func:`repro.frontend.vector.run_vector`, and fed by one of two column
sources: the fresh-run engine's trace replays and BTB pass, or this
module's live structure pass (:meth:`FrontendSimulator._run_general`).
An attached ITTAGE runs as its own replay on either
(:meth:`repro.btb.ittage.ITTagePredictor.replay`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.branch.direction import (
    DirectionPredictor,
    PerfectDirectionPredictor,
    TageLitePredictor,
)
from repro.obs.metrics import get_registry
from repro.branch.types import IS_CALL, IS_INDIRECT, BranchKind
from repro.btb.base import NO_TARGET, BranchTargetPredictor
from repro.btb.ittage import ITTagePredictor
from repro.btb.ras import ReturnAddressStack
from repro.checks.sanitizer import get_sanitizer
from repro.frontend.icache import ICache
from repro.frontend.params import CoreParams, ICELAKE
from repro.frontend.stats import FrontendStats
from repro.frontend.vector import run_vector
from repro.workloads.trace import Trace

_INSTR_BYTES = 4

_KIND_RETURN = int(BranchKind.RETURN)
_KIND_COND = int(BranchKind.COND_DIRECT)
_KINDS = list(BranchKind)


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
    """

    def __init__(
        self,
        btb: BranchTargetPredictor,
        params: CoreParams = ICELAKE,
        direction: DirectionPredictor | None = None,
        ittage: ITTagePredictor | None = None,
        returns_use_ras: bool = True,
        ras_depth: int = 32,
    ) -> None:
        self.btb = btb
        self.params = params
        self._direction_is_default = direction is None
        self.direction = direction or TageLitePredictor()
        self.ittage = ittage
        self.returns_use_ras = returns_use_ras
        self.ras = ReturnAddressStack(ras_depth)
        self.icache = ICache(params.icache_kib, params.icache_line_bytes, params.icache_ways)
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

        There is one timing model (:func:`repro.frontend.vector.run_vector`)
        and two sources of the per-event outcome columns it reads.  The
        fresh-run ``"vector"`` engine runs whenever
        :meth:`_columns_applicable` holds: a scalar BTB pass over the
        active events, on the decoded trace's replayed direction, ICache
        and RAS columns.  Otherwise the ``"general"`` engine's live
        structure pass (:meth:`_run_general`) asks every structure
        itself and records the same columns (a caller-supplied
        predictor, an armed sanitizer, a reused simulator).  Either way
        an attached ITTAGE runs its own replay.  Both are bit-identical
        to the seed referee.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        engine = "vector" if self._columns_applicable() else "general"
        self.last_engine = engine
        started = time.perf_counter()
        if engine == "vector":
            stats = run_vector(self, trace, warmup_fraction)
        else:
            stats = self._run_general(trace, warmup_fraction)
        elapsed = time.perf_counter() - started
        # Engine telemetry rides on the stats object as plain instance
        # attributes (not dataclass fields, so digests/to_dict stay
        # unchanged): which column source ran and its raw event throughput.
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

    def _columns_applicable(self) -> bool:
        """Whether the decoded trace's cold-state replays stand in for
        this simulator's direction predictor, ICache and RAS.

        Those replays start from cold structures and see only the
        trace, so they apply to a simulator's first run with a pristine
        ICache and RAS, the default TAGE or the perfect oracle, and no
        armed sanitizer (it inspects every step).  This is the one gate
        of the fresh-run vector engine, which runs any BTB on the
        columns.
        """
        return (
            not self._has_run
            and self.icache.accesses == 0
            and not get_sanitizer().enabled
            and self._direction_signature() is not None
            and self.ras.pushes == 0
            and self.ras.pops == 0
            and len(self.ras) == 0
        )

    def _replayed_columns(self, trace: Trace) -> tuple[tuple, tuple]:
        """Per-event ``(icache misses, direction ok, ras ok)`` columns
        from ``trace.decoded()`` plus the replays' end states.

        Only valid when :meth:`_columns_applicable` holds; the memo on
        the trace means every design after the first reuses the
        replays.  Pass the end states to :meth:`_adopt_end_states` once
        the run is over.
        """
        params = self.params
        decoded = trace.decoded()
        icache_col, icache_final = decoded.icache_misses(
            params.icache_kib, params.icache_line_bytes, params.icache_ways
        )
        signature = self._direction_signature()
        if signature == "perfect":
            direction_col = np.ones(decoded.n_events, dtype=np.bool_)
            direction_final = None
        else:
            direction_col, direction_final = decoded.direction_outcomes(signature)
        ras_col, ras_final = decoded.ras_outcomes(self.returns_use_ras, self.ras.depth)
        return (icache_col, direction_col, ras_col), (
            icache_final, direction_final, ras_final
        )

    def _adopt_end_states(self, finals: tuple) -> None:
        """Take clones of the replayed end-of-trace ICache, predictor and
        RAS, so post-run inspection and a second run match a live run."""
        icache_final, direction_final, ras_final = finals
        self.icache = icache_final.clone()
        if direction_final is not None:
            self.direction = direction_final.clone()
        self.ras = ras_final.clone()

    def _run_general(self, trace: Trace, warmup_fraction: float) -> FrontendStats:
        """Live structure pass: the ``general`` engine's column source.

        Each event asks the simulator's own ICache, direction predictor,
        RAS and BTB in trace order, so it handles what the decoded
        trace's cold-state replays cannot: a reused simulator, a
        caller-supplied predictor and an armed sanitizer.  It records
        only per-event outcomes -- ICache misses, direction and RAS
        correctness and each BTB lookup's ``(target, hit, latency)`` --
        and hands them to the timing model of
        :func:`repro.frontend.vector.run_vector`, the one the fresh-run
        engine feeds from the replayed columns.  With ITTAGE attached,
        indirect branches skip the BTB here and ``run_vector`` replays
        ITTAGE over the trace.
        """
        n_events = len(trace)
        warm_limit = int(n_events * warmup_fraction)
        icache_col: list[int] = []
        record_misses = icache_col.append
        dir_ok = [True] * n_events
        ras_ok = [True] * n_events
        results: tuple[list, list, list] = ([], [], [])
        out_target, out_hit, out_latency = (column.append for column in results)

        btb = self.btb
        direction = self.direction
        direction_is_perfect = direction.is_perfect
        ittage_owns_indirect = self.ittage is not None
        ras = self.ras
        icache_touch = self.icache.touch_range
        returns_use_ras = self.returns_use_ras

        for index, (pc, kind_value, taken, target, gap) in enumerate(
            trace.events()
        ):
            if index == warm_limit and warm_limit:
                btb.reset_stats()
            record_misses(icache_touch(pc - gap * _INSTR_BYTES, pc))
            if kind_value == _KIND_RETURN and returns_use_ras:
                if ras.pop() != target:
                    ras_ok[index] = False
                continue
            if IS_CALL[kind_value]:
                ras.push(pc + _INSTR_BYTES)
            if kind_value == _KIND_COND:
                predicted_taken = (
                    taken if direction_is_perfect else direction.predict(pc)
                )
                direction.update(pc, taken)
                if predicted_taken != taken:
                    dir_ok[index] = False
            if ittage_owns_indirect and IS_INDIRECT[kind_value]:
                continue  # ITTAGE owns the indirect branches: no BTB call.
            lookup = btb.lookup(pc)
            btb.update(_EventView(pc, _KINDS[kind_value], taken, target, gap))
            predicted = lookup.target
            out_target(NO_TARGET if predicted is None else predicted)
            out_hit(lookup.hit)
            out_latency(lookup.latency)

        live = (
            np.array(icache_col, dtype=np.int64),
            np.array(dir_ok, dtype=np.bool_),
            np.array(ras_ok, dtype=np.bool_),
            results,
        )
        return run_vector(self, trace, warmup_fraction, live=live)

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

