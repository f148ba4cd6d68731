"""Fresh-run frontend engine: a scalar BTB pass under a columnar timing model.

:class:`repro.frontend.simulator.FrontendSimulator` picks this engine
for every BTB design whenever the decoded trace's cold-state replays
stand in for the simulator's direction predictor, ICache and RAS
(``_columns_applicable``); the live per-event ``general`` engine is the
fallback and the reference.  The two are bit-identical by construction
and by the equivalence suite.  Two phases:

**Phase 1 -- BTB pass.**  One scalar loop over the *active* events (all
of them, or every non-return when returns are served by the RAS) makes
the BTB calls a live run makes, in trace order, and collects each
lookup's ``(target, hit, latency)``.  The exact types with a combined
hook (:class:`BaselineBTB`, :class:`PDedeBTB`, and a
:class:`TwoLevelBTB` of those) take one ``observe_fast`` call per event,
which shares the tag match between lookup and update; every other BTB
takes ``lookup`` then ``update``, as in the live loop.  The stats reset
of the warm crossing lands between the last warm-up event and the first
measured one.

**Phase 2 -- timing.**  Branch-resolution outcomes (direction, RAS, BTB
miss, penalty kind, lookup bubbles) are pure element-wise functions of
the phase-1 columns and the decoded trace's replayed columns, so the
whole timing model vectorises: the ICache refill window is a shifted
running maximum over penalty positions, and the fetch-queue slack walk
-- the only sequential recurrence -- collapses to a scalar loop over
*interesting* events (penalties and supply-over-demand blocks) with
prefix-summed slack gains in between, because slack clipping commutes
with non-negative accumulation.  All accounting is integer ticks, summed
over the measured range, exactly as the live engine does.

The RAS is replayed once per ``(returns_use_ras, depth)`` by the decoded
trace (like ICache and direction), which is why this engine requires a
pristine stack; every run adopts the replayed final state.
"""

from __future__ import annotations

from itertools import compress, islice

import numpy as np

from repro.branch.types import BranchKind
from repro.btb.baseline import BaselineBTB
from repro.btb.twolevel import TwoLevelBTB
from repro.core.pdede import PDedeBTB
from repro.frontend.params import exact_ticks
from repro.frontend.stats import FrontendStats

#: ``None`` lookup target as an int64 sentinel (targets are 57-bit
#: non-negative addresses, so -1 never collides with a real target).
NO_TARGET = -1

_KIND_NAMES = [BranchKind(value).name for value in range(len(BranchKind))]

#: BTB types whose own ``observe_fast`` is one exact lookup + update.
_FAST_TYPES = (BaselineBTB, PDedeBTB)


def _has_fast_observe(btb) -> bool:
    """Whether ``btb.observe_fast`` equals its ``lookup`` + ``update``.

    Exact types only: a subclass may inherit ``observe_fast`` yet
    override ``lookup`` or ``update`` (``GhrpBTB`` overrides both), so
    it takes the two calls.
    """
    if type(btb) is TwoLevelBTB:
        return type(btb.level0) in _FAST_TYPES and type(btb.level1) in _FAST_TYPES
    return type(btb) in _FAST_TYPES


def _observer(btb, trace, decoded):
    """``(observe, columns)``: mapping ``observe`` over the per-event
    ``columns`` makes one event's BTB calls and returns its lookup's
    ``(target, hit, latency)``."""
    if _has_fast_observe(btb):
        columns = (
            trace.pcs,
            trace.targets,
            trace.takens,
            decoded.is_indirect,
            decoded.hashes,
            decoded.same_page,
        )
        return btb.observe_fast, columns

    from repro.frontend.simulator import _KINDS, _EventView

    lookup = btb.lookup
    update = btb.update

    def observe(pc, kind_value, taken, target, gap):
        result = lookup(pc)
        update(_EventView(pc, _KINDS[kind_value], taken, target, gap))
        return result.target, result.hit, result.latency

    return observe, (trace.pcs, trace.kinds, trace.takens, trace.targets, trace.gaps)


def run_vector(sim, trace, warmup_fraction):
    """Run one simulation on the fresh-run engine; returns FrontendStats.

    ``sim`` is the :class:`FrontendSimulator` (the caller has already
    checked ``_columns_applicable``); semantics mirror the general
    engine exactly, including the warm-crossing stats reset.  The
    simulator also adopts the replayed end-of-trace structure state.
    """
    from repro.frontend.simulator import _OVERLAPPED_MISS_CYCLES, _REFILL_WINDOW

    params = sim.params
    btb = sim.btb
    decoded = trace.decoded()
    n_events = decoded.n_events
    warm_limit = int(n_events * warmup_fraction)
    tick = params.cycle_tick
    supply_col, demand_col = decoded.supply_demand_arrays(
        tick // params.fetch_width, tick // params.commit_width
    )
    (icache_col, dir_ok, ras_ok), finals = sim._replayed_columns(trace)

    cols = decoded.vector_columns()
    taken = cols["taken"]
    target = cols["targets"]
    kinds_col = cols["kinds"]
    is_indirect_col = cols["is_indirect"]
    is_return_col = cols["is_return"]
    instructions_col = cols["instructions"]

    # ---- phase 1: BTB pass --------------------------------------------
    observe, columns = _observer(btb, trace, decoded)
    if sim.returns_use_ras:
        act = ~is_return_col
        selectors = act.tolist()
        columns = [compress(column, selectors) for column in columns]
    else:
        act = np.ones(n_events, dtype=np.bool_)
    outcomes = map(observe, *columns)
    # The warm crossing's stats reset lands between the last warm-up BTB
    # call and the first measured one, wherever the crossing event is.
    results = list(islice(outcomes, int(np.count_nonzero(act[:warm_limit]))))
    if 0 < warm_limit < n_events:
        btb.reset_stats()
    results.extend(outcomes)

    lt = np.full(n_events, NO_TARGET, dtype=np.int64)
    lh = np.zeros(n_events, dtype=np.bool_)
    lat = np.ones(n_events, dtype=np.int64)
    if results:
        lt[act] = [NO_TARGET if t is None else t for t, _, _ in results]
        lh[act] = [hit for _, hit, _ in results]
        lat[act] = [latency for _, _, latency in results]

    # ---- phase 2: outcomes, penalties, timing -------------------------
    taken_active = act & taken
    btb_missed = taken_active & (lt != target)
    dir_mis = act & ~dir_ok
    ras_mis = ~ras_ok
    exec_like = is_indirect_col | is_return_col
    dir_ok_act = act & ~dir_mis
    exec_pen = ras_mis | dir_mis | (dir_ok_act & btb_missed & exec_like)
    dec_pen = dir_ok_act & btb_missed & ~exec_like
    ind_mis = dir_ok_act & btb_missed & is_indirect_col
    bubble_mask = dir_ok_act & ~btb_missed & taken & (lat > 1)
    bubble_ticks = np.where(bubble_mask, (lat - 1) * tick, 0)
    has_pen = exec_pen | dec_pen

    # ICache refill window: a miss is a demand (full-latency) miss when
    # the last penalty lies at most _REFILL_WINDOW events back.
    index_arr = np.arange(n_events, dtype=np.int64)
    sentinel = np.int64(-(_REFILL_WINDOW + 1))
    pen_pos = np.where(has_pen, index_arr, sentinel)
    last_pen = np.empty(n_events, dtype=np.int64)
    if n_events:
        np.maximum.accumulate(pen_pos, out=pen_pos)
        last_pen[0] = sentinel
        last_pen[1:] = pen_pos[:-1]
    in_refill = (index_arr - last_pen) <= _REFILL_WINDOW
    miss_ticks = params.icache_miss_cycles * tick
    overlap_ticks = exact_ticks(_OVERLAPPED_MISS_CYCLES, tick)
    icache_cost = icache_col * np.where(in_refill, miss_ticks, overlap_ticks)

    refill_shadow = exact_ticks(params.resteer_refill_cycles, tick)
    decode_penalty = params.decode_resteer_cycles * tick + refill_shadow
    execute_penalty = params.execute_resteer_cycles * tick + refill_shadow
    slack_max = exact_ticks(params.max_slack_cycles, tick)

    # Fetch-queue slack walk.  d = demand - supply per event; between
    # interesting events every d is non-negative (fetch outpaces commit
    # unless an ICache charge or lookup bubble intervenes), and clipped
    # accumulation of non-negative gains equals clipping the prefix sum
    # once, so the walk only visits penalties and d < 0 events.
    d_arr = demand_col - supply_col - icache_cost - bubble_ticks
    interesting = np.flatnonzero(has_pen | (d_arr < 0))
    prefix = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(d_arr)))
    slack = 0
    overrun_total = 0
    icache_stall_ticks = 0
    btb_bubble_ticks = 0
    event_at = interesting.tolist()
    d_at = d_arr[interesting].tolist()
    pen_at = has_pen[interesting].tolist()
    icache_at = icache_cost[interesting].tolist()
    bubble_at = bubble_ticks[interesting].tolist()
    prefix_at = prefix[interesting].tolist()
    gap_base = 0
    for k in range(len(event_at)):
        slack += prefix_at[k] - gap_base
        if slack > slack_max:
            slack = slack_max
        d_k = d_at[k]
        x = slack + d_k
        if x < 0:
            slack = 0
            if event_at[k] >= warm_limit:
                overrun = -x
                overrun_total += overrun
                ic = icache_at[k]
                icache_part = ic if ic < overrun else overrun
                icache_stall_ticks += icache_part
                rest = overrun - icache_part
                bubble = bubble_at[k]
                btb_bubble_ticks += bubble if bubble < rest else rest
        elif x < slack_max:
            slack = x
        else:
            slack = slack_max
        if pen_at[k]:
            slack = 0
        gap_base = prefix_at[k] + d_k

    # ---- measured-range accounting ------------------------------------
    m = slice(warm_limit, n_events)
    decode_resteers = int(np.count_nonzero(dec_pen[m]))
    execute_resteers = int(np.count_nonzero(exec_pen[m]))
    demand_measured = int(demand_col[m].sum())
    cycles_ticks = (
        demand_measured
        + overrun_total
        + decode_resteers * decode_penalty
        + execute_resteers * execute_penalty
    )

    stats = FrontendStats(
        instructions=int(instructions_col[m].sum()),
        branches=n_events - warm_limit,
        taken_branches=int(np.count_nonzero(taken[m])),
        btb_misses=int(np.count_nonzero(btb_missed[m])),
        decode_resteers=decode_resteers,
        execute_resteers=execute_resteers,
        direction_mispredicts=int(np.count_nonzero(dir_mis[m])),
        indirect_mispredicts=int(np.count_nonzero(ind_mis[m])),
        ras_mispredicts=int(np.count_nonzero(ras_mis[m])),
        icache_misses=int(icache_col[m].sum()),
        extra_latency_lookups=int(np.count_nonzero(bubble_mask[m])),
    )
    stats.set_cycle_buckets(
        tick,
        cycles_ticks,
        demand_measured,
        icache_stall_ticks,
        btb_bubble_ticks,
        decode_resteers * decode_penalty,
        execute_resteers * execute_penalty,
    )

    # BTBStats.record_outcome equivalents over the measured range (the
    # warm crossing's reset_stats already zeroed the live counters).
    btb_stats = btb.stats
    btb_stats.lookups += int(np.count_nonzero(act[m]))
    btb_stats.taken_lookups += int(np.count_nonzero(taken_active[m]))
    btb_stats.hits += int(np.count_nonzero(taken_active[m] & (lt[m] == target[m])))
    misses_m = btb_missed[m]
    btb_stats.misses += int(np.count_nonzero(misses_m))
    btb_stats.wrong_target += int(np.count_nonzero(misses_m & lh[m]))
    kind_counts = np.bincount(
        kinds_col[m][misses_m], minlength=len(_KIND_NAMES)
    )
    misses_by_kind = btb_stats.misses_by_kind
    for kind_value, count in enumerate(kind_counts.tolist()):
        if count:
            name = _KIND_NAMES[kind_value]
            misses_by_kind[name] = misses_by_kind.get(name, 0) + count

    sim._adopt_end_states(finals)
    return stats
