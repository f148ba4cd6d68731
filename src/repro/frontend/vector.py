"""Columnar frontend engine: chunked vector lookups + resteer-segment replay.

:class:`repro.frontend.simulator.FrontendSimulator` picks this engine
whenever the configuration allows it; the per-event ``general`` engine
is the fallback and the reference.  The two are bit-identical by
construction and by the equivalence suite.  Two phases:

**Phase 1 -- BTB pass.**  The trace is consumed in adaptively-sized
chunks.  Each chunk gets one struct-of-arrays BTB lookup over the
design's mirrors (:mod:`repro.btb.vectorops`), yielding per-event
``(target, hit, latency)`` columns plus a conservative *boundary* mask
marking events whose update would mutate lookup-visible state.  The
clean prefix before each boundary is committed in bulk (update counters,
replacement touches, confidence saturation -- exact replication of the
scalar side effects); the boundary itself is replayed through the real
``observe_fast``.  If the replay journalled a lookup-visible write, the
mirrors are patched and the chunk restarts after the boundary; otherwise
(a confidence drain, a non-allocating miss) the scan continues inside
the same chunk.  Chunks grow after clean blocks and shrink toward the
observed resteer density after mutations.

**Phase 2 -- timing.**  Branch-resolution outcomes (direction, RAS, BTB
miss, penalty kind, lookup bubbles) are pure element-wise functions of
the phase-1 columns and the decoded trace's replayed columns, so the
whole timing model vectorises: the ICache refill window is a shifted
running maximum over penalty positions, and the fetch-queue slack walk
-- the only sequential recurrence -- collapses to a scalar loop over
*interesting* events (penalties and supply-over-demand blocks) with
prefix-summed slack gains in between, because slack clipping commutes
with non-negative accumulation.  All accounting is integer ticks, summed
over the measured range, exactly as the scalar engines do.

The RAS is replayed once per ``(returns_use_ras, depth)`` by the decoded
trace (like ICache and direction), which is why the vector tier requires
a pristine stack; every run adopts the replayed final state.
"""

from __future__ import annotations

import numpy as np

from repro.branch.types import BranchKind
from repro.btb.vectorops import NO_TARGET, make_vector_ops
from repro.frontend.params import exact_ticks
from repro.frontend.stats import FrontendStats

#: Adaptive chunk bounds (module-level so tests can shrink them to force
#: boundary events onto chunk edges).
CHUNK_MIN = 256
CHUNK_START = 2048
CHUNK_MAX = 16384

_KIND_NAMES = [BranchKind(value).name for value in range(len(BranchKind))]


def run_vector(sim, trace, warmup_fraction):
    """Run one simulation on the vector engine; returns FrontendStats.

    ``sim`` is the :class:`FrontendSimulator` (the caller has already
    checked ``_columns_applicable`` and ``vector_supported``);
    semantics mirror the general engine exactly, including the
    warm-crossing stats reset.  The simulator also adopts the replayed
    end-of-trace structure state.
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

    ops = make_vector_ops(btb, trace, sim.returns_use_ras)
    act = ops.active

    # ---- phase 1: BTB pass --------------------------------------------
    lt = np.full(n_events, NO_TARGET, dtype=np.int64)
    lh = np.zeros(n_events, dtype=np.bool_)
    lat = np.ones(n_events, dtype=np.int64)

    observe = btb.observe_fast
    pcs_list = trace.pcs
    targets_list = trace.targets
    takens_list = trace.takens
    hashes_list = decoded.hashes
    same_page_list = decoded.same_page
    is_indirect_list = decoded.is_indirect

    reset_pending = 0 < warm_limit < n_events
    chunk = CHUNK_START
    i = 0
    ops.begin()
    try:
        while i < n_events:
            if reset_pending and i == warm_limit:
                btb.reset_stats()
                reset_pending = False
            hi = i + chunk
            if hi > n_events:
                hi = n_events
            if reset_pending and hi > warm_limit:
                # Force a block break on the warm crossing so the stats
                # reset lands between events, as in the scalar engines.
                hi = warm_limit
            blk = ops.lookup_block(i, hi)
            # Optimistically copy the whole block's lookup columns once;
            # replayed boundaries overwrite single positions and a
            # truncated tail is rewritten by the next block.
            lt[i:hi] = blk.lt
            lh[i:hi] = blk.lh
            lat[i:hi] = blk.lat
            pos = i
            # ``valid_hi``: how far this block's precomputed lookups are
            # still valid.  A replayed boundary that journals a write
            # truncates it to the first later event that reads the
            # written state (usually none -- the scan keeps going).
            valid_hi = hi
            for b in blk.bounds:
                if b >= valid_hi:
                    break
                if b > pos:
                    ops.commit(blk, pos, b)
                replay_lt, replay_lh, replay_lat = observe(
                    pcs_list[b],
                    targets_list[b],
                    takens_list[b],
                    is_indirect_list[b],
                    hashes_list[b],
                    same_page_list[b],
                )
                lt[b] = NO_TARGET if replay_lt is None else replay_lt
                lh[b] = replay_lh
                lat[b] = replay_lat
                pos = b + 1
                if ops.absorb():
                    affected = ops.first_affected(blk, pos, valid_hi)
                    if affected < valid_hi:
                        valid_hi = affected
            if pos < valid_hi:
                ops.commit(blk, pos, valid_hi)
                pos = valid_hi
            if valid_hi < hi:
                # Truncated by a mutation: retry with twice the distance
                # just consumed so chunk size tracks mutation density.
                chunk = (pos - i) * 2
                if chunk < CHUNK_MIN:
                    chunk = CHUNK_MIN
                elif chunk > CHUNK_MAX:
                    chunk = CHUNK_MAX
            elif chunk < CHUNK_MAX:
                chunk = min(chunk * 2, CHUNK_MAX)
            i = pos
    finally:
        ops.end()

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
