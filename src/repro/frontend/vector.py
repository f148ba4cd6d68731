"""The frontend timing model, and the fresh-run engine that feeds it.

There is one timing model and two sources of the per-event outcome
columns it reads (ICache misses, direction and RAS correctness, each BTB
lookup's ``(target, hit, latency)``).
:class:`repro.frontend.simulator.FrontendSimulator` picks the fresh-run
``vector`` engine for every BTB design whenever the decoded trace's
cold-state replays stand in for the simulator's direction predictor,
ICache and RAS (``_columns_applicable``): those replays plus the phase-1
BTB pass below.  Otherwise its ``general`` engine runs a live structure
pass (``FrontendSimulator._run_general``) that asks every structure
itself and hands the same columns to :func:`run_vector`, which then
skips phase 1.  Both are bit-identical to the seed referee.  An attached
ITTAGE, which depends on the trace alone, adds one column on either
engine: its replay's target mispredicts
(:meth:`repro.btb.ittage.ITTagePredictor.replay`, on the simulator's own
predictor, unmemoised).

**Phase 1 -- BTB pass.**  One scalar loop over the *active* events (all
of them, or every non-return when returns are served by the RAS) makes
the BTB calls a live run makes, in trace order, over lists masked for the
run from the trace's and the decoded numpy columns, and appends each
lookup's ``(target, hit, latency)`` to three typed ``array`` buffers
(:func:`~repro.btb.base.lookup_buffers`, which the live structure pass
fills too); phase 2 reads them with ``np.frombuffer``.  The loop is
called twice, once on each side of the warm crossing, with the stats
reset in between, so the reset lands between the last warm-up event and
the first measured one.  The loop is always the BTB's own
``observe_fast(columns, start, stop, results)``: every class implements
the hashed ``lookup_fast`` / ``update_fast`` pair on the decoded
``hashes`` column (:class:`~repro.btb.base.BranchTargetPredictor`), and
the base class's ``observe_fast`` runs the pair per event, so no
per-event object is built and no event's pc is hashed again.  ``BaselineBTB``
and ``PDedeBTB`` inline their own pass: one Python frame with the
structure's lists bound to locals, one tag match shared by lookup and
update, and -- for PDede -- one target reconstruction per hit, because
the update retrains the very entry the lookup just read.  ``ShadowBTB``,
which never writes its inner BTB, runs the inner's pass and then one
walk over its shadow table.  The two-level hierarchy, the literature and
ablation families and ``GhrpBTB`` (which rebinds the base loop over
Baseline's) run the base class's loop.

**Phase 2 -- timing.**  Branch-resolution outcomes (direction, RAS, BTB
miss, penalty kind, lookup bubbles) are pure element-wise functions of
the outcome columns, so the whole timing model vectorises: the ICache
refill window is a shifted running maximum over penalty positions, and
the fetch-queue slack walk -- the only sequential recurrence -- only
visits *interesting* events (penalties and supply-over-demand blocks),
with prefix-summed slack gains in between, because slack clipping
commutes with non-negative accumulation.  Each interesting event's
slack update is a clamp ``s -> min(max(s + a, lo), hi)``, and clamps
compose into clamps, so one associative scan in numpy
(:func:`_slack_walk`) gives the slack before every event, with no Python
loop.  All accounting is integer ticks, summed over the measured range.

The RAS is replayed once per ``(returns_use_ras, depth)`` by the decoded
trace (like ICache and direction), which is why the fresh-run engine
requires a pristine stack; every fresh run adopts the replayed final
state.
"""

from __future__ import annotations

import numpy as np

from repro.branch.types import BranchKind
from repro.btb.base import NO_TARGET, lookup_buffers
from repro.frontend.params import exact_ticks
from repro.frontend.stats import FrontendStats

_KIND_NAMES = [kind.name for kind in BranchKind]

#: Blocks after a resteer during which ICache misses are demand misses
#: (the prefetcher has not caught up yet).
_REFILL_WINDOW = 4

#: Residual cost of an ICache miss that FDIP prefetching overlapped.
_OVERLAPPED_MISS_CYCLES = 1.5


def _btb_pass(btb, trace, decoded, act):
    """``(btb.observe_fast, columns)`` over the BTB-active events (the
    bool mask ``act``): ``observe_fast(columns, start, stop, results)``
    makes the BTB calls of active events ``start:stop``.

    The columns are the active events' ``(pcs, targets, takens,
    is_indirect, hashes, same_page, is_direct, kinds)``: lists, except
    ``is_direct`` and ``kinds``, numpy arrays that only some passes read
    (the shadow-branch wrapper's and the base class's loop), so only those
    pay for a list of one.  They are masked for this run from the trace's
    and the decoded numpy columns, and dropped with it.
    """
    vector = decoded.vector_columns()
    columns = (
        *(column[act].tolist() for column in (trace.pcs, trace.targets, trace.takens)),
        *(vector[name][act].tolist() for name in ("is_indirect", "hashes", "same_page")),
        *(vector[name][act] for name in ("is_direct", "kinds")),
    )
    return btb.observe_fast, columns


def _slack_walk(d, has_pen, icache_cost, bubble_ticks, slack_max, warm_limit):
    """The fetch-queue slack walk; returns ``(overrun, icache stall,
    BTB bubble)`` ticks summed over events ``warm_limit:``.

    ``d`` is each event's demand minus supply (ICache cost and lookup
    bubble included), ``has_pen`` its resteer flag, and ``icache_cost``
    and ``bubble_ticks`` the parts of its supply an overrun is charged to
    first and second; all int64 ticks.  Slack starts at 0.  An event
    adds ``d`` to the slack, clamped to ``[0, slack_max]``; when the sum
    falls below 0 the shortfall is an overrun, and a penalty drains the
    slack to 0.

    Only *interesting* events -- penalties and ``d < 0`` -- can lose
    slack; between two of them every ``d`` is a non-negative gain, and
    clipped accumulation of non-negative gains equals clipping their sum
    once.  So interesting event *k* maps the slack ``s`` left by event
    *k-1* to ``P_k(clamp(min(s + g_k, M) + d_k, 0, M))``, where ``g_k``
    is the gain since event *k-1*, ``M`` is ``slack_max`` and ``P_k``
    drains after a penalty.  That equals ``clamp(s + g_k + d_k, 0,
    clamp(M + d_k, 0, M))``, or the constant 0 for a penalty, and
    functions ``s -> min(max(s + a, lo), hi)`` compose into the same
    form: ``f2(f1(s))`` has ``a = a1 + a2``, ``lo = clamp(lo1 + a2, lo2,
    hi2)`` and ``hi = clamp(hi1 + a2, lo2, hi2)``.  An inclusive
    Hillis-Steele scan of that composition gives the slack after every
    interesting event in numpy rounds, ``log2`` of the longest run of
    events without a penalty (at most ``log2(n)``); the overruns and
    their split are then element-wise.  Exact integer arithmetic
    throughout, equal to the per-event walk
    (:func:`repro.frontend.seedref.seed_slack_walk`).
    """
    interesting = np.flatnonzero(has_pen | (d < 0))
    n = len(interesting)
    if not n:
        return 0, 0, 0
    d_at = d[interesting]
    pen_at = has_pen[interesting]
    # a_k = g_k + d_k: the prefix sum through event k minus the one
    # through event k-1.
    a = np.diff(np.cumsum(d)[interesting], prepend=0)
    gain = a - d_at
    lo = np.zeros(n, dtype=np.int64)
    hi = np.clip(d_at + slack_max, 0, slack_max)
    a[pen_at] = 0
    hi[pen_at] = 0
    # A penalty's function is the constant 0, and so is every composition
    # that ends in one, whatever came before it: the scan is done once
    # each prefix reaches back to a penalty or to the first event.
    penalties = np.flatnonzero(pen_at)
    span = int(np.diff(penalties, prepend=-1, append=n).max())
    # Round r composes each function with the one 2**r places earlier,
    # in place; both new bounds read the old ``lo`` and ``hi``, so they
    # go to scratch first.
    lo_new, hi_new = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    shift = 1
    while shift < span:
        a_next, lo_next, hi_next = a[shift:], lo[shift:], hi[shift:]
        for bound, out in ((lo, lo_new[shift:]), (hi, hi_new[shift:])):
            np.add(bound[:-shift], a_next, out=out)
            np.maximum(out, lo_next, out=out)
            np.minimum(out, hi_next, out=out)
        a_next += a[:-shift]
        lo_next[...] = lo_new[shift:]
        hi_next[...] = hi_new[shift:]
        shift *= 2
    # The slack each event starts from: the scan's value after event k-1.
    before = np.empty(n, dtype=np.int64)
    before[0] = 0
    np.minimum(np.maximum(a[:-1], lo[:-1]), hi[:-1], out=before[1:])
    measured = slice(int(np.searchsorted(interesting, warm_limit)), n)
    x = np.minimum(before[measured] + gain[measured], slack_max) + d_at[measured]
    short = x < 0
    overrun = -x[short]
    overrun_at = interesting[measured][short]
    icache_part = np.minimum(icache_cost[overrun_at], overrun)
    bubble_part = np.minimum(bubble_ticks[overrun_at], overrun - icache_part)
    return int(overrun.sum()), int(icache_part.sum()), int(bubble_part.sum())


def run_vector(sim, trace, warmup_fraction, live=None):
    """Run one simulation through the timing model; returns FrontendStats.

    ``sim`` is the :class:`FrontendSimulator`.  Without ``live`` this is
    the fresh-run engine (the caller has already checked
    ``_columns_applicable``): the replayed columns, the phase-1 BTB pass
    with its warm-crossing stats reset, and adoption of the replayed
    end-of-trace structure state.  ``live`` is the live structure pass's
    ``(icache misses, direction ok, ras ok, (lookup targets, hits,
    latencies))``, the last three in :func:`~repro.btb.base.lookup_buffers`;
    it replaces both the replays and phase 1, and the simulator keeps
    its own structures.  Either way an attached ITTAGE
    replays the trace here.
    """
    params = sim.params
    btb = sim.btb
    decoded = trace.decoded()
    n_events = decoded.n_events
    warm_limit = int(n_events * warmup_fraction)
    tick = params.cycle_tick
    supply_col, demand_col = decoded.supply_demand_arrays(
        tick // params.fetch_width, tick // params.commit_width
    )

    cols = decoded.vector_columns()
    taken = cols["taken"]
    target = cols["targets"]
    kinds_col = cols["kinds"]
    is_indirect_col = cols["is_indirect"]
    is_return_col = cols["is_return"]
    instructions_col = cols["instructions"]

    # The BTB-active events: every non-return when returns are served by
    # the RAS, and no indirect branch when ITTAGE owns them.
    if sim.returns_use_ras:
        act = ~is_return_col
    else:
        act = np.ones(n_events, dtype=np.bool_)
    if sim.ittage is not None:
        act &= ~is_indirect_col

    if live is None:
        (icache_col, dir_ok, ras_ok), finals = sim._replayed_columns(trace)
        # ---- phase 1: BTB pass ----------------------------------------
        observe, columns = _btb_pass(btb, trace, decoded, act)
        results = lookup_buffers()
        # One call on each side of the warm crossing: its stats reset
        # lands between the last warm-up BTB call and the first measured
        # one, wherever the crossing event is.
        n_warm = int(np.count_nonzero(act[:warm_limit]))
        observe(columns, 0, n_warm, results)
        if 0 < warm_limit < n_events:
            btb.reset_stats()
        observe(columns, n_warm, len(columns[0]), results)
    else:
        icache_col, dir_ok, ras_ok, results = live

    lt = np.full(n_events, NO_TARGET, dtype=np.int64)
    lh = np.zeros(n_events, dtype=np.bool_)
    lat = np.ones(n_events, dtype=np.int64)
    targets_buf, hits_buf, latencies_buf = results
    lt[act] = np.frombuffer(targets_buf, dtype=np.int64)
    lh[act] = np.frombuffer(hits_buf, dtype=np.bool_)
    lat[act] = np.frombuffer(latencies_buf, dtype=np.int64)

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
    if sim.ittage is not None:
        ittage_mis = sim.ittage.replay(trace.pcs, taken, is_indirect_col, target)
        exec_pen |= ittage_mis
        ind_mis |= ittage_mis
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

    d_arr = demand_col - supply_col - icache_cost - bubble_ticks
    overrun_total, icache_stall_ticks, btb_bubble_ticks = _slack_walk(
        d_arr, has_pen, icache_cost, bubble_ticks, slack_max, warm_limit
    )

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

    if live is None:
        sim._adopt_end_states(finals)
    return stats
