"""Hot-path engine gate: fresh-run engine speedup and bit-exactness.

The fresh-run vector engine exists only if it is (a) fast and (b)
invisible in the results.  This benchmark holds both, machine-independently, by
racing it against the frozen seed engine (:mod:`repro.frontend.seedref`)
in the same process:

* every standard design's :class:`FrontendStats` must be byte-identical
  between the vector engine and the seed engine (``to_dict()``
  equality, nothing fuzzy);
* the vector engine must beat the seed engine by ``MIN_SPEEDUP`` on its
  best standard design and by ``SWEEP_MIN_SPEEDUP`` across the whole
  sweep;
* the bulk TAGE direction replay (``TageLitePredictor.replay``, the
  largest part of prepare) must give the same predictions as the
  per-event ``predict_and_update`` loop it replaced and beat it by
  ``DIRECTION_MIN_SPEEDUP`` (``direction_replay_speedup``);
* the collapsed one-frame ICache replay (``DecodedTrace.icache_misses``,
  the other large part of prepare) must leave the same per-event misses
  and end-state cache (set lists, ``accesses``, ``misses``) as the
  per-event ``touch_range`` loop and beat it by ``ICACHE_MIN_SPEEDUP``
  (``icache_replay_speedup``);
* on two literature designs, Micro BTB (the base class's loop over its
  hashed pair) and Shadow PDede (a pass in two steps: the inner PDede's
  own pass, then one walk over the shadow table), the auto-selected
  engine -- the vector engine -- must match the seed engine byte for
  byte and beat it by ``GENERAL_MIN_SPEEDUP`` across those designs
  (``general_sweep_speedup``): it reads the same prepared direction,
  ICache and RAS columns instead of calling the live structures;
* on the single-table literature designs of ``LITERATURE_DESIGNS``
  (Shotgun, dedup-only, multi-tag sharing, GHRP), a separate record,
  the same holds with ``LITERATURE_MIN_SPEEDUP``
  (``literature_sweep_speedup``);
* on Section 5.6's two ITTAGE designs (``ittage_designs``), a separate
  record, the auto-selected engine -- the vector engine, with ITTAGE's
  own replay (``ITTagePredictor.replay``) -- must match the seed engine,
  which steps ITTAGE per event, byte for byte and beat it by
  ``ITTAGE_MIN_SPEEDUP`` (``ittage_sweep_speedup``);
* the timing model's scanned fetch-queue slack walk
  (``repro.frontend.vector._slack_walk``) must give the same totals as
  the frozen scalar walk it replaced (``seedref.seed_slack_walk``) on
  the gate app's real columns and beat it by ``TIMING_MIN_SPEEDUP``
  (``timing_scan_speedup``);
* building every raced design's BTB (``design.build()``) must beat
  building its seed counterpart by ``CONSTRUCTION_MIN_SPEEDUP`` in sum
  (``construction_speedup``): the races above time ``run()`` only, and
  every job pays one build.

The race attributes the shared one-time work -- trace decode, the
memoised TAGE direction, ICache and RAS replays, and the numpy column
extraction -- to an explicit *prepare* step, timed and reported
separately (``prepare_seconds``).  Every design reuses exactly that
state, so per-design times compare engine loops, not cache warmth.
Each engine's time for a design is its fastest of ``RACE_REPEATS``
alternating runs, in every race.

Speedup ceiling, for the record: the vector engine's BTB pass is one
``observe_fast`` call on each side of the warm crossing, a scalar loop
in one Python frame over the active events, because every lookup may
see the state an earlier update wrote; only the timing model is numpy.
A PDede hit in that loop reconstructs its target once, where the seed
engine reconstructs it in both ``lookup`` and ``update``.  So the
per-design speedup is bounded by how much cheaper one iteration of that
loop is than the seed engine's whole per-event loop, and does not grow
with trace length.

``BENCH_hotpath.json`` checks in the measured trajectory (events/sec
per engine) for trend tracking; the gate itself is the live ratio, so
a slower CI machine cannot produce a false failure.

Run directly (CI perf-budget job) or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --check
    PYTHONPATH=src python benchmarks/bench_hotpath.py --record
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from repro.branch.direction import TageLitePredictor
from repro.branch.types import BranchKind
from repro.experiments.designs import (
    dedup_only_design,
    design_registry,
    ghrp_design,
    multitag_design,
    shotgun_design,
    standard_designs,
)
from repro.experiments.sensitivity import ittage_designs
from repro.frontend import vector
from repro.frontend.icache import ICache
from repro.frontend.params import ICELAKE
from repro.frontend.seedref import (
    SeedFrontendSimulator,
    seed_counterpart,
    seed_slack_walk,
)
from repro.frontend.simulator import FrontendSimulator
from repro.obs.metrics import get_registry
from repro.workloads.decoded import DecodedTrace
from repro.workloads.suite import current_scale, get_trace

#: Required speedup of the vector engine over the seed engine on its
#: best standard design, measured after the shared prepare step.
#: Measured 4.8-5.9x with a per-event ``observe_fast`` call and 9.5-12x
#: since the hook runs the whole pass in one frame, so 6.0 leaves honest
#: CI headroom.
MIN_SPEEDUP = 6.0

#: Required vector-engine speedup across the *whole* standard sweep
#: (all designs, prepare excluded).  Measured 3.7-4.5x with a per-event
#: ``observe_fast`` call and 8.2-9.5x since the one-frame pass.  Since
#: the hooks' tag match and the allocation path raise nothing, 8.3-10.3x
#: at smoke and 9.6x at default (the seed engine shares the faster
#: allocation path, so the ratio shows only the hooks' part), so 6.0
#: keeps a margin of over 20%.
SWEEP_MIN_SPEEDUP = 6.0

#: Required speed-up of the bulk TAGE direction replay over the
#: per-event ``predict_and_update`` loop.  Measured 5-10x on the gate
#: app at smoke and default scale, so 3.0 leaves honest CI headroom.
DIRECTION_MIN_SPEEDUP = 3.0

#: Required speed-up of the collapsed one-frame ICache replay over the
#: per-event ``touch_range`` loop, both from a cold cache.  Measured
#: 2.1-3.5x on the gate app at smoke and default scale, so 1.5 leaves
#: honest CI headroom.
ICACHE_MIN_SPEEDUP = 1.5

#: Alternating loop/replay runs in the ICache race; each side keeps its
#: fastest, so one noisy run cannot sink a tens-of-milliseconds ratio.
ICACHE_REPEATS = 3

#: Required auto-engine speed-up over the seed engine across
#: ``GENERAL_DESIGNS``, measured after the shared prepare step.  Measured
#: 1.7-1.85x at smoke and default scale when these designs ran the
#: general engine on the prepared columns (about 1.0x before that), and
#: about 2.0x once they ran the vector engine's lookup/update pass.
#: Since Shadow PDede runs its inner PDede's pass hook (4.2-4.9x alone,
#: up from 1.87x), the pair measures 2.96-4.15x at smoke and default
#: scale, and 4.46-5.45x at smoke once every BTB implements the hashed
#: pair.  With one replacement-state object per table and the Micro BTB
#: and shadow paths flattened it reads 5.77-5.99x at smoke and
#: 5.00-6.96x at default (builds are not timed here; see
#: ``CONSTRUCTION_MIN_SPEEDUP``), so 4.0 keeps a margin of 20% below the
#: lowest reading.
GENERAL_MIN_SPEEDUP = 4.0

#: Literature designs raced against the seed referee: Micro BTB runs the
#: base class's loop over its hashed pair; Shadow PDede runs the inner
#: PDede's pass, then walks its shadow table.
GENERAL_DESIGNS = ("micro-btb", "shadow-pdede")

#: Required auto-engine speed-up over the seed engine across
#: ``LITERATURE_DESIGNS``, measured after the shared prepare step.
#: Measured 2.42x at default and 2.61x at smoke scale while these
#: classes hashed their own pc in ``lookup`` / ``update`` and were their
#: own referee (the race compared engines only), and 4.90-5.02x once
#: they implement the hashed pair and the referee runs their frozen
#: copies, so 3.5 keeps a margin of about 30% and stays above both
#: earlier readings.
LITERATURE_MIN_SPEEDUP = 3.5

#: The single-table literature designs the report spends its time on
#: (Shotgun, dedup-only, multi-tag sharing, GHRP), raced as a separate
#: record.  Each reports its referee: ``pass-through`` where
#: ``seed_counterpart`` hands back the class under test, so the race
#: compares engines only, otherwise the frozen class it maps onto.
LITERATURE_DESIGNS = ("shotgun-45k", "dedup-only", "multitag", "ghrp-4096")

#: Required auto-engine speed-up over the seed engine across Section
#: 5.6's two designs (``sensitivity.ittage_designs``: ITTAGE owns every
#: indirect branch, and neither BTB allocates one), measured after the
#: shared prepare step.  Their BTBs are frozen in the referee
#: (``SeedPDedeBTB``, ``SeedBaselineBTB``); ITTAGE is not, so the
#: referee steps the live ``ITTagePredictor`` per event.  Measured
#: 1.17x at smoke and 1.19x at default scale while these designs took
#: the live structure pass, and 7.50-8.72x at smoke and 7.49x at default
#: once ITTAGE runs its own replay on the fresh-run engine, so 6.0 keeps
#: a margin of 20% below the lowest reading.  One provider scan per
#: indirect branch (the replay trains from the scan its prediction
#: made) took the race from 7.25-8.20x to 9.11-9.96x at smoke, three
#: gate runs each; the referee's ``update`` shares its scan too.
ITTAGE_MIN_SPEEDUP = 6.0

#: Required speed-up of building the live BTBs of every raced design
#: over building their seed counterparts, summed over the designs, each
#: side the fastest of ``CONSTRUCTION_REPEATS`` builds.  The frozen
#: classes build one replacement-policy object per set (the seed PDede
#: shares the dedup tables' one object per table).  Measured 1.08x
#: while the live classes built per-set policies too, and 6.05-6.80x
#: (construction race alone) or 6.11-6.19x (in the gate, smoke and
#: default scale) since each table keeps one object, so 4.0 keeps a
#: margin of about a third.
CONSTRUCTION_MIN_SPEEDUP = 4.0

#: Alternating live/seed builds per design in the construction race.
CONSTRUCTION_REPEATS = 15

#: Required speed-up of the scanned fetch-queue slack walk over the
#: frozen scalar walk, on the timing columns of one ``TIMING_DESIGN`` run
#: of the gate app.  Measured 4.01-4.73x at smoke (27,674 interesting
#: events; nine races, three of them in gate runs) and 3.97-4.65x at
#: default scale (36,507; four races, one in a recorded gate run), so
#: 3.0 keeps a margin of about a quarter below the lowest reading.  (A scan that ran all ``log2(n)``
#: rounds, not stopping at the longest penalty-free run, read
#: 3.07-3.70x.)
TIMING_MIN_SPEEDUP = 3.0

#: The design whose run supplies the slack walk's columns: PDede's
#: two-cycle pointer hits give it lookup bubbles as well as ICache costs.
TIMING_DESIGN = "pdede-default"

#: Alternating scalar/scanned walks in the timing race; each side keeps
#: its fastest, as the walks take milliseconds.
TIMING_REPEATS = 15

#: Alternating engine/seed runs per design in every design race (the
#: standard, general and literature ones); each side keeps its fastest,
#: so one noisy run cannot sink a ratio toward its budget, and a recorded
#: entry compares with the next.
RACE_REPEATS = 3

#: App the gate races on (hot-set and branch mix representative; any
#: suite member works -- results must match on all of them regardless).
GATE_APP = "server_oltp_00"

#: Engine tiers raced against the seed referee.
TIERS = ("vector",)

#: ``FrontendSimulator``'s default return-address-stack depth.
RAS_DEPTH = 32

_RESULTS_FILE = Path(__file__).with_name("BENCH_hotpath.json")


def _measure(run) -> tuple[float, object]:
    start = time.perf_counter()
    stats = run()
    return time.perf_counter() - start, stats


def _diffs(stats: dict, seed: dict) -> dict:
    """``{field: (value, seed value)}`` for every field that differs."""
    return {name: (value, seed[name]) for name, value in stats.items() if value != seed[name]}


def prepare(trace) -> float:
    """Pay the shared one-time costs; returns the seconds spent.

    Decode, the direction / ICache / RAS replays and the vector columns
    are memoised on the trace and reused by every standard design (all
    run the default core, predictor and RAS), so they are a *prepare*
    cost, not a per-design cost.  (The seed engine never touches them;
    excluding them from its times would only flatter the vector engine.)
    """
    start = time.perf_counter()
    decoded = trace.decoded()
    decoded.direction_outcomes("tage-default")
    decoded.icache_misses(
        ICELAKE.icache_kib, ICELAKE.icache_line_bytes, ICELAKE.icache_ways
    )
    decoded.ras_outcomes(True, RAS_DEPTH)
    decoded.vector_columns()
    return time.perf_counter() - start


def race_direction(trace) -> dict:
    """Race the bulk TAGE replay against the per-event loop it replaced."""
    pcs, kinds, takens = trace.pcs, trace.kinds, trace.takens
    conditional = kinds == int(BranchKind.COND_DIRECT)
    cond_pcs, cond_takens = pcs[conditional], takens[conditional]
    pc_list, taken_list = cond_pcs.tolist(), cond_takens.tolist()
    predict_and_update = TageLitePredictor().predict_and_update
    loop_seconds, expected = _measure(
        lambda: [predict_and_update(pc, taken) for pc, taken in zip(pc_list, taken_list)]
    )
    replay_seconds, predictions = _measure(
        lambda: TageLitePredictor().replay(cond_pcs, cond_takens)
    )
    return {
        "direction_loop_seconds": round(loop_seconds, 4),
        "direction_replay_seconds": round(replay_seconds, 4),
        "direction_replay_speedup": round(loop_seconds / replay_seconds, 2),
        "direction_replay_identical": predictions.tolist() == expected,
    }


def race_icache(trace) -> dict:
    """Race the ICache replay against the per-event ``touch_range`` loop
    it replaced, each from a cold cache of the default geometry."""
    geometry = (ICELAKE.icache_kib, ICELAKE.icache_line_bytes, ICELAKE.icache_ways)
    pcs, gaps = trace.pcs.tolist(), trace.gaps.tolist()

    def loop():
        live = ICache(*geometry)
        touch_range = live.touch_range
        return [touch_range(pc - gap * 4, pc) for pc, gap in zip(pcs, gaps)], live

    def replay():
        # A fresh decode each time, so the memoised replay is not timed.
        return DecodedTrace.from_trace(trace).icache_misses(*geometry)

    loop_seconds = replay_seconds = float("inf")
    for _ in range(ICACHE_REPEATS):
        gc.collect()
        seconds, (expected, live) = _measure(loop)
        loop_seconds = min(loop_seconds, seconds)
        gc.collect()
        seconds, (misses, final) = _measure(replay)
        replay_seconds = min(replay_seconds, seconds)
    identical = (
        misses.tolist() == expected
        and final._lines == live._lines
        and (final.accesses, final.misses) == (live.accesses, live.misses)
    )
    return {
        "icache_loop_seconds": round(loop_seconds, 4),
        "icache_replay_seconds": round(replay_seconds, 4),
        "icache_replay_speedup": round(loop_seconds / replay_seconds, 2),
        "icache_replay_identical": identical,
    }


def race_timing(trace) -> dict:
    """Race the scanned slack walk against the frozen scalar walk on the
    columns one ``TIMING_DESIGN`` run of ``trace`` hands the walk.

    The columns are caught by wrapping ``vector._slack_walk`` for that
    one run; both walks then see the same arrays.
    """
    scanned = vector._slack_walk
    captured = []

    def catch(*columns):
        captured.append(columns)
        return scanned(*columns)

    btb, kwargs = standard_designs()[TIMING_DESIGN].build()
    vector._slack_walk = catch
    try:
        FrontendSimulator(btb, **kwargs).run(trace, warmup_fraction=0.3)
    finally:
        vector._slack_walk = scanned
    (columns,) = captured
    d, has_pen = columns[:2]
    loop_seconds = scan_seconds = float("inf")
    for _ in range(TIMING_REPEATS):
        gc.collect()
        seconds, expected = _measure(lambda: seed_slack_walk(*columns))
        loop_seconds = min(loop_seconds, seconds)
        gc.collect()
        seconds, totals = _measure(lambda: scanned(*columns))
        scan_seconds = min(scan_seconds, seconds)
    return {
        "timing_design": TIMING_DESIGN,
        "timing_interesting_events": int((has_pen | (d < 0)).sum()),
        "timing_loop_seconds": round(loop_seconds, 5),
        "timing_scan_seconds": round(scan_seconds, 5),
        "timing_scan_speedup": round(loop_seconds / scan_seconds, 2),
        "timing_scan_identical": totals == expected,
    }


def _race_designs(trace, designs: dict, label: str) -> tuple[dict, list]:
    """Race the auto-selected engine against the seed referee on
    ``designs`` (key -> design); returns the report fields, prefixed
    ``label``, and any mismatches.

    Call after :func:`prepare`: like the standard designs, a fresh run
    reads the memoised direction, ICache and RAS columns.  Each design
    runs ``RACE_REPEATS`` alternating auto/seed pairs and each side
    keeps its fastest.
    """
    rows: dict[str, dict] = {}
    engines: dict[str, str] = {}
    referees: dict[str, str] = {}
    mismatches = []
    auto_total = seed_total = 0.0
    for key, design in designs.items():
        auto_seconds = seed_seconds = float("inf")
        for _ in range(RACE_REPEATS):
            btb, kwargs = design.build()
            simulator = FrontendSimulator(btb, **kwargs)
            # A full collection left pending by the earlier races would
            # otherwise land inside whichever run crosses the threshold.
            gc.collect()
            seconds, stats = _measure(
                lambda s=simulator: s.run(trace, warmup_fraction=0.3)
            )
            auto_seconds = min(auto_seconds, seconds)
            seed_btb, seed_kwargs = design.build()
            seed = seed_counterpart(seed_btb)
            reference = SeedFrontendSimulator(seed, **seed_kwargs)
            gc.collect()
            seconds, seed_stats = _measure(
                lambda s=reference: s.run(trace, warmup_fraction=0.3)
            )
            seed_seconds = min(seed_seconds, seconds)
        engines[key] = simulator.last_engine
        # "pass-through": the referee runs the class under test itself,
        # so the race compares engines, not BTB code.
        referees[key] = "pass-through" if seed is seed_btb else type(seed).__name__
        diffs = _diffs(stats.to_dict(), seed_stats.to_dict())
        if diffs:
            mismatches.append((key, label, diffs))
        auto_total += auto_seconds
        seed_total += seed_seconds
        rows[key] = {
            "seed_seconds": round(seed_seconds, 4),
            f"{label}_seconds": round(auto_seconds, 4),
            f"{label}_speedup": round(seed_seconds / auto_seconds, 2),
        }
    return {
        f"{label}_designs": list(designs),
        f"{label}_engines": engines,
        f"{label}_referees": referees,
        f"{label}_per_design": rows,
        f"{label}_sweep_speedup": round(seed_total / auto_total, 3),
    }, mismatches


def literature_designs() -> dict:
    """``LITERATURE_DESIGNS`` by key, built as the report builds them."""
    return {
        "shotgun-45k": shotgun_design(key="shotgun-45k"),
        "dedup-only": dedup_only_design(),
        "multitag": multitag_design(),
        "ghrp-4096": ghrp_design(),
    }


def race_construction(designs: dict) -> dict:
    """Race each design's ``build()`` against building its seed
    counterpart from the built BTB (``seed_counterpart``), alternating,
    each side keeping its fastest of ``CONSTRUCTION_REPEATS``; the
    collector is paused while a design's builds are timed."""
    rows: dict[str, dict] = {}
    live_total = seed_total = 0.0
    for key, design in designs.items():
        live_seconds = seed_seconds = float("inf")
        gc.collect()
        gc.disable()
        try:
            for _ in range(CONSTRUCTION_REPEATS):
                seconds, (btb, _) = _measure(design.build)
                live_seconds = min(live_seconds, seconds)
                seconds, _ = _measure(lambda b=btb: seed_counterpart(b))
                seed_seconds = min(seed_seconds, seconds)
        finally:
            gc.enable()
        live_total += live_seconds
        seed_total += seed_seconds
        rows[key] = {
            "seed_build_seconds": round(seed_seconds, 6),
            "build_seconds": round(live_seconds, 6),
            "build_speedup": round(seed_seconds / live_seconds, 2),
        }
    return {
        "construction_per_design": rows,
        "construction_speedup": round(seed_total / live_total, 3),
    }


def race(trace) -> dict:
    """Race the engine tiers against the seed referee on every design.

    Each design runs ``RACE_REPEATS`` alternating rounds of every tier
    and the seed engine, and each engine keeps its fastest, as in
    :func:`_race_designs`.
    """
    designs = standard_designs()
    prepare_seconds = prepare(trace)
    per_design: dict[str, dict] = {}
    engines: dict[str, dict[str, str]] = {tier: {} for tier in TIERS}
    mismatches = []

    for key, design in designs.items():
        best = dict.fromkeys((*TIERS, "seed"), float("inf"))
        stats = {}
        for _ in range(RACE_REPEATS):
            for tier in TIERS:
                btb, kwargs = design.build()
                simulator = FrontendSimulator(btb, **kwargs)
                gc.collect()
                elapsed, stats[tier] = _measure(
                    lambda s=simulator: s.run(trace, warmup_fraction=0.3)
                )
                best[tier] = min(best[tier], elapsed)
                engines[tier][key] = simulator.last_engine
            seed_btb, seed_kwargs = design.build()
            reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
            gc.collect()
            elapsed, seed_stats = _measure(
                lambda s=reference: s.run(trace, warmup_fraction=0.3)
            )
            best["seed"] = min(best["seed"], elapsed)
        seed_dict = seed_stats.to_dict()
        for tier in TIERS:
            if engines[tier][key] != tier:
                # A standard design that fell off the fresh-run engine.
                mismatches.append((key, tier, {"engine": (engines[tier][key], tier)}))
            diffs = _diffs(stats[tier].to_dict(), seed_dict)
            if diffs:
                mismatches.append((key, tier, diffs))
        per_design[key] = best
    tier_seconds = {
        tier: sum(row[tier] for row in per_design.values()) for tier in TIERS
    }
    seed_seconds = sum(row["seed"] for row in per_design.values())

    registry = design_registry()
    general, general_mismatches = _race_designs(
        trace, {key: registry[key] for key in GENERAL_DESIGNS}, "general"
    )
    literature, literature_mismatches = _race_designs(
        trace, literature_designs(), "literature"
    )
    ittage, ittage_mismatches = _race_designs(trace, ittage_designs(), "ittage")
    mismatches.extend(general_mismatches + literature_mismatches + ittage_mismatches)
    construction = race_construction(
        {**designs, **{key: registry[key] for key in GENERAL_DESIGNS}, **literature_designs()}
    )
    events = len(trace)
    design_rows = {
        key: {
            "seed_seconds": round(row["seed"], 4),
            **{
                f"{tier}_seconds": round(row[tier], 4)
                for tier in TIERS
            },
            **{
                f"{tier}_speedup": round(row["seed"] / row[tier], 2)
                for tier in TIERS
                if row[tier]
            },
        }
        for key, row in per_design.items()
    }
    peak_key = max(per_design, key=lambda k: per_design[k]["seed"] / per_design[k]["vector"])
    report = {
        "scale": current_scale(),
        "app": trace.name,
        "designs": sorted(designs),
        "engines": engines,
        "events_simulated": events * len(designs),
        "prepare_seconds": round(prepare_seconds, 4),
        **race_direction(trace),
        **race_icache(trace),
        **race_timing(trace),
        "seed_events_per_sec": round(events * len(designs) / seed_seconds)
        if seed_seconds
        else 0,
        "per_design": design_rows,
        "mismatches": mismatches,
        "peak_design": peak_key,
        "peak_vector_speedup": design_rows[peak_key]["vector_speedup"],
        **general,
        **literature,
        **ittage,
        **construction,
    }
    for tier in TIERS:
        seconds = tier_seconds[tier]
        report[f"{tier}_events_per_sec"] = (
            round(events * len(designs) / seconds) if seconds else 0
        )
        report[f"{tier}_sweep_speedup"] = (
            round(seed_seconds / seconds, 3) if seconds else float("inf")
        )
    # Back-compat alias: the recorded trajectory's original field tracked
    # the best engine's sweep-level speedup.
    report["speedup"] = report["vector_sweep_speedup"]
    return report


def run_gate(record: bool = False) -> dict:
    trace = get_trace(GATE_APP)
    report = race(trace)
    gauge = get_registry().gauge(
        "bench_hotpath_speedup", "vector engine speedup over the seed engine"
    )
    gauge.set(report["vector_sweep_speedup"], scale=report["scale"], tier="vector")

    assert not report["mismatches"], (
        "an engine diverged from the seed engine or a standard design "
        f"left the vector engine: {report['mismatches']}"
    )
    for key, engine in report["general_engines"].items():
        assert engine == "vector", f"{key} ran the {engine} engine, not vector"
    assert report["peak_vector_speedup"] >= MIN_SPEEDUP, (
        f"peak vector speedup {report['peak_vector_speedup']:.2f}x "
        f"({report['peak_design']}) is below the {MIN_SPEEDUP:.1f}x budget"
    )
    assert report["vector_sweep_speedup"] >= SWEEP_MIN_SPEEDUP, (
        f"vector sweep speedup {report['vector_sweep_speedup']:.2f}x is below "
        f"the {SWEEP_MIN_SPEEDUP:.1f}x budget "
        f"({report['vector_events_per_sec']} vs "
        f"{report['seed_events_per_sec']} events/s)"
    )
    assert report["direction_replay_identical"], (
        "TAGE replay predictions diverged from the per-event loop"
    )
    assert report["direction_replay_speedup"] >= DIRECTION_MIN_SPEEDUP, (
        f"TAGE replay speedup {report['direction_replay_speedup']:.2f}x is below "
        f"the {DIRECTION_MIN_SPEEDUP:.1f}x budget"
    )
    assert report["icache_replay_identical"], (
        "ICache replay misses or end state diverged from the touch_range loop"
    )
    assert report["icache_replay_speedup"] >= ICACHE_MIN_SPEEDUP, (
        f"ICache replay speedup {report['icache_replay_speedup']:.2f}x is below "
        f"the {ICACHE_MIN_SPEEDUP:.1f}x budget"
    )
    assert report["timing_scan_identical"], (
        "the scanned slack walk's totals diverged from the scalar walk's"
    )
    assert report["timing_scan_speedup"] >= TIMING_MIN_SPEEDUP, (
        f"slack-walk scan speedup {report['timing_scan_speedup']:.2f}x is below "
        f"the {TIMING_MIN_SPEEDUP:.1f}x budget"
    )
    assert report["general_sweep_speedup"] >= GENERAL_MIN_SPEEDUP, (
        f"general sweep speedup {report['general_sweep_speedup']:.2f}x over "
        f"{', '.join(GENERAL_DESIGNS)} is below the {GENERAL_MIN_SPEEDUP:.1f}x budget "
        f"({report['general_per_design']})"
    )
    for key, engine in report["literature_engines"].items():
        assert engine == "vector", f"{key} ran the {engine} engine, not vector"
    assert report["literature_sweep_speedup"] >= LITERATURE_MIN_SPEEDUP, (
        f"literature sweep speedup {report['literature_sweep_speedup']:.2f}x over "
        f"{', '.join(LITERATURE_DESIGNS)} is below the "
        f"{LITERATURE_MIN_SPEEDUP:.1f}x budget ({report['literature_per_design']})"
    )
    for key, engine in report["ittage_engines"].items():
        assert engine == "vector", f"{key} ran the {engine} engine, not vector"
    assert report["ittage_sweep_speedup"] >= ITTAGE_MIN_SPEEDUP, (
        f"ITTAGE sweep speedup {report['ittage_sweep_speedup']:.2f}x over "
        f"{', '.join(report['ittage_designs'])} is below the "
        f"{ITTAGE_MIN_SPEEDUP:.1f}x budget ({report['ittage_per_design']})"
    )
    assert report["construction_speedup"] >= CONSTRUCTION_MIN_SPEEDUP, (
        f"construction speedup {report['construction_speedup']:.2f}x is below the "
        f"{CONSTRUCTION_MIN_SPEEDUP:.1f}x budget ({report['construction_per_design']})"
    )

    if record:
        history = []
        if _RESULTS_FILE.exists():
            history = json.loads(_RESULTS_FILE.read_text()).get("history", [])
        history.append({k: v for k, v in report.items() if k != "mismatches"})
        _RESULTS_FILE.write_text(
            json.dumps(
                {
                    "min_speedup": MIN_SPEEDUP,
                    "sweep_min_speedup": SWEEP_MIN_SPEEDUP,
                    "direction_min_speedup": DIRECTION_MIN_SPEEDUP,
                    "icache_min_speedup": ICACHE_MIN_SPEEDUP,
                    "timing_min_speedup": TIMING_MIN_SPEEDUP,
                    "general_min_speedup": GENERAL_MIN_SPEEDUP,
                    "literature_min_speedup": LITERATURE_MIN_SPEEDUP,
                    "ittage_min_speedup": ITTAGE_MIN_SPEEDUP,
                    "construction_min_speedup": CONSTRUCTION_MIN_SPEEDUP,
                    "history": history,
                },
                indent=2,
            )
            + "\n"
        )
    return report


def test_hotpath_speedup_and_equivalence(benchmark):
    from conftest import run_once

    report = run_gate(record=False)
    print(
        f"\nhot-path gate: vector {report['vector_sweep_speedup']:.2f}x "
        f"over seed sweep, peak "
        f"{report['peak_vector_speedup']:.2f}x on {report['peak_design']} "
        f"(budgets {SWEEP_MIN_SPEEDUP:.1f}x sweep, {MIN_SPEEDUP:.1f}x peak), "
        f"TAGE replay {report['direction_replay_speedup']:.2f}x "
        f"(budget {DIRECTION_MIN_SPEEDUP:.1f}x), ICache replay "
        f"{report['icache_replay_speedup']:.2f}x "
        f"(budget {ICACHE_MIN_SPEEDUP:.1f}x), slack-walk scan "
        f"{report['timing_scan_speedup']:.2f}x "
        f"(budget {TIMING_MIN_SPEEDUP:.1f}x), general "
        f"{report['general_sweep_speedup']:.2f}x "
        f"(budget {GENERAL_MIN_SPEEDUP:.1f}x), literature "
        f"{report['literature_sweep_speedup']:.2f}x "
        f"(budget {LITERATURE_MIN_SPEEDUP:.1f}x), ITTAGE "
        f"{report['ittage_sweep_speedup']:.2f}x "
        f"(budget {ITTAGE_MIN_SPEEDUP:.1f}x), construction "
        f"{report['construction_speedup']:.2f}x "
        f"(budget {CONSTRUCTION_MIN_SPEEDUP:.1f}x) at scale={report['scale']}"
    )
    trace = get_trace(GATE_APP)
    design = standard_designs()["pdede-default"]

    def simulate():
        btb, kwargs = design.build()
        return FrontendSimulator(btb, **kwargs).run(trace, warmup_fraction=0.3)

    run_once(benchmark, simulate)


def main(argv: list[str]) -> int:
    record = "--record" in argv
    report = run_gate(record=record)
    print(json.dumps({k: v for k, v in report.items() if k != "mismatches"}, indent=2))
    print(
        f"hot-path gate PASSED: vector sweep "
        f"{report['vector_sweep_speedup']:.2f}x >= {SWEEP_MIN_SPEEDUP:.1f}x, "
        f"peak {report['peak_vector_speedup']:.2f}x >= {MIN_SPEEDUP:.1f}x, "
        f"TAGE replay {report['direction_replay_speedup']:.2f}x >= "
        f"{DIRECTION_MIN_SPEEDUP:.1f}x, "
        f"ICache replay {report['icache_replay_speedup']:.2f}x >= "
        f"{ICACHE_MIN_SPEEDUP:.1f}x, "
        f"slack-walk scan {report['timing_scan_speedup']:.2f}x >= "
        f"{TIMING_MIN_SPEEDUP:.1f}x, "
        f"general {report['general_sweep_speedup']:.2f}x >= "
        f"{GENERAL_MIN_SPEEDUP:.1f}x, "
        f"literature {report['literature_sweep_speedup']:.2f}x >= "
        f"{LITERATURE_MIN_SPEEDUP:.1f}x, "
        f"ITTAGE {report['ittage_sweep_speedup']:.2f}x >= "
        f"{ITTAGE_MIN_SPEEDUP:.1f}x, "
        f"construction {report['construction_speedup']:.2f}x >= "
        f"{CONSTRUCTION_MIN_SPEEDUP:.1f}x, "
        "stats bit-identical across engines, replays and the slack walk "
        "identical to their loops"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
