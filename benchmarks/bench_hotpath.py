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
* on the literature designs without a combined ``observe_fast`` hook
  (Micro BTB, Shadow PDede), the auto-selected engine -- the vector
  engine, whose BTB pass calls their ``lookup`` and ``update`` -- must
  match the seed engine byte for byte and beat it by
  ``GENERAL_MIN_SPEEDUP`` across those designs
  (``general_sweep_speedup``): it reads the same prepared direction,
  ICache and RAS columns instead of calling the live structures.

The race attributes the shared one-time work -- trace decode, the
memoised TAGE direction, ICache and RAS replays, and the numpy column
extraction -- to an explicit *prepare* step, timed and reported
separately (``prepare_seconds``).  Every design reuses exactly that
state, so per-design times compare engine loops, not cache warmth.

Speedup ceiling, for the record: the vector engine's BTB pass makes one
scalar ``observe_fast`` call per active event, because every lookup may
see the state an earlier update wrote; only the timing model is numpy.
So the per-design speedup is bounded by how much cheaper that one call
is than the seed engine's whole per-event loop, and does not grow with
trace length.

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
from repro.experiments.designs import design_registry, standard_designs
from repro.frontend.params import ICELAKE
from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
from repro.frontend.simulator import FrontendSimulator
from repro.obs.metrics import get_registry
from repro.workloads.suite import current_scale, get_trace

#: Required speedup of the vector engine over the seed engine on its
#: best standard design, measured after the shared prepare step.
#: Raised from the original 2.0 end-to-end budget; measured peaks are
#: 5-7x across suite apps, so 4.0 leaves honest CI headroom.
MIN_SPEEDUP = 4.0

#: Required vector-engine speedup across the *whole* standard sweep
#: (all designs, prepare excluded).  Measured ~4x at smoke scale.
SWEEP_MIN_SPEEDUP = 3.0

#: Required speed-up of the bulk TAGE direction replay over the
#: per-event ``predict_and_update`` loop.  Measured 5-10x on the gate
#: app at smoke and default scale, so 3.0 leaves honest CI headroom.
DIRECTION_MIN_SPEEDUP = 3.0

#: Required auto-engine speed-up over the seed engine across
#: ``GENERAL_DESIGNS``, measured after the shared prepare step.  Measured
#: 1.7-1.85x at smoke and default scale when these designs ran the
#: general engine on the prepared columns (about 1.0x before that), and
#: about 2.0x since they run the vector engine's lookup/update pass, so
#: 1.4 leaves honest CI headroom.
GENERAL_MIN_SPEEDUP = 1.4

#: Literature designs without a combined ``observe_fast`` hook: the
#: vector engine's BTB pass calls their ``lookup`` and ``update``.
GENERAL_DESIGNS = ("micro-btb", "shadow-pdede")

#: Alternating auto/seed runs per design in the general race; each side
#: keeps its fastest, so one noisy run cannot sink a ~2x ratio toward the
#: 1.4x budget.
GENERAL_REPEATS = 3

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
    pcs, kinds, takens = trace.columns()[:3]
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


def race_general(trace) -> tuple[dict, list]:
    """Race the auto-selected engine against the seed referee on
    ``GENERAL_DESIGNS``; returns the report fields and any mismatches.

    Call after :func:`prepare`: like the standard designs, a fresh run
    reads the memoised direction, ICache and RAS columns.
    """
    registry = design_registry()
    rows: dict[str, dict] = {}
    engines: dict[str, str] = {}
    mismatches = []
    general_total = seed_total = 0.0
    for key in GENERAL_DESIGNS:
        design = registry[key]
        general_seconds = seed_seconds = float("inf")
        for _ in range(GENERAL_REPEATS):
            btb, kwargs = design.build()
            simulator = FrontendSimulator(btb, **kwargs)
            # A full collection left pending by the earlier races would
            # otherwise land inside whichever run crosses the threshold.
            gc.collect()
            seconds, stats = _measure(
                lambda s=simulator: s.run(trace, warmup_fraction=0.3)
            )
            general_seconds = min(general_seconds, seconds)
            seed_btb, seed_kwargs = design.build()
            reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
            gc.collect()
            seconds, seed_stats = _measure(
                lambda s=reference: s.run(trace, warmup_fraction=0.3)
            )
            seed_seconds = min(seed_seconds, seconds)
        engines[key] = simulator.last_engine
        diffs = _diffs(stats.to_dict(), seed_stats.to_dict())
        if diffs:
            mismatches.append((key, "general", diffs))
        general_total += general_seconds
        seed_total += seed_seconds
        rows[key] = {
            "seed_seconds": round(seed_seconds, 4),
            "general_seconds": round(general_seconds, 4),
            "general_speedup": round(seed_seconds / general_seconds, 2),
        }
    return {
        "general_designs": list(GENERAL_DESIGNS),
        "general_engines": engines,
        "general_per_design": rows,
        "general_sweep_speedup": round(seed_total / general_total, 3),
    }, mismatches


def race(trace) -> dict:
    """Race the engine tiers against the seed referee on every design."""
    designs = standard_designs()
    prepare_seconds = prepare(trace)
    per_design: dict[str, dict] = {key: {} for key in designs}
    tier_seconds = dict.fromkeys(TIERS, 0.0)
    engines: dict[str, dict[str, str]] = {tier: {} for tier in TIERS}
    mismatches = []

    for tier in TIERS:
        for key, design in designs.items():
            btb, kwargs = design.build()
            simulator = FrontendSimulator(btb, engine=tier, **kwargs)
            elapsed, stats = _measure(
                lambda s=simulator: s.run(trace, warmup_fraction=0.3)
            )
            tier_seconds[tier] += elapsed
            per_design[key][tier] = elapsed
            engines[tier][key] = simulator.last_engine
            per_design[key].setdefault("stats", {})[tier] = stats.to_dict()

    seed_seconds = 0.0
    for key, design in designs.items():
        seed_btb, seed_kwargs = design.build()
        reference = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
        elapsed, seed_stats = _measure(
            lambda s=reference: s.run(trace, warmup_fraction=0.3)
        )
        seed_seconds += elapsed
        per_design[key]["seed"] = elapsed
        seed_dict = seed_stats.to_dict()
        for tier in TIERS:
            diffs = _diffs(per_design[key]["stats"][tier], seed_dict)
            if diffs:
                mismatches.append((key, tier, diffs))
        del per_design[key]["stats"]

    general, general_mismatches = race_general(trace)
    mismatches.extend(general_mismatches)
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
        "seed_events_per_sec": round(events * len(designs) / seed_seconds)
        if seed_seconds
        else 0,
        "per_design": design_rows,
        "mismatches": mismatches,
        "peak_design": peak_key,
        "peak_vector_speedup": design_rows[peak_key]["vector_speedup"],
        **general,
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
        "an engine diverged from the seed engine: "
        f"{report['mismatches']}"
    )
    for tier in TIERS:
        for key, engine in report["engines"][tier].items():
            assert engine == tier, (
                f"{key} requested the {tier} engine but ran {engine}"
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
    assert report["general_sweep_speedup"] >= GENERAL_MIN_SPEEDUP, (
        f"general sweep speedup {report['general_sweep_speedup']:.2f}x over "
        f"{', '.join(GENERAL_DESIGNS)} is below the {GENERAL_MIN_SPEEDUP:.1f}x budget "
        f"({report['general_per_design']})"
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
                    "general_min_speedup": GENERAL_MIN_SPEEDUP,
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
        f"(budget {DIRECTION_MIN_SPEEDUP:.1f}x), general "
        f"{report['general_sweep_speedup']:.2f}x "
        f"(budget {GENERAL_MIN_SPEEDUP:.1f}x) at scale={report['scale']}"
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
        f"general {report['general_sweep_speedup']:.2f}x >= "
        f"{GENERAL_MIN_SPEEDUP:.1f}x, "
        "stats bit-identical across engines, replay identical to the loop"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
