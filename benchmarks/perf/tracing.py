"""Span recording for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`install` replaces
public functions and methods of :mod:`repro` with wrappers that time
each call.  Nothing under ``src/`` knows about it.  Each wrapped call is
a span with a name, a start, an end and a parent (the innermost wrapped
call still open on the same thread; id 0 is the root).  Spans that run
under a serve request also carry the request ids the service bound
with ``bind_rids``.  A span's *self time* is its duration minus the
time its child spans cover.

Per-event calls (BTB lookups, ICache touches, boundary replays) happen
hundreds of thousands of times per run, so every span is folded into a
per-name roll-up of ``[calls, total seconds, child seconds]`` as it ends.
Only the coarse spans -- at most a few per job -- are also kept as
individual records.  :meth:`Recorder.dump` writes both as JSONL: one
line per kept span, then one ``rollup`` line per name, then one
``count`` line per counter.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable

#: Span names kept as individual records, with the simulator runs (the
#: rest are roll-up only).
COARSE = frozenset({
    "experiments.harness.run_design",
    "experiments.harness.lookup_cached",
    "experiments.diskcache.store_result",
    "workloads.trace_load",
    "workloads.decode",
    "workloads.direction_replay",
    "workloads.icache_replay",
    "workloads.ras_replay",
})


class _ThreadState:
    __slots__ = ("stack", "rollup", "design")

    def __init__(self) -> None:
        # Open spans, innermost last: [child seconds, span id].
        self.stack: list[list] = []
        self.rollup: dict[str, list] = {}
        self.design = ""


class Recorder:
    """Thread-safe in-memory span recorder (one per process)."""

    def __init__(self, rids: Callable[[], tuple[str, ...]] = tuple) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._rids = rids
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable, name_of: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``name_of(first_arg)``, when given, names the span after the call
        returns (the simulator's engine is only known then).
        """
        perf = time.perf_counter
        state_of = self._state
        keep = name in COARSE or name_of is not None

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0.0, next(self._ids) if keep else 0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                span_name = name_of(args[0]) if name_of is not None else name
                entry = state.rollup.get(span_name)
                if entry is None:
                    entry = state.rollup[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += frame[0]
                if keep:
                    record = {
                        "name": span_name, "id": frame[1],
                        "parent": parent[1] if parent is not None else 0,
                        "start": start, "end": end,
                    }
                    rids = self._rids()
                    if rids:
                        record["rids"] = list(rids)
                    with self._lock:
                        self.spans.append(record)

        return wrapper

    def reset(self) -> None:
        """Forget everything recorded so far (call only while idle)."""
        with self._lock:
            for state in self._states:
                state.rollup.clear()
            self.spans.clear()
            self.counts.clear()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def rollup(self) -> dict[str, list]:
        """``name -> [calls, total seconds, self seconds]`` over all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, child) in list(state.rollup.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += total - child
        return merged

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            for name, (calls, total, self_s) in sorted(self.rollup().items()):
                handle.write(json.dumps({
                    "rollup": name, "calls": calls,
                    "total_s": total, "self_s": self_s,
                }) + "\n")
            for name, value in sorted(self.counts.items()):
                handle.write(json.dumps({"count": name, "value": value}) + "\n")


def read_dump(path: str) -> tuple[dict[str, list], dict[str, int]]:
    """The roll-up (``name -> [calls, total_s, self_s]``) and counts of a dump."""
    rollup: dict[str, list] = {}
    counts: dict[str, int] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "rollup" in record:
                rollup[record["rollup"]] = [
                    record["calls"], record["total_s"], record["self_s"],
                ]
            elif "count" in record:
                counts[record["count"]] = record["value"]
    return rollup, counts


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of :mod:`repro` (see README layer table)."""
    from repro.btb import vectorops
    from repro.experiments import diskcache, harness
    from repro.frontend.simulator import FrontendSimulator
    from repro.serve import protocol, service
    from repro.workloads.decoded import DecodedTrace

    wrap = recorder.wrap
    state_of = recorder._state

    diskcache.load_trace = wrap("workloads.trace_load", diskcache.load_trace)
    diskcache.store_result = wrap(
        "experiments.diskcache.store_result", diskcache.store_result
    )
    DecodedTrace.from_trace = classmethod(
        wrap("workloads.decode", DecodedTrace.from_trace.__func__)
    )
    for method, name in (
        ("direction_outcomes", "workloads.direction_replay"),
        ("icache_misses", "workloads.icache_replay"),
        ("ras_outcomes", "workloads.ras_replay"),
    ):
        setattr(DecodedTrace, method, wrap(name, getattr(DecodedTrace, method)))
    for ops in (vectorops.BaselineOps, vectorops.PDedeOps, vectorops.TwoLevelOps):
        ops.lookup_block = wrap("btb.vectorops.lookup_block", ops.lookup_block)
        ops.commit = wrap("btb.vectorops.commit", ops.commit)

    lookup_cached = wrap("experiments.harness.lookup_cached", harness.lookup_cached)
    harness.lookup_cached = lookup_cached
    timed_run_design = wrap("experiments.harness.run_design", harness.run_design)

    def run_design(trace_name, design, *args, **kwargs):
        state = state_of()
        outer, state.design = state.design, design.key
        try:
            return timed_run_design(trace_name, design, *args, **kwargs)
        finally:
            state.design = outer

    harness.run_design = run_design

    serialise = wrap("frontend.stats.serialise", protocol.stats_payload)
    protocol.stats_payload = serialise
    service.stats_payload = serialise

    timed_run = wrap(
        "frontend.run", FrontendSimulator.run,
        name_of=lambda sim: f"frontend.{sim.last_engine}",
    )

    def run(sim, *args, **kwargs):
        # The simulator's own structures are what the general engine
        # calls per event; the vector engine calls only the BTB's
        # ``observe_fast``, once per resteer boundary it replays.
        btb = sim.btb
        if hasattr(btb, "observe_fast"):
            btb.observe_fast = wrap("btb.boundary_replay", btb.observe_fast)
        btb.lookup = wrap("btb.lookup", btb.lookup)
        btb.update = wrap("btb.update", btb.update)
        sim.direction.predict = wrap("branch.direction", sim.direction.predict)
        sim.direction.update = wrap("branch.direction", sim.direction.update)
        sim.icache.touch_range = wrap("frontend.icache", sim.icache.touch_range)
        state = state_of()
        before = state.rollup.get("btb.boundary_replay", (0,))[0]
        try:
            return timed_run(sim, *args, **kwargs)
        finally:
            replays = state.rollup.get("btb.boundary_replay", (0,))[0] - before
            if replays:
                recorder.count(
                    f"btb.boundary_replays.{state.design or btb.name}", replays
                )

    FrontendSimulator.run = run

