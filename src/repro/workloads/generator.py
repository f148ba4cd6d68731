"""Dynamic trace generation: walking a :class:`CodeLayout`.

The generator is a small interpreter over the static program: it keeps a
call stack of activation frames, samples loop trip counts and
conditional outcomes from the per-site parameters, resolves indirect
branches from their weighted target lists, and emits one
``(pc, kind, taken, target, gap)`` event per executed branch -- exactly
the stream a hardware BTB would observe.

A top-level dispatcher (one loop branch + one indirect call site) picks
root functions from the current *phase*'s Zipf-weighted hot set; phases
rotate every ``phase_calls`` root invocations, producing the working-set
drift and region-to-region travel of Figure 5.
"""

from __future__ import annotations

import bisect
import math
import random

from repro.branch.types import BranchKind
from repro.workloads.layout import (
    CALL,
    COND,
    IND_CALL,
    IND_JUMP,
    JUMP,
    LOOP,
    RET,
    CodeLayout,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace import Trace

#: Generation-algorithm version: any change to the generator (or the
#: layout model it walks) that alters emitted traces must bump this, so
#: disk-cached traces keyed on it (repro.experiments.diskcache) are
#: orphaned rather than silently replayed.
GENERATOR_VERSION = 1

_KIND_MAP = {
    LOOP: int(BranchKind.COND_DIRECT),
    COND: int(BranchKind.COND_DIRECT),
    JUMP: int(BranchKind.UNCOND_DIRECT),
    CALL: int(BranchKind.CALL_DIRECT),
    IND_CALL: int(BranchKind.CALL_INDIRECT),
    IND_JUMP: int(BranchKind.UNCOND_INDIRECT),
    RET: int(BranchKind.RETURN),
}


def generate_trace(spec: WorkloadSpec, layout: CodeLayout | None = None) -> Trace:
    """Generate the deterministic dynamic trace for ``spec``.

    Args:
        spec: the workload description (its seed fixes both the layout
            and the dynamic walk).
        layout: pass a pre-built layout to skip rebuilding it (the suite
            caches layouts when generating multiple trace lengths).
    """
    layout = layout or CodeLayout(spec)
    rng = random.Random(spec.seed ^ 0xD1E5E1)
    pcs: list[int] = []
    kinds: list[int] = []
    takens: list[bool] = []
    targets: list[int] = []
    gaps: list[int] = []

    block_kind = layout.block_kind
    block_target = layout.block_target
    block_param = layout.block_param
    block_next = layout.block_next
    block_gap = layout.block_gap
    branch_pc = layout.block_branch_pc
    block_start = layout.block_start
    fn_entry_block = layout.fn_entry_block
    fn_entry_addr = layout.fn_entry_addr
    indirect_lists = layout.indirect_lists
    phase_roots = layout.phase_roots
    if not phase_roots or not all(roots for roots, _ in phase_roots):
        raise ValueError(f"{spec.name}: layout has an empty phase root set")
    append_pc = pcs.append
    append_kind = kinds.append
    append_taken = takens.append
    append_target = targets.append
    append_gap = gaps.append

    n_events = spec.n_events
    max_depth = spec.max_call_depth
    tree_budget = spec.tree_activation_budget
    event_budget = spec.tree_event_budget
    trip_cap = max(2, int(spec.mean_trip_count * 4))
    tree_activations = 0
    tree_events = 0
    sweep_position = 0
    sweep_fraction = spec.sweep_fraction

    # Call stack of frames: (function index, resume block, loop counters).
    stack: list[tuple[int, int, dict[int, int]]] = []
    current_block = -1
    loop_counts: dict[int, int] = {}
    pending_gap = 0
    calls_dispatched = 0
    events = 0
    # Per-site visit counters: conditional outcomes are *periodic* rather
    # than i.i.d. -- real branch noise is patterned (every k-th element,
    # every k-th iteration), which is exactly what history-based
    # predictors exploit; i.i.d. coin flips would be unlearnable noise.
    visit_counts = [0] * len(block_kind)

    def emit(pc: int, kind: int, taken: bool, target: int, gap: int) -> None:
        nonlocal events, tree_events
        append_pc(pc)
        append_kind(_KIND_MAP[kind])
        append_taken(taken)
        append_target(target)
        append_gap(gap)
        events += 1
        tree_events += 1

    while events < n_events:
        if current_block < 0:
            # Dispatcher: loop branch, then an indirect call to a root
            # function from the current phase's hot set.
            phase = (calls_dispatched // spec.phase_calls) % len(phase_roots)
            roots, cumulative = phase_roots[phase]
            if rng.random() < sweep_fraction:
                # Round-robin sweep: periodic revisits at a reuse
                # distance of one full hot working set.
                root = roots[sweep_position % len(roots)]
                sweep_position += 1
            else:
                position = bisect.bisect_left(
                    cumulative, rng.random() * cumulative[-1]
                )
                root = roots[position]
            calls_dispatched += 1
            call_site = layout.dispatch_call_site(root)
            emit(
                layout.dispatch_loop_pc,
                LOOP,
                True,
                layout.dispatch_loop_pc - 8,
                layout.dispatch_gap + pending_gap,
            )
            emit(call_site, CALL, True, fn_entry_addr[root], 1)
            pending_gap = 0
            stack.append((-1, call_site, {}))  # dispatcher frame sentinel
            current_block = fn_entry_block[root]
            loop_counts = {}
            tree_activations = 1
            tree_events = 0
            continue

        kind = block_kind[current_block]
        gap = block_gap[current_block] + pending_gap
        pending_gap = 0
        pc = branch_pc[current_block]

        if kind == RET:
            frame = stack.pop()
            if frame[0] < 0:
                # Back to the dispatcher: return targets its call site +4.
                emit(pc, RET, True, frame[1] + 4, gap)
                current_block = -1
                loop_counts = {}
                continue
            _, resume, saved_counts = frame
            emit(pc, RET, True, block_start[resume], gap)
            current_block = resume
            loop_counts = saved_counts
            continue

        if kind == LOOP:
            remaining = loop_counts.get(current_block)
            if remaining is None:
                if current_block & 1:
                    # Half the loop sites have a fixed (learnable) trip
                    # count; the rest vary per activation, as real inner
                    # loops split between constant and data-dependent
                    # bounds.
                    remaining = max(1, round(block_param[current_block]))
                else:
                    remaining = _sample_trip(rng, block_param[current_block], trip_cap)
            if tree_events >= event_budget:
                remaining = 0  # drain: the tree has used up its quantum
            if remaining > 0:
                loop_counts[current_block] = remaining - 1
                target = block_target[current_block]
                emit(pc, LOOP, True, block_start[target], gap)
                current_block = target
            else:
                loop_counts.pop(current_block, None)
                emit(pc, LOOP, False, pc + 4, gap)
                current_block = block_next[current_block]
            continue

        if kind == COND:
            target = block_target[current_block]
            probability = block_param[current_block]
            visit = visit_counts[current_block]
            visit_counts[current_block] = visit + 1
            if probability >= 0.5:
                period = min(64, max(2, round(1.0 / max(1.0 - probability, 0.02))))
                taken = (visit % period) != period - 1
            else:
                period = min(64, max(2, round(1.0 / max(probability, 0.02))))
                taken = (visit % period) == period - 1
            if taken and target != current_block:
                emit(pc, COND, True, block_start[target], gap)
                current_block = target
            else:
                emit(pc, COND, False, pc + 4, gap)
                current_block = block_next[current_block]
            continue

        if kind == JUMP:
            target = block_target[current_block]
            emit(pc, JUMP, True, block_start[target], gap)
            current_block = target
            continue

        if kind == CALL or kind == IND_CALL:
            if kind == CALL:
                callee = block_target[current_block]
            else:
                candidates, cumulative = indirect_lists[block_target[current_block]]
                position = bisect.bisect_left(
                    cumulative, rng.random() * cumulative[-1]
                )
                callee = candidates[position]
            caller_fn = _owning_function(fn_entry_block, current_block)
            resume = block_next[current_block]
            if (
                callee <= caller_fn
                or resume < 0
                or len(stack) >= max_depth
                or tree_activations >= tree_budget
                or tree_events >= event_budget
            ):
                # Degenerate call (self-call / stack cap / exhausted tree
                # budget): execute the would-be call block as
                # straight-line code so the tree winds down.
                pending_gap = gap + 1
                current_block = resume if resume >= 0 else -1
                continue
            emit(pc, kind, True, fn_entry_addr[callee], gap)
            stack.append((caller_fn, resume, loop_counts))
            current_block = fn_entry_block[callee]
            loop_counts = {}
            tree_activations += 1
            continue

        # IND_JUMP: switch over later blocks of the same function.
        candidates, cumulative = indirect_lists[block_target[current_block]]
        position = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
        target = candidates[position]
        emit(pc, IND_JUMP, True, block_start[target], gap)
        current_block = target

    # The dispatcher emits two events per step, so the loop may overshoot
    # the requested length by one.
    trace = Trace(spec.name, spec.category, pcs, kinds, takens, targets, gaps)
    trace.truncate(n_events)
    return trace


def _sample_trip(rng: random.Random, mean_trip: float, cap: int) -> int:
    """Geometric trip count with the requested mean, capped."""
    probability = 1.0 / max(1.5, mean_trip)
    value = rng.random()
    trips = int(math.log(max(value, 1e-12)) / math.log(1.0 - probability)) + 1
    return min(trips, cap)


def _owning_function(fn_entry_block: list[int], block: int) -> int:
    """Binary-search the function that owns ``block``."""
    return bisect.bisect_right(fn_entry_block, block) - 1
