"""Property-based round-trip tests for the text trace format.

Mirrors the differential-fuzz style of ``test_engine_equivalence.py``:
seeded random traces sweep the format's whole event space (every branch
kind, huge/zero addresses, taken/not-taken, zero and large gaps), each
must survive ``dump_trace`` -> ``load_trace`` bit-exactly, and a failing
seed is binary-search shrunk to a short reproducing prefix before the
assertion fires.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.branch.types import BranchKind
from repro.workloads.textformat import TraceFormatError, dump_trace, load_trace
from repro.workloads.trace import Trace

N_FUZZ_SWEEPS = 16
_KINDS = list(BranchKind)


def _random_trace(seed: int, n_events: int | None = None) -> Trace:
    """A seeded trace hitting the format's full value space."""
    rng = random.Random(seed * 2654435761 % (1 << 31))
    events = []
    for _ in range(n_events if n_events is not None else rng.randrange(1, 200)):
        kind = rng.choice(_KINDS)
        # Unconditional kinds are always taken (the format rejects the
        # impossible combination); only COND may be not-taken.
        taken = True if kind.is_unconditional else rng.random() < 0.5
        pc = rng.choice((0, 1, rng.getrandbits(rng.choice((16, 32, 48, 63)))))
        target = rng.choice((0, pc, pc + 4, rng.getrandbits(48)))
        gap = rng.choice((0, 1, rng.randrange(0, 10_000)))
        events.append((pc, kind, taken, target, gap))
    return Trace(f"fuzz-{seed}", "Fuzz", *zip(*events))


def _columns(trace: Trace) -> list[tuple[int, int, bool, int, int]]:
    return list(trace.events())


def _roundtrip(trace: Trace) -> Trace:
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    buffer.seek(0)
    return load_trace(buffer)


def _diverges(trace: Trace) -> bool:
    loaded = _roundtrip(trace)
    return (
        _columns(loaded) != _columns(trace)
        or loaded.name != trace.name
        or loaded.category != trace.category
    )


def _shrink_prefix(seed: int, failing_length: int) -> int:
    """Binary-search a short failing prefix (same caveat as the engine
    fuzz sweep: not minimal, just small enough to eyeball)."""
    low, high = 1, failing_length
    while low < high:
        mid = (low + high) // 2
        prefix = _random_trace(seed, failing_length)
        prefix.truncate(mid)
        if _diverges(prefix):
            high = mid
        else:
            low = mid + 1
    return low


@pytest.mark.parametrize("fuzz_seed", range(N_FUZZ_SWEEPS))
def test_random_traces_roundtrip_bit_exactly(fuzz_seed):
    trace = _random_trace(fuzz_seed)
    if _diverges(trace):
        shrunk = _shrink_prefix(fuzz_seed, len(trace))
        repro = _random_trace(fuzz_seed, len(trace))
        repro.truncate(shrunk)
        buffer = io.StringIO()
        dump_trace(repro, buffer)
        pytest.fail(
            f"seed {fuzz_seed}: round-trip diverges; {shrunk}-event "
            f"reproduction:\n{buffer.getvalue()}"
        )
    # The second generation is identical, so the property is stable.
    assert _columns(_random_trace(fuzz_seed)) == _columns(trace)


def test_roundtrip_preserves_exact_text():
    """Dump -> load -> dump is a fixed point (the parser loses nothing
    the writer emits)."""
    trace = _random_trace(7)
    first = io.StringIO()
    dump_trace(trace, first)
    second = io.StringIO()
    dump_trace(_roundtrip(trace), second)
    assert second.getvalue() == first.getvalue()


def test_empty_trace_roundtrips():
    trace = Trace(name="empty", category="Fuzz")
    loaded = _roundtrip(trace)
    assert len(loaded) == 0
    assert loaded.name == "empty"
    assert loaded.category == "Fuzz"


@pytest.mark.parametrize(
    "line, message_part",
    [
        ("zz COND T 0 0", "invalid literal"),
        ("0 COND T 0", "expected 5 fields"),
        ("0 WAT T 0 0", "unknown branch kind"),
        ("0 COND X 0 0", "taken flag"),
        ("0 JMP N 0 0", "always taken"),
        ("0 COND T 0 -1", "negative gap"),
        ("0 COND T 0 4294967296", "32-bit gap column"),
        ("10000000000000000 COND T 0 0", "outside the 64-bit model"),
    ],
)
def test_malformed_lines_are_structured_errors(line, message_part):
    with pytest.raises(TraceFormatError, match=message_part):
        load_trace([line])
