"""Unit tests for the Trace container."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.branch.types import BranchKind
from repro.experiments import diskcache
from repro.workloads.generator import generate_trace
from repro.workloads.suite import build_suite
from repro.workloads.trace import COLUMN_DTYPES, Trace

from conftest import make_trace


def test_construct_and_len():
    trace = Trace(
        pcs=[0x100], kinds=[BranchKind.COND_DIRECT], takens=[True], targets=[0x200], gaps=[5]
    )
    assert len(trace) == 1


def test_instruction_count_includes_branches():
    trace = make_trace([
        (0x100, BranchKind.COND_DIRECT, True, 0x200, 5),
        (0x200, BranchKind.UNCOND_DIRECT, True, 0x300, 3),
    ])
    assert trace.instruction_count == 2 + 5 + 3


def test_taken_fractions():
    trace = make_trace([
        (0x100, BranchKind.COND_DIRECT, True, 0x200, 1),
        (0x100, BranchKind.COND_DIRECT, False, 0x104, 1),
        (0x300, BranchKind.COND_DIRECT, False, 0x304, 1),
    ])
    assert trace.dynamic_taken_fraction() == 1 / 3
    # PC 0x100 was taken at least once; 0x300 never -> 1/2 static.
    assert trace.static_taken_fraction() == 0.5
    assert trace.static_branch_count() == 2


def test_branch_events_roundtrip():
    trace = make_trace([(0x100, BranchKind.CALL_DIRECT, True, 0x900, 7)])
    event = next(trace.branch_events())
    assert event.pc == 0x100
    assert event.kind is BranchKind.CALL_DIRECT
    assert event.target == 0x900
    assert event.instr_gap == 7


def test_save_load_roundtrip(tmp_path: Path):
    trace = make_trace(
        [
            (0x7F00_0000_1000, BranchKind.COND_DIRECT, True, 0x7F00_0000_1400, 5),
            (0x7F00_0000_1400, BranchKind.RETURN, True, 0x7F00_0000_1004, 2),
        ],
        name="roundtrip",
    )
    trace.category = "Server"
    path = tmp_path / "trace.npz"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.name == "roundtrip"
    assert loaded.category == "Server"
    assert loaded.pcs.tolist() == trace.pcs.tolist()
    assert loaded.kinds.tolist() == trace.kinds.tolist()
    assert loaded.takens.tolist() == trace.takens.tolist()
    assert loaded.targets.tolist() == trace.targets.tolist()
    assert loaded.gaps.tolist() == trace.gaps.tolist()


def test_empty_trace_statistics():
    trace = Trace()
    assert trace.dynamic_taken_fraction() == 0.0
    assert trace.static_taken_fraction() == 0.0
    assert trace.instruction_count == 0


# -- the numpy representation --------------------------------------------------


@pytest.fixture(params=["generated", "disk-cache"])
def tiny_trace(request, tmp_path, monkeypatch):
    """A generated tiny trace, and the same trace loaded from the disk cache."""
    spec = build_suite("tiny")[0]
    trace = generate_trace(spec)
    if request.param == "disk-cache":
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "cache"))
        diskcache.store_trace(spec, trace)
        trace = diskcache.load_trace(spec)
        assert trace is not None
    return trace


def _nbytes(trace):
    return sum(getattr(trace, name).nbytes for name in COLUMN_DTYPES)


def test_columns_are_read_only_arrays_of_fixed_dtypes(tiny_trace):
    assert set(COLUMN_DTYPES) == {"pcs", "kinds", "takens", "targets", "gaps"}
    for name, dtype in COLUMN_DTYPES.items():
        column = getattr(tiny_trace, name)
        assert column.dtype == dtype, name
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = 0
    assert _nbytes(tiny_trace) == 22 * len(tiny_trace)


def test_trace_and_decode_hold_no_list_column(tiny_trace):
    decoded = tiny_trace.decoded()
    assert not any(isinstance(value, list) for value in vars(tiny_trace).values())
    slots = [getattr(decoded, name) for name in type(decoded).__slots__]
    assert not any(isinstance(value, list) for value in slots)
    assert all(column is getattr(tiny_trace, name)
               for column, name in zip(decoded._raw, COLUMN_DTYPES))


def test_events_yield_native_python_values(tiny_trace):
    kinds = {int(kind) for kind in BranchKind}
    count = 0
    for pc, kind, taken, target, gap in tiny_trace.events():
        assert (type(pc), type(kind), type(taken), type(target), type(gap)) == (
            int, int, bool, int, int
        )
        assert kind in kinds
        count += 1
    assert count == len(tiny_trace)
    for event in itertools.islice(tiny_trace.branch_events(), 500):
        assert type(event.kind) is BranchKind
        assert (type(event.pc), type(event.taken), type(event.target),
                type(event.instr_gap)) == (int, bool, int, int)


def test_block_start_below_zero_does_not_wrap():
    trace = make_trace([(0x10, BranchKind.COND_DIRECT, True, 0x40, 8)])
    pc, _, _, _, gap = next(trace.events())
    assert pc - 4 * gap == -0x10


def test_truncate_drops_the_cached_decode(tiny_trace):
    decoded = tiny_trace.decoded()
    assert tiny_trace.is_decoded
    tiny_trace.truncate(len(tiny_trace) // 2)
    assert not tiny_trace.is_decoded
    assert tiny_trace.decoded() is not decoded
    assert tiny_trace.decoded().n_events == len(tiny_trace)
    assert _nbytes(tiny_trace) == 22 * len(tiny_trace)


def test_constructor_takes_sequences_and_rejects_ragged_columns():
    trace = Trace("t", "c", [1, 2], [0, 5], [True, False], [3, 4], [0, 1])
    assert trace.pcs.tolist() == [1, 2]
    assert trace.kinds.dtype == np.uint8
    with pytest.raises(ValueError, match="ragged"):
        Trace("t", "c", [1, 2], [0], [True], [3], [0])
