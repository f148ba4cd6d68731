"""Tests for the plain-text trace interchange format."""

import io

import pytest

from repro.branch.types import BranchKind
from repro.workloads.textformat import TraceFormatError, dump_trace, load_trace

from conftest import make_trace


def sample_trace():
    return make_trace(
        [
            (0x7F00_0000_1000, BranchKind.COND_DIRECT, True, 0x7F00_0000_1800, 5),
            (0x7F00_0000_1800, BranchKind.COND_DIRECT, False, 0x7F00_0000_1804, 2),
            (0x7F00_0000_1900, BranchKind.CALL_DIRECT, True, 0x7F11_0000_0000, 3),
            (0x7F11_0000_0040, BranchKind.RETURN, True, 0x7F00_0000_1904, 6),
            (0x7F00_0000_1A00, BranchKind.CALL_INDIRECT, True, 0x7F22_0000_0000, 1),
            (0x7F00_0000_1B00, BranchKind.UNCOND_INDIRECT, True, 0x7F00_0000_1F00, 4),
        ],
        name="sample",
    )


def test_roundtrip_through_file(tmp_path):
    trace = sample_trace()
    trace.category = "Browser"
    path = tmp_path / "trace.txt"
    dump_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == "sample"
    assert loaded.category == "Browser"
    assert loaded.pcs.tolist() == trace.pcs.tolist()
    assert loaded.kinds.tolist() == trace.kinds.tolist()
    assert loaded.takens.tolist() == trace.takens.tolist()
    assert loaded.targets.tolist() == trace.targets.tolist()
    assert loaded.gaps.tolist() == trace.gaps.tolist()


def test_roundtrip_through_stream():
    trace = sample_trace()
    buffer = io.StringIO()
    dump_trace(trace, buffer)
    loaded = load_trace(io.StringIO(buffer.getvalue()))
    assert loaded.pcs.tolist() == trace.pcs.tolist()


def test_comments_and_blank_lines_ignored():
    text = """
# a comment

7f0000001000 COND T 7f0000001800 5
"""
    loaded = load_trace(text.splitlines())
    assert len(loaded) == 1
    assert loaded.kinds[0] == int(BranchKind.COND_DIRECT)


def test_lowercase_taken_flag_accepted():
    loaded = load_trace(["7f00 COND t 7f80 1"])
    assert loaded.takens.tolist() == [True]


def test_rejects_wrong_field_count():
    with pytest.raises(TraceFormatError, match="expected 5 fields"):
        load_trace(["7f00 COND T 7f80"])


def test_rejects_unknown_kind():
    with pytest.raises(TraceFormatError, match="unknown branch kind"):
        load_trace(["7f00 BRANCH T 7f80 1"])


def test_rejects_bad_taken_flag():
    with pytest.raises(TraceFormatError, match="taken flag"):
        load_trace(["7f00 COND X 7f80 1"])


def test_rejects_not_taken_unconditional():
    with pytest.raises(TraceFormatError, match="always taken"):
        load_trace(["7f00 JMP N 7f80 1"])


def test_rejects_bad_numbers():
    with pytest.raises(TraceFormatError):
        load_trace(["zzzz COND T 7f80 1"])
    with pytest.raises(TraceFormatError, match="negative gap"):
        load_trace(["7f00 COND T 7f80 -3"])


def test_kind_token_coverage():
    """Every BranchKind must roundtrip through its token."""
    lines = [
        "10 COND T 20 0",
        "30 JMP T 40 0",
        "50 CALL T 60 0",
        "70 IJMP T 80 0",
        "90 ICALL T a0 0",
        "b0 RET T c0 0",
    ]
    loaded = load_trace(lines)
    assert sorted(set(loaded.kinds)) == sorted(int(kind) for kind in BranchKind)
