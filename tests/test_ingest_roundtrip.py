"""Round-trip and acceptance tests for the RBT ingestion formats.

Mirrors the differential-fuzz style of ``test_textformat_roundtrip.py``
for *both* RBT framings: seeded random traces sweep the full event
space, each must survive text -> Trace and binary -> Trace bit-exactly
(and text -> binary -> text as a fixed point), with failing seeds
binary-search shrunk to a short reproducing prefix.  Malformed input
must fail with a structured :class:`IngestError` carrying a stable
code, and the committed sample capture must convert through ``repro
convert``, pass the characterization gate, and simulate identically to
the frozen seed engine for both new design families.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

from repro.branch.types import BranchKind
from repro.workloads.ingest import (
    IngestError,
    detect_format,
    dump_any,
    dump_binary,
    dump_text,
    import_trace,
    load_any,
    load_binary,
    load_text,
)
from repro.workloads.trace import Trace

N_FUZZ_SWEEPS = 16
_KINDS = list(BranchKind)

FIXTURES = Path(__file__).parent / "fixtures"
SAMPLE_TRACE = FIXTURES / "sample_trace.rbt"


def _random_trace(seed: int, n_events: int | None = None) -> Trace:
    """A seeded trace hitting the formats' full value space."""
    rng = random.Random(seed * 2654435761 % (1 << 31))
    trace = Trace(name=f"fuzz-{seed}", category="Fuzz")
    for _ in range(n_events if n_events is not None else rng.randrange(1, 200)):
        kind = rng.choice(_KINDS)
        taken = True if kind.is_unconditional else rng.random() < 0.5
        pc = rng.choice((0, 1, rng.getrandbits(rng.choice((16, 32, 48, 63)))))
        target = rng.choice((0, pc, pc + 4, rng.getrandbits(48)))
        gap = rng.choice((0, 1, rng.randrange(0, 10_000)))
        trace.append(pc, kind, taken, target, gap)
    return trace


def _columns(trace: Trace) -> list[tuple[int, int, bool, int, int]]:
    return list(trace.events())


def _roundtrip_text(trace: Trace) -> Trace:
    buffer = io.StringIO()
    dump_text(trace, buffer)
    buffer.seek(0)
    return load_text(buffer)


def _roundtrip_binary(trace: Trace) -> Trace:
    buffer = io.BytesIO()
    dump_binary(trace, buffer)
    return load_binary(buffer.getvalue())


def _diverges(trace: Trace) -> bool:
    for loaded in (_roundtrip_text(trace), _roundtrip_binary(trace)):
        if (
            _columns(loaded) != _columns(trace)
            or loaded.name != trace.name
            or loaded.category != trace.category
        ):
            return True
    return False


def _shrink_prefix(seed: int, failing_length: int) -> int:
    """Binary-search a short failing prefix (not minimal, just small
    enough to eyeball)."""
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
def test_random_traces_roundtrip_both_framings(fuzz_seed):
    trace = _random_trace(fuzz_seed)
    if _diverges(trace):
        shrunk = _shrink_prefix(fuzz_seed, len(trace))
        repro = _random_trace(fuzz_seed, len(trace))
        repro.truncate(shrunk)
        buffer = io.StringIO()
        dump_text(repro, buffer)
        pytest.fail(
            f"seed {fuzz_seed}: RBT round-trip diverges; {shrunk}-event "
            f"reproduction:\n{buffer.getvalue()}"
        )
    # The second generation is identical, so the property is stable.
    assert _columns(_random_trace(fuzz_seed)) == _columns(trace)


@pytest.mark.parametrize("fuzz_seed", range(N_FUZZ_SWEEPS))
def test_text_binary_text_is_a_fixed_point(fuzz_seed):
    """Cross-framing: text -> binary -> text loses nothing."""
    trace = _random_trace(fuzz_seed)
    first = io.StringIO()
    dump_text(trace, first)
    via_binary = _roundtrip_binary(trace)
    second = io.StringIO()
    dump_text(via_binary, second)
    assert second.getvalue() == first.getvalue()


def test_empty_trace_roundtrips():
    trace = Trace(name="empty", category="Fuzz")
    for loaded in (_roundtrip_text(trace), _roundtrip_binary(trace)):
        assert len(loaded) == 0
        assert loaded.name == "empty"
        assert loaded.category == "Fuzz"


# -- structured errors -------------------------------------------------------


@pytest.mark.parametrize(
    "lines, code",
    [
        (["7 COND T 0 0"], "bad-magic"),                       # no magic line
        (["%RBT"], "bad-magic"),                               # magic, no version
        (["%RBT two"], "bad-magic"),                           # non-numeric version
        (["%RBT 99"], "unsupported-version"),
        ([], "bad-magic"),                                     # empty input
        (["%RBT 1", "0 COND T 0"], "bad-record"),              # 4 fields
        (["%RBT 1", "zz COND T 0 0"], "bad-record"),           # bad hex
        (["%RBT 1", "0 WAT T 0 0"], "bad-kind"),
        (["%RBT 1", "0 COND X 0 0"], "bad-taken"),
        (["%RBT 1", "0 JMP N 0 0"], "bad-taken"),              # impossible combo
        (["%RBT 1", "0 COND T 0 -1"], "bad-gap"),
        (["%RBT 1", "ffffffffffffffff1 COND T 0 0"], "bad-address"),
    ],
)
def test_malformed_text_raises_coded_errors(lines, code):
    with pytest.raises(IngestError) as excinfo:
        load_text(lines)
    assert excinfo.value.code == code
    assert excinfo.value.line is not None


def _binary_bytes(trace: Trace) -> bytearray:
    buffer = io.BytesIO()
    dump_binary(trace, buffer)
    return bytearray(buffer.getvalue())


def test_binary_truncation_is_a_structured_error():
    blob = _binary_bytes(_random_trace(3, 20))
    with pytest.raises(IngestError) as excinfo:
        load_binary(bytes(blob[:-1]))
    assert excinfo.value.code == "truncated"
    assert excinfo.value.offset is not None


def test_binary_trailing_data_is_a_structured_error():
    blob = _binary_bytes(_random_trace(4, 5))
    with pytest.raises(IngestError) as excinfo:
        load_binary(bytes(blob) + b"\x00")
    assert excinfo.value.code == "trailing-data"


def test_binary_bad_magic_and_version():
    blob = _binary_bytes(_random_trace(5, 2))
    with pytest.raises(IngestError) as excinfo:
        load_binary(b"XYZ" + bytes(blob[3:]))
    assert excinfo.value.code == "bad-magic"
    with pytest.raises(IngestError) as excinfo:
        load_binary(bytes(blob[:3]) + b"\x09" + bytes(blob[4:]))
    assert excinfo.value.code == "unsupported-version"


def test_binary_bad_flags_byte():
    trace = Trace(name="t", category="c")
    trace.append(0x1000, BranchKind.COND_DIRECT, True, 0x2000, 1)
    blob = _binary_bytes(trace)
    # The single record's flags byte follows magic + 3 header varints
    # (1-byte name, 1-byte category, count).
    flags_at = 4 + 1 + 1 + 1 + 1 + 1
    blob[flags_at] = 0x7  # kind 7 does not exist
    with pytest.raises(IngestError) as excinfo:
        load_binary(bytes(blob))
    assert excinfo.value.code == "bad-record"
    blob[flags_at] = 0x1  # JMP without the taken bit: impossible
    with pytest.raises(IngestError) as excinfo:
        load_binary(bytes(blob))
    assert excinfo.value.code == "bad-taken"


# -- sniffing and the front door ---------------------------------------------


def test_detect_format_and_load_any(tmp_path):
    from repro.workloads.textformat import dump_trace as dump_legacy

    trace = _random_trace(11)
    paths = {
        "rbt-text": tmp_path / "t.rbt",
        "rbt-binary": tmp_path / "t.rbtb",
        "npz": tmp_path / "t.npz",
        "legacy-text": tmp_path / "t.trace",
    }
    dump_text(trace, paths["rbt-text"])
    dump_binary(trace, paths["rbt-binary"])
    trace.save(paths["npz"])
    dump_legacy(trace, paths["legacy-text"])
    for fmt in sorted(paths):
        assert detect_format(paths[fmt]) == fmt, fmt
        loaded = load_any(paths[fmt])
        assert _columns(loaded) == _columns(trace), fmt


def test_dump_any_infers_framing_from_suffix(tmp_path):
    trace = _random_trace(12)
    assert dump_any(trace, tmp_path / "x.rbtb") == "rbt-binary"
    assert dump_any(trace, tmp_path / "x.weird") == "rbt-text"
    assert dump_any(trace, tmp_path / "x.rbt", fmt="rbt-binary") == "rbt-binary"
    assert detect_format(tmp_path / "x.rbt") == "rbt-binary"
    with pytest.raises(ValueError, match="unknown trace format"):
        dump_any(trace, tmp_path / "x.rbt", fmt="cbor")


# -- the import gate ---------------------------------------------------------


def test_import_trace_gates_out_of_envelope_captures(tmp_path):
    from repro.analysis.characterize import EnvelopeError

    # A degenerate capture: one branch in a tight never-taken loop.
    bad = Trace(name="degenerate", category="Fuzz")
    for _ in range(512):
        bad.append(0x1000, BranchKind.COND_DIRECT, False, 0x1004, 1)
    path = tmp_path / "bad.rbt"
    dump_text(bad, path)
    with pytest.raises(EnvelopeError) as excinfo:
        import_trace(path)
    rendered = str(excinfo.value)
    assert "dynamic_taken_fraction" in rendered
    assert "--no-gate" in rendered
    # gate=False still loads and profiles.
    loaded, profile = import_trace(path, gate=False)
    assert len(loaded) == 512
    assert profile.dynamic_taken_fraction == 0.0


def test_sample_fixture_passes_the_gate():
    trace, profile = import_trace(SAMPLE_TRACE)
    assert trace.name == "sample_capture"
    assert trace.category == "Server"
    assert profile.n_events == len(trace) == 4096
    mix_sum = sum(profile.kind_mix.values())
    assert mix_sum == pytest.approx(1.0)


# -- acceptance: convert CLI + new families over the sample capture ----------


def test_convert_cli_roundtrips_the_sample_trace(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "sample.rbtb"
    profile_out = tmp_path / "profile.json"
    assert main(["convert", str(SAMPLE_TRACE), str(out),
                 "--profile-out", str(profile_out)]) == 0
    stderr = capsys.readouterr().err
    assert "characterization gate passed" in stderr
    assert detect_format(out) == "rbt-binary"
    converted = load_any(out)
    original = load_text(SAMPLE_TRACE)
    assert _columns(converted) == _columns(original)
    profile = json.loads(profile_out.read_text())
    assert profile["name"] == "sample_capture"
    assert profile["n_events"] == 4096


def test_convert_cli_rejects_out_of_envelope_input(tmp_path, capsys):
    from repro.cli import main

    bad = Trace(name="degenerate", category="Fuzz")
    for _ in range(512):
        bad.append(0x1000, BranchKind.COND_DIRECT, False, 0x1004, 1)
    source = tmp_path / "bad.rbt"
    dump_text(bad, source)
    assert main(["convert", str(source), str(tmp_path / "bad.rbtb")]) == 1
    assert "characterization envelope" in capsys.readouterr().err
    # --no-gate converts anyway.
    assert main(["convert", str(source), str(tmp_path / "bad.rbtb"),
                 "--no-gate"]) == 0


@pytest.mark.parametrize("design_key", ["micro-btb", "shadow-baseline",
                                        "shadow-pdede"])
def test_new_families_match_seed_engine_on_the_sample_trace(design_key):
    """The acceptance criterion: the shipped capture simulates
    byte-identically between the auto-selected engine and the frozen
    seed referee for both new families.  Auto resolves to the fresh-run
    vector engine, whose BTB pass calls their ``lookup`` and ``update``
    (neither class has a combined ``observe_fast`` hook)."""
    from repro.experiments import design_registry
    from repro.frontend.seedref import SeedFrontendSimulator, seed_counterpart
    from repro.frontend.simulator import FrontendSimulator
    from repro.serve.protocol import stats_payload

    trace, _profile = import_trace(SAMPLE_TRACE)
    design = design_registry()[design_key]

    btb, kwargs = design.build()
    assert not hasattr(btb, "observe_fast")
    simulator = FrontendSimulator(btb, **kwargs)
    live = simulator.run(trace, warmup_fraction=0.3)
    assert simulator.last_engine == "vector"

    seed_btb, seed_kwargs = design.build()
    seed = SeedFrontendSimulator(seed_counterpart(seed_btb), **seed_kwargs)
    reference = seed.run(trace, warmup_fraction=0.3)

    assert stats_payload(live) == stats_payload(reference)
    assert btb.stats.to_dict() == seed_btb.stats.to_dict()


def test_simulate_cli_runs_an_imported_trace(capsys):
    from repro.cli import main

    assert main(["simulate", "--trace", str(SAMPLE_TRACE), "micro-btb"]) == 0
    out = capsys.readouterr().out
    assert "sample_capture x micro-btb" in out
    assert "BTB MPKI" in out
