"""The characterization gate: profiles, envelope bounds, diagnostics."""

import pytest

from repro.analysis.characterize import (
    CharacterizationEnvelope,
    EnvelopeBound,
    EnvelopeError,
    characterize,
    paper_envelope,
)
from repro.branch.types import BranchKind
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import build_suite
from repro.workloads.generator import generate_trace

from conftest import make_trace


def _suite_trace(index: int = 0):
    return generate_trace(build_suite("tiny")[index])


def test_profile_condenses_the_paper_figures():
    trace = _suite_trace()
    profile = characterize(trace)
    assert profile.name == trace.name
    assert profile.n_events == len(trace)
    assert profile.instruction_count == trace.instruction_count
    assert sum(profile.kind_mix.values()) == pytest.approx(1.0)
    assert 0.0 <= profile.dynamic_taken_fraction <= 1.0
    assert profile.unique_pcs > 0
    assert profile.static_branches > 0
    assert profile.mean_gap == pytest.approx(
        sum(trace.gaps.tolist()) / len(trace)
    )
    data = profile.to_dict()
    assert data["name"] == trace.name
    assert data["kind_mix"] == profile.kind_mix
    assert data["mean_gap"] == profile.mean_gap


def test_every_suite_trace_passes_the_paper_envelope():
    """The gate's whole point: realistic captures sail through.  Every
    workload the tiny suite generates must sit inside the envelope."""
    envelope = paper_envelope()
    for spec in build_suite("tiny"):
        profile = characterize(generate_trace(spec))
        assert envelope.validate(profile) == [], spec.name


def test_degenerate_traces_are_rejected_with_every_violation_named():
    trace = make_trace(
        [(0x1000, BranchKind.COND_DIRECT, False, 0x1004, 1)] * 256,
        name="degenerate",
    )
    profile = characterize(trace)
    violations = paper_envelope().validate(profile)
    violated = {violation.metric for violation in violations}
    assert "dynamic_taken_fraction" in violated
    assert "unique_pcs" in violated
    with pytest.raises(EnvelopeError) as excinfo:
        paper_envelope().check(profile)
    rendered = str(excinfo.value)
    assert "'degenerate'" in rendered
    # Each violation renders its bound and its diagnosis hint.
    for violation in violations:
        assert violation.message() in rendered
        assert violation.hint in rendered


def test_empty_trace_violates_the_volume_floor():
    profile = characterize(make_trace([], name="empty"))
    violated = {v.metric for v in paper_envelope().validate(profile)}
    assert "n_events" in violated


def test_envelope_bound_interval_semantics():
    bound = EnvelopeBound("metric", 0.25, 0.75, hint="why")
    assert bound.violation(0.25) is None  # closed interval
    assert bound.violation(0.75) is None
    assert bound.violation(0.1).low == 0.25
    assert bound.violation(0.9).hint == "why"
    open_low = EnvelopeBound("metric", None, 1.0, hint="h")
    assert open_low.violation(-1e9) is None
    assert "-inf" in open_low.violation(2.0).message()


def test_custom_envelope_overrides_the_paper_one():
    """import_trace(envelope=...) supports site-specific gates; a
    stricter bound must reject what the paper envelope accepts."""
    trace = _suite_trace()
    profile = characterize(trace)
    assert paper_envelope().validate(profile) == []
    strict = CharacterizationEnvelope(
        bounds=(EnvelopeBound("n_events", float(len(trace) + 1), None,
                              hint="need a longer capture"),)
    )
    violations = strict.validate(profile)
    assert [v.metric for v in violations] == ["n_events"]


def test_gate_is_reachable_from_import_trace(tmp_path):
    from repro.workloads.ingest import dump_text, import_trace

    trace = generate_trace(
        WorkloadSpec(name="gate_probe", category="Server", seed=9,
                     n_events=2048)
    )
    path = tmp_path / "probe.rbt"
    dump_text(trace, path)
    loaded, profile = import_trace(path)
    assert loaded.name == "gate_probe"
    assert profile.n_events == 2048
    strict = CharacterizationEnvelope(
        bounds=(EnvelopeBound("n_events", 1e9, None, hint="too short"),)
    )
    with pytest.raises(EnvelopeError, match="too short"):
        import_trace(path, envelope=strict)
