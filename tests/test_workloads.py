"""Unit tests for workload specs, layout, and the trace generator."""

import pytest

from repro.branch.address import OFFSET_BITS, same_page
from repro.branch.types import BranchKind
from repro.workloads.generator import generate_trace
from repro.workloads.layout import RET, CodeLayout
from repro.workloads.spec import CATEGORY_COUNTS, CATEGORY_TEMPLATES, WorkloadSpec
from repro.workloads.suite import SCALES, build_suite, get_trace


def tiny_spec(**overrides) -> WorkloadSpec:
    base = dict(
        name="tiny",
        category="Server",
        seed=42,
        n_events=5_000,
        n_functions=300,
        hot_functions_per_phase=60,
        phase_calls=200,
        n_regions=4,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_layout_is_deterministic():
    a = CodeLayout(tiny_spec())
    b = CodeLayout(tiny_spec())
    assert a.block_branch_pc == b.block_branch_pc
    assert a.block_kind == b.block_kind


def test_layout_every_function_ends_in_return():
    layout = CodeLayout(tiny_spec())
    for fn_index in range(len(layout.fn_entry_block)):
        blocks = layout._function_blocks(fn_index)
        assert layout.block_kind[blocks[-1]] == RET


def test_layout_addresses_monotonic_within_function():
    layout = CodeLayout(tiny_spec())
    for fn_index in range(len(layout.fn_entry_block)):
        blocks = list(layout._function_blocks(fn_index))
        starts = [layout.block_start[b] for b in blocks]
        assert starts == sorted(starts)
        for block in blocks:
            assert layout.block_branch_pc[block] > layout.block_start[block] - 4


def test_layout_regions_match_function_map():
    layout = CodeLayout(tiny_spec())
    for fn_index, region in enumerate(layout.fn_region):
        base_region = layout.region_ids[region]
        actual_region = layout.fn_entry_addr[fn_index] >> (OFFSET_BITS + 16)
        assert actual_region == base_region


def test_layout_rejects_too_few_regions():
    with pytest.raises(ValueError):
        CodeLayout(tiny_spec(n_regions=2))


def test_generator_deterministic():
    a = generate_trace(tiny_spec())
    b = generate_trace(tiny_spec())
    assert a.pcs.tolist() == b.pcs.tolist()
    assert a.targets.tolist() == b.targets.tolist()


def test_generator_produces_requested_length():
    trace = generate_trace(tiny_spec(n_events=3_000))
    assert len(trace) == 3_000


def test_generator_calls_and_returns_balance():
    """Every return's target must be its matching call site + 4."""
    trace = generate_trace(tiny_spec())
    stack = []
    mismatches = 0
    for pc, kind, taken, target, gap in trace.events():
        kind = BranchKind(kind)
        if kind.is_call and taken:
            stack.append(pc + 4)
        elif kind.is_return:
            if not stack or stack.pop() != target:
                mismatches += 1
    assert mismatches == 0


def test_generator_unconditional_always_taken():
    trace = generate_trace(tiny_spec())
    for pc, kind, taken, target, gap in trace.events():
        if BranchKind(kind).is_unconditional:
            assert taken


def test_generator_not_taken_target_is_fall_through():
    trace = generate_trace(tiny_spec())
    for pc, kind, taken, target, gap in trace.events():
        if not taken:
            assert target == pc + 4


def test_generator_same_page_fraction_in_range():
    trace = generate_trace(tiny_spec(n_events=20_000))
    pairs = [
        (pc, target)
        for pc, kind, taken, target, gap in trace.events()
        if taken and BranchKind(kind) != BranchKind.RETURN
    ]
    fraction = sum(1 for pc, target in pairs if same_page(pc, target)) / len(pairs)
    assert 0.4 < fraction < 0.95  # Figure 8 territory


def test_suite_composition_full():
    suite = build_suite("full")
    assert len(suite) == 102
    by_category = {}
    for spec in suite:
        by_category[spec.category] = by_category.get(spec.category, 0) + 1
    assert by_category == CATEGORY_COUNTS


def test_suite_contains_named_specials():
    names = {spec.name for spec in build_suite("full")}
    for expected in (
        "browser_js_static_analyzer",
        "personal_animation",
        "server_oltp_00",
        "server_microservice_00",
        "server_data_analytics",
        "browser_html5_render",
    ):
        assert expected in names


def test_suite_scales_consistent():
    for scale, (counts, n_events) in SCALES.items():
        suite = build_suite(scale)
        assert len(suite) == sum(counts.values())
        assert all(spec.n_events == n_events for spec in suite)


def test_suite_seeds_stable_across_calls():
    a = [spec.seed for spec in build_suite("tiny")]
    b = [spec.seed for spec in build_suite("tiny")]
    assert a == b


def test_get_trace_memoised():
    first = get_trace("server_oltp_00", "tiny")
    second = get_trace("server_oltp_00", "tiny")
    assert first is second


def test_get_trace_unknown_name():
    with pytest.raises(KeyError):
        get_trace("nonexistent_app", "tiny")


def test_templates_cover_categories():
    assert set(CATEGORY_TEMPLATES) == set(CATEGORY_COUNTS)
