"""Fault tolerance of the sweep scheduler, pinned at the ``run_grid`` seam.

Injected faults -- a runner that raises, a worker that sleeps past its
deadline, a worker that dies outright, a corrupted disk-cache entry --
must degrade a sweep (retries, then a structured failure in the report)
rather than abort it, and a killed sweep must resume from the disk
cache without re-simulating finished (app, design) pairs.  Each fault
targets one app of a small grid by the task's ``trace_name``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import diskcache, harness
from repro.experiments import scheduler as sched
from repro.experiments.designs import baseline_design, pdede_design
from repro.experiments.scheduler import SchedulerConfig, drain_failures, run_grid
from repro.frontend.params import ICELAKE
from repro.frontend.simulator import FrontendSimulator
from repro.workloads.suite import build_suite, get_trace

SCALE = "tiny"
WARMUP = 0.3
#: Fast retries so fault tests stay sub-second per backoff.
FAST = dict(max_retries=2, backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(autouse=True)
def _clean_session_failures():
    drain_failures()
    yield
    drain_failures()


def _specs():
    return build_suite(SCALE)[:3]


def _victim() -> str:
    """The app every injected fault targets (the middle of the grid)."""
    return _specs()[1].name


def _reference_stats(design, spec):
    btb, kwargs = design.build()
    simulator = FrontendSimulator(btb, **kwargs)
    return simulator.run(get_trace(spec.name, SCALE), warmup_fraction=WARMUP)


def _assert_matches_reference(report, design, specs):
    for spec in specs:
        stats = report.results[(spec.name, design.key)]
        assert stats.to_dict() == _reference_stats(design, spec).to_dict(), spec.name


def test_raising_runner_is_retried_with_backoff():
    design = baseline_design()
    victim = _victim()
    attempts_seen = []

    def flaky(task, attempt):
        if task.trace_name == victim and attempt <= 2:
            attempts_seen.append(attempt)
            raise RuntimeError("injected")
        return sched._default_runner(task, attempt)

    started = time.perf_counter()
    report = run_grid(
        [design], scale=SCALE, specs=_specs(), runner=flaky,
        config=SchedulerConfig(workers=1, **FAST),
    )
    elapsed = time.perf_counter() - started
    assert attempts_seen == [1, 2]
    assert report.counters["retries"] == 2
    assert report.counters["failed"] == 0
    # Backoff actually waited: 0.01 + 0.02 of scheduled delay.
    assert elapsed >= 0.03
    _assert_matches_reference(report, design, _specs())


def test_exhausted_retries_become_structured_failure():
    design = baseline_design()
    victim = _victim()

    def broken(task, attempt):
        if task.trace_name == victim:
            raise ValueError("permanently broken app")
        return sched._default_runner(task, attempt)

    report = run_grid(
        [design], scale=SCALE, specs=_specs(), runner=broken,
        config=SchedulerConfig(workers=1, **FAST),
    )
    # The sweep completed: the other apps ran, nothing raised out.
    assert report.counters["completed"] == 2
    assert report.counters["failed"] == 1
    assert set(report.results) == {
        (spec.name, design.key) for spec in _specs() if spec.name != victim
    }
    (failure,) = report.failures
    assert failure.task_id == f"{victim}:{design.key}"
    assert failure.kind == "exception"
    assert failure.attempts == 3  # first try + max_retries
    assert "permanently broken" in failure.message
    # The failure is on the session record for the report appendix.
    assert [f.task_id for f in drain_failures()] == [failure.task_id]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork not available")
def test_worker_sleeping_past_timeout_is_killed_and_reported():
    design = baseline_design()
    victim = _victim()

    def sleepy(task, attempt):
        if task.trace_name == victim:
            time.sleep(60)
        return sched._default_runner(task, attempt)

    report = run_grid(
        [design], scale=SCALE, specs=_specs(), runner=sleepy,
        config=SchedulerConfig(
            workers=2, task_timeout=1.0, max_retries=1, backoff_base=0.01,
        ),
    )
    assert report.counters["timeouts"] == 2  # first try + one retry
    assert report.counters["failed"] == 1
    (failure,) = report.failures
    assert failure.kind == "timeout"
    assert failure.trace_name == victim
    assert "1.0" in failure.message
    # The other apps still completed.
    assert report.counters["completed"] == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fork not available")
def test_dead_worker_is_respawned_and_task_retried():
    design = baseline_design()
    victim = _victim()

    def dying(task, attempt):
        if task.trace_name == victim and attempt == 1:
            os._exit(13)
        return sched._default_runner(task, attempt)

    report = run_grid(
        [design], scale=SCALE, specs=_specs(), runner=dying,
        config=SchedulerConfig(workers=2, **FAST),
    )
    assert report.counters["crashes"] == 1
    assert report.counters["failed"] == 0
    _assert_matches_reference(report, design, _specs())


def test_corrupted_disk_cache_entry_is_resimulated(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    design = baseline_design()
    victim = _victim()
    config = SchedulerConfig(workers=1, **FAST)
    report = run_grid([design], scale=SCALE, specs=_specs(), config=config)
    assert report.counters["fresh"] == 3

    # Corrupt one pair's entry, found through the harness's key function.
    key = harness.result_store_key(victim, design.key, ICELAKE, WARMUP, SCALE)
    path = diskcache._result_path(key)
    assert path.exists()
    path.write_text("{ not json")

    executed: list[str] = []

    def counting(task, attempt):
        executed.append(task.trace_name)
        return sched._default_runner(task, attempt)

    report2 = run_grid(
        [design], scale=SCALE, specs=_specs(), config=config, runner=counting
    )
    # Only the corrupted pair was re-simulated; the rest disk-hit.
    assert executed == [victim]
    assert report2.counters["disk_hits"] == 2
    assert report2.counters["failed"] == 0
    _assert_matches_reference(report2, design, _specs())


def test_killed_sweep_resumes_without_resimulating_cached_pairs(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    design = pdede_design()
    specs = _specs()
    first_app = specs[0].name
    config = SchedulerConfig(workers=1, **FAST)

    # "Kill" the sweep after the first app: every later task raises
    # through max_retries, so only the first pair reaches the disk.
    class Killed(Exception):
        pass

    def dies_midway(task, attempt):
        if task.trace_name != first_app:
            raise Killed("sweep killed")
        return sched._default_runner(task, attempt)

    first = run_grid(
        [design], scale=SCALE, specs=specs, config=config, runner=dies_midway
    )
    assert first.counters["fresh"] == 1 and first.counters["failed"] == 2
    drain_failures()

    executed: list[str] = []

    def counting(task, attempt):
        executed.append(task.trace_name)
        return sched._default_runner(task, attempt)

    resumed = run_grid(
        [design], scale=SCALE, specs=specs, config=config, runner=counting
    )
    # Zero fresh re-simulation of the cached pair: only the two pairs
    # the first run never finished execute now.
    assert sorted(executed) == sorted(spec.name for spec in specs[1:])
    assert resumed.counters["disk_hits"] == 1
    assert resumed.counters["fresh"] == 2
    _assert_matches_reference(resumed, design, specs)

    # A third run re-simulates nothing at all.
    executed.clear()
    third = run_grid(
        [design], scale=SCALE, specs=specs, config=config, runner=counting
    )
    assert executed == []
    assert third.counters["disk_hits"] == 3
    assert third.results == resumed.results

    # The scheduler stored each pair under the harness's own key, so a
    # later serial run_design disk-hits instead of simulating.
    harness.clear_cache()
    diskcache.reset_disk_telemetry()
    stats = harness.run_design(specs[1].name, design, scale=SCALE)
    assert stats == resumed.results[(specs[1].name, design.key)]
    assert diskcache.disk_cache_info()["result_hits"] == 1
    assert harness.engine_mix() == {}
    harness.clear_cache()


def test_grid_with_multiple_designs_merges_every_group():
    designs = [baseline_design(), pdede_design()]
    specs = _specs()
    report = run_grid(
        designs, scale=SCALE, specs=specs,
        config=SchedulerConfig(workers=1, **FAST),
    )
    assert set(report.results) == {
        (spec.name, design.key) for spec in specs for design in designs
    }
    assert not report.failures
