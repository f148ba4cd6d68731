"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

# Tests must not read or pollute the developer's persistent cache; the
# disk-cache tests opt back in against a tmp_path root.
os.environ.setdefault("REPRO_DISK_CACHE", "0")

from repro.branch.types import BranchEvent, BranchKind
from repro.workloads.trace import Trace


#: Environment prefixes that change simulation scheduling, caching, or
#: serving behaviour.  Any of these leaking in from the developer's (or
#: CI job's) shell would make a test depend on ambient state.
_HERMETIC_PREFIXES = ("REPRO_SCHED_", "REPRO_DISK_CACHE", "REPRO_SERVE_")


@pytest.fixture(autouse=True)
def _hermetic_env(tmp_path, monkeypatch):
    """Make every test hermetic against ambient ``REPRO_*`` knobs.

    Clears ``REPRO_SCHED_*``, ``REPRO_DISK_CACHE*`` and ``REPRO_SERVE_*``
    before each test, then re-pins the disk cache off (the env default
    is *on*) and roots it at a per-test tmpdir so tests that opt back in
    (or scheduler tests that resume from it) never read or pollute a
    developer's real ``~/.cache/repro-pdede``.  Tests that manage their
    own knobs simply ``monkeypatch.setenv`` over this.

    CI jobs that intentionally run the suite under ambient knobs (the
    parallel-suite job exports ``REPRO_SCHED_WORKERS``) list them in
    ``REPRO_TEST_KEEP_ENV`` (comma-separated) to exempt them.
    """
    keep = {
        name.strip()
        for name in os.environ.get("REPRO_TEST_KEEP_ENV", "").split(",")
        if name.strip()
    }
    for name in list(os.environ):
        if name.startswith(_HERMETIC_PREFIXES) and name not in keep:
            monkeypatch.delenv(name)
    if "REPRO_DISK_CACHE" not in keep:
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    if "REPRO_DISK_CACHE_DIR" not in keep:
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "disk-cache"))
    yield
    # The serving layer installs its shared result store process-wide
    # (and fake:// URLs register in a process-global registry); neither
    # may leak into the next test.
    from repro.experiments import resultstore

    resultstore.set_active_store(None)
    resultstore.reset_fakes()


def make_event(
    pc: int = 0x7F00_0040_1000,
    kind: BranchKind = BranchKind.COND_DIRECT,
    taken: bool = True,
    target: int = 0x7F00_0040_1400,
    gap: int = 4,
) -> BranchEvent:
    """Build a branch event with sensible defaults."""
    return BranchEvent(pc, kind, taken, target, gap)


def make_trace(events: list[tuple[int, BranchKind, bool, int, int]], name: str = "test") -> Trace:
    """Build a trace from raw tuples."""
    return Trace(name, "uncategorised", *zip(*events))


def synthetic_branch_set(
    count: int,
    seed: int = 0,
    base: int = 0x7000_0000_0000,
    same_page_fraction: float = 0.6,
) -> list[tuple[int, int]]:
    """Random (pc, target) pairs with a controlled same-page fraction."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pc = base + rng.randrange(0, 1 << 24) * 4
        if rng.random() < same_page_fraction:
            target = (pc & ~0xFFF) | (rng.randrange(0, 1024) * 4)
        else:
            target = base + rng.randrange(0, 1 << 24) * 4
        pairs.append((pc, target))
    return pairs


def low_address_trace(seed: int, n_events: int = 4000) -> Trace:
    """A random trace with 30% of its branch pcs in ``0x40..0xdc`` and
    gaps of 0-59 instructions, so many blocks start below address 0."""
    rng = random.Random(seed)
    kinds = list(BranchKind)

    def address() -> int:
        if rng.random() < 0.3:
            return 0x40 + 4 * rng.randrange(40)
        return 0x40_0000 + 4 * rng.randrange(1 << 12)

    events = []
    for _ in range(n_events):
        pc = address()
        kind = rng.choice(kinds)
        taken = kind is not BranchKind.COND_DIRECT or rng.random() < 0.6
        target = address() if taken else pc + 4
        events.append((pc, kind, taken, target, rng.randrange(60)))
    return make_trace(events, name=f"low-address-{seed}")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def loop_trace() -> Trace:
    """A tight loop plus a call/return pair -- exercises every kind."""
    loop_pc = 0x1000_1000
    loop_target = 0x1000_0F00
    call_pc = 0x1000_1040
    callee = 0x2000_0000
    ret_pc = 0x2000_0020
    events = []
    for _ in range(50):
        for _ in range(3):
            events.append((loop_pc, BranchKind.COND_DIRECT, True, loop_target, 5))
        events.append((loop_pc, BranchKind.COND_DIRECT, False, loop_pc + 4, 5))
        events.append((call_pc, BranchKind.CALL_DIRECT, True, callee, 3))
        events.append((ret_pc, BranchKind.RETURN, True, call_pc + 4, 6))
    return make_trace(events, name="loop")
