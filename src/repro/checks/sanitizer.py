"""Microarchitectural sanitizer: opt-in runtime invariant checking.

PAPER.md states invariants the structures themselves never verify; this
module verifies them at configurable intervals while a simulation runs
(DESIGN.md "Runtime invariants" maps each one to its paper section):

* ``pointer-liveness``     -- every valid non-delta BTBM entry's region/
  page pointers name in-range, live Region-/Page-BTB slots (Section 4.2:
  the BTBM never holds dangling-*new* pointers).
* ``generation-coherence`` -- a stored generation never exceeds the
  table slot's; with ``invalidate_stale_pointers`` it must match exactly
  (Section 4.4.2's stale-read accounting depends on this ordering).
* ``link-balance``         -- in invalidating mode the reverse user maps
  mirror the forward pointers exactly (alloc/unlink refcounting).
* ``delta-legality``       -- delta entries are same-page: no pointers,
  offsets within 12 bits, short multi-entry ways hold only delta
  entries (Sections 4.3/4.3.1).
* ``field-width``          -- stored tags / confidences / offsets /
  values fit their declared widths (Table 2's bit budget is only
  honest if nothing overflows its field).
* ``replacement-state``    -- LRU orders are permutations, RRPVs within
  range, FIFO cursors in bounds.
* ``dedup-uniqueness``     -- a DedupValueTable stores each value at
  most once (Section 4.2: that *is* the deduplication).
* ``storage-accounting``   -- live structures' ``storage_bits()`` agree
  with the Table 2 accounting in :mod:`repro.storage.bits`.
* ``ras-state``            -- RAS size/cursor within bounds, counter
  arithmetic consistent.

Mirrors :mod:`repro.obs`: disabled (the default) the module-level hook
is a branch on ``None`` -- a true no-op that never inspects state --
so the hot loop pays ~nothing.  Enable with ``--sanitize`` on the CLI
or :func:`use_sanitizer` in tests.  A violation raises
:class:`InvariantViolation` carrying the structure, set/way, and a
state snapshot of the offending slot.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "DEFAULT_CHECK_INTERVAL",
    "InvariantViolation",
    "NullSanitizer",
    "Sanitizer",
    "disable_sanitizer",
    "enable_sanitizer",
    "get_sanitizer",
    "sanitizer_enabled",
    "sanitizer_step",
    "use_sanitizer",
]

#: Structure updates between two full checks of the stepping structure.
#: Sweeps are O(entries); 8192 keeps the armed tax inside the 10%
#: budget (benchmarks/bench_sanitizer_overhead.py) while still
#: sweeping dozens of times per smoke-scale run.
DEFAULT_CHECK_INTERVAL = 8192

_NO_PTR = -1  # mirrors repro.core.pdede (duck-typed, no import cycle)
_NO_TAG = -1  # flat-storage sentinel: invalid BTB slots must hold this tag


class InvariantViolation(AssertionError):
    """A runtime invariant does not hold.

    Attributes:
        invariant: invariant code (``pointer-liveness``, ...).
        structure: human name of the offending structure.
        set_index / way: offending slot when the invariant is per-slot.
        snapshot: small dict of the slot / structure state at detection.
    """

    def __init__(
        self,
        invariant: str,
        structure: str,
        message: str,
        set_index: int | None = None,
        way: int | None = None,
        snapshot: dict | None = None,
    ) -> None:
        self.invariant = invariant
        self.structure = structure
        self.set_index = set_index
        self.way = way
        self.snapshot = snapshot or {}
        location = ""
        if set_index is not None:
            location = f" at set {set_index}" + (f" way {way}" if way is not None else "")
        super().__init__(f"[{invariant}] {structure}{location}: {message}")


def _violate(
    invariant: str,
    structure: str,
    message: str,
    set_index: int | None = None,
    way: int | None = None,
    **snapshot: Any,
) -> None:
    raise InvariantViolation(
        invariant, structure, message, set_index=set_index, way=way, snapshot=snapshot
    )


# -- per-structure checkers (duck-typed; no imports from core/btb) ----------


def _check_replacement(table, structure: str, slot_ways: int) -> None:
    """Replacement-state sanity for one table (a
    :class:`~repro.btb.replacement.ReplacementTable`), whose slots are
    the structure's, ``slot_ways`` to a set (a multi-entry BTBM's table
    has two replacement sets per BTBM set)."""
    kind = type(table).__name__
    ways = table.ways
    if kind == "SrripTable":
        rrpv = table.rrpv
        limit = (1 << table._m) - 1
        if min(rrpv) < 0 or max(rrpv) > limit:
            slot = next(slot for slot, value in enumerate(rrpv) if not 0 <= value <= limit)
            set_index, way = divmod(slot, slot_ways)
            _violate(
                "replacement-state",
                structure,
                f"RRPV {rrpv[slot]} outside [0, {limit}]",
                set_index=set_index,
                way=way,
                rrpv=rrpv[slot],
            )
    elif kind == "LruTable":
        order, expected = table._order, list(range(ways))
        for base in range(0, len(order), ways):
            window = order[base:base + ways]
            if sorted(window) != expected:
                _violate(
                    "replacement-state",
                    structure,
                    f"LRU order {window} is not a permutation of 0..{ways - 1}",
                    set_index=base // slot_ways,
                    order=window,
                )
    elif kind == "FifoTable":
        for set_index, cursor in enumerate(table._next):
            if not 0 <= cursor < ways:
                _violate(
                    "replacement-state",
                    structure,
                    f"FIFO cursor {cursor} outside [0, {ways})",
                    set_index=set_index * ways // slot_ways,
                    cursor=cursor,
                )


def check_dedup_table(table) -> None:
    """Invariants of one :class:`~repro.core.tables.DedupValueTable`."""
    name = table.name
    value_limit = 1 << table.value_bits
    seen: dict[int, tuple[int, int]] = {}
    _check_replacement(table._replacement, name, table.ways)
    for set_index in range(table.sets):
        for way in range(table.ways):
            if not table._valid[set_index][way]:
                continue
            value = table._values[set_index][way]
            if not 0 <= value < value_limit:
                _violate(
                    "field-width",
                    name,
                    f"stored value {value:#x} exceeds {table.value_bits} bits",
                    set_index=set_index,
                    way=way,
                    value=value,
                )
            if table._generations[set_index][way] < 0:
                _violate(
                    "generation-coherence",
                    name,
                    "negative slot generation",
                    set_index=set_index,
                    way=way,
                    generation=table._generations[set_index][way],
                )
            if value in seen:
                _violate(
                    "dedup-uniqueness",
                    name,
                    f"value {value:#x} stored twice (also at set {seen[value][0]} "
                    f"way {seen[value][1]}): the table no longer deduplicates",
                    set_index=set_index,
                    way=way,
                    value=value,
                    first_slot=seen[value],
                )
            seen[value] = (set_index, way)
    expected_bits = table.entries * (table.value_bits + table.srrip_bits)
    if table.storage_bits() != expected_bits:
        _violate(
            "storage-accounting",
            name,
            f"storage_bits() = {table.storage_bits()} but geometry implies "
            f"{expected_bits}",
            reported=table.storage_bits(),
            expected=expected_bits,
        )


def _slot_snapshot(btb, set_index: int, way: int) -> dict:
    """A BTBM slot's fields, built only once a check on it has failed."""
    slot = set_index * btb._ways + way
    return {
        "valid": btb._valid[slot],
        "tag": btb._tags[slot],
        "delta": btb._delta[slot],
        "offset": btb._offsets[slot],
        "page_ptr": btb._page_ptr[slot],
        "region_ptr": btb._region_ptr[slot],
        "page_gen": btb._page_gen[slot],
        "region_gen": btb._region_gen[slot],
        "conf": btb._conf[slot],
    }


def _check_pdede_slot(btb, cfg, set_index: int, way: int) -> None:
    name = "btbm"
    slot = set_index * btb._ways + way
    tag = btb._tags[slot]
    if tag < 0 or tag >> cfg.tag_bits:
        # A negative tag on a *valid* slot means the _NO_TAG sentinel leaked.
        _violate(
            "field-width",
            name,
            f"tag {tag:#x} outside [0, 2**{cfg.tag_bits})",
            set_index=set_index,
            way=way,
            **_slot_snapshot(btb, set_index, way),
        )
    conf = btb._conf[slot]
    if not 0 <= conf < (1 << cfg.conf_bits):
        _violate(
            "field-width",
            name,
            f"confidence {conf} exceeds {cfg.conf_bits} bits",
            set_index=set_index,
            way=way,
            **_slot_snapshot(btb, set_index, way),
        )
    offset = btb._offsets[slot]
    if offset >> 12:
        _violate(
            "field-width",
            name,
            f"page offset {offset:#x} exceeds 12 bits",
            set_index=set_index,
            way=way,
            **_slot_snapshot(btb, set_index, way),
        )
    if btb._delta[slot]:
        if btb._page_ptr[slot] != _NO_PTR or btb._region_ptr[slot] != _NO_PTR:
            _violate(
                "delta-legality",
                name,
                "delta (same-page) entry carries live region/page pointers",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )
        if btb._next_valid[slot] and btb._next_offset[slot] >> 12:
            _violate(
                "delta-legality",
                name,
                "next-target offset exceeds 12 bits",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )
        return
    # Pointer-carrying entry.
    if way >= btb._short_base:
        _violate(
            "delta-legality",
            name,
            "short (pointer-less) multi-entry way holds a different-page entry",
            set_index=set_index,
            way=way,
            **_slot_snapshot(btb, set_index, way),
        )
    for label, table, pointer, generation in (
        ("page", btb.page_btb, btb._page_ptr[slot], btb._page_gen[slot]),
        ("region", btb.region_btb, btb._region_ptr[slot], btb._region_gen[slot]),
    ):
        if not 0 <= pointer < table.entries:
            _violate(
                "pointer-liveness",
                name,
                f"{label} pointer {pointer} outside [0, {table.entries})",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )
        t_set, t_way = divmod(pointer, table.ways)
        if not table._valid[t_set][t_way]:
            _violate(
                "pointer-liveness",
                name,
                f"{label} pointer {pointer} names an invalid {table.name} slot",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )
        slot_generation = table._generations[t_set][t_way]
        if generation > slot_generation:
            _violate(
                "generation-coherence",
                name,
                f"stored {label} generation {generation} exceeds the slot's "
                f"{slot_generation} (generations only move forward)",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )
        if cfg.invalidate_stale_pointers and generation != slot_generation:
            _violate(
                "generation-coherence",
                name,
                f"stale {label} pointer survived invalidating mode "
                f"(stored generation {generation} != slot {slot_generation})",
                set_index=set_index,
                way=way,
                **_slot_snapshot(btb, set_index, way),
            )


def _check_pdede_links(btb) -> None:
    """Link/unlink balance of the reverse pointer maps (invalidating mode)."""
    for label, users, ptrs in (
        ("page", btb._page_ptr_users, btb._page_ptr),
        ("region", btb._region_ptr_users, btb._region_ptr),
    ):
        forward: dict[int, set[tuple[int, int]]] = {}
        ways = btb._ways
        for slot in range(btb._sets * ways):
            if btb._valid[slot] and not btb._delta[slot]:
                forward.setdefault(ptrs[slot], set()).add(divmod(slot, ways))
        for pointer, slots in users.items():
            extra = slots - forward.get(pointer, set())
            if extra:
                set_index, way = min(extra)
                _violate(
                    "link-balance",
                    "btbm",
                    f"{label} user map lists slot(s) {sorted(extra)} under "
                    f"pointer {pointer}, but they are invalid or point "
                    "elsewhere (unlink missed)",
                    set_index=set_index,
                    way=way,
                    pointer=pointer,
                )
        for pointer, slots in forward.items():
            missing = slots - users.get(pointer, set())
            if missing:
                set_index, way = min(missing)
                _violate(
                    "link-balance",
                    "btbm",
                    f"valid entry slot(s) {sorted(missing)} hold {label} "
                    f"pointer {pointer} but are absent from the user map "
                    "(link missed)",
                    set_index=set_index,
                    way=way,
                    pointer=pointer,
                )


def check_pdede(btb) -> None:
    """Full invariant sweep of a :class:`~repro.core.pdede.PDedeBTB`."""
    cfg = btb.config
    _check_replacement(btb._replacement, "btbm", btb._ways)
    for set_index in range(btb._sets):
        base = set_index * btb._ways
        for way in range(btb._ways):
            if btb._valid[base + way]:
                _check_pdede_slot(btb, cfg, set_index, way)
            elif btb._tags[base + way] != _NO_TAG:
                _violate(
                    "field-width",
                    "btbm",
                    f"invalid slot holds stale tag {btb._tags[base + way]:#x} "
                    f"instead of the {_NO_TAG} sentinel (flat tag match "
                    "would false-hit)",
                    set_index=set_index,
                    way=way,
                    tag=btb._tags[base + way],
                )
    if cfg.invalidate_stale_pointers:
        _check_pdede_links(btb)
    check_dedup_table(btb.page_btb)
    check_dedup_table(btb.region_btb)
    expected = cfg.btbm_bits() + cfg.page_btb_bits() + cfg.region_btb_bits()
    if btb.storage_bits() != expected:
        _violate(
            "storage-accounting",
            "pdede",
            f"storage_bits() = {btb.storage_bits()} but the Table 2 components "
            f"sum to {expected}",
            reported=btb.storage_bits(),
            expected=expected,
        )
    if btb.page_btb.storage_bits() != cfg.page_btb_bits():
        _violate(
            "storage-accounting",
            "page-btb",
            f"table storage {btb.page_btb.storage_bits()} != configured "
            f"{cfg.page_btb_bits()}",
            reported=btb.page_btb.storage_bits(),
            expected=cfg.page_btb_bits(),
        )
    if btb.region_btb.storage_bits() != cfg.region_btb_bits():
        _violate(
            "storage-accounting",
            "region-btb",
            f"table storage {btb.region_btb.storage_bits()} != configured "
            f"{cfg.region_btb_bits()}",
            reported=btb.region_btb.storage_bits(),
            expected=cfg.region_btb_bits(),
        )


def check_baseline(btb) -> None:
    """Invariants of a :class:`~repro.btb.baseline.BaselineBTB`."""
    name = "baseline-btb"
    target_limit = 1 << btb.target_bits
    conf_limit = 1 << btb.conf_bits
    tag_limit = 1 << btb.tag_bits
    _check_replacement(btb._replacement, name, btb.ways)
    for set_index in range(btb.sets):
        base = set_index * btb.ways
        for way in range(btb.ways):
            slot = base + way
            if not btb._valid[slot]:
                if btb._tags[slot] != _NO_TAG:
                    _violate(
                        "field-width",
                        name,
                        f"invalid slot holds stale tag {btb._tags[slot]:#x} "
                        f"instead of the {_NO_TAG} sentinel",
                        set_index=set_index,
                        way=way,
                        tag=btb._tags[slot],
                    )
                continue
            tag = btb._tags[slot]
            target = btb._targets[slot]
            conf = btb._conf[slot]
            if not 0 <= tag < tag_limit:
                _violate(
                    "field-width",
                    name,
                    f"tag {tag:#x} outside [0, 2**{btb.tag_bits})",
                    set_index=set_index,
                    way=way,
                    tag=tag,
                )
            if not 0 <= target < target_limit:
                _violate(
                    "field-width",
                    name,
                    f"target {target:#x} exceeds {btb.target_bits} bits",
                    set_index=set_index,
                    way=way,
                    target=target,
                )
            if not 0 <= conf < conf_limit:
                _violate(
                    "field-width",
                    name,
                    f"confidence {conf} exceeds {btb.conf_bits} bits",
                    set_index=set_index,
                    way=way,
                    conf=conf,
                )
    from repro.storage.bits import baseline_storage_row  # late: avoids import cycle

    expected = baseline_storage_row(
        entries=btb.entries,
        ways=btb.ways,
        tag_bits=btb.tag_bits,
        target_bits=btb.target_bits,
        srrip_bits=btb._replacement.metadata_bits_per_entry(),
        conf_bits=btb.conf_bits,
        pid_bits=btb.pid_bits,
    ).total_bits
    if btb.storage_bits() != expected:
        _violate(
            "storage-accounting",
            name,
            f"storage_bits() = {btb.storage_bits()} but the Table 2 row sums "
            f"to {expected}",
            reported=btb.storage_bits(),
            expected=expected,
        )


def check_twolevel(btb) -> None:
    """Recurse into both levels of a :class:`~repro.btb.twolevel.TwoLevelBTB`."""
    for level in (btb.level0, btb.level1):
        checker = _CHECKERS.get(type(level).__name__)
        if checker is not None:
            checker(level)


def check_ras(ras) -> None:
    """Invariants of a :class:`~repro.btb.ras.ReturnAddressStack`."""
    name = "ras"
    if not 0 <= ras._size <= ras.depth:
        _violate(
            "ras-state",
            name,
            f"size {ras._size} outside [0, {ras.depth}]",
            size=ras._size,
            depth=ras.depth,
        )
    if not 0 <= ras._top < ras.depth:
        _violate(
            "ras-state",
            name,
            f"top-of-stack cursor {ras._top} outside [0, {ras.depth})",
            top=ras._top,
            depth=ras.depth,
        )
    if len(ras._buffer) != ras.depth:
        _violate(
            "ras-state",
            name,
            f"buffer length {len(ras._buffer)} != depth {ras.depth}",
            buffer_len=len(ras._buffer),
            depth=ras.depth,
        )
    if ras.underflows > ras.pops:
        _violate(
            "ras-state",
            name,
            f"underflow count {ras.underflows} exceeds pop count {ras.pops}",
            underflows=ras.underflows,
            pops=ras.pops,
        )


_CHECKERS: dict[str, Callable[[Any], None]] = {
    "PDedeBTB": check_pdede,
    "DedupValueTable": check_dedup_table,
    "BaselineBTB": check_baseline,
    "TwoLevelBTB": check_twolevel,
    "ReturnAddressStack": check_ras,
}


class NullSanitizer:
    """Disabled mode: every hook is a no-op that never reads state."""

    enabled = False
    interval = 0
    checks_run = 0
    steps = 0

    def step(self, structure) -> None:
        pass

    def check(self, structure) -> None:
        pass

    def snapshot(self) -> dict:
        return {}


class Sanitizer:
    """Counts structure updates; runs a full check every ``interval``.

    One shared step counter covers every instrumented structure, so with
    several structures active each is swept roughly every
    ``interval * structures`` own-updates -- cheap, deterministic, and
    independent of construction order.  ``check()`` verifies a structure
    immediately (tests and the CLI's final sweep use this).
    """

    enabled = True

    def __init__(self, interval: int = DEFAULT_CHECK_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.steps = 0
        self.checks_run = 0
        self.structures_seen: set[str] = set()

    def step(self, structure) -> None:
        self.steps += 1
        if self.steps % self.interval == 0:
            self.check(structure)

    def check(self, structure) -> None:
        checker = _CHECKERS.get(type(structure).__name__)
        if checker is None:
            return
        self.structures_seen.add(type(structure).__name__)
        self.checks_run += 1
        checker(structure)

    def snapshot(self) -> dict:
        """Flat metric snapshot (README observability naming scheme)."""
        return {
            "sanitizer_steps_total": self.steps,
            "sanitizer_checks_total": self.checks_run,
            "sanitizer_interval": self.interval,
            "sanitizer_structures": len(self.structures_seen),
        }


_NULL = NullSanitizer()
_ACTIVE: Sanitizer | None = None


def sanitizer_step(structure) -> None:
    """Hot-path hook: a ``None`` test when disabled, a counted step when on.

    Every instrumented structure calls this once per update; keeping the
    branch here (rather than a null-object method call) makes the
    disabled path one global load + identity test.
    """
    active = _ACTIVE
    if active is not None:
        active.step(structure)


def get_sanitizer() -> Sanitizer | NullSanitizer:
    """The active sanitizer, or the shared null object when disabled."""
    return _ACTIVE if _ACTIVE is not None else _NULL


def sanitizer_enabled() -> bool:
    return _ACTIVE is not None


def enable_sanitizer(interval: int = DEFAULT_CHECK_INTERVAL) -> Sanitizer:
    """Install (and return) a live sanitizer as the process-wide hook."""
    global _ACTIVE
    _ACTIVE = Sanitizer(interval=interval)
    return _ACTIVE


def disable_sanitizer() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def use_sanitizer(sanitizer: Sanitizer | None = None) -> Iterator[Sanitizer]:
    """Scope a sanitizer: install on entry, restore the prior one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sanitizer if sanitizer is not None else Sanitizer()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
