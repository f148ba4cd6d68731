"""Instruction-cache model.

A plain set-associative L1-I with LRU replacement, consulted for every
code line a basic block touches.  Its job in this study is to charge
realistic frontend-supply stalls so that BTB-induced resteers can be
put in proportion (Figure 1's Top-Down breakdown), not to be a detailed
memory-hierarchy model -- misses cost a flat L2-hit latency.
"""

from __future__ import annotations


class ICache:
    """Set-associative instruction cache with LRU replacement."""

    def __init__(self, size_kib: int = 32, line_bytes: int = 64, ways: int = 8) -> None:
        if size_kib <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("cache geometry must be positive")
        total_lines = size_kib * 1024 // line_bytes
        if total_lines % ways:
            raise ValueError("line count must be divisible by ways")
        self.sets = total_lines // ways
        self.ways = ways
        self.line_bytes = line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        # Per-set list of resident line addresses, most recent last.
        self._lines: list[list[int]] = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0

    def touch_line(self, line_addr: int) -> bool:
        """Access one line; returns True on hit."""
        self.accesses += 1
        index = line_addr % self.sets
        resident = self._lines[index]
        if line_addr in resident:
            resident.remove(line_addr)
            resident.append(line_addr)
            return True
        self.misses += 1
        if len(resident) >= self.ways:
            resident.pop(0)
        resident.append(line_addr)
        return False

    def touch_range(self, start: int, end: int) -> int:
        """Access every line in ``[start, end]``; returns the miss count."""
        if end < start:
            end = start
        first = start >> self._line_shift
        last = end >> self._line_shift
        misses = 0
        for line_addr in range(first, last + 1):
            if not self.touch_line(line_addr):
                misses += 1
        return misses

    def clone(self) -> "ICache":
        """Independent copy of the full cache state (fast list copies).

        The vector engine replays the reference stream once per
        geometry and hands each simulator a clone of the end state, so
        post-run inspection matches a live run without re-simulating.
        """
        clone = ICache.__new__(ICache)
        clone.sets = self.sets
        clone.ways = self.ways
        clone.line_bytes = self.line_bytes
        clone._line_shift = self._line_shift
        clone._lines = [list(lines) for lines in self._lines]
        clone.accesses = self.accesses
        clone.misses = self.misses
        return clone

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def snapshot(self) -> dict:
        """Flat metric snapshot for the observability registry."""
        return {
            "icache_accesses_total": self.accesses,
            "icache_misses_total": self.misses,
            "icache_miss_rate": self.miss_rate,
            "icache_lines": self.sets * self.ways,
        }
