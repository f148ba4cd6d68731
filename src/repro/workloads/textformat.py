"""Plain-text branch-trace interchange format.

Lets the library consume traces produced by *other* tools (Pin/DynamoRIO
tools, CBP-style trace converters, other simulators) and export its own
synthetic traces for them.  One line per dynamic branch:

    <pc-hex> <kind> <T|N> <target-hex> <gap-decimal>

where ``kind`` is one of ``COND``, ``JMP``, ``CALL``, ``IJMP``, ``ICALL``,
``RET`` (matching :class:`~repro.branch.types.BranchKind`), ``T``/``N``
is the taken bit, and ``gap`` is the count of non-branch instructions
since the previous branch.  Lines starting with ``#`` are comments; a
``# name:`` / ``# category:`` header is honoured when present.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from repro.branch.types import BranchKind
from repro.workloads.trace import Trace

_KIND_TO_TOKEN = {
    BranchKind.COND_DIRECT: "COND",
    BranchKind.UNCOND_DIRECT: "JMP",
    BranchKind.CALL_DIRECT: "CALL",
    BranchKind.UNCOND_INDIRECT: "IJMP",
    BranchKind.CALL_INDIRECT: "ICALL",
    BranchKind.RETURN: "RET",
}
_TOKEN_TO_KIND = {token: kind for kind, token in _KIND_TO_TOKEN.items()}


class TraceFormatError(ValueError):
    """A malformed line or field in a text trace."""


def dump_trace(trace: Trace, destination: str | Path | TextIO) -> None:
    """Write ``trace`` in the text format (path or open file object)."""
    if hasattr(destination, "write"):
        _write(trace, destination)
        return
    with open(Path(destination), "w") as handle:
        _write(trace, handle)


def _write(trace: Trace, handle: TextIO) -> None:
    handle.write(f"# name: {trace.name}\n")
    handle.write(f"# category: {trace.category}\n")
    handle.write("# pc kind taken target gap\n")
    for pc, kind, taken, target, gap in trace.events():
        token = _KIND_TO_TOKEN[BranchKind(kind)]
        handle.write(
            f"{pc:x} {token} {'T' if taken else 'N'} {target:x} {gap}\n"
        )


def load_trace(source: str | Path | TextIO | Iterable[str]) -> Trace:
    """Parse a text trace from a path, open file, or iterable of lines."""
    if isinstance(source, (str, Path)):
        with open(Path(source)) as handle:
            return _parse(handle)
    return _parse(source)


def _parse(lines: Iterable[str]) -> Trace:
    header = {"name": "trace", "category": "uncategorised"}
    pcs: list[int] = []
    kinds: list[int] = []
    takens: list[bool] = []
    targets: list[int] = []
    gaps: list[int] = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_header(header, line)
            continue
        fields = line.split()
        if len(fields) != 5:
            raise TraceFormatError(
                f"line {line_number}: expected 5 fields, got {len(fields)}"
            )
        pc_text, token, taken_text, target_text, gap_text = fields
        kind = _TOKEN_TO_KIND.get(token.upper())
        if kind is None:
            raise TraceFormatError(
                f"line {line_number}: unknown branch kind {token!r} "
                f"(expected one of {sorted(_TOKEN_TO_KIND)})"
            )
        if taken_text not in ("T", "N", "t", "n"):
            raise TraceFormatError(
                f"line {line_number}: taken flag must be T or N, got {taken_text!r}"
            )
        taken = taken_text in ("T", "t")
        if kind.is_unconditional and not taken:
            raise TraceFormatError(
                f"line {line_number}: {token} branches are always taken"
            )
        try:
            pc = int(pc_text, 16)
            target = int(target_text, 16)
            gap = int(gap_text)
        except ValueError as error:
            raise TraceFormatError(f"line {line_number}: {error}") from None
        if not (0 <= pc < 1 << 64 and 0 <= target < 1 << 64):
            raise TraceFormatError(
                f"line {line_number}: address outside the 64-bit model"
            )
        if gap < 0:
            raise TraceFormatError(f"line {line_number}: negative gap")
        if gap >= 1 << 32:
            raise TraceFormatError(
                f"line {line_number}: gap {gap} exceeds the 32-bit gap column"
            )
        pcs.append(pc)
        kinds.append(int(kind))
        takens.append(taken)
        targets.append(target)
        gaps.append(gap)
    return Trace(header["name"], header["category"], pcs, kinds, takens, targets, gaps)


def _parse_header(header: dict[str, str], line: str) -> None:
    """Record a ``# name:`` / ``# category:`` header line in ``header``."""
    body = line.lstrip("#").strip()
    for field in header:
        prefix = f"{field}:"
        if body.startswith(prefix):
            header[field] = body[len(prefix):].strip()
