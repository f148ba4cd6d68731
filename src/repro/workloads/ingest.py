"""Portable branch-trace ingestion: the versioned RBT format family.

The legacy text format (:mod:`repro.workloads.textformat`) is fine for
interchange between tools that already agree on it, but it carries no
version marker, no integrity framing, and balloons to ~40 bytes per
event.  Real traces captured with Pin/DynamoRIO tools or converted from
CBP trace sets arrive through *this* module instead, in one of two
framings that share a version number and a validation pipeline:

**RBT text (version 1)** -- self-describing and diffable::

    %RBT 1
    # name: server_oltp_00
    # category: Server
    7f001234abcd COND T 7f001234ab00 7
    ...

One record per dynamic branch: ``<pc-hex> <kind> <T|N> <target-hex>
<gap-decimal>``, with the kind vocabulary of the legacy format (``COND``
``JMP`` ``CALL`` ``IJMP`` ``ICALL`` ``RET``).  The ``%RBT <version>``
magic line must come first; ``# name:`` / ``# category:`` headers and
``#`` comments may appear anywhere.

**RBT binary (version 1)** -- compact delta framing (echoing the
paper's observation that branch targets cluster near their branch)::

    magic   : the 4 bytes ``52 42 54 01`` ("RBT" + version)
    header  : uvarint name length, name bytes (UTF-8),
              uvarint category length, category bytes (UTF-8),
              uvarint event count
    records : per event --
              flags byte   (bits 0-2: BranchKind, bit 3: taken),
              zigzag uvarint pc delta vs the previous record's pc,
              zigzag uvarint target delta vs this record's pc,
              uvarint gap

Varints are LEB128 (7 payload bits per byte, high bit continues);
zigzag maps signed deltas to unsigned (0, -1, 1, -2 -> 0, 1, 2, 3).
Because most consecutive branches and most targets sit within a few
KiB of each other (Figs 6/8), records average ~5 bytes.

Both loaders stream -- text line-by-line, binary through a bounded
chunk reader -- and reject malformed input with :class:`IngestError`,
which carries a machine-readable ``code`` and the offending line/byte
position so converters can be debugged without a hex editor.

:func:`import_trace` is the front door used by ``repro convert`` and
``repro simulate --trace``: it sniffs the framing, loads the trace, and
(by default) runs the characterization gate of
:mod:`repro.analysis.characterize` so out-of-envelope captures are
refused with actionable diagnostics instead of silently skewing every
downstream experiment.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, TextIO

import numpy as np

from repro.branch.types import BranchKind
from repro.workloads.textformat import _KIND_TO_TOKEN, _TOKEN_TO_KIND, _parse_header
from repro.workloads.trace import COLUMN_DTYPES, Trace

if TYPE_CHECKING:
    from repro.analysis.characterize import (
        CharacterizationEnvelope,
        CharacterizationProfile,
    )

__all__ = [
    "FORMAT_VERSION",
    "IngestError",
    "check_columns",
    "detect_format",
    "dump_any",
    "dump_binary",
    "dump_text",
    "import_trace",
    "load_any",
    "load_binary",
    "load_text",
]

#: Version shared by the text and binary framings.
FORMAT_VERSION = 1

#: First token of the text framing's magic line.
TEXT_MAGIC = "%RBT"

#: Leading bytes of the binary framing ("RBT" + version byte).
BINARY_MAGIC = b"RBT" + bytes([FORMAT_VERSION])

#: Addresses must fit the 64-bit model (the simulator masks to 57 bits
#: internally, but the interchange format carries raw capture values).
_MAX_ADDRESS = (1 << 64) - 1

#: Gaps must fit the trace's ``uint32`` gap column.
_MAX_GAP = (1 << 32) - 1

#: Caps that turn corrupt varint streams into structured errors instead
#: of gigabyte allocations.
_MAX_STRING_BYTES = 4096
_MAX_EVENTS = 1 << 32
_MAX_VARINT_BYTES = 10

_KIND_COUNT = len(BranchKind)
_TAKEN_BIT = 1 << 3


class IngestError(ValueError):
    """A malformed or out-of-spec input, with a machine-readable code.

    Attributes:
        code: stable error identifier (``bad-magic``, ``bad-record``,
            ``truncated``, ...) for tests and tooling.
        line: 1-based line number (text framing) when known.
        offset: byte offset (binary framing) when known.
    """

    def __init__(
        self,
        code: str,
        message: str,
        line: int | None = None,
        offset: int | None = None,
    ) -> None:
        location = ""
        if line is not None:
            location = f"line {line}: "
        elif offset is not None:
            location = f"byte {offset}: "
        super().__init__(f"{location}{message} [{code}]")
        self.code = code
        self.message = message
        self.line = line
        self.offset = offset


# -- text framing ------------------------------------------------------------


def dump_text(trace: Trace, destination: str | Path | TextIO) -> None:
    """Write ``trace`` in the RBT text framing (path or open file)."""
    if hasattr(destination, "write"):
        _write_text(trace, destination)
        return
    with open(Path(destination), "w") as handle:
        _write_text(trace, handle)


def _write_text(trace: Trace, handle: TextIO) -> None:
    handle.write(f"{TEXT_MAGIC} {FORMAT_VERSION}\n")
    handle.write(f"# name: {trace.name}\n")
    handle.write(f"# category: {trace.category}\n")
    for pc, kind, taken, target, gap in trace.events():
        token = _KIND_TO_TOKEN[BranchKind(kind)]
        handle.write(f"{pc:x} {token} {'T' if taken else 'N'} {target:x} {gap}\n")


def load_text(source: str | Path | TextIO | Iterable[str]) -> Trace:
    """Parse an RBT text trace, streaming line by line."""
    if isinstance(source, (str, Path)):
        with open(Path(source)) as handle:
            return _parse_text(handle)
    return _parse_text(source)


def _parse_text(lines: Iterable[str]) -> Trace:
    header = {"name": "trace", "category": "uncategorised"}
    columns: tuple[list, ...] = ([], [], [], [], [])
    appends = [column.append for column in columns]
    saw_magic = False
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not saw_magic:
            if not line.startswith(TEXT_MAGIC):
                raise IngestError(
                    "bad-magic",
                    f"expected a '{TEXT_MAGIC} {FORMAT_VERSION}' magic line first "
                    f"(got {line[:40]!r}); legacy headerless traces go through "
                    "repro.workloads.textformat",
                    line=line_number,
                )
            fields = line.split()
            if len(fields) != 2 or not fields[1].isdigit():
                raise IngestError(
                    "bad-magic",
                    f"magic line must be '{TEXT_MAGIC} <version>', got {line!r}",
                    line=line_number,
                )
            version = int(fields[1])
            if version != FORMAT_VERSION:
                raise IngestError(
                    "unsupported-version",
                    f"RBT version {version} is not supported "
                    f"(this reader understands version {FORMAT_VERSION})",
                    line=line_number,
                )
            saw_magic = True
            continue
        if not line:
            continue
        if line.startswith("#"):
            _parse_header(header, line)
            continue
        for append, value in zip(appends, _parse_record(line, line_number)):
            append(value)
    if not saw_magic:
        raise IngestError("bad-magic", "empty input: no magic line", line=1)
    return Trace(header["name"], header["category"], *columns)


def _parse_record(line: str, line_number: int) -> tuple[int, int, bool, int, int]:
    fields = line.split()
    if len(fields) != 5:
        raise IngestError(
            "bad-record",
            f"expected 5 fields '<pc> <kind> <T|N> <target> <gap>', got "
            f"{len(fields)}",
            line=line_number,
        )
    pc_text, token, taken_text, target_text, gap_text = fields
    kind = _TOKEN_TO_KIND.get(token.upper())
    if kind is None:
        raise IngestError(
            "bad-kind",
            f"unknown branch kind {token!r} (expected one of "
            f"{sorted(_TOKEN_TO_KIND)})",
            line=line_number,
        )
    if taken_text not in ("T", "N", "t", "n"):
        raise IngestError(
            "bad-taken",
            f"taken flag must be T or N, got {taken_text!r}",
            line=line_number,
        )
    taken = taken_text in ("T", "t")
    if kind.is_unconditional and not taken:
        raise IngestError(
            "bad-taken",
            f"{token} branches are always taken; refusing a not-taken record",
            line=line_number,
        )
    try:
        pc = int(pc_text, 16)
        target = int(target_text, 16)
        gap = int(gap_text)
    except ValueError as error:
        raise IngestError("bad-record", str(error), line=line_number) from None
    _validate_values(pc, target, gap, line=line_number)
    return pc, int(kind), taken, target, gap


def _validate_values(
    pc: int, target: int, gap: int, line: int | None = None, offset: int | None = None
) -> None:
    if not 0 <= pc <= _MAX_ADDRESS:
        raise IngestError(
            "bad-address", f"pc {pc:#x} outside the 64-bit model", line=line,
            offset=offset,
        )
    if not 0 <= target <= _MAX_ADDRESS:
        raise IngestError(
            "bad-address", f"target {target:#x} outside the 64-bit model",
            line=line, offset=offset,
        )
    if gap < 0:
        raise IngestError("bad-gap", f"negative gap {gap}", line=line, offset=offset)
    if gap > _MAX_GAP:
        raise IngestError(
            "bad-gap", f"gap {gap} exceeds the 32-bit gap column", line=line,
            offset=offset,
        )


def check_columns(columns: dict) -> None:
    """Range-check the raw event columns of a ``.npz`` trace, by name as
    in :data:`~repro.workloads.trace.COLUMN_DTYPES`, before they are cast
    to the trace dtypes; the same bounds as :func:`_validate_values`,
    plus kinds and takens.  A violation raises a coded
    :class:`IngestError` naming the first offending event."""
    missing = [name for name in COLUMN_DTYPES if name not in columns]
    if missing:
        raise IngestError("bad-record", f"missing column(s) {', '.join(missing)}")
    lengths = set()
    for name in COLUMN_DTYPES:
        column = columns[name]
        if column.ndim != 1 or column.dtype.kind not in "biu":
            raise IngestError(
                "bad-record",
                f"column {name} is {column.ndim}-D {column.dtype}, not a 1-D integer column",
            )
        lengths.add(len(column))
    if len(lengths) > 1:
        raise IngestError("bad-record", f"columns of unequal lengths {sorted(lengths)}")
    for name, code, limit in (
        ("pcs", "bad-address", _MAX_ADDRESS),
        ("targets", "bad-address", _MAX_ADDRESS),
        ("gaps", "bad-gap", _MAX_GAP),
        ("kinds", "bad-kind", _KIND_COUNT - 1),
        ("takens", "bad-taken", 1),
    ):
        column = columns[name]
        if not len(column) or (int(column.min()) >= 0 and int(column.max()) <= limit):
            continue
        event = int(np.flatnonzero((column < 0) | (column > limit))[0])
        raise IngestError(
            code, f"event {event}: {name[:-1]} {int(column[event])} outside [0, {limit}]"
        )


# -- binary framing ----------------------------------------------------------


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not (value & 1) else -((value + 1) >> 1)


def _append_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _ByteReader:
    """Bounded, offset-tracking chunk reader over a binary stream."""

    def __init__(self, stream: BinaryIO, chunk_size: int = 1 << 16) -> None:
        self._stream = stream
        self._chunk_size = chunk_size
        self._buffer = b""
        self._position = 0
        #: Bytes consumed so far (for error locations).
        self.offset = 0

    def _fill(self) -> bool:
        chunk = self._stream.read(self._chunk_size)
        if not chunk:
            return False
        self._buffer = self._buffer[self._position:] + chunk
        self._position = 0
        return True

    def read_byte(self) -> int:
        if self._position >= len(self._buffer) and not self._fill():
            raise IngestError(
                "truncated", "unexpected end of input", offset=self.offset
            )
        byte = self._buffer[self._position]
        self._position += 1
        self.offset += 1
        return byte

    def read_exact(self, count: int) -> bytes:
        parts = []
        remaining = count
        while remaining:
            if self._position >= len(self._buffer) and not self._fill():
                raise IngestError(
                    "truncated",
                    f"unexpected end of input ({remaining} byte(s) short)",
                    offset=self.offset,
                )
            take = min(remaining, len(self._buffer) - self._position)
            parts.append(self._buffer[self._position:self._position + take])
            self._position += take
            self.offset += take
            remaining -= take
        return b"".join(parts)

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        for _ in range(_MAX_VARINT_BYTES):
            byte = self.read_byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
        raise IngestError(
            "bad-varint",
            f"varint longer than {_MAX_VARINT_BYTES} bytes (corrupt stream?)",
            offset=self.offset,
        )

    def at_eof(self) -> bool:
        return self._position >= len(self._buffer) and not self._fill()


def dump_binary(trace: Trace, destination: str | Path | BinaryIO) -> None:
    """Write ``trace`` in the RBT binary framing (path or open file)."""
    if hasattr(destination, "write"):
        destination.write(_encode_binary(trace))
        return
    with open(Path(destination), "wb") as handle:
        handle.write(_encode_binary(trace))


def _encode_binary(trace: Trace) -> bytes:
    out = bytearray(BINARY_MAGIC)
    name = trace.name.encode("utf-8")
    category = trace.category.encode("utf-8")
    _append_uvarint(out, len(name))
    out.extend(name)
    _append_uvarint(out, len(category))
    out.extend(category)
    _append_uvarint(out, len(trace))
    previous_pc = 0
    for pc, kind, taken, target, gap in trace.events():
        out.append(int(kind) | (_TAKEN_BIT if taken else 0))
        _append_uvarint(out, _zigzag(pc - previous_pc))
        _append_uvarint(out, _zigzag(target - pc))
        _append_uvarint(out, gap)
        previous_pc = pc
    return bytes(out)


def load_binary(source: str | Path | BinaryIO | bytes) -> Trace:
    """Parse an RBT binary trace through a streaming chunk reader."""
    if isinstance(source, bytes):
        return _parse_binary(_ByteReader(io.BytesIO(source)))
    if isinstance(source, (str, Path)):
        with open(Path(source), "rb") as handle:
            return _parse_binary(_ByteReader(handle))
    return _parse_binary(_ByteReader(source))


def _read_string(reader: _ByteReader, what: str) -> str:
    length = reader.read_uvarint()
    if length > _MAX_STRING_BYTES:
        raise IngestError(
            "bad-header",
            f"{what} length {length} exceeds the {_MAX_STRING_BYTES}-byte cap",
            offset=reader.offset,
        )
    raw = reader.read_exact(length)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise IngestError(
            "bad-header", f"{what} is not valid UTF-8: {error}", offset=reader.offset
        ) from None


def _parse_binary(reader: _ByteReader) -> Trace:
    magic = reader.read_exact(len(BINARY_MAGIC))
    if magic[:3] != BINARY_MAGIC[:3]:
        raise IngestError(
            "bad-magic",
            f"not an RBT binary stream (leading bytes {magic[:3]!r})",
            offset=0,
        )
    if magic[3] != FORMAT_VERSION:
        raise IngestError(
            "unsupported-version",
            f"RBT binary version {magic[3]} is not supported "
            f"(this reader understands version {FORMAT_VERSION})",
            offset=3,
        )
    name = _read_string(reader, "name")
    category = _read_string(reader, "category")
    n_events = reader.read_uvarint()
    if n_events > _MAX_EVENTS:
        raise IngestError(
            "bad-header",
            f"event count {n_events} exceeds the {_MAX_EVENTS} cap",
            offset=reader.offset,
        )
    pcs: list[int] = []
    kinds: list[int] = []
    takens: list[bool] = []
    targets: list[int] = []
    gaps: list[int] = []
    previous_pc = 0
    for index in range(n_events):
        record_offset = reader.offset
        flags = reader.read_byte()
        kind_value = flags & 0x7
        if kind_value >= _KIND_COUNT or flags & ~(_TAKEN_BIT | 0x7):
            raise IngestError(
                "bad-record",
                f"record {index}: invalid flags byte {flags:#04x}",
                offset=record_offset,
            )
        kind = BranchKind(kind_value)
        taken = bool(flags & _TAKEN_BIT)
        if kind.is_unconditional and not taken:
            raise IngestError(
                "bad-taken",
                f"record {index}: {kind.name} branches are always taken",
                offset=record_offset,
            )
        pc = previous_pc + _unzigzag(reader.read_uvarint())
        target = pc + _unzigzag(reader.read_uvarint())
        gap = reader.read_uvarint()
        _validate_values(pc, target, gap, offset=record_offset)
        pcs.append(pc)
        kinds.append(kind_value)
        takens.append(taken)
        targets.append(target)
        gaps.append(gap)
        previous_pc = pc
    if not reader.at_eof():
        raise IngestError(
            "trailing-data",
            f"{n_events} event(s) decoded but input continues",
            offset=reader.offset,
        )
    return Trace(name, category, pcs, kinds, takens, targets, gaps)


# -- sniffing and the front door ---------------------------------------------

#: Output framing by file suffix (``dump_any`` / ``repro convert``).
FORMAT_BY_SUFFIX = {
    ".rbt": "rbt-text",
    ".rbtb": "rbt-binary",
    ".npz": "npz",
    ".trace": "legacy-text",
    ".txt": "legacy-text",
}


def detect_format(path: str | Path) -> str:
    """Sniff the framing of ``path`` from its leading bytes.

    Returns one of ``rbt-text``, ``rbt-binary``, ``npz`` (the library's
    own container), or ``legacy-text`` (the headerless
    :mod:`repro.workloads.textformat`).
    """
    with open(Path(path), "rb") as handle:
        head = handle.read(8)
    if head[:3] == BINARY_MAGIC[:3] and len(head) >= 4 and head[3] < 0x20:
        return "rbt-binary"
    if head[:2] == b"PK":
        return "npz"
    if head[: len(TEXT_MAGIC)] == TEXT_MAGIC.encode():
        return "rbt-text"
    return "legacy-text"


def load_any(path: str | Path) -> Trace:
    """Load a trace in whatever supported framing ``path`` carries."""
    from repro.workloads.textformat import load_trace as load_legacy

    fmt = detect_format(path)
    if fmt == "rbt-binary":
        return load_binary(path)
    if fmt == "rbt-text":
        return load_text(path)
    if fmt == "npz":
        return Trace.load(path)
    return load_legacy(path)


def dump_any(trace: Trace, path: str | Path, fmt: str | None = None) -> str:
    """Write ``trace`` to ``path``; framing from ``fmt`` or the suffix.

    Returns the framing actually used.  Unknown suffixes default to the
    RBT text framing.
    """
    from repro.workloads.textformat import dump_trace as dump_legacy

    if fmt is None:
        fmt = FORMAT_BY_SUFFIX.get(Path(path).suffix, "rbt-text")
    if fmt == "rbt-binary":
        dump_binary(trace, path)
    elif fmt == "rbt-text":
        dump_text(trace, path)
    elif fmt == "npz":
        trace.save(path)
    elif fmt == "legacy-text":
        dump_legacy(trace, path)
    else:
        raise ValueError(
            f"unknown trace format {fmt!r}; options: "
            f"{sorted({*FORMAT_BY_SUFFIX.values()})}"
        )
    return fmt


def import_trace(
    path: str | Path,
    gate: bool = True,
    envelope: "CharacterizationEnvelope | None" = None,
) -> "tuple[Trace, CharacterizationProfile]":
    """Load ``path`` and validate it through the characterization gate.

    This is the canonical entry point for real traces: every import is
    profiled (:func:`repro.analysis.characterize.characterize`) and, by
    default, checked against the paper envelope -- a trace whose
    branch-kind mix, footprint, or locality falls outside what the
    Figs 3-8 characterization establishes is rejected with
    :class:`repro.analysis.characterize.EnvelopeError` naming each
    violated bound.  ``gate=False`` still profiles but never rejects.
    """
    from repro.analysis.characterize import characterize, paper_envelope

    trace = load_any(path)
    profile = characterize(trace)
    if gate:
        (envelope or paper_envelope()).check(profile)
    return trace, profile
