"""Persistent cross-process cache for traces and simulation results.

The in-process memo cache (:mod:`repro.experiments.harness`) dies with
the interpreter; every fresh ``python -m repro experiment`` regenerates
every trace and re-simulates every (app, design) pair even though both
are deterministic functions of their inputs.  This module persists the
two expensive artifacts:

* **generated traces** as uncompressed ``.npz`` under
  ``<root>/v<N>/traces/<sha256>.npz``, loaded back through a zip-member
  ``np.memmap`` so a warm start never copies the column data;
* **FrontendStats results** as JSON under
  ``<root>/v<N>/results/<sha256>.json``.

This module is the one reader and writer of result files
(:func:`load_result` / :func:`store_result`, with the
:func:`encode_result` / :func:`decode_result` codec).  The harness
reaches them through a :class:`~repro.experiments.resultstore.DiskStore`
over :func:`cache_root`; a ``disk:///path`` result store passes its
own ``root``; the sweep scheduler calls them directly.

Keys are content hashes: a trace key digests the full
:class:`~repro.workloads.spec.WorkloadSpec` (plus the generator-
algorithm version), a result key digests the spec digest, design key,
core parameters and warmup.  Changing any input -- or bumping
``GENERATOR_VERSION`` / ``RESULT_VERSION`` after an algorithm change --
changes the key, so stale entries are never *read*; they are merely
orphaned and garbage-collected by deleting old ``v<N>`` directories.

Concurrency follows the classic lock-free recipe: writers create a
unique temp file in the destination directory and ``os.replace`` it
into place (atomic on POSIX), readers open whatever name is present.
Two racing writers compute identical bytes, so last-write-wins is
correct.  A file that fails to parse (torn write from a crash, disk
corruption) is quarantined -- renamed aside with a ``corrupt`` suffix --
and treated as a miss, so one bad file can never wedge the run.

Knobs:

* ``REPRO_DISK_CACHE=0`` disables the cache entirely (CI and the test
  suite default to this via ``tests/conftest.py``).
* ``REPRO_DISK_CACHE_DIR`` overrides the cache root (default:
  ``$XDG_CACHE_HOME/repro-pdede`` or ``~/.cache/repro-pdede``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import threading
import zipfile
from pathlib import Path

import numpy as np

from repro.frontend.params import CoreParams
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trace import COLUMN_DTYPES, Trace

__all__ = [
    "CACHE_VERSION",
    "RESULT_VERSION",
    "cache_root",
    "clear_disk_cache",
    "decode_result",
    "disk_cache_enabled",
    "disk_cache_info",
    "encode_result",
    "load_result",
    "load_trace",
    "reset_disk_telemetry",
    "result_key",
    "spec_digest",
    "store_result",
    "store_trace",
]

#: On-disk layout version; bump to orphan every existing entry at once.
CACHE_VERSION = 1

#: Result-encoding version; bump when FrontendStats fields or the
#: simulation semantics change in a way the result key cannot see.
#: v2: integer-tick cycle accounting (tick fields on FrontendStats;
#: cycle buckets shift by ulps relative to v1's sequential float sums).
RESULT_VERSION = 2

#: Unique-temp-name counter (combined with the pid, collision-free).
_COUNTER = itertools.count()

#: Disk-cache telemetry, deliberately a *separate* surface from the memo
#: cache's ``cache_info()`` (tests pin that dict's exact shape).
_TELEMETRY = {
    "trace_hits": 0,
    "trace_misses": 0,
    "result_hits": 0,
    "result_misses": 0,
    "stores": 0,
    "quarantined": 0,
}

#: Telemetry is bumped from serve worker threads and scheduler workers
#: while the event loop reads it via ``disk_cache_info`` (REP104).
_TELEMETRY_LOCK = threading.Lock()


def _count(key: str) -> None:
    with _TELEMETRY_LOCK:
        _TELEMETRY[key] += 1


def disk_cache_enabled() -> bool:
    """Persistence knob: ``REPRO_DISK_CACHE=0`` disables the disk cache."""
    return os.environ.get("REPRO_DISK_CACHE", "1") != "0"


def cache_root() -> Path:
    """Resolved cache root (not created until the first store)."""
    override = os.environ.get("REPRO_DISK_CACHE_DIR")
    if override:
        base = Path(override)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        base = base / "repro-pdede"
    return base / f"v{CACHE_VERSION}"


def disk_cache_info() -> dict:
    """Disk-cache telemetry (hits / misses / stores / quarantines)."""
    with _TELEMETRY_LOCK:
        info = dict(_TELEMETRY)
    info["enabled"] = disk_cache_enabled()
    info["root"] = str(cache_root())
    return info


def reset_disk_telemetry() -> None:
    with _TELEMETRY_LOCK:
        for key in _TELEMETRY:
            _TELEMETRY[key] = 0


def clear_disk_cache() -> int:
    """Delete every cached file under the current version root.

    Returns the number of files removed (tests and ``--clear-cache``
    use this; concurrent readers simply miss afterwards).
    """
    root = cache_root()
    removed = 0
    if not root.exists():
        return 0
    for path in sorted(root.rglob("*"), reverse=True):
        if path.is_file():
            path.unlink()
            removed += 1
        else:
            path.rmdir()
    root.rmdir()
    return removed


# -- keys --------------------------------------------------------------------


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def spec_digest(spec: WorkloadSpec) -> str:
    """Content hash of a workload spec plus the generator version."""
    from repro.workloads.generator import GENERATOR_VERSION

    return _digest(
        {
            "spec": dataclasses.asdict(spec),
            "generator_version": GENERATOR_VERSION,
        }
    )


def result_key(
    trace_name: str,
    scale: str,
    design_key: str,
    params: CoreParams,
    warmup_fraction: float,
    spec: WorkloadSpec | None = None,
) -> str:
    """Content hash identifying one (app, design) simulation result."""
    return _digest(
        {
            "trace": trace_name,
            "scale": scale,
            "design": design_key,
            "params": dataclasses.asdict(params),
            "warmup": warmup_fraction,
            "spec": spec_digest(spec) if spec is not None else None,
            "result_version": RESULT_VERSION,
        }
    )


# -- atomic write / quarantine ----------------------------------------------


def _atomic_write(path: Path, write) -> None:
    """Write via a unique temp file + ``os.replace`` (atomic publish)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{next(_COUNTER)}"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _quarantine(path: Path) -> None:
    """Move a corrupt file aside so it stops shadowing the slot."""
    _count("quarantined")
    target = path.parent / f"{path.name}.corrupt-{os.getpid()}-{next(_COUNTER)}"
    try:
        os.replace(path, target)
    except OSError:
        pass  # a concurrent process already moved or replaced it


# -- traces ------------------------------------------------------------------


def _trace_path(spec: WorkloadSpec) -> Path:
    return cache_root() / "traces" / f"{spec_digest(spec)}.npz"


def _mmap_npz_columns(path: Path) -> dict[str, np.ndarray]:
    """Memory-map the column arrays of an *uncompressed* ``.npz``.

    ``np.load(path, mmap_mode="r")`` does not memmap npz members (only
    bare ``.npy`` files), so parse each zip member's local header to
    find its data offset and map the array in place.  Raises on any
    structural surprise; the caller falls back to a plain load.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            name = info.filename.removesuffix(".npy")
            if name not in COLUMN_DTYPES:
                continue
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename} is compressed; cannot mmap")
            # Local file header: 30 fixed bytes, then filename + extra
            # whose lengths live at offsets 26/28 of the header itself.
            raw.seek(info.header_offset + 26)
            name_len, extra_len = np.frombuffer(raw.read(4), dtype="<u2")
            data_offset = info.header_offset + 30 + int(name_len) + int(extra_len)
            raw.seek(data_offset)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                raise ValueError(f"unsupported npy format version {version}")
            if fortran:
                raise ValueError(f"{info.filename} is Fortran-ordered")
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=raw.tell(), shape=shape
            )
    missing = set(COLUMN_DTYPES) - set(arrays)
    if missing:
        raise ValueError(f"npz missing columns: {sorted(missing)}")
    return arrays


def load_trace(spec: WorkloadSpec) -> Trace | None:
    """Load the cached trace for ``spec``, or ``None`` on a miss."""
    if not disk_cache_enabled():
        return None
    path = _trace_path(spec)
    if not path.exists():
        _count("trace_misses")
        return None
    try:
        try:
            columns = _mmap_npz_columns(path)
        except (ValueError, KeyError):
            # Un-mappable but possibly still readable (e.g. a foreign
            # compressed npz): fall back to a plain load.
            with np.load(path, allow_pickle=False) as data:
                columns = {name: data[name] for name in COLUMN_DTYPES}
        trace = Trace(spec.name, spec.category, **columns)
    except Exception:
        _quarantine(path)
        _count("trace_misses")
        return None
    _count("trace_hits")
    return trace


def store_trace(spec: WorkloadSpec, trace: Trace) -> None:
    """Persist a generated trace (uncompressed, for mmap loading)."""
    if not disk_cache_enabled():
        return
    columns = {name: getattr(trace, name) for name in COLUMN_DTYPES}

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as handle:
            np.savez(handle, **columns)

    _atomic_write(_trace_path(spec), write)
    _count("stores")


# -- results -----------------------------------------------------------------


def encode_result(stats: FrontendStats) -> bytes:
    """Canonical bytes for one result (sorted keys, versioned)."""
    payload = {
        "result_version": RESULT_VERSION,
        "stats": stats.to_dict(derived=False),
    }
    return json.dumps(payload, sort_keys=True).encode()


def decode_result(data: bytes) -> FrontendStats | None:
    """Decode stored bytes; ``None`` marks a corrupt or stale value,
    which the caller quarantines and reads as a miss."""
    try:
        payload = json.loads(data)
        if payload.get("result_version") != RESULT_VERSION:
            raise ValueError("result version mismatch")
        return FrontendStats(**payload["stats"])
    except Exception:
        return None


def _result_path(key: str, root: Path | None = None) -> Path | None:
    """The result file under ``root``; the default root only while
    the disk cache is enabled (``None``: cache off)."""
    if root is None:
        if not disk_cache_enabled():
            return None
        root = cache_root()
    return root / "results" / f"{key}.json"


def load_result(key: str, root: Path | None = None) -> FrontendStats | None:
    """Load a cached :class:`FrontendStats`, or ``None`` on a miss.

    ``root`` defaults to :func:`cache_root` (and honours
    ``REPRO_DISK_CACHE=0``).  A file that fails to parse is quarantined
    and read as a miss; an unreadable one raises ``OSError``.
    """
    path = _result_path(key, root)
    if path is None:
        return None
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        stats = None
    else:
        stats = decode_result(data)
        if stats is None:
            _quarantine(path)
    _count("result_hits" if stats is not None else "result_misses")
    obs_events.emit("disk-result", key=key, hit=stats is not None)
    return stats


def store_result(key: str, stats: FrontendStats, root: Path | None = None) -> None:
    """Persist one simulation result (``root`` as in :func:`load_result`)."""
    path = _result_path(key, root)
    if path is None:
        return
    data = encode_result(stats)
    _atomic_write(path, lambda tmp: tmp.write_bytes(data))
    _count("stores")
