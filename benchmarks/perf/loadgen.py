"""Load generator for the serve workloads: one asyncio thread, at most
two keep-alive HTTP/1.1 connections.

An open loop sends request ``i`` when it is due (``i / rate`` after the
start), whether or not earlier ones have finished, and times it from
that due time -- so a stall also charges the requests queued behind it.
A lockstep loop is a closed loop of ``clients`` callers that start each
round together: every caller sends one request, and the next round
starts when all replies are in.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field


@dataclass
class Sample:
    """One request as the client saw it."""

    key: str
    status: int = 0
    latency_s: float = 0.0
    conn_wait_s: float = 0.0
    sha256: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    error: str = ""


class Connection:
    """One keep-alive HTTP/1.1 connection (one request at a time)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, str], bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            self._writer.write(head + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            status = int(status_line.split()[1])
            headers: dict[str, str] = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self._reader.readexactly(int(headers["content-length"]))
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, payload

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


async def _send(conn: Connection, sample: Sample, body: bytes, due: float) -> None:
    try:
        status, headers, payload = await conn.request("POST", "/v1/simulate", body)
    except (OSError, asyncio.IncompleteReadError, ValueError, IndexError, KeyError) as error:
        sample.error = f"{type(error).__name__}: {error}"
    else:
        sample.status = status
        sample.headers = headers
        sample.sha256 = hashlib.sha256(payload).hexdigest()
    sample.latency_s = time.perf_counter() - due


async def _open_loop(
    port: int, requests: list[tuple[str, bytes]], rate: float, connections: int
) -> tuple[list[Sample], float, float]:
    pool: asyncio.Queue[Connection] = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(Connection("127.0.0.1", port))
    samples = [Sample(key) for key, _ in requests]
    max_lag = 0.0

    async def one(index: int, due: float) -> None:
        conn = await pool.get()
        samples[index].conn_wait_s = time.perf_counter() - due
        try:
            await _send(conn, samples[index], requests[index][1], due)
        finally:
            pool.put_nowait(conn)

    epoch = time.perf_counter() + 0.05
    tasks = []
    for index in range(len(requests)):
        due = epoch + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        max_lag = max(max_lag, time.perf_counter() - due)
        tasks.append(asyncio.create_task(one(index, due)))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - epoch
    while not pool.empty():
        pool.get_nowait().close()
    return samples, wall, max_lag


async def _lockstep(
    port: int, requests: list[tuple[str, bytes]], clients: int, pause
) -> tuple[list[Sample], list[float], list]:
    conns = [Connection("127.0.0.1", port) for _ in range(clients)]
    samples = [Sample(key) for key, _ in requests]
    rounds: list[float] = []
    pauses = [pause()]
    try:
        for first in range(0, len(requests), clients):
            started = time.perf_counter()
            await asyncio.gather(*(
                _send(conn, samples[index], requests[index][1], started)
                for conn, index in zip(conns, range(first, len(requests)))
            ))
            rounds.append(time.perf_counter() - started)
            pauses.append(pause())
    finally:
        for conn in conns:
            conn.close()
    return samples, rounds, pauses


def open_loop(port, requests, rate, connections=2):
    """Run an open loop; returns ``(samples, wall seconds, max send lag)``."""
    return asyncio.run(_open_loop(port, requests, rate, connections))


def lockstep(port, requests, clients, pause=lambda: None):
    """Run a lockstep loop; returns ``(samples, seconds per round, pauses)``.

    ``pause()`` runs before the first round and after every round, while
    no request is in flight; ``pauses`` holds what each call returned.
    Request ``i`` belongs to round ``i // clients``.
    """
    return asyncio.run(_lockstep(port, requests, clients, pause))


def get_json_bytes(port: int, path: str) -> bytes:
    """One GET on a fresh connection (stats and app-list probes)."""

    async def fetch() -> bytes:
        conn = Connection("127.0.0.1", port)
        try:
            status, _headers, payload = await conn.request("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}")
        return payload

    return asyncio.run(fetch())
