"""One benchmark for the simulator: two design sweeps and two serve loads.

    python3 benchmarks/perf/run.py --workload sweep-vector --seed 1
    python3 benchmarks/perf/run.py --workload all --seed 1
    python3 benchmarks/perf/run.py --workload sweep-vector --trace 1
    python3 benchmarks/perf/run.py --record-expected

The benchmark measures the program from outside.  Sweeps run in child
processes (sweep_child.py) that call ``harness.run_design``; serve loads
drive a real ``python -m repro serve`` child from loadgen.py.  Every
result's bytes are checked against expected.json.  Each workload prints
its metrics, then one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics.  README.md says what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
from reference import at_reference, reference_seconds
from serve_launcher import RESET_ACK
from tracing import read_dump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("sweep-vector", "sweep-general", "serve-warm", "serve-cold")
VECTOR_DESIGNS = ("baseline", "pdede-default", "pdede-multi-target", "pdede-multi-entry")
GENERAL_DESIGNS = ("micro-btb", "shadow-pdede")

SETUP_REPS = 3
WARM_RATE = 50.0
SEND_LAG_LIMIT_S = 0.05
CHILD_TIMEOUT_S = 150

#: Layers whose self time the traced run reports as a share.
SHARE_LAYERS = (
    "workloads.trace_load", "workloads.decode", "workloads.direction_replay",
    "workloads.icache_replay", "workloads.ras_replay",
    "btb.vectorops.lookup_block", "btb.vectorops.commit", "btb.boundary_replay",
    "btb.lookup", "btb.update", "branch.direction", "frontend.icache",
    "experiments.harness.run_design", "experiments.harness.lookup_cached",
    "experiments.diskcache.store_result", "frontend.stats.serialise",
)
PREPARE_LAYERS = SHARE_LAYERS[1:5]
COUNTED_LAYERS = (
    "btb.vectorops.lookup_block", "btb.vectorops.commit",
    "btb.lookup", "btb.update", "branch.direction", "frontend.icache",
)
HOPS = ("batch_wait", "queue", "simulate", "http")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong result)."""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 when nothing was timed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Outcome:
    """What one measured phase produced.

    ``latencies`` maps each job to its latency in every pass that ran
    it, and ``pass_rates`` holds each pass's jobs per second, both at the
    reference speed (reference.py).  ``wall`` is the measured seconds
    as they passed, without the reference samples.
    """

    latencies: dict[str, list[float]] = field(default_factory=dict)
    pass_rates: list[float] = field(default_factory=list)
    wall: float = 0.0
    rss_mb: float = 0.0
    samples: list[loadgen.Sample] = field(default_factory=list)
    decodes: int = 0
    send_lag: float = 0.0

    def add(self, key: str, seconds: float) -> None:
        self.latencies.setdefault(key, []).append(seconds)

    def all_latencies(self) -> list[float]:
        return [s for repeats in self.latencies.values() for s in repeats]


class Bench:
    """One benchmark run: scratch space, child processes, output checks."""

    def __init__(self, seed: int, quick: bool, expected: Path, record: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.record = record
        self.expected = {} if record else json.loads(expected.read_text())
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.workdir = WORK / f"run-{os.getpid()}"
        self._dirs = 0
        self.servers: list[Server] = []

    # -- scratch space and child processes ------------------------------------

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"dir-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self, cache_dir: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.workdir)
        env["REPRO_DISK_CACHE_DIR"] = str(cache_dir)
        return env

    def child(self, cache_dir: Path, *args: str) -> object:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sweep_child.py"), *args],
            env=self.env(cache_dir), cwd=self.workdir, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"sweep child {args[0]} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def generate(self, scale: str) -> tuple[Path, list[str]]:
        """Set-up: a fresh disk cache holding the traces; the apps in the
        seed's order."""
        cache = self.fresh_dir()
        apps = self.child(cache, "generate", scale, "2" if self.quick else "4")
        random.Random(self.seed).shuffle(apps)
        return cache, apps

    def close(self) -> None:
        for server in list(self.servers):
            server.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- output checks ----------------------------------------------------------

    def check_op(self, error: str) -> None:
        """Count one operation, failed when ``error`` is set."""
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(error)

    def check(self, key: str, sha256: str, error: str = "") -> None:
        """Count one result; it fails on an error or unexpected bytes."""
        if not error and self.record:
            if self.recorded.setdefault(key, sha256) != sha256:
                error = f"{key}: bytes differ between two runs of the same job"
        elif not error and self.expected.get(key) != sha256:
            error = f"{key}: sha256 {sha256[:12]} is not the expected digest"
        self.check_op(error)

    def check_sample(self, sample: loadgen.Sample) -> None:
        error = sample.error
        if not error and not 200 <= sample.status < 300:
            error = f"{sample.key}: HTTP {sample.status}"
        self.check(sample.key, sample.sha256, error)


class Server:
    """A ``repro serve`` child on an ephemeral port, optionally traced."""

    def __init__(self, bench: Bench, scale: str, cache_dir: Path, spans: Path | None) -> None:
        self.bench = bench
        self.log = cache_dir / "serve.log"
        cli = ["--scale", scale, "serve", "--port", "0"]
        if spans is None:
            command = [sys.executable, "-m", "repro", *cli]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(spans), *cli]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command, env=bench.env(cache_dir), cwd=bench.workdir,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        bench.servers.append(self)
        self.resets = 0
        self.port = int(self._await_log(r"serving on http://[\d.]+:(\d+)")[0])

    def _await_log(self, pattern: str, count: int = 1, timeout: float = 60.0) -> list:
        """The matches of ``pattern`` once the log holds ``count`` of them."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            matches = re.findall(pattern, self.log.read_text())
            if len(matches) >= count:
                return matches
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(f"serve child never logged {pattern!r}:\n{self.log.read_text()[-2000:]}")

    def decodes(self) -> int:
        stats = json.loads(loadgen.get_json_bytes(self.port, "/v1/stats"))
        return stats["service"]["trace_decodes"]

    def reset_trace(self) -> None:
        """Drop the spans recorded so far: set-up is not measured."""
        self.resets += 1
        self.proc.send_signal(signal.SIGUSR1)
        self._await_log(re.escape(RESET_ACK), count=self.resets)

    def rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM drain; the service must exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            self.bench.check_op("serve child did not drain within 60 s")
            return
        self.bench.servers.remove(self)
        self.bench.check_op("" if code == 0 else f"serve child exited {code}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        if self in self.bench.servers:
            self.bench.servers.remove(self)


def _within(seconds: float, run_pass, passes: int | None) -> None:
    """Run passes while the next one is expected to end within ``seconds``."""
    started = time.perf_counter()
    done = 0
    while done == 0 or (
        (passes is None or done < passes)
        and (time.perf_counter() - started) * (done + 1) / done <= seconds
    ):
        run_pass()
        done += 1


def _requests(scale: str, apps: list[str], designs: tuple[str, ...]) -> list[tuple[str, bytes]]:
    return [
        (f"{scale}/{app}/{design}",
         json.dumps({"app": app, "design": design, "scale": scale}).encode())
        for app in apps for design in designs
    ]


def _rotated(apps: list[str], turn: int) -> list[str]:
    turn %= len(apps)
    return apps[turn:] + apps[:turn]


def _batch_wait(sample: loadgen.Sample) -> float:
    return float(sample.headers.get("x-repro-batch-wait-seconds", 0.0))


def _clear_results(cache_dir: Path) -> None:
    for results in cache_dir.glob("*/results"):
        shutil.rmtree(results)


# -- workloads ----------------------------------------------------------------
#
# Each workload has a set-up (timed as ``setup_s``), measured passes and a
# teardown.  ``setup(spans_dir)`` makes the passes that follow traced:
# their span dumps land in ``spans_dir``.  Every workload runs the first
# app of each suite category; the seed sets the app order and, for
# serve-warm, the request draws.  Pass ``k`` starts ``k`` apps further
# into that order, so the one-time costs of a fresh process fall on a
# different job each pass and the per-job median drops them.


class Sweep:
    """A design sweep: set-up writes the traces to a fresh disk cache;
    each pass is a new process running every (app, design) with the
    traces loaded from disk and no results cached."""

    def __init__(self, bench: Bench, scale: str, designs: tuple[str, ...]) -> None:
        self.bench = bench
        self.scale = scale
        self.designs = designs

    def setup(self, spans_dir: Path | None = None) -> None:
        self.spans_dir = spans_dir
        self.cache, self.apps = self.bench.generate(self.scale)

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float, passes: int | None = None) -> Outcome:
        bench = self.bench
        out = Outcome()

        def one_pass() -> None:
            _clear_results(self.cache)
            jobs = [
                [self.scale, app, design]
                for app in _rotated(self.apps, len(out.pass_rates)) for design in self.designs
            ]
            args = ["sweep", json.dumps(jobs)]
            if self.spans_dir is not None:
                args.append(str(self.spans_dir / f"sweep-{len(out.pass_rates)}.jsonl"))
            started = time.perf_counter()
            report = bench.child(self.cache, *args)
            refs = report["references"]
            out.wall += time.perf_counter() - started - sum(refs)
            out.rss_mb = max(out.rss_mb, report["rss_mb"])
            timed, total = 0, 0.0
            for index, job in enumerate(report["jobs"]):
                key = f"{job['scale']}/{job['app']}/{job['design']}"
                bench.check(key, job.get("sha256", ""), job.get("error", ""))
                if "seconds" in job:
                    job_s = at_reference(job["seconds"], refs[index], refs[index + 1])
                    out.add(key, job_s)
                    timed, total = timed + 1, total + job_s
            out.pass_rates.append(timed / total if total else 0.0)

        _within(seconds, one_pass, passes)
        return out


class ServeWarm:
    """Memo hits only: set-up boots a server and sends every (app, design)
    once; the load is an open loop of seeded draws from those pairs.

    An open loop never pauses, so there are no reference samples: its
    times are as measured.  Nine tenths of each latency is the service's
    batch-window timer, which machine speed does not change anyway.
    """

    scale = "tiny"

    def __init__(self, bench: Bench) -> None:
        self.bench = bench

    def setup(self, spans_dir: Path | None = None) -> None:
        bench = self.bench
        cache, apps = bench.generate(self.scale)
        spans = spans_dir / "serve-0.jsonl" if spans_dir is not None else None
        self.server = Server(bench, self.scale, cache, spans)
        self.pairs = _requests(self.scale, apps, VECTOR_DESIGNS)
        # One client, so set-up memory does not depend on how two
        # simulations happened to overlap.
        samples, _rounds, _ = loadgen.lockstep(self.server.port, self.pairs, clients=1)
        for sample in samples:
            bench.check_sample(sample)
        if spans is not None:
            self.server.reset_trace()

    def teardown(self) -> None:
        self.server.stop()

    def measure(self, seconds: float, passes: int | None = None) -> Outcome:
        bench = self.bench
        rng = random.Random(bench.seed)
        requests = [rng.choice(self.pairs) for _ in range(max(1, round(WARM_RATE * seconds)))]
        before = self.server.decodes()
        samples, wall, lag = loadgen.open_loop(self.server.port, requests, WARM_RATE)
        out = Outcome(wall=wall, pass_rates=[len(samples) / wall], samples=samples, send_lag=lag)
        out.decodes = self.server.decodes() - before
        out.rss_mb = self.server.rss_mb()
        for index, sample in enumerate(samples):
            bench.check_sample(sample)
            out.add(str(index), sample.latency_s)
        if lag > SEND_LAG_LIMIT_S:
            bench.check_op(f"load generator sent {lag * 1000:.1f} ms late")
        return out


class ServeCold:
    """Every request simulates: set-up writes the traces to a fresh disk
    cache and boots a server; each pass is a lockstep loop of two clients
    over every (app, design) pair, app by app, on a server with no
    results yet.  A round's two requests share an app and so one
    micro-batch; the reference is sampled between rounds.  Tiny traces
    keep a round near the length of a sweep job, which is what lets the
    reference samples track the machine, and fit ten passes in a run."""

    scale = "tiny"

    def __init__(self, bench: Bench) -> None:
        self.bench = bench

    def setup(self, spans_dir: Path | None = None) -> None:
        self.spans_dir = spans_dir
        self.servers = 0
        self.cache, self.apps = self.bench.generate(self.scale)
        self.server: Server | None = self._boot()

    def _boot(self) -> Server:
        spans = None
        if self.spans_dir is not None:
            spans = self.spans_dir / f"serve-{self.servers}.jsonl"
        self.servers += 1
        server = Server(self.bench, self.scale, self.cache, spans)
        if spans is not None:
            server.reset_trace()
        return server

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def measure(self, seconds: float, passes: int | None = None) -> Outcome:
        out = Outcome()

        def one_pass() -> None:
            if self.server is None:
                _clear_results(self.cache)
                self.server = self._boot()
            before = self.server.decodes()
            apps = _rotated(self.apps, len(out.pass_rates))
            samples, rounds, refs = loadgen.lockstep(
                self.server.port, _requests(self.scale, apps, VECTOR_DESIGNS),
                clients=2, pause=reference_seconds,
            )
            out.decodes += self.server.decodes() - before
            out.wall += sum(rounds)
            out.samples.extend(samples)
            total = 0.0
            for number, round_s in enumerate(rounds):
                members = samples[2 * number:2 * number + 2]
                around = refs[number], refs[number + 1]
                # The batch window is a timer: it stays as measured.
                total += at_reference(round_s, *around, max(map(_batch_wait, members)))
                for sample in members:
                    self.bench.check_sample(sample)
                    out.add(sample.key, at_reference(sample.latency_s, *around, _batch_wait(sample)))
            out.pass_rates.append(len(samples) / total)
            out.rss_mb = max(out.rss_mb, self.server.rss_mb())
            self.teardown()

        _within(seconds, one_pass, passes)
        return out


def make_workload(name: str, bench: Bench):
    if name == "sweep-vector":
        return Sweep(bench, "tiny" if bench.quick else "smoke", VECTOR_DESIGNS)
    if name == "sweep-general":
        return Sweep(bench, "tiny", GENERAL_DESIGNS)
    if name == "serve-warm":
        return ServeWarm(bench)
    return ServeCold(bench)


# -- metrics ------------------------------------------------------------------


def end_to_end(setups: list[float], out: Outcome) -> dict[str, float]:
    # A job repeated over passes counts once, at its median latency, so a
    # burst of machine noise in one pass moves neither percentile.
    job_ms = [statistics.median(repeats) * 1000 for repeats in out.latencies.values()]
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(job_ms, 50),
        "latency_p90_ms": percentile(job_ms, 90),
        "throughput_rps": statistics.median(out.pass_rates),
        "peak_rss_mb": out.rss_mb,
    }


def hop_seconds(sample: loadgen.Sample) -> dict[str, float]:
    """Server-reported seconds per hop, plus the client-side remainder
    (request parse, admission, response write and loopback)."""
    times = {
        hop: float(sample.headers[f"x-repro-{hop.replace('_', '-')}-seconds"])
        for hop in HOPS[:3]
    }
    times["http"] = sample.latency_s - sum(times.values())
    return times


def read_dumps(spans_dir: Path) -> tuple[dict[str, list], dict[str, int]]:
    """Roll-ups and counts summed over every span dump in ``spans_dir``."""
    rollup: dict[str, list] = {}
    counts: dict[str, int] = {}
    for dump in sorted(spans_dir.glob("*.jsonl")):
        layers, extra = read_dump(str(dump))
        for name, values in layers.items():
            entry = rollup.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                entry[index] += value
        for name, value in extra.items():
            counts[name] = counts.get(name, 0) + value
    return rollup, counts


def per_layer(
    workload: str, rollup: dict, counts: dict, traced: Outcome, untraced: Outcome
) -> dict[str, float]:
    def self_s(name: str) -> float:
        return rollup.get(name, (0, 0.0, 0.0))[2]

    def calls(name: str) -> int:
        return rollup.get(name, (0,))[0]

    # Span self times are shares of the traced pass's wall time; the hops
    # the serve headers report are shares of the summed client latency.
    # Both as measured, not at the reference speed.
    wall = traced.wall
    metrics = {f"{name}_share": self_s(name) / wall for name in SHARE_LAYERS}
    metrics["frontend.prepare_share"] = sum(map(self_s, PREPARE_LAYERS)) / wall
    for engine in ("vector", "general"):
        metrics[f"frontend.{engine}.self_share"] = self_s(f"frontend.{engine}") / wall
    for name in COUNTED_LAYERS:
        metrics[f"{name}_calls"] = calls(name)
    metrics["btb.boundary_replays"] = calls("btb.boundary_replay")
    for design in VECTOR_DESIGNS:
        # The harness keys the registry's "baseline" as baseline-4096.
        key = "baseline-4096" if design == "baseline" else design
        metrics[f"btb.boundary_replays.{key}"] = counts.get(f"btb.boundary_replays.{key}", 0)
    samples = traced.samples
    hops = [hop_seconds(sample) for sample in samples]
    n = len(samples)
    latency = sum(s.latency_s for s in samples)
    for hop in HOPS:
        metrics[f"serve.{hop}_share"] = sum(h[hop] for h in hops) / latency if n else 0.0
    metrics["serve.batch_size_mean"] = (
        sum(int(s.headers["x-repro-batch-size"]) for s in samples) / n if n else 0.0
    )
    for outcome in ("memo", "disk", "fresh"):
        metrics[f"serve.outcome.{outcome}_share"] = (
            sum(s.headers["x-repro-outcome"] == outcome for s in samples) / n if n else 0.0
        )
    metrics["serve.trace_decodes"] = traced.decodes
    if workload == "serve-warm":
        # Open loop: the schedule fixes the wall time, so compare latency.
        metrics["tracing_overhead"] = (
            percentile(traced.all_latencies(), 50) / percentile(untraced.all_latencies(), 50)
        )
    else:
        metrics["tracing_overhead"] = untraced.pass_rates[0] / traced.pass_rates[0]
    return metrics


# -- reporting ------------------------------------------------------------------


def _print_untraced(setups: list[float], out: Outcome, metrics: dict) -> None:
    jobs, n = len(out.latencies), len(out.all_latencies())
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "latency_p50_ms": f"{jobs} jobs, {n} samples",
        "latency_p90_ms": f"{jobs - int(0.9 * jobs)} jobs beyond",
        "throughput_rps": "median of " + ", ".join(f"{r:.3f}" for r in out.pass_rates),
    }
    for metric, value in metrics.items():
        print(f"  {metric:16s} {value:11.4f}  {notes.get(metric, '')}")
    if out.samples:
        hops = [hop_seconds(sample) for sample in out.samples]
        for hop in HOPS:
            values = [h[hop] * 1000 for h in hops]
            print(f"  serve.{hop}_ms  p50 {percentile(values, 50):8.3f}  "
                  f"p99 {percentile(values, 99):8.3f}")
        sizes = [int(s.headers.get("x-repro-batch-size", 0)) for s in out.samples]
        waits = [s.conn_wait_s * 1000 for s in out.samples]
        print(f"  serve.batch_size_mean {sum(sizes) / len(sizes):.3f}  "
              f"serve.trace_decodes {out.decodes}  "
              f"client.conn_wait_ms_p99 {percentile(waits, 99):.3f}  "
              f"client.send_lag_max_ms {out.send_lag * 1000:.3f}")


def _print_traced(metrics: dict, rollup: dict, counts: dict, traced: Outcome) -> None:
    print(f"  {'span':36s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s}")
    for name, (calls, total, self_s) in sorted(rollup.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:36s} {calls:9d} {total:9.3f} {self_s:9.3f}")
    for name, value in sorted(counts.items()):
        print(f"  {name:36s} {value:9d}")
    covered = sum(self_s for _calls, _total, self_s in rollup.values())
    print(f"  spans cover {covered:.3f} s of the {traced.wall:.3f} s traced pass "
          f"({covered / traced.wall:.1%}); tracing_overhead {metrics['tracing_overhead']:.3f}")


def run_workload(name: str, bench: Bench, seconds: float, trace: bool) -> dict:
    workload = make_workload(name, bench)
    print(f"workload {name}  seed {bench.seed}  trace {int(trace)}", flush=True)
    if trace:
        # One untraced pass for the overhead baseline, then one traced.
        workload.setup()
        untraced = workload.measure(seconds / 2, passes=1)
        workload.teardown()
        spans_dir = WORK / "spans" / name
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        workload.setup(spans_dir)
        traced = workload.measure(seconds / 2, passes=1)
        workload.teardown()
        rollup, counts = read_dumps(spans_dir)
        metrics = per_layer(name, rollup, counts, traced, untraced)
        _print_traced(metrics, rollup, counts, traced)
        return metrics
    setups = []
    for rep in range(1 if bench.quick or bench.record else SETUP_REPS):
        if rep:
            workload.teardown()
        before = reference_seconds()
        started = time.perf_counter()
        workload.setup()
        seconds_taken = time.perf_counter() - started
        setups.append(at_reference(seconds_taken, before, reference_seconds()))
    out = workload.measure(seconds, passes=1 if bench.record else None)
    workload.teardown()
    metrics = end_to_end(setups, out)
    _print_untraced(setups, out, metrics)
    return metrics


def result_line(bench: Bench, metrics: dict, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for error in bench.errors[:20]:
        print(f"  FAILED {error}")
    print(f"  error_rate {bench.failed / max(1, bench.attempted):.4f} "
          f"({bench.failed} of {bench.attempted})")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def record_expected(path: Path, seconds: float) -> int:
    """Record every workload's digests, full size and ``--quick``.  A job
    two runs share must produce the same bytes in both: serve-cold
    against serve-warm and the quick sweep-vector, the quick runs
    against the full ones."""
    recorded: dict[str, str] = {}
    for quick in (False, True):
        bench = Bench(seed=0, quick=quick, expected=path, record=True)
        bench.recorded = recorded
        try:
            for name in WORKLOADS:
                run_workload(name, bench, seconds, trace=False)
        finally:
            bench.close()
        if bench.failed:
            print("\n".join(bench.errors), file=sys.stderr)
            return 1
    path.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
    print(f"recorded {len(recorded)} digests to {path}")
    return 0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the reference
    samples (reference.py) time the CPU the measured work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control: the samples may track another CPU


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    parser.add_argument("--record-expected", action="store_true",
                        help="re-record --expected from this commit's outputs")
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale, 2 apps, one set-up (the self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.record_expected:
        return record_expected(args.expected, args.seconds)
    status = 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        bench = Bench(args.seed, args.quick, args.expected, record=False)
        try:
            metrics = run_workload(name, bench, args.seconds, bool(args.trace))
        finally:
            bench.close()
        result = result_line(bench, metrics, bool(args.trace))
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        sys.exit(3)
