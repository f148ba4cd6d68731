"""Self-test of the benchmark: tiny scale, 2 apps, about half a minute.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def _run(*args: str) -> tuple[int, list[dict]]:
    """Run run.py --quick; returns the exit code and every result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=600,
    )
    results = [
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")
    ]
    assert results, proc.stdout + proc.stderr
    return proc.returncode, results


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in SPEC[section]]


def test_every_workload_prints_the_end_to_end_metrics():
    code, results = _run("--workload", "all")
    assert code == 0
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == _names("end_to_end")


@pytest.mark.parametrize("workload", ["sweep-vector", "serve-warm"])
def test_traced_run_prints_the_per_layer_metrics(workload):
    code, (result,) = _run("--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == _names("per_layer")
    if workload == "serve-warm":
        assert metrics["serve.outcome.memo_share"]["value"] == 1.0
        assert metrics["serve.trace_decodes"]["value"] == 0
    else:
        assert metrics["frontend.prepare_share"]["value"] > 0
        assert metrics["btb.boundary_replays"]["value"] > 0


def test_a_corrupted_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    corrupted = {
        key: ("0" * 64 if key.endswith("/micro-btb") else digest)
        for key, digest in expected.items()
    }
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupted))
    code, (result,) = _run("--workload", "sweep-general", "--expected", str(path))
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def _write(directory: Path, values: dict[str, list[float]], failed: int = 0) -> None:
    directory.mkdir()
    runs = len(next(iter(values.values())))
    lines = [
        json.dumps({
            "correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {
                name: {"value": series[i], "unit": "x"} for name, series in values.items()
            },
        })
        for i in range(runs)
    ]
    (directory / "sweep-vector.jsonl").write_text("\n".join(lines) + "\n")


def test_compare_verdicts(tmp_path):
    steady = [100.0 + 0.1 * i for i in range(10)]
    parent = {
        "setup_s": [1.0 + i for i in range(10)],   # spread far beyond its bound
        "latency_p50_ms": steady,
        "latency_p90_ms": steady,
        "throughput_rps": steady,
        "peak_rss_mb": steady,
    }
    change = {
        "setup_s": [1.0 + i for i in range(10)],
        "latency_p50_ms": [v * 1.3 for v in steady],     # 30% slower
        "latency_p90_ms": [v * 0.7 for v in steady],     # 30% faster
        # 1% either side of the parent: half the pairs each way.
        "throughput_rps": [v * (1.01 if i % 2 else 0.99) for i, v in enumerate(steady)],
        "peak_rss_mb": list(steady),
    }
    _write(tmp_path / "parent", parent)
    _write(tmp_path / "change", change)
    _write(tmp_path / "failing", change, failed=1)

    def verdicts(side: str) -> dict[str, str]:
        rows = compare.compare(tmp_path / "parent", tmp_path / side)
        return {row["metric"]: row["verdict"] for row in rows}

    assert verdicts("change") == {
        "setup_s": "unresolved",
        "latency_p50_ms": "regression",
        "latency_p90_ms": "gain",
        "throughput_rps": "no-change",
        "peak_rss_mb": "no-change",
        "failed": "no-change",
    }
    # A change that fails more operations claims no gain.
    failing = verdicts("failing")
    assert failing["latency_p90_ms"] == "no-change"
    assert failing["failed"] == "regression"
