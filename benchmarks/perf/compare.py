"""Compare two commits' benchmark results, one verdict per metric and workload.

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl``: the result lines run.py
printed (its last stdout line), one per run, in run order.  Line ``i``
of the parent and line ``i`` of the change are pair ``i``; alternate
which commit runs first from pair to pair.

For every end-to-end metric of BENCHMARK.json and every workload the
verdict is, in this order:

* ``gain`` -- the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ, in the change's favour, by more
  than the parent's own spread (its interquartile range);
* ``unresolved`` -- the parent's spread, as a share of its median, is
  wider than the metric's bound, unless every change run reads better
  than every parent run;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound (a share of the parent's median);
* ``no-change`` -- otherwise.

A ``failed`` row per workload compares failed operations (bound +0): any
more failures than the parent is a regression, and a workload with more
failures claims no gain.  Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[str, list[dict]]:
    """``workload -> [result line, ...]`` in run order."""
    return {
        path.stem: [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        for path in sorted(directory.glob("*.jsonl"))
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p_q1, _, p_q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "no-change"
    return {
        "verdict": result, "parent": quartiles(parent), "change": quartiles(change),
        "wins": wins, "pairs": len(pairs), "worse_by": worse_by, "spread": spread,
    }


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(run["failed"] for run in p_runs)
        c_failed = sum(run["failed"] for run in c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [run["metrics"][name]["value"] for run in p_runs],
                [run["metrics"][name]["value"] for run in c_runs],
                metric["better"], metric["bound"],
            )
            if row["verdict"] == "gain" and c_failed > p_failed:
                row["verdict"] = "no-change"
            rows.append({"workload": workload, "metric": name, "bound": metric["bound"], **row})
        rows.append({
            "workload": workload, "metric": "failed", "bound": 0,
            "verdict": "regression" if c_failed > p_failed else "no-change",
            "parent": (p_failed,) * 3, "change": (c_failed,) * 3,
            "wins": 0, "pairs": min(len(p_runs), len(c_runs)),
            "worse_by": c_failed - p_failed, "spread": 0.0,
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    print(f"{'workload':14s} {'metric':15s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>7s} {'wins':>6s} {'bound':>5s}  verdict")
    for row in rows:
        p1, p2, p3 = row["parent"]
        c1, c2, c3 = row["change"]
        worse = row["worse_by"]
        worse_text = f"{worse:+7d}" if row["metric"] == "failed" else f"{worse:+7.1%}"
        print(f"{row['workload']:14s} {row['metric']:15s} "
              f"{p2:11.4f} [{p1:9.4f}, {p3:9.4f}] {c2:11.4f} [{c1:9.4f}, {c3:9.4f}] "
              f"{worse_text} {row['wins']:3d}/{row['pairs']:<2d} "
              f"{row['bound']:5.2f}  {row['verdict']}")
        if row["pairs"] < 10 and row["metric"] == "failed":
            print(f"  {row['workload']}: only {row['pairs']} pairs; the rule asks for 10")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
