"""Child process of the benchmark: trace set-up and timed sweep passes.

It calls only public functions of :mod:`repro`; the disk cache it reads
and writes is the one ``REPRO_DISK_CACHE_DIR`` names.

    python sweep_child.py generate SCALE COUNT
        Set-up: write the traces of the first app of each suite category
        (at most COUNT apps) at SCALE to the disk cache.  Prints the app
        names as JSON.
    python sweep_child.py sweep JOBS_JSON [SPANS_JSONL]
        One timed pass: ``harness.run_design`` for each ``[scale, app,
        design]`` of JOBS_JSON in order.  Prints, as JSON, each job's
        seconds and the sha256 of its ``stats_payload`` bytes, the
        reference times taken before the first job and after each job
        (see reference.py), and the process's peak RSS.  With
        SPANS_JSONL the layer spans are recorded (see tracing.py) and
        written there at exit.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from reference import reference_seconds


def generate(scale: str, count: int) -> list[str]:
    from repro.workloads.suite import build_suite, get_trace

    firsts: dict[str, str] = {}
    for spec in build_suite(scale):
        firsts.setdefault(spec.category, spec.name)
    names = list(firsts.values())[:count]
    for name in names:
        get_trace(name, scale)
    return names


def sweep(jobs: list[list[str]]) -> dict:
    from repro.experiments import harness
    from repro.experiments.designs import design_registry
    from repro.serve import protocol

    registry = design_registry()
    results = []
    references = [reference_seconds()]
    for scale, app, design in jobs:
        row = {"scale": scale, "app": app, "design": design}
        try:
            started = time.perf_counter()
            stats = harness.run_design(app, registry[design], scale=scale)
            row["seconds"] = time.perf_counter() - started
            row["sha256"] = hashlib.sha256(protocol.stats_payload(stats)).hexdigest()
        except Exception as error:  # noqa: BLE001 - reported as a failed job
            row["error"] = f"{type(error).__name__}: {error}"
        results.append(row)
        references.append(reference_seconds())
    return {
        "jobs": results,
        "references": references,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    if argv[0] == "generate":
        print(json.dumps(generate(argv[1], int(argv[2]))))
        return 0
    jobs = json.loads(argv[1])
    if len(argv) > 2:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
        try:
            report = sweep(jobs)
        finally:
            recorder.dump(argv[2])
    else:
        report = sweep(jobs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
