"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-apps``     -- list the workload suite at a scale.
* ``characterize``  -- Section 3 analyses for one application.
* ``simulate``      -- run one (application, design) pair, print metrics;
  ``--trace FILE`` runs an imported trace file instead of a suite app.
* ``convert``       -- convert a branch trace between framings (RBT
  text/binary, legacy text, ``.npz``) through the characterization gate
  (README "Importing real traces").
* ``experiment``    -- run a paper figure/table by id and print its rows.
* ``report``        -- run the whole evaluation, emit a markdown report.
* ``check``         -- determinism linter and/or sanitized simulation.
* ``serve``         -- run the HTTP/JSON simulation service (README
  "Serving the simulator"): micro-batching, bounded admission queue,
  graceful drain on SIGTERM.
* ``submit``        -- submit one simulation request to a running
  service and print the response payload.

``simulate``, ``experiment``, ``report``, and ``serve`` share the
observability flags (README "Observability"): ``--metrics-out
FILE.json`` dumps the metrics-registry snapshot, ``--events-out
FILE.jsonl`` appends every event and span record, ``--progress``
streams span completions to stderr, ``--trace-memory`` adds
``tracemalloc`` peaks to span records.  ``simulate`` and
``experiment`` also take ``--sanitize`` (README "Static checks &
sanitizer") to run with the microarchitectural invariant checker armed.

``experiment`` and ``report`` take the scheduler flags (README "Scaling
out"): ``--workers N`` fans simulations out over the scheduler's fork
pool, one task per (app, design), with ``--task-timeout`` and
``--max-retries`` controlling the fault-tolerance machinery.  Parallel
output is bit-identical to serial output; scheduler failures go to
stderr and the report's appendix, never into result rows.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from repro.experiments import design_registry, run_design
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import enable_metrics, use_registry
from repro.workloads.suite import SCALES, build_suite


def _design_registry() -> dict:
    """The stable design-name mapping (now shared with ``repro.serve``)."""
    return design_registry()


def _experiment_registry() -> dict:
    from repro.experiments import (
        run_fig1, run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8,
        run_fig10, run_fig11a, run_fig11b, run_fig11c,
        run_fig12a, run_fig12b, run_fig12c,
        run_future_pipelines, run_ghrp_combination, run_ittage,
        run_multiprogramming, run_multitag_alternative,
        run_next_target_tag_extension, run_perfect_direction,
        run_prefetch_complement, run_replacement_ablation,
        run_returns_in_btb, run_stale_pointer_ablation,
        run_tag_width_ablation, run_table2, run_table4,
    )

    return {
        "fig1": run_fig1, "fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5,
        "fig6": run_fig6, "fig7": run_fig7, "fig8": run_fig8,
        "fig10": run_fig10, "fig11a": run_fig11a, "fig11b": run_fig11b,
        "fig11c": run_fig11c, "fig12a": run_fig12a, "fig12b": run_fig12b,
        "fig12c": run_fig12c,
        "s5.5": run_perfect_direction, "s5.6": run_ittage,
        "s5.7": run_returns_in_btb, "s5.11": run_future_pipelines,
        "ablation-replacement": run_replacement_ablation,
        "ablation-stale": run_stale_pointer_ablation,
        "ablation-tags": run_tag_width_ablation,
        "alt-multitag": run_multitag_alternative,
        "ext-next-tag": run_next_target_tag_extension,
        "ext-prefetch": run_prefetch_complement,
        "ext-ghrp": run_ghrp_combination,
        "ext-multiprog": run_multiprogramming,
        "tab2": lambda scale=None: run_table2(),
        "tab4": lambda scale=None: run_table4(),
    }


def cmd_list_apps(args: argparse.Namespace) -> int:
    for spec in build_suite(args.scale):
        print(f"{spec.name:32s} {spec.category:10s} seed={spec.seed} "
              f"functions={spec.n_functions} hot={spec.hot_functions_per_phase}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis import (
        branch_type_mix, density_stats, distance_stats, taken_stats,
        uniqueness_stats,
    )
    from repro.workloads.suite import get_trace

    trace = get_trace(args.app, args.scale)
    taken = taken_stats(trace)
    unique = uniqueness_stats(trace)
    density = density_stats(trace)
    distance = distance_stats(trace)
    mix = branch_type_mix(trace)
    print(f"{trace.name} ({trace.category}): {len(trace):,} events, "
          f"{trace.instruction_count:,} instructions")
    print(f"taken: static {taken.static_taken_fraction:.1%}, "
          f"dynamic {taken.dynamic_taken_fraction:.1%}")
    print("mix: " + ", ".join(f"{k} {v:.1%}" for k, v in mix.fractions.items()))
    print(f"unique: PCs {unique.unique_pcs}, targets {unique.target_fraction:.1%}, "
          f"regions {unique.region_fraction:.2%}, pages {unique.page_fraction:.1%}")
    print(f"density: {density.targets_per_page:.1f} targets/page, "
          f"{density.targets_per_region:.0f} targets/region")
    print(f"same-page: {distance.same_page_fraction:.1%}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Convert a branch trace between framings, through the gate."""
    from repro.analysis.characterize import EnvelopeError, characterize
    from repro.workloads.ingest import (
        IngestError, detect_format, dump_any, load_any,
    )

    try:
        source_format = detect_format(args.input)
        trace = load_any(args.input)
    except OSError as error:
        print(f"convert: cannot read {args.input}: {error}", file=sys.stderr)
        return 1
    except (IngestError, ValueError) as error:
        print(f"convert: {args.input}: {error}", file=sys.stderr)
        return 1
    if args.name:
        trace.name = args.name
    if args.category:
        trace.category = args.category
    profile = characterize(trace)
    if args.profile_out:
        with open(args.profile_out, "w") as handle:
            json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.profile_out}", file=sys.stderr)
    if not args.no_gate:
        from repro.analysis.characterize import paper_envelope

        try:
            paper_envelope().check(profile)
        except EnvelopeError as error:
            print(f"convert: {error}", file=sys.stderr)
            return 1
    try:
        used = dump_any(trace, args.output, fmt=args.to)
    except (OSError, ValueError) as error:
        print(f"convert: cannot write {args.output}: {error}", file=sys.stderr)
        return 1
    print(f"convert: {args.input} ({source_format}) -> {args.output} ({used}): "
          f"{len(trace):,} events, {profile.instruction_count:,} instructions, "
          f"{profile.unique_pcs:,} static branches"
          + ("" if args.no_gate else "; characterization gate passed"),
          file=sys.stderr)
    return 0


def _simulate_trace_file(args: argparse.Namespace, design) -> int:
    """``simulate --trace FILE``: run a design over an imported trace."""
    from repro.analysis.characterize import EnvelopeError
    from repro.frontend.simulator import FrontendSimulator
    from repro.workloads.ingest import IngestError, import_trace

    try:
        trace, _profile = import_trace(args.trace_file, gate=not args.no_gate)
    except OSError as error:
        print(f"simulate: cannot read {args.trace_file}: {error}",
              file=sys.stderr)
        return 1
    except (IngestError, EnvelopeError, ValueError) as error:
        print(f"simulate: {args.trace_file}: {error}", file=sys.stderr)
        return 1
    btb, simulator_kwargs = design.build()
    simulator = FrontendSimulator(btb, **simulator_kwargs)
    stats = simulator.run(trace, warmup_fraction=args.warmup)
    print(f"{trace.name} x {design.key} (storage {btb.storage_kib():.1f} KiB)")
    print(f"  IPC            : {stats.ipc:.3f}")
    print(f"  BTB MPKI       : {stats.btb_mpki:.2f}")
    print(f"  decode resteers: {stats.decode_resteers}")
    print(f"  exec resteers  : {stats.execute_resteers}")
    print(f"  frontend-bound : {stats.frontend_bound_fraction:.1%}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    app = args.app_opt or args.app
    design_key = args.design_opt or args.design
    if args.trace_file:
        if app and design_key is None:
            # `simulate --trace FILE DESIGN` puts the design first.
            app, design_key = None, app
    if not design_key or (not app and not args.trace_file):
        print("simulate needs an application (or --trace FILE) and a design "
              "(positional or --app/--design)", file=sys.stderr)
        return 2
    registry = _design_registry()
    if design_key not in registry:
        print(f"unknown design {design_key!r}; options: {sorted(registry)}",
              file=sys.stderr)
        return 2
    design = registry[design_key]
    if args.trace_file:
        return _simulate_trace_file(args, design)
    stats = run_design(app, design, scale=args.scale,
                       warmup_fraction=args.warmup)
    btb, _ = design.build()
    print(f"{app} x {design.key} (storage {btb.storage_kib():.1f} KiB)")
    print(f"  IPC            : {stats.ipc:.3f}")
    print(f"  BTB MPKI       : {stats.btb_mpki:.2f}")
    print(f"  decode resteers: {stats.decode_resteers}")
    print(f"  exec resteers  : {stats.execute_resteers}")
    print(f"  frontend-bound : {stats.frontend_bound_fraction:.1%}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import scheduler

    registry = _experiment_registry()
    if args.id not in registry:
        print(f"unknown experiment {args.id!r}; options: {sorted(registry)}",
              file=sys.stderr)
        return 2
    result = registry[args.id](scale=args.scale)
    # stdout carries only the result rows -- parallel and serial runs stay
    # byte-identical; scheduler degradation is stderr-only here.
    print(result.render())
    for failure in scheduler.drain_failures():
        print(f"scheduler: task {failure.task_id} failed after "
              f"{failure.attempts} attempt(s) [{failure.kind}]: "
              f"{failure.message}", file=sys.stderr)
    return 0


def _checks_root(paths: list[str]) -> "os.PathLike | None":
    """The repo root above the checked paths: the nearest ancestor with
    a README.md (where the baseline file and knob docs live)."""
    from pathlib import Path

    start = Path(paths[0]).resolve()
    for candidate in (start, *start.parents):
        if (candidate / "README.md").is_file():
            return candidate
    return None


def cmd_check(args: argparse.Namespace) -> int:
    """Front door for every engine: static passes and/or a sanitized
    simulation.

    ``--lint`` is the per-file AST pass, ``--concurrency`` the
    interprocedural REP1xx pass over the project call graph,
    ``--contracts`` the REP2xx knob/metric/event registry pass;
    ``--all`` runs the three.  With no engine flag, lints (the cheap,
    always-applicable engine).  Findings in the committed baseline
    (``checks_baseline.json``) are tolerated; exit status is 1 only for
    *new* findings (or any sanitizer violation).
    """
    run_linter = args.lint or args.all or not (
        args.concurrency or args.contracts or args.sanitize
    )
    run_concurrency_pass = args.concurrency or args.all
    run_contracts_pass = args.contracts or args.all
    failed = False
    if run_linter or run_concurrency_pass or run_contracts_pass:
        from pathlib import Path

        from repro.checks.baseline import apply_baseline, load_baseline, write_baseline
        from repro.checks.lint import run_lint

        paths = args.paths
        default_target = not paths
        if default_target:
            # Default target: the installed repro package source itself.
            import repro

            paths = [os.path.dirname(os.path.abspath(repro.__file__))]
        findings = []
        passes = []
        if run_linter:
            findings.extend(run_lint(paths))
            passes.append("lint")
        if run_concurrency_pass or run_contracts_pass:
            from repro.checks.callgraph import build_project

            project = build_project(paths)
            if run_concurrency_pass:
                from repro.checks.concurrency import run_concurrency

                findings.extend(run_concurrency(project))
                passes.append("concurrency")
            if run_contracts_pass:
                from repro.checks.contracts import run_contracts

                root = _checks_root(paths)
                docs_text = None
                if root is not None:
                    docs_text = (root / "README.md").read_text()
                    design_md = root / "DESIGN.md"
                    if design_md.is_file():
                        docs_text += design_md.read_text()
                findings.extend(
                    run_contracts(
                        project,
                        docs_text=docs_text,
                        # Unused-knob detection (REP205) is only
                        # meaningful over the whole package.
                        check_unused=default_target,
                    )
                )
                passes.append("contracts")
        # The passes overlap on REP000 (syntax errors): dedup.
        findings = sorted(set(findings), key=lambda f: f.sort_key)

        root = _checks_root(paths)
        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else (root / "checks_baseline.json" if root is not None else None)
        )
        if args.update_baseline:
            if baseline_path is None:
                print("check: no repo root found for the baseline file",
                      file=sys.stderr)
                return 2
            write_baseline(baseline_path, findings, root)
            print(f"check: baseline updated with {len(findings)} finding(s) "
                  f"at {baseline_path}", file=sys.stderr)
            return 0
        baseline = load_baseline(baseline_path) if baseline_path else {}
        new, stale = apply_baseline(findings, baseline, root)

        if args.format == "text":
            for finding in new:
                print(finding.format())
        else:
            from repro.checks.output import to_json, to_sarif

            summary = {
                "passes": passes,
                "findings": len(findings),
                "baselined": len(findings) - len(new),
                "new": len(new),
                "stale_baseline_entries": len(stale),
            }
            document = (
                to_json(new, summary) if args.format == "json" else to_sarif(new)
            )
            if args.output:
                Path(args.output).write_text(document)
            else:
                sys.stdout.write(document)
        print(f"check [{'+'.join(passes)}]: {len(findings)} finding(s) in "
              f"{len(paths)} path(s); {len(findings) - len(new)} baselined, "
              f"{len(new)} new", file=sys.stderr)
        for entry in stale:
            print(f"check: stale baseline entry (finding fixed?): {entry} "
                  "-- run --update-baseline to shrink the baseline",
                  file=sys.stderr)
        failed |= bool(new)
    if args.sanitize:
        from repro.checks.sanitizer import (
            DEFAULT_CHECK_INTERVAL,
            InvariantViolation,
            Sanitizer,
            use_sanitizer,
        )
        from repro.frontend.simulator import FrontendSimulator
        from repro.workloads.suite import get_trace

        registry = _design_registry()
        if args.design not in registry:
            print(f"unknown design {args.design!r}; options: {sorted(registry)}",
                  file=sys.stderr)
            return 2
        design = registry[args.design]
        trace = get_trace(args.sanitize, args.scale)
        btb, simulator_kwargs = design.build()
        simulator = FrontendSimulator(btb, **simulator_kwargs)
        interval = args.interval or DEFAULT_CHECK_INTERVAL
        try:
            with use_sanitizer(Sanitizer(interval=interval)) as sanitizer:
                simulator.run(trace, warmup_fraction=args.warmup)
                snapshot = sanitizer.snapshot()
            print(f"sanitize: {args.sanitize} x {design.key}: OK "
                  f"({snapshot['sanitizer_checks_total']} checks over "
                  f"{snapshot['sanitizer_steps_total']} steps)", file=sys.stderr)
        except InvariantViolation as violation:
            print(f"sanitize: {args.sanitize} x {design.key}: FAILED",
                  file=sys.stderr)
            print(violation, file=sys.stderr)
            failed = True
    return 1 if failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service until SIGTERM/SIGINT, then drain."""
    import asyncio

    from repro.serve import SimulationService, config_from_env

    overrides = {
        name: value
        for name, value in {
            "host": args.host,
            "port": args.port,
            "batch_window": args.batch_window,
            "queue_limit": args.queue_limit,
            "workers": args.serve_workers,
            "drain_timeout": args.drain_timeout,
            "default_scale": args.scale,
            "trace_buffer": args.trace_buffer,
            "events_path": args.events_out,
            "store_url": args.store,
        }.items()
        if value is not None
    }
    config = config_from_env().replace(**overrides)
    span_options = _span_options(args)
    events = None
    if config.trace_buffer > 0 and any(span_options.values()):
        events = EventLog(config.trace_buffer, config.events_path, **span_options)
    service = SimulationService(config=config, events=events)

    def ready() -> None:
        store = service.store.describe()["kind"] if service.store else "none"
        print(f"serving on http://{service.config.host}:{service.port} "
              f"(queue limit {service.config.queue_limit}, "
              f"batch window {service.config.batch_window * 1000:.0f}ms, "
              f"store {store})",
              file=sys.stderr)

    asyncio.run(service.serve_forever(_on_ready=ready))
    print("drained; bye", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one request to a running service; stdout carries the exact
    response payload (canonical stats JSON), metadata goes to stderr."""
    from repro.serve import ServeClient, ServiceError

    client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    params = json.loads(args.params) if args.params else None
    try:
        response = client.simulate(
            design=args.design,
            app=args.app,
            params=params,
            warmup=args.warmup,
            scale=args.scale,
        )
    except ServiceError as error:
        print(f"submit: {error}", file=sys.stderr)
        if error.retry_after is not None:
            print(f"submit: retry after {error.retry_after:.0f}s", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"submit: cannot reach {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    sys.stdout.buffer.write(response.body)
    sys.stdout.buffer.write(b"\n")
    print(f"submit: outcome={response.outcome} "
          f"batch-size={response.batch_size}", file=sys.stderr)
    if args.timing:
        timing = response.timing
        hops = " ".join(
            f"{hop}={timing[hop] * 1000:.3f}ms"
            for hop in ("batch_wait", "queue", "simulate")
            if hop in timing
        )
        total = sum(timing.values())
        rid = response.request_id or "?"
        print(f"submit: timing rid={rid} {hops} "
              f"server-total={total * 1000:.3f}ms", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    def progress(experiment_id: str, seconds: float) -> None:
        print(f"  [{seconds:6.1f}s] {experiment_id}", file=sys.stderr)

    report = generate_report(scale=args.scale, progress=progress)
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _wrap(values, indent: str = "  ", width: int = 72) -> str:
    """Lay comma-separated values out over indented lines."""
    lines, line = [], indent
    for value in values:
        cell = value + "  "
        if len(line) + len(cell) > width and line.strip():
            lines.append(line.rstrip())
            line = indent
        line += cell
    if line.strip():
        lines.append(line.rstrip())
    return "\n".join(lines)


def _epilog() -> str:
    """Generated from the registries so --help never goes stale."""
    return (
        "design keys (simulate DESIGN):\n"
        + _wrap(sorted(_design_registry()))
        + "\n\nexperiment ids (experiment ID):\n"
        + _wrap(sorted(_experiment_registry()))
    )


def _add_sanitize_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("sanitizer")
    group.add_argument(
        "--sanitize", action="store_true",
        help="run with the microarchitectural invariant checker armed "
             "(disables the result cache so simulations actually execute)",
    )
    group.add_argument(
        "--sanitize-interval", type=int, default=None, metavar="N",
        help="structure updates between two invariant sweeps "
             "(default: repro.checks.DEFAULT_CHECK_INTERVAL)",
    )


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scheduler")
    group.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="forked worker processes for the scheduler "
             "(default: REPRO_SCHED_WORKERS or serial)",
    )
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill + retry a scheduler task past this wall-clock budget",
    )
    group.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per task before it becomes a structured failure "
             "(default: REPRO_SCHED_MAX_RETRIES or 2)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", metavar="FILE.json", default=None,
        help="dump the metrics-registry snapshot as JSON",
    )
    group.add_argument(
        "--events-out", metavar="FILE.jsonl", default=None,
        help="append every event and span record to FILE as JSONL "
             "(serve default: REPRO_SERVE_EVENTS or unset)",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="stream span completions to stderr while running",
    )
    group.add_argument(
        "--trace-memory", action="store_true",
        help="record tracemalloc peaks per span",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDede (MICRO 2021) reproduction toolkit",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default=None,
        help="suite scale (default: REPRO_SCALE env or 'default')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list the workload suite")

    characterize = sub.add_parser("characterize", help="Section 3 analyses for one app")
    characterize.add_argument("app")

    simulate = sub.add_parser(
        "simulate", help="simulate one (app, design) pair",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    simulate.add_argument("app", nargs="?", default=None)
    simulate.add_argument("design", nargs="?", default=None)
    simulate.add_argument("--app", dest="app_opt", default=None,
                          help="application name (alternative to positional)")
    simulate.add_argument("--design", dest="design_opt", default=None,
                          help="design key (alternative to positional)")
    simulate.add_argument("--warmup", type=float, default=0.3)
    simulate.add_argument("--trace", dest="trace_file", default=None,
                          metavar="FILE",
                          help="simulate an imported trace file (RBT text/"
                               "binary, legacy text, or .npz) instead of a "
                               "suite app")
    simulate.add_argument("--no-gate", action="store_true",
                          help="with --trace: skip the characterization "
                               "envelope gate")
    _add_obs_flags(simulate)
    _add_sanitize_flags(simulate)

    convert = sub.add_parser(
        "convert", help="convert a branch trace between framings "
                        "(README 'Importing real traces')",
    )
    convert.add_argument("input", help="source trace (RBT text/binary, "
                                       "legacy text, or .npz)")
    convert.add_argument("output", help="destination path; framing from "
                                        "--to or the suffix (.rbt/.rbtb/.npz)")
    convert.add_argument(
        "--to", choices=("rbt-text", "rbt-binary", "npz", "legacy-text"),
        default=None, help="output framing (default: by output suffix)",
    )
    convert.add_argument("--name", default=None,
                         help="override the trace name header")
    convert.add_argument("--category", default=None,
                         help="override the trace category header")
    convert.add_argument("--no-gate", action="store_true",
                         help="skip the characterization envelope gate")
    convert.add_argument("--profile-out", metavar="FILE.json", default=None,
                         help="write the characterization profile as JSON")

    experiment = sub.add_parser(
        "experiment", help="run a paper figure/table by id",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    experiment.add_argument("id")
    _add_obs_flags(experiment)
    _add_sanitize_flags(experiment)
    _add_scheduler_flags(experiment)

    report = sub.add_parser("report", help="run the full evaluation matrix")
    report.add_argument("--output", "-o", default=None)
    _add_obs_flags(report)
    _add_scheduler_flags(report)

    check = sub.add_parser(
        "check", help="determinism linter and/or sanitized simulation",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    check.add_argument(
        "paths", nargs="*", default=[],
        help="files/directories to lint (default: the repro package)",
    )
    check.add_argument(
        "--lint", action="store_true",
        help="run the determinism linter (the default when no engine "
             "flag is given)",
    )
    check.add_argument(
        "--concurrency", action="store_true",
        help="run the interprocedural REP1xx concurrency pass "
             "(call-graph reachability from async handlers)",
    )
    check.add_argument(
        "--contracts", action="store_true",
        help="run the REP2xx contract pass (knob registry, metric and "
             "event catalogs)",
    )
    check.add_argument(
        "--all", action="store_true",
        help="run every static pass: lint + concurrency + contracts",
    )
    check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="findings output format (default: text)",
    )
    check.add_argument(
        "--output", metavar="FILE", default=None,
        help="write json/sarif findings to FILE instead of stdout",
    )
    check.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline file of tolerated findings "
             "(default: checks_baseline.json at the repo root)",
    )
    check.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    check.add_argument(
        "--sanitize", metavar="APP", default=None,
        help="simulate APP with the invariant checker armed",
    )
    check.add_argument(
        "--design", default="pdede-multi-entry",
        help="design to sanitize (default: pdede-multi-entry)",
    )
    check.add_argument(
        "--interval", type=int, default=None, metavar="N",
        help="updates between invariant sweeps "
             "(default: repro.checks.DEFAULT_CHECK_INTERVAL)",
    )
    check.add_argument("--warmup", type=float, default=0.3)

    serve = sub.add_parser(
        "serve", help="run the HTTP/JSON simulation service",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("--host", default=None,
                       help="bind address (default: REPRO_SERVE_HOST or 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port, 0 for ephemeral "
                            "(default: REPRO_SERVE_PORT or 8337)")
    serve.add_argument("--batch-window", type=float, default=None, metavar="SECONDS",
                       help="micro-batch collection window "
                            "(default: REPRO_SERVE_BATCH_WINDOW or 0.02)")
    serve.add_argument("--queue-limit", type=int, default=None, metavar="N",
                       help="max queued+running requests before 429 "
                            "(default: REPRO_SERVE_QUEUE_LIMIT or 64)")
    serve.add_argument("--workers", dest="serve_workers", type=int, default=None,
                       metavar="N",
                       help="batch-executor threads "
                            "(default: REPRO_SERVE_WORKERS or 2)")
    serve.add_argument("--drain-timeout", type=float, default=None, metavar="SECONDS",
                       help="max wait for in-flight requests on shutdown "
                            "(default: REPRO_SERVE_DRAIN_TIMEOUT or 30)")
    serve.add_argument("--trace-buffer", type=int, default=None, metavar="N",
                       help="request-event ring capacity, 0 disables tracing "
                            "(default: REPRO_SERVE_TRACE_BUFFER or 4096)")
    serve.add_argument("--store", default=None, metavar="URL",
                       help="shared result store, in place of the local "
                            "disk cache (disk://, disk:///path, fake://name; "
                            "default REPRO_SERVE_STORE or none)")
    # --metrics-out enables the recording registry, so /metrics serves a
    # live snapshot and the file is written after the drain completes;
    # --events-out is the service's event-log sink.
    _add_obs_flags(serve)

    submit = sub.add_parser(
        "submit", help="submit one request to a running service",
        epilog=_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    submit.add_argument("app", help="suite workload name")
    submit.add_argument("design", help="design key")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8337)
    submit.add_argument("--warmup", type=float, default=None,
                        help="warmup fraction (default: the service's 0.3)")
    submit.add_argument("--params", default=None, metavar="JSON",
                        help='CoreParams overrides, e.g. \'{"fetch_width": 8}\'')
    submit.add_argument("--timeout", type=float, default=60.0)
    submit.add_argument("--timing", action="store_true",
                        help="print the server-reported per-hop breakdown "
                             "(batch-wait/queue/simulate) to stderr")

    return parser


_COMMANDS = {
    "list-apps": cmd_list_apps,
    "characterize": cmd_characterize,
    "simulate": cmd_simulate,
    "convert": cmd_convert,
    "experiment": cmd_experiment,
    "report": cmd_report,
    "check": cmd_check,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


@contextlib.contextmanager
def _sanitization(args: argparse.Namespace):
    """Scope ``--sanitize`` on simulate/experiment: arm the checker and
    disable the memo and the disk cache so simulations actually execute
    (a cache hit would silently skip the sweeps being asked for)."""
    if not getattr(args, "sanitize", None) or args.command == "check":
        yield
        return
    from repro.checks.sanitizer import DEFAULT_CHECK_INTERVAL, Sanitizer, use_sanitizer

    interval = getattr(args, "sanitize_interval", None) or DEFAULT_CHECK_INTERVAL
    knobs = ("REPRO_RESULT_CACHE", "REPRO_DISK_CACHE")
    previous = {name: os.environ.get(name) for name in knobs}
    os.environ.update(dict.fromkeys(knobs, "0"))
    try:
        with use_sanitizer(Sanitizer(interval=interval)) as sanitizer:
            yield
            snapshot = sanitizer.snapshot()
            print(f"sanitizer: OK ({snapshot['sanitizer_checks_total']} checks "
                  f"over {snapshot['sanitizer_steps_total']} steps)",
                  file=sys.stderr)
    finally:
        for name, value in previous.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


@contextlib.contextmanager
def _scheduling(args: argparse.Namespace):
    """Scope the scheduler flags: install a process-wide config so every
    ``run_suite`` under this command fans out the same way."""
    flags = (
        getattr(args, "workers", None),
        getattr(args, "task_timeout", None),
        getattr(args, "max_retries", None),
    )
    if all(value is None for value in flags):
        yield
        return
    from repro.experiments import scheduler

    workers, task_timeout, max_retries = flags
    scheduler.configure(
        scheduler.resolve_config(
            workers=workers, task_timeout=task_timeout, max_retries=max_retries
        )
    )
    try:
        yield
    finally:
        scheduler.configure(None)


#: Span-record fields that are not attrs (left out of ``--progress`` lines).
_SPAN_FIELDS = {"ts", "event", "rid", "rids", "name", "seconds", "span", "parent",
                "depth", "memory_peak_kib"}


def _progress_line(record: dict) -> None:
    """``--progress``: one stderr line per closed top-level span."""
    if record["depth"] <= 1:
        attrs = " ".join(
            f"{k}={v}" for k, v in record.items() if k not in _SPAN_FIELDS
        )
        print(f"  [{record['seconds']:7.2f}s] {record['name']} {attrs}",
              file=sys.stderr)


def _span_options(args: argparse.Namespace) -> dict:
    """The EventLog span options ``--trace-memory``/``--progress`` ask for."""
    return {
        "trace_memory": bool(getattr(args, "trace_memory", False)),
        "on_span": _progress_line if getattr(args, "progress", False) else None,
    }


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Scope the obs flags: enable, run, dump to the requested sinks.

    ``serve`` builds its own event log (ring + ``--events-out`` sink)."""
    metrics_out = getattr(args, "metrics_out", None)
    events_out = getattr(args, "events_out", None)
    span_options = _span_options(args)
    with contextlib.ExitStack() as stack:
        registry = None
        if metrics_out:
            registry = stack.enter_context(use_registry(enable_metrics()))
        if args.command != "serve" and (events_out or any(span_options.values())):
            log = EventLog(sink_path=events_out, **span_options)
            if events_out:
                stack.callback(print, f"wrote {events_out}", file=sys.stderr)
            stack.callback(log.close)
            stack.enter_context(use_event_log(log))
        try:
            yield
        finally:
            if metrics_out and registry is not None:
                registry.dump(metrics_out)
                print(f"wrote {metrics_out}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _observability(args), _sanitization(args), _scheduling(args):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
