"""REP2xx: configuration & observability contract rules.

The env-var / metric / event surface is the repo's *operational* API:
dashboards alert on metric names, runbooks grep event names, deploy
manifests set ``REPRO_*`` knobs.  None of that is type-checked, so this
module pins each surface to a declared catalog and a static pass keeps
code and catalog from drifting:

==========  ==========================  =====================================
code        name                        catches
==========  ==========================  =====================================
``REP201``  undeclared-knob             ``"REPRO_*"`` literal read in code
                                        but missing from :data:`KNOWN_KNOBS`
``REP202``  undocumented-knob           knob read in code but not mentioned
                                        in README.md / DESIGN.md
``REP203``  undeclared-metric           ``counter/gauge/histogram("name")``
                                        not in :data:`METRIC_CATALOG`
``REP204``  undeclared-event            ``emit("name")`` not in
                                        :data:`EVENT_CATALOG`
``REP205``  unused-knob                 runtime knob declared here but read
                                        nowhere in the source tree
==========  ==========================  =====================================

Scope notes: REP201 matches *whole-string* literals (help text that
merely mentions a knob inside a sentence does not trip it); REP203 only
sees literal first arguments -- bulk ``registry.publish({...})`` sites
(simulator/sanitizer snapshots) build names dynamically and are covered
by runtime tests instead; ``scope="test"`` knobs are exempt from
REP202/REP205 (they never ship in a deploy manifest).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.checks.callgraph import Project
from repro.checks.lint import FileContext, LintFinding

__all__ = [
    "Knob",
    "KNOWN_KNOBS",
    "METRIC_CATALOG",
    "EVENT_CATALOG",
    "CONTRACT_RULES",
    "run_contracts",
]

#: code -> (name, summary) for SARIF metadata and docs.
CONTRACT_RULES = {
    "REP201": ("undeclared-knob", "REPRO_* env var read but not in the knob registry"),
    "REP202": ("undocumented-knob", "knob read in code but not mentioned in README/DESIGN"),
    "REP203": ("undeclared-metric", "metric name emitted but not in METRIC_CATALOG"),
    "REP204": ("undeclared-event", "event name emitted but not in EVENT_CATALOG"),
    "REP205": ("unused-knob", "knob declared in the registry but read nowhere"),
}


@dataclass(frozen=True)
class Knob:
    """One declared ``REPRO_*`` environment variable."""

    name: str
    scope: str  # "runtime" (ships in deploy manifests) or "test"
    description: str


_KNOB_LIST = (
    Knob("REPRO_SCALE", "runtime", "workload suite scale preset (quick/default/large)"),
    Knob("REPRO_RESULT_CACHE", "runtime", "0 disables the in-process harness result memo"),
    Knob("REPRO_DISK_CACHE", "runtime", "0 disables the persistent trace/result disk cache"),
    Knob("REPRO_DISK_CACHE_DIR", "runtime", "disk cache root directory override"),
    Knob("REPRO_SCHED_WORKERS", "runtime", "scheduler fork-worker count (0 = serial)"),
    Knob("REPRO_SCHED_TASK_TIMEOUT", "runtime", "per-task timeout seconds before kill+retry"),
    Knob("REPRO_SCHED_MAX_RETRIES", "runtime", "retry budget per task before degradation"),
    Knob("REPRO_SCHED_LOG", "runtime", "scheduler JSONL task-log path"),
    Knob("REPRO_SERVE_HOST", "runtime", "serve bind host"),
    Knob("REPRO_SERVE_PORT", "runtime", "serve bind port"),
    Knob("REPRO_SERVE_BATCH_WINDOW", "runtime", "micro-batch open window (seconds)"),
    Knob("REPRO_SERVE_QUEUE_LIMIT", "runtime", "admission queue bound before 429"),
    Knob("REPRO_SERVE_WORKERS", "runtime", "serve worker-thread pool size"),
    Knob("REPRO_SERVE_DRAIN_TIMEOUT", "runtime", "graceful-drain budget (seconds)"),
    Knob("REPRO_SERVE_RETRY_AFTER", "runtime", "Retry-After header value for 429/503"),
    Knob("REPRO_SERVE_MAX_BODY", "runtime", "request body byte cap"),
    Knob("REPRO_SERVE_MAX_EVENTS", "runtime", "per-job trace event cap"),
    Knob("REPRO_SERVE_SCALE", "runtime", "serve-side workload scale override"),
    Knob("REPRO_SERVE_TRACE_BUFFER", "runtime", "event-log ring capacity"),
    Knob("REPRO_SERVE_EVENTS", "runtime", "event-log JSONL sink path"),
    Knob("REPRO_SERVE_STORE", "runtime", "shared result-store URL (redis://, disk://, fake://)"),
    Knob("REPRO_SERVE_STORE_TTL", "runtime", "cross-replica single-flight lease TTL seconds"),
    Knob("REPRO_SERVE_STORE_WAIT", "runtime", "seconds to await another replica's publish before local compute"),
    Knob("REPRO_SERVE_STORE_POLL", "runtime", "result-poll cadence while awaiting a publish"),
    Knob("REPRO_REDIS_URL", "test", "opt-in Redis endpoint for the RedisStore contract tests"),
    Knob("REPRO_TEST_KEEP_ENV", "test", "comma list of REPRO_* vars the hermetic test fixture preserves"),
)

#: The central knob registry: name -> :class:`Knob`.
KNOWN_KNOBS: Mapping[str, Knob] = {knob.name: knob for knob in _KNOB_LIST}

#: Every metric name the code registers via ``counter/gauge/histogram``.
#: ``registry.publish({...})`` bulk snapshots (frontend simulator,
#: sanitizer) derive names dynamically and are validated by the obs
#: tests, not statically.
METRIC_CATALOG = frozenset(
    {
        "serve_requests_total",
        "serve_request_seconds",
        "serve_queue_depth",
        "serve_batch_size",
        "serve_cache_outcome_total",
        "serve_trace_decodes_total",
        "serve_store_errors_total",
        "frontend_stall_cycles_total",
        "frontend_resteers_total",
        "frontend_engine_events_per_sec",
        "btb_misses_by_kind_total",
        "harness_result_cache_total",
        "harness_simulation_seconds",
        "harness_engine_runs_total",
        "scheduler_tasks_total",
        "scheduler_task_seconds",
        "scheduler_timeouts_total",
        "scheduler_retries_total",
    }
)

#: Every event name the code emits; ``obs.aggregate`` joins on these
#: (``respond`` carries latency; the rest are per-request hops).
EVENT_CATALOG = frozenset(
    {
        "admit",
        "batch-join",
        "batch-execute",
        "cache",
        "respond",
        "harness-run",
        "cache-lookup",
        "disk-result",
        "scheduler-grid",
        "store_degraded",
    }
)

_KNOB_LITERAL_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: Modules whose knob-name literals are declarations, not reads.
_SELF_MODULES = frozenset({"repro.checks.contracts"})


def _suppressed(ctx: FileContext, node: ast.AST, code: str) -> bool:
    start = getattr(node, "lineno", 1)
    end = getattr(node, "end_lineno", None) or start
    return any(ctx.suppressed(line, code) for line in range(start, end + 1))


def _knob_literals(tree: ast.Module) -> Iterator[tuple[ast.Constant, str]]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _KNOB_LITERAL_RE.match(node.value)
        ):
            yield node, node.value


def _literal_calls(
    tree: ast.Module, attrs: frozenset[str], names: frozenset[str] = frozenset()
) -> Iterator[tuple[ast.Call, str, str]]:
    """``(call, method, literal-first-arg)`` for matching call sites."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        method = None
        if isinstance(func, ast.Attribute) and func.attr in attrs:
            method = func.attr
        elif isinstance(func, ast.Name) and func.id in names:
            method = func.id
        if method is None:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield node, method, first.value


def run_contracts(
    project: Project,
    docs_text: str | None = None,
    knobs: Mapping[str, Knob] | None = None,
    metrics: frozenset[str] | None = None,
    events: frozenset[str] | None = None,
    check_unused: bool = False,
) -> list[LintFinding]:
    """Run every REP2xx rule over a built project.

    ``docs_text`` enables REP202 (pass the concatenated README/DESIGN
    text; ``None`` skips the rule).  ``check_unused`` enables REP205 --
    only meaningful when the project spans the whole source tree.
    The catalog arguments exist for the unit tests; production callers
    use the module-level defaults.
    """
    knobs = KNOWN_KNOBS if knobs is None else knobs
    metrics = METRIC_CATALOG if metrics is None else metrics
    events = EVENT_CATALOG if events is None else events

    findings: list[LintFinding] = list(project.syntax_errors)
    used_knobs: dict[str, tuple[str, int, int]] = {}

    for module in sorted(project.modules):
        info = project.modules[module]
        if module in _SELF_MODULES:
            continue
        for node, value in _knob_literals(info.tree):
            used_knobs.setdefault(value, (info.path, node.lineno, node.col_offset))
            if value in knobs:
                continue
            if _suppressed(info.ctx, node, "REP201"):
                continue
            findings.append(
                LintFinding(
                    info.path,
                    node.lineno,
                    node.col_offset,
                    "REP201",
                    f"'{value}' is not in the knob registry "
                    "(repro.checks.contracts.KNOWN_KNOBS); declare it with a "
                    "scope and description, or rename the variable",
                )
            )
        for node, method, name in _literal_calls(info.tree, _METRIC_FACTORIES):
            if name in metrics:
                continue
            if _suppressed(info.ctx, node, "REP203"):
                continue
            findings.append(
                LintFinding(
                    info.path,
                    node.lineno,
                    node.col_offset,
                    "REP203",
                    f"metric '{name}' ({method}) is not in METRIC_CATALOG; "
                    "declare it so /metrics exposition and dashboards stay "
                    "in sync",
                )
            )
        for node, _method, name in _literal_calls(
            info.tree, frozenset({"emit"}), frozenset({"emit"})
        ):
            if name in events:
                continue
            if _suppressed(info.ctx, node, "REP204"):
                continue
            findings.append(
                LintFinding(
                    info.path,
                    node.lineno,
                    node.col_offset,
                    "REP204",
                    f"event '{name}' is not in EVENT_CATALOG; declare it so "
                    "obs.aggregate and /debug/trace consumers stay in sync",
                )
            )

    if docs_text is not None:
        for name in sorted(used_knobs):
            knob = knobs.get(name)
            if knob is None or knob.scope == "test":
                continue
            if name in docs_text:
                continue
            path, line, col = used_knobs[name]
            findings.append(
                LintFinding(
                    path,
                    line,
                    col,
                    "REP202",
                    f"knob '{name}' is read here but not documented in "
                    "README.md/DESIGN.md; add it to the knob table",
                )
            )

    if check_unused:
        decl_path, decl_lines = _declaration_lines(knobs)
        for name in sorted(knobs):
            knob = knobs[name]
            if knob.scope == "test" or name in used_knobs:
                continue
            findings.append(
                LintFinding(
                    decl_path,
                    decl_lines.get(name, 1),
                    0,
                    "REP205",
                    f"knob '{name}' is declared in the registry but read "
                    "nowhere in the source tree; wire it up or retire it",
                )
            )

    return sorted(set(findings), key=lambda f: f.sort_key)


def _declaration_lines(knobs: Mapping[str, Knob]) -> tuple[str, dict[str, int]]:
    """REP205 anchors at each knob's declaration line in this file."""
    path = __file__
    lines: dict[str, int] = {}
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                for name in knobs:
                    if f'"{name}"' in line and name not in lines:
                        lines[name] = number
    except OSError:
        pass
    return path, lines
