"""The 102-application evaluation suite and scale control.

The paper's suite is anonymised; ours is a seeded synthetic equivalent
with the same category composition (61 Server / 20 Browser / 11 BP / 10
Personal, Table 1) plus named members reproducing the applications the
evaluation narrates individually:

* ``browser_js_static_analyzer`` -- hot branch working set just above
  the 4K baseline BTB but inside PDede's reach (the 76% IPC / 99.8% MPKI
  headline app);
* ``personal_animation`` -- hot set far beyond PDede's resources (the
  limited-gain app, 2.3x the page footprint of the JS analyzer);
* ``server_data_analytics`` -- 90% same-page branches (multi-target's
  best case);
* ``server_oltp_00`` / ``server_microservice_00`` -- only ~50% same-page
  branches, exercising the Region/Page-BTB path;
* ``browser_html5_render`` -- dense targets per page/region (the dedup
  showcase).

Trace length and suite size are controlled by the ``REPRO_SCALE``
environment variable: ``smoke`` (8 apps), ``default`` (16 apps),
``full`` (all 102).  Seeds are fixed, so any subset is reproducible.
"""

from __future__ import annotations

import os
import zlib
from functools import lru_cache

from repro.workloads.generator import generate_trace
from repro.workloads.spec import CATEGORY_COUNTS, CATEGORY_TEMPLATES, WorkloadSpec
from repro.workloads.trace import Trace

#: (apps per category, events per trace) for each scale.  Trace lengths
#: must cover a few full sweeps of the hot working set (see spec.py) --
#: shorter traces never reach the capacity-pressure regime under study.
SCALES: dict[str, tuple[dict[str, int], int]] = {
    "tiny": ({"Server": 1, "Browser": 1, "BP": 1, "Personal": 1}, 8_000),
    "smoke": ({"Server": 3, "Browser": 2, "BP": 2, "Personal": 1}, 60_000),
    "default": ({"Server": 7, "Browser": 4, "BP": 3, "Personal": 2}, 80_000),
    "full": (dict(CATEGORY_COUNTS), 250_000),
}

_BASE_SEED = 0x9DEDE


def current_scale() -> str:
    """Read the active scale from ``REPRO_SCALE`` (default ``default``)."""
    scale = os.environ.get("REPRO_SCALE", "default")
    if scale not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALES)}, got {scale!r}")
    return scale


def _vary(template: WorkloadSpec, name: str, index: int, seed: int) -> WorkloadSpec:
    """Deterministic per-app variation around a category template.

    The hot-set variation is deliberately wide: it spreads per-app
    footprints across the BTB capacity ladder, which is what produces
    the 3%..76% per-application gain spread of Figure 10c.
    """
    import random

    rng = random.Random(seed)
    footprint_scale = rng.uniform(0.75, 1.45)
    return template.replace(
        name=name,
        seed=seed,
        n_functions=int(template.n_functions * max(1.0, footprint_scale)),
        blocks_per_fn_mean=template.blocks_per_fn_mean * rng.uniform(0.85, 1.2),
        n_regions=max(4, template.n_regions + rng.randint(0, 2)),
        call_fraction=min(0.30, template.call_fraction * rng.uniform(0.8, 1.25)),
        ind_call_fraction=template.ind_call_fraction * rng.uniform(0.6, 1.4),
        mean_trip_count=template.mean_trip_count * rng.uniform(0.8, 1.4),
        hot_functions_per_phase=int(
            template.hot_functions_per_phase * footprint_scale
        ),
        phase_calls=int(template.phase_calls * footprint_scale),
        n_phases=max(3, template.n_phases + rng.randint(-1, 2)),
        zipf_s=template.zipf_s * rng.uniform(0.9, 1.15),
    )


def _named_specials() -> dict[tuple[str, int], WorkloadSpec]:
    """Apps the paper's evaluation discusses by name (see module doc)."""
    server = CATEGORY_TEMPLATES["Server"]
    browser = CATEGORY_TEMPLATES["Browser"]
    personal = CATEGORY_TEMPLATES["Personal"]
    return {
        ("Browser", 0): browser.replace(
            name="browser_js_static_analyzer",
            seed=_BASE_SEED + 9001,
            # Hot working set just past the 4K baseline BTB but well
            # inside PDede multi-entry's 8K monitor, and a single steady
            # phase: the 76%-IPC / 99.8%-MPKI-reduction headline app.
            n_functions=1500,
            blocks_per_fn_mean=10.0,
            n_regions=3,
            n_phases=1,
            hot_functions_per_phase=820,
            phase_calls=10_000_000,
            ind_call_fraction=0.01,
            ind_jump_fraction=0.01,
        ),
        ("Browser", 1): browser.replace(
            name="browser_html5_render",
            seed=_BASE_SEED + 9002,
            # Dense targets per page/region: the dedup showcase.
            functions_per_page_mean=6.0,
            n_regions=4,
            n_functions=2600,
            hot_functions_per_phase=560,
        ),
        ("Personal", 0): personal.replace(
            name="personal_animation",
            seed=_BASE_SEED + 9003,
            # Hot set far beyond any BTB studied: limited gains at 4K,
            # the app that keeps 8K/16K capacity points interesting.
            n_functions=8200,
            blocks_per_fn_mean=11.0,
            n_regions=4,
            n_phases=2,
            hot_functions_per_phase=3300,
            phase_calls=9000,
            tree_event_budget=15,
        ),
        ("Server", 0): server.replace(
            name="server_oltp_00",
            seed=_BASE_SEED + 9004,
            # Cross-page control flow: ~50% same-page branches.
            call_fraction=0.24,
            ind_call_fraction=0.06,
            blocks_per_fn_mean=8.0,
            loop_fraction=0.12,
            cond_fraction=0.34,
        ),
        ("Server", 1): server.replace(
            name="server_microservice_00",
            seed=_BASE_SEED + 9005,
            call_fraction=0.22,
            ind_call_fraction=0.07,
            blocks_per_fn_mean=8.5,
            loop_fraction=0.13,
            cond_fraction=0.36,
        ),
        ("Server", 2): server.replace(
            name="server_data_analytics",
            seed=_BASE_SEED + 9006,
            # Tight kernels: ~90% same-page branches (multi-target's
            # best case -- consecutive taken branches share pages).
            call_fraction=0.04,
            ind_call_fraction=0.01,
            ind_jump_fraction=0.02,
            loop_fraction=0.32,
            cond_fraction=0.46,
            blocks_per_fn_mean=14.0,
            n_functions=3800,
            hot_functions_per_phase=1200,
            tree_event_budget=26,
        ),
    }


_CATEGORY_SLUGS = {
    "Server": ("oltp", "webtraffic", "cloud", "microservice", "search", "queue"),
    "Browser": ("js", "html5", "jvm", "wasm", "game", "imaging"),
    "BP": ("compress", "email", "slides", "sheet", "docs"),
    "Personal": ("mail", "imaging", "game", "video"),
}


def build_suite(scale: str | None = None) -> list[WorkloadSpec]:
    """Build the workload list for the requested (or active) scale."""
    scale = scale or current_scale()
    counts, n_events = SCALES[scale]
    specials = _named_specials()
    suite: list[WorkloadSpec] = []
    for category in ("Server", "Browser", "BP", "Personal"):
        template = CATEGORY_TEMPLATES[category]
        slugs = _CATEGORY_SLUGS[category]
        if not slugs:
            raise ValueError(f"no workload slugs defined for category {category!r}")
        for index in range(counts[category]):
            special = specials.get((category, index))
            if special is not None:
                suite.append(special.with_events(n_events))
                continue
            slug = slugs[index % len(slugs)]
            name = f"{category.lower()}_{slug}_{index:02d}"
            # Stable across processes (unlike builtin str hashing).
            seed = _BASE_SEED + zlib.crc32(name.encode()) % (1 << 30)
            suite.append(
                _vary(template, name, index, seed).with_events(n_events)
            )
    return suite


@lru_cache(maxsize=None)
def _suite_index(scale: str) -> dict[str, WorkloadSpec]:
    return {spec.name: spec for spec in build_suite(scale)}


def suite_spec(name: str, scale: str) -> WorkloadSpec | None:
    """The suite member ``name`` at ``scale`` (None if there is none)."""
    return _suite_index(scale).get(name)


@lru_cache(maxsize=None)
def _cached_trace(name: str, scale: str) -> Trace:
    spec = suite_spec(name, scale)
    if spec is None:
        raise KeyError(f"no workload named {name!r} at scale {scale!r}")
    return _generate_or_load(spec)


@lru_cache(maxsize=32)
def spec_trace(spec: WorkloadSpec) -> Trace:
    """Generate (and memoise) the trace for an inline workload spec.

    The 32 most recently used inline traces stay resident; suite
    members go through :func:`get_trace` instead.
    """
    return _generate_or_load(spec)


def _generate_or_load(spec) -> Trace:
    """Serve a trace from the persistent disk cache, generating on miss.

    Late import: the disk cache lives in the experiments layer and is
    optional here (workloads must stay importable on their own).
    """
    from repro.experiments import diskcache

    cached = diskcache.load_trace(spec)
    if cached is not None:
        return cached
    trace = generate_trace(spec)
    diskcache.store_trace(spec, trace)
    return trace


def get_trace(name: str, scale: str | None = None) -> Trace:
    """Generate (and memoise) the trace for a suite member by name."""
    return _cached_trace(name, scale or current_scale())


def suite_traces(scale: str | None = None) -> list[Trace]:
    """All traces of the active suite, memoised per process."""
    scale = scale or current_scale()
    return [get_trace(spec.name, scale) for spec in build_suite(scale)]
