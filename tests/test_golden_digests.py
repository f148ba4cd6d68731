"""Golden-digest regression test: the simulator's exact numbers.

One SHA-256 per design family over the canonical JSON of
``FrontendStats.to_dict()`` for a fixed tiny-scale workload, committed
in ``tests/fixtures/golden_digests.json``.  Any change to simulation
semantics -- intended or not -- flips a digest.

A failure here means one of two things:

* an unintended behaviour change: a real regression, fix the code;
* an intended semantic change: regenerate the fixture **and** bump
  ``repro.experiments.diskcache.RESULT_VERSION`` so persisted disk-cache
  results from the old semantics cannot be served as current ones.

Regenerate with::

    PYTHONPATH=src python tests/test_golden_digests.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import design_registry, diskcache, harness
from repro.experiments.designs import (
    baseline_design,
    ghrp_design,
    multitag_design,
    with_temporal_prefetch,
)
from repro.experiments.sensitivity import ittage_designs
from repro.serve.protocol import stats_payload

FIXTURE = Path(__file__).parent / "fixtures" / "golden_digests.json"

APP = "server_oltp_00"
SCALE = "tiny"
WARMUP = 0.3
FAMILIES = [
    "baseline",
    "pdede-default",
    "pdede-multi-target",
    "pdede-multi-entry",
    "dedup-only",
    "partition-only",
    "shotgun",
    "micro-btb",
    "shadow-baseline",
    "shadow-pdede",
    "ghrp-4096",
    "multitag",
    "baseline-4096+prefetch",
    "baseline-no-ind+ittage",
    "pdede-me-no-ind+ittage",
]


def family_designs() -> dict:
    """Every family's design: the registry's, plus builders for the
    report designs it has no key for (built as the experiments build
    them, so each key is the design's own)."""
    designs = {
        "ghrp-4096": ghrp_design(),
        "multitag": multitag_design(),
        "baseline-4096+prefetch": with_temporal_prefetch(baseline_design()),
        # Section 5.6's designs, as ``sensitivity.run_ittage`` builds them.
        **ittage_designs(),
    }
    registry = design_registry()
    return {family: designs.get(family) or registry[family] for family in FAMILIES}


def compute_digests() -> dict[str, str]:
    return {
        family: hashlib.sha256(
            stats_payload(
                harness.run_design(APP, design, warmup_fraction=WARMUP, scale=SCALE)
            )
        ).hexdigest()
        for family, design in family_designs().items()
    }


def load_fixture() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_fixture_matches_current_result_version():
    """The fixture must be regenerated whenever result semantics change
    (the bump discipline the disk cache already enforces on itself)."""
    fixture = load_fixture()
    assert fixture["result_version"] == diskcache.RESULT_VERSION, (
        "golden fixture was generated for result_version "
        f"{fixture['result_version']} but the code is at "
        f"{diskcache.RESULT_VERSION}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_digests.py --update`"
    )
    assert fixture["app"] == APP
    assert fixture["scale"] == SCALE
    assert fixture["warmup"] == WARMUP


def test_simulation_digests_match_golden_fixture():
    fixture = load_fixture()
    digests = compute_digests()
    assert set(digests) == set(fixture["digests"])
    mismatched = {
        family: (digests[family], fixture["digests"][family])
        for family in FAMILIES
        if digests[family] != fixture["digests"][family]
    }
    assert not mismatched, (
        "simulation output changed for "
        f"{sorted(mismatched)}; if intentional, bump "
        "repro.experiments.diskcache.RESULT_VERSION and regenerate the "
        "fixture with `PYTHONPATH=src python tests/test_golden_digests.py "
        f"--update` (got != golden: {mismatched})"
    )


def _update_fixture() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "result_version": diskcache.RESULT_VERSION,
        "app": APP,
        "scale": SCALE,
        "warmup": WARMUP,
        "digests": compute_digests(),
    }
    with open(FIXTURE, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if "--update" in sys.argv:
        _update_fixture()
    else:
        raise SystemExit(pytest.main([__file__, "-v"]))
