"""Byte oracle for triangularizations larger than the benchmark corpus.

The corpus (tests/test_benchmark_digests.py) triangularizes dense bases of
width 12 to 16.  These pins cover the same seeded dense bases of the
benchmark's generator at widths 24, 32 and 48, where the minors and the
coefficients grow to hundreds of bits and many more candidates are scanned.
tests/data/triangularize_scale_digests.json pins the SHA-256 of the
exact-mode JSON report of one scenario per shape.

Regenerate the pins (only for an intended change of the reports) with

    PYTHONPATH=src python tests/test_triangularize_scale_bytes.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, run_scenario

import oracles

PINS_PATH = Path(__file__).resolve().parent / "data" / "triangularize_scale_digests.json"
SHAPES = ((24, 11), (32, 15), (48, 23))


def scale_scenario(window: int, stages: int) -> dict:
    """A triangularize scenario on the generator's dense basis of this width,
    drawn from a generator seeded with the stage count."""
    workloads = oracles.benchmark_workloads()
    basis = workloads._dense_basis(random.Random(stages), window)
    return {
        "name": f"tri-scale-w{window}s{stages}", "scalar_mode": "exact", "window": window,
        "seed": stages, "task": "triangularize",
        "payload": {"basis": [workloads._pairs(u) for u in basis], "stages": stages},
    }


def digest(window: int, stages: int) -> str:
    report = run_scenario(Scenario.from_dict(scale_scenario(window, stages)))
    assert report.passed, [c.detail for c in oracles.failures(report)]
    return hashlib.sha256(emit_report(report, "json")).hexdigest()


@pytest.mark.parametrize("window, stages", SHAPES)
def test_scale_report_matches_pinned_digest(window, stages):
    assert digest(window, stages) == json.loads(PINS_PATH.read_text())[f"w{window}s{stages}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_triangularize_scale_bytes.py --write")
    pins = {f"w{window}s{stages}": digest(window, stages) for window, stages in SHAPES}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
