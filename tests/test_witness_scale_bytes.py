"""Byte oracle for witness searches larger than the benchmark corpus.

The corpus (tests/test_benchmark_digests.py) searches witnesses on windows
of 10 and 11.  These pins cover the benchmark generator's witness scenario
(`_witness`: T = I + S on a weighted chain, half the window active) at
windows 16, 24, 32 and 48, where the orbit's integers grow by the chain's
weight denominators at every step and the search runs many more steps.
tests/data/witness_scale_digests.json pins the SHA-256 of the exact-mode
JSON report of one scenario per window.

Regenerate the pins (only for an intended change of the reports) with

    PYTHONPATH=src python tests/test_witness_scale_bytes.py --write
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

PINS_PATH = Path(__file__).resolve().parent / "data" / "witness_scale_digests.json"
WINDOWS = (16, 24, 32, 48)


def scale_scenario(window: int) -> dict:
    """The generator's witness scenario at this window, drawn from a
    generator seeded with the text "scale-witness:<window>"."""
    workloads = oracles.benchmark_workloads()
    return workloads._witness(random.Random(f"scale-witness:{window}"),
                              f"wit-scale-w{window}", window)


def digest(window: int) -> str:
    report = run_scenario(Scenario.from_dict(scale_scenario(window)))
    assert report.passed, [c.detail for c in oracles.failures(report)]
    return hashlib.sha256(emit_report(report, "json")).hexdigest()


@pytest.mark.parametrize("window", WINDOWS)
def test_scale_report_matches_pinned_digest(window):
    assert digest(window) == json.loads(PINS_PATH.read_text())[f"w{window}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_witness_scale_bytes.py --write")
    pins = {f"w{window}": digest(window) for window in WINDOWS}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
