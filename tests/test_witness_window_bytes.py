"""Byte oracle for a witness whose orbit leaves the window and reads it back.

The operator is `TestWitnessWindowCut.chain()` on window 6 under an identity
base: a weighted shift on 1..6 in which e_2 also feeds e_7 and e_7 feeds
3·e_1.  With x = e_1 - 1/2 e_2 + 5 e_7, y = 2 e_1 + e_2 - e_3 and p the sup
on {1, 2, 3}, the witness search has to follow T's own orbit through e_7,
the orbit the report replays, for `residuals-below-eps` to pass: the
report reads n = 3 and residuals 0, 0.  tests/data/witness_window_digests.json
pins the SHA-256 of its exact-mode JSON report.

Regenerate the pin (only for an intended change of the report) with

    PYTHONPATH=src python tests/test_witness_window_bytes.py --write
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from orbitlab.operators import BASE_IDENTITY, FiniteRankOperator
from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, run_scenario
from orbitlab.seminorms import SeminormSpec
from orbitlab.serialize import encode_operator, encode_pairs
from orbitlab.vectors import SparseVector

import oracles
import test_hypercyclic

PINS_PATH = Path(__file__).resolve().parent / "data" / "witness_window_digests.json"


def window_scenario() -> dict:
    chain = test_hypercyclic.TestWitnessWindowCut().chain()
    x = SparseVector({1: Fraction(1), 2: Fraction(-1, 2), 7: Fraction(5)})
    y = SparseVector({1: Fraction(2), 2: Fraction(1), 3: Fraction(-1)})
    return {
        "name": "wit-window-w6", "scalar_mode": "exact", "window": 6, "seed": 0,
        "task": "hypercyclic", "payload": {
            "mode": "witness",
            "operator": encode_operator(FiniteRankOperator(BASE_IDENTITY, tuple(chain))),
            "x": encode_pairs(x), "y": encode_pairs(y),
            "p": oracles.encode_seminorm(SeminormSpec.sup_on([1, 2, 3])),
            "eps": "1/1000", "max_n": 32,
        },
    }


def digest() -> str:
    report = run_scenario(Scenario.from_dict(window_scenario()))
    assert report.passed, [c.detail for c in oracles.failures(report)]
    assert [(c.name, c.detail) for c in report.checks] == [
        ("witness-found", "n = 3"), ("residuals-below-eps", "0, 0")]
    return hashlib.sha256(emit_report(report, "json")).hexdigest()


def test_window_report_matches_pinned_digest():
    assert digest() == json.loads(PINS_PATH.read_text())["wit-window-w6"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_witness_window_bytes.py --write")
    PINS_PATH.write_text(json.dumps({"wit-window-w6": digest()}, indent=1) + "\n")
