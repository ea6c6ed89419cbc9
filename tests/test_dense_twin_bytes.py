"""Byte oracle for transports that reach every branch of the incremental solvers.

The benchmark corpus (tests/test_corpus_bytes.py) only has twins whose active
projections are unit vectors and whose Gram matrix is zero, so it never runs
back-elimination in the separating echelon form or a non-zero entry of the
bordered Gram factor.  The dense twin instances of tests/test_transport.py
reach both.  tests/data/dense_twin_digests.json pins the SHA-256 of the
exact-mode JSON report of one such transport scenario per seed.

Regenerate the pins (only for an intended change of the reports) with

    PYTHONPATH=src python tests/test_dense_twin_bytes.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from orbitlab import serialize
from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, run_scenario
from test_transport import dense_twin_instance

import oracles

PINS_PATH = Path(__file__).resolve().parent / "data" / "dense_twin_digests.json"
SEEDS = range(5)
WINDOW, STAGES = 16, 3


def dense_twin_scenario(seed: int) -> dict:
    a, b, p, disk = dense_twin_instance(random.Random(seed), WINDOW, STAGES)
    return {
        "name": f"dense-twin-{seed}", "scalar_mode": "exact", "window": WINDOW,
        "seed": seed, "task": "transport",
        "payload": {
            "a": [serialize.encode_pairs(x) for x in a.items],
            "b": [serialize.encode_pairs(x) for x in b.items],
            "p": oracles.encode_seminorm(p), "disk": oracles.encode_disk(disk),
            "stages": STAGES, "eps_schedule": "geometric:1/2",
        },
    }


def digest(report) -> str:
    return hashlib.sha256(emit_report(report, "json")).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_twin_report_matches_pinned_digest(seed):
    report = run_scenario(Scenario.from_dict(dense_twin_scenario(seed)))
    assert report.passed, [c.detail for c in oracles.failures(report)]
    assert digest(report) == json.loads(PINS_PATH.read_text())[str(seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dense_twin_bytes.py --write")
    pins = {str(seed): digest(run_scenario(Scenario.from_dict(dense_twin_scenario(seed))))
            for seed in SEEDS}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
