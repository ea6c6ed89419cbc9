"""Byte oracle for transports that reach every branch of the transport solvers.

The benchmark corpus (tests/test_corpus_bytes.py) only has twins whose active
projections are unit vectors and whose Gram matrix is zero, so it never runs
back-elimination in the separating echelon form or solves a Gram system
with a non-zero entry.  The dense twin instances of tests/test_transport.py
reach both.  tests/data/dense_twin_digests.json pins the SHA-256 of the
exact-mode JSON report of one such transport scenario per case: seeds 0-4
on a window of 16 with 3 stages, where the Gram system of J has few
non-zero entries, and seeds 0-2 at window 28 with 7 stages and window 40
with 10 stages, with noise 2^-(2s+20) for s stages, where the Gram matrix
is non-zero and each backward solve pivots through many terms.

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
CASES = ([(16, 3, 2 ** 24, seed) for seed in range(5)]
         + [(window, stages, 2 ** (2 * stages + 20), seed)
            for window, stages in ((28, 7), (40, 10)) for seed in range(3)])


def key(window: int, stages: int, seed: int) -> str:
    """The pin key: the seed alone at window 16 with 3 stages."""
    return str(seed) if (window, stages) == (16, 3) else f"w{window}-s{stages}-{seed}"


def dense_twin_scenario(window: int, stages: int, noise_den: int, seed: int) -> dict:
    """The transport scenario of `dense_twin_instance` drawn from seed."""
    a, b, p, disk = dense_twin_instance(random.Random(seed), window, stages, noise_den)
    return {
        "name": f"dense-twin-{key(window, stages, seed)}", "scalar_mode": "exact",
        "window": window, "seed": seed, "task": "transport",
        "payload": {
            "a": [serialize.encode_pairs(x) for x in a.items],
            "b": [serialize.encode_pairs(x) for x in b.items],
            "p": oracles.encode_seminorm(p), "disk": oracles.encode_disk(disk),
            "stages": stages, "eps_schedule": "geometric:1/2",
        },
    }


def digest(report) -> str:
    return hashlib.sha256(emit_report(report, "json")).hexdigest()


@pytest.mark.parametrize("window, stages, noise_den, seed", CASES,
                         ids=[key(w, s, seed) for w, s, _, seed in CASES])
def test_dense_twin_report_matches_pinned_digest(window, stages, noise_den, seed):
    report = run_scenario(Scenario.from_dict(dense_twin_scenario(window, stages, noise_den, seed)))
    assert report.passed, [c.detail for c in oracles.failures(report)]
    assert digest(report) == json.loads(PINS_PATH.read_text())[key(window, stages, seed)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dense_twin_bytes.py --write")
    pins = {key(w, s, seed): digest(run_scenario(Scenario.from_dict(
                dense_twin_scenario(w, s, noise_den, seed))))
            for w, s, noise_den, seed in CASES}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
