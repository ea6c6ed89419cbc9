"""Byte oracle for the benchmark corpus.

tests/data/corpus_digests.json pins one SHA-256 per report: the seed-1 and
seed-2 scenarios of the three benchmark workloads (perfbench/workloads.py,
loaded by path and not modified), each run in exact mode, the only scalar
mode, and emitted as json, text and csv.  An optimisation that changes a single byte of
any of them is a behaviour change and fails here.

Regenerate the pins (only for an intended change of the reports) with

    PYTHONPATH=src python tests/test_corpus_bytes.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, run_scenario

import oracles

ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = ROOT / "tests" / "data" / "corpus_digests.json"
WORKLOADS = ("triangularize", "transport", "shiftgauge")
SEEDS = (1, 2)
MODES = ("exact",)
FORMATS = ("json", "text", "csv")


def corpus_digests(workload, mode):
    """{"<seed>/<scenario>.<format>": sha256} for one workload in one mode."""
    generate = oracles.benchmark_workloads().generate
    out = {}
    for seed in SEEDS:
        for data in generate(workload, seed):
            report = run_scenario(Scenario.from_dict(dict(data, scalar_mode=mode)))
            for fmt in FORMATS:
                key = f"{seed}/{data['name']}.{fmt}"
                out[key] = hashlib.sha256(emit_report(report, fmt)).hexdigest()
    return out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_reports_match_pinned_digests(workload, mode):
    pins = json.loads(PINS_PATH.read_text())[mode][workload]
    digests = corpus_digests(workload, mode)
    assert sorted(digests) == sorted(pins)
    assert [key for key in digests if digests[key] != pins[key]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus_bytes.py --write")
    pins = {mode: {w: corpus_digests(w, mode) for w in WORKLOADS} for mode in MODES}
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
