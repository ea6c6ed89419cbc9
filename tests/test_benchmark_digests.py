"""The seed-1 benchmark scenarios still produce their pinned JSON reports.

perfbench/digests.json pins the SHA-256 of every seed-1 report of the three
benchmark workloads.  The scenarios are rebuilt with perfbench/workloads.py
(loaded by path, not modified) and run in-process, so a change that alters a
single report byte fails here, not only inside a benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from orbitlab.reports import emit_report
from orbitlab.scenarios import Scenario, run_scenario

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINS = json.loads((PERFBENCH / "digests.json").read_text())
SEED = 1


@pytest.mark.parametrize("workload", sorted(PINS))
def test_seed_one_reports_match_pinned_digests(workload):
    scenarios = oracles.benchmark_workloads().generate(workload, SEED)
    digests = {
        s["name"]: hashlib.sha256(
            emit_report(run_scenario(Scenario.from_dict(s)), "json")).hexdigest()
        for s in scenarios
    }
    assert sorted(digests) == sorted(PINS[workload])
    assert [name for name in digests if digests[name] != PINS[workload][name]] == []
