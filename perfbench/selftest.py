"""Self-tests of the benchmark itself: generators, correctness gate and tracer.

    python3 perfbench/run.py --selftest

Each check prints one PASS/FAIL line; the exit code is 1 if any failed.
"""

from __future__ import annotations

import time

import run
import workloads
from tracer import Tracer, report_bits

# Layers each workload is predicted to stress (see the notes in workloads.py).
STRESSED = {
    "triangularize": ("linalg.solve", "vectors.pair", "vectors.arith", "triangular"),
    "transport": ("operators.invert", "operators.apply", "seminorms.separating",
                  "seminorms.minkowski", "linalg.invert_matrix", "linalg.nullspace",
                  "transport.run", "transport.verify", "vectors.arith"),
    "shiftgauge": ("simplex", "seminorms.minkowski", "linalg.mat_mul",
                   "operators.matrix_on", "density", "hypercyclic.build_shift",
                   "hypercyclic.premise", "hypercyclic.witness", "hypercyclic.refute"),
}
HARNESS = ("scenarios", "serialize", "reports.emit")
# Layers a workload must leave idle.
IDLE = {"triangularize": ("simplex", "transport", "operators"),
        "transport": ("simplex",)}


def _calls(tracer: Tracer, group: str) -> int:
    if "." in group:
        return tracer.calls[group]
    return tracer.layer_calls(group)


def check_generators_deterministic():
    for name in workloads.WORKLOADS:
        if workloads.generate(name, 7) != workloads.generate(name, 7):
            return f"{name}: same seed gave different scenarios"
        if workloads.generate(name, 7) == workloads.generate(name, 8):
            return f"{name}: different seeds gave the same scenarios"
    return None


def check_tampered_digest():
    pins = run.load_pins("shiftgauge", run.DEFAULT_SEED)
    bench = run.Bench("shiftgauge", run.DEFAULT_SEED, pins)
    bench.reference_pass()
    if bench.gate.failed:
        return f"untampered pins already fail: {bench.gate.problems}"
    name = bench.names[0]
    tampered = dict(pins, **{name: "0" * 64})
    bench = run.Bench("shiftgauge", run.DEFAULT_SEED, tampered)
    bench.reference_pass()
    if not bench.gate.failed / bench.gate.attempted > 0:
        return "a tampered digest left failed_ratio at 0"
    return None


def check_cli_crash_counts_missing_reports():
    bench = run.Bench("shiftgauge", 2)
    bench.reference_pass()
    bench.paths.insert(0, str(bench.dir / "no-such-scenario.json"))
    bench.corpus(1, "crash")
    if bench.gate.failed != len(bench.names):
        return f"{bench.gate.failed} failures for {len(bench.names)} missing reports"
    return None


def check_tracer(workload: str):
    bench = run.Bench(workload, run.DEFAULT_SEED)
    bench.reference_pass()
    tracer, blobs, *_ = run.traced_round(bench)
    if bench.gate.failed:
        return f"traced reports differ or fail: {bench.gate.problems}"
    if blobs != bench.gate.reference:
        return "traced reports are not byte-identical to untraced ones"
    zero = [g for g in STRESSED[workload] + HARNESS if not _calls(tracer, g)]
    if zero:
        return f"no calls recorded for {zero}"
    busy = [g for g in IDLE.get(workload, ()) if _calls(tracer, g)]
    if busy:
        return f"layers predicted idle were called: {busy}"
    parents = {span[1] for span in tracer.spans}
    if any(span[2] and span[2] not in parents for span in tracer.spans):
        return "a span names a parent that was never recorded"
    return None


def check_bits_repeat():
    def counts():
        bench = run.Bench("triangularize", 5)
        tracer, blobs, *_ = run.traced_round(bench)
        return (dict(tracer.maxima), dict(tracer.calls), dict(tracer.counts),
                max(report_bits(b) for b in blobs.values()))

    first, second = counts(), counts()
    if first != second:
        return "two runs with the same seed gave different counts or bit sizes"
    if not first[0].get("triangular.coeff_bits"):
        return "no coefficient bit sizes recorded"
    return None


CHECKS = [
    ("generators are seeded", check_generators_deterministic),
    ("a tampered digest raises failed_ratio", check_tampered_digest),
    ("a CLI crash fails every missing report", check_cli_crash_counts_missing_reports),
    ("tracer on triangularize", lambda: check_tracer("triangularize")),
    ("tracer on transport", lambda: check_tracer("transport")),
    ("tracer on shiftgauge", lambda: check_tracer("shiftgauge")),
    ("bit counts repeat for one seed", check_bits_repeat),
]


def main() -> int:
    failed = 0
    for label, check in CHECKS:
        start = time.perf_counter()
        problem = check()
        mark = "FAIL" if problem else "PASS"
        failed += bool(problem)
        print(f"{mark} {label} ({time.perf_counter() - start:.1f} s)"
              + (f": {problem}" if problem else ""))
    return 1 if failed else 0
