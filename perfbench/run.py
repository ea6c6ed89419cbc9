"""orbitlab benchmark: seeded scenario workloads, timed in-process and as cold CLI runs.

    python3 perfbench/run.py --workload triangularize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload transport --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --pin        # re-pin default-seed report digests

Run from the repository root; the program is imported from `src/`.  Every
generated scenario runs on two paths, in-process through
`scenarios.run_scenario` + `reports.emit_report` and as a cold
`python -m orbitlab.cli run --out DIR` subprocess, and every report is
checked (see `Gate`).  Times are in reference seconds (see speed.py).  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, with `--trace 1` the per-layer metrics from traced
in-process passes; README.md defines each.  Generated files, reports, spans
and result records go to `.perfbench/` in the repository root.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, report_bits  # noqa: E402

DEFAULT_SEED = 1
# p90 needs at least ten samples beyond it: with nearest-rank percentiles,
# n - ceil(0.9 n) >= 10 holds from n = 100 (timings do not tie).
MIN_SAMPLES = 100
SETUP_REPEATS = 9
SERIAL_REPEATS = 4
# --jobs runs hand the interpreter lock between cores and vary more.
JOBS_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Stop starting new timed passes after this long, so a run ends inside 180 s.
HARD_STOP_S = 130

END_TO_END_UNITS = {
    "setup_s": "s", "scenario_s.p50": "s", "scenario_s.p90": "s",
    "corpus_s": "s", "corpus_s.jobs": "s", "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of a git checkout at ROOT, read from files only; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def pinned_to(cpus):
    """Run the calling thread, and any child process it starts, on `cpus`."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Gate:
    """Per-scenario correctness gate over both execution paths.

    An execution fails if it raises, if its report has `passed: false`, if its
    report is missing from `--out`, if its bytes differ from the scenario's
    reference bytes (the first in-process report), or, at the default seed, if
    the reference differs from the pinned SHA-256 digest.
    """

    def __init__(self, pinned: Optional[Dict[str, str]]):
        self.pinned = pinned
        self.reference: Dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, name: str, why: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {why}")

    def set_reference(self, name: str, blob: Optional[bytes], passed: bool, error: str = ""):
        self.attempted += 1
        if blob is None:
            return self.fail(name, f"raised {error}")
        self.reference[name] = blob
        if not passed:
            return self.fail(name, "report has passed: false")
        if self.pinned is not None:
            digest = hashlib.sha256(blob).hexdigest()
            if self.pinned.get(name) != digest:
                self.fail(name, f"digest {digest[:12]} differs from the pinned one")

    def check(self, name: str, blob: Optional[bytes], where: str, error: str = ""):
        self.attempted += 1
        if blob is None:
            self.fail(name, f"{where}: {error or 'no report'}")
        elif blob != self.reference.get(name):
            self.fail(name, f"{where}: bytes differ from the in-process reference")


class Bench:
    def __init__(self, workload: str, seed: int, pinned: Optional[Dict[str, str]] = None):
        from orbitlab import reports, scenarios

        # Modules, not functions: the tracer rebinds the module attributes.
        self._reports, self._scenarios = reports, scenarios
        self.workload, self.seed = workload, seed
        self.scenarios = workloads.generate(workload, seed)
        self.names = [s["name"] for s in self.scenarios]
        self.dir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "scenarios").mkdir(parents=True)
        self.paths = []
        for scenario in self.scenarios:
            path = self.dir / "scenarios" / f"{scenario['name']}.json"
            path.write_text(json.dumps(scenario, sort_keys=True), encoding="utf-8")
            self.paths.append(str(path))
        self.gate = Gate(pinned)
        self.probes: List[float] = []  # every speed probe time, for the record
        self.turns = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe(self) -> float:
        took = speed.probe()
        self.probes.append(took)
        return took

    # --- in-process path ----------------------------------------------------

    def run_one(self, scenario: dict):
        """(seconds, report bytes, passed) of one in-process run.

        Only `run_scenario` + `emit_report` are timed, by the thread's CPU
        time: the wall time of this single-threaded computation less what
        the host took from its core (see speed.py).  `Scenario.from_dict` is
        part of set-up, measured by `setup_probe`."""
        parsed = self._scenarios.Scenario.from_dict(scenario)
        start = time.thread_time()
        report = self._scenarios.run_scenario(parsed)
        blob = self._reports.emit_report(report, "json")
        return time.thread_time() - start, blob, report.passed

    def reference_pass(self):
        for name, scenario in zip(self.names, self.scenarios):
            try:
                _, blob, passed = self.run_one(scenario)
            except Exception as exc:  # noqa: BLE001 - a raise is a failed scenario
                self.gate.set_reference(name, None, False, repr(exc))
            else:
                self.gate.set_reference(name, blob, passed)

    def next_cpu(self) -> set:
        """One core, the cores taken in turn from one call to the next."""
        cpus = sorted(os.sched_getaffinity(0))
        self.turns += 1
        return {cpus[self.turns % len(cpus)]}

    def timed_pass(self, where: str, tracer=None):
        """One checked run of every scenario, in workload order, pinned to
        one core so that each scenario runs on the core of its probes.

        Returns (reference seconds, unscaled seconds, report bytes by name)
        of the scenarios that did not raise.  With a tracer, each scenario's
        spans carry its name as trace id."""
        ref, raw, blobs = [], [], {}
        with pinned_to(self.next_cpu()):
            before = self.probe()
            for name, scenario in zip(self.names, self.scenarios):
                if tracer is not None:
                    tracer.trace_id = name
                try:
                    took, blob, passed = self.run_one(scenario)
                except Exception as exc:  # noqa: BLE001 - a raise is a failed scenario
                    self.gate.check(name, None, where, repr(exc))
                    before = self.probe()
                    continue
                self.gate.check(name, blob if passed else None, where, "passed: false")
                blobs[name] = blob
                after = self.probe()
                ref.append(took * speed.factor(before, after))
                raw.append(took)
                before = after
        return ref, raw, blobs

    # --- cold subprocesses ----------------------------------------------------

    def _child(self, cmd: List[str], log_name: str, cpus: set):
        """Run a child process pinned to `cpus` to completion, timed as a
        black box while a `speed.Sampler` probes those cores.

        Returns (reference seconds, wall seconds, exit code, rusage)."""
        with open(self.dir / log_name, "wb") as log, speed.Sampler(cpus) as sampler:
            start = time.perf_counter()
            with pinned_to(cpus):  # inherited by the child
                proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                        stderr=subprocess.STDOUT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = time.perf_counter() - start
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.probes += sampler.probes()
        ref = (wall - sampler.lost_s()) * sampler.factor()
        return ref, wall, proc.returncode, usage

    def setup_probe(self):
        """One cold `setup_probe.py` over the workload's files: (ref s, wall s)."""
        cmd = [sys.executable, str(HERE / "setup_probe.py")] + self.paths
        ref, wall, code, _ = self._child(cmd, "setup.log", self.next_cpu())
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}; see {self.dir}/setup.log")
        return ref, wall

    def corpus(self, jobs: int, tag: str):
        """One cold `orbitlab run` over the workload, every report checked.

        Returns (reference seconds, wall seconds, peak RSS in MB)."""
        out = self.dir / f"out-{tag}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "orbitlab.cli", "run", "--jobs", str(jobs),
               "--format", "json", "--out", str(out)]
        for path in self.paths:
            cmd += ["--scenario", path]
        cpus = self.next_cpu() if jobs == 1 else os.sched_getaffinity(0)
        ref, wall, code, usage = self._child(cmd, f"cli-{tag}.log", cpus)
        where = f"cli --jobs {jobs} (exit {code})"
        for name in self.names:
            report = out / f"{name}.json"
            self.gate.check(name, report.read_bytes() if report.exists() else None, where)
        return ref, wall, usage.ru_maxrss / 1024.0


def environment(args, samples: Dict[str, int]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def _spread(count: int, slots: int) -> List[int]:
    """`count` pass indices spread evenly over `slots` passes."""
    return [int((i + 0.5) * slots / count) for i in range(count)]


def measure_end_to_end(bench: Bench, seconds: float, started: float):
    """Timed passes, with the cold set-up probes and corpus runs spread among
    them so that every metric samples the whole run."""
    min_passes = math.ceil(MIN_SAMPLES / len(bench.names))
    serial_at = _spread(SERIAL_REPEATS, min_passes)
    jobs_at = _spread(JOBS_REPEATS, min_passes)
    setup_at = _spread(SETUP_REPEATS, min_passes)
    bench.reference_pass()
    bench.setup_probe()  # untimed: fills the bytecode cache
    samples, raw_samples = [], []
    setup, serial, jobs, rss = [], [], [], []
    passes = 0
    t0 = time.perf_counter()
    while passes < min_passes or (time.perf_counter() - t0 < seconds
                                  and time.perf_counter() - started < HARD_STOP_S):
        ref, raw, _ = bench.timed_pass("in-process")
        samples += ref
        raw_samples += raw
        for _ in range(setup_at.count(passes)):
            setup.append(bench.setup_probe())
        for _ in range(serial_at.count(passes)):
            *timing, peak = bench.corpus(1, "serial")
            serial.append(timing)
            rss.append(peak)
        for _ in range(jobs_at.count(passes)):
            jobs.append(bench.corpus(nproc(), "jobs")[:2])
        passes += 1
    samples.sort()
    p90 = percentile(samples, 0.9)
    metrics = {
        "setup_s": statistics.median(r for r, _ in setup),
        "scenario_s.p50": statistics.median(samples),
        "scenario_s.p90": p90,
        "corpus_s": statistics.median(r for r, _ in serial),
        "corpus_s.jobs": statistics.median(r for r, _ in jobs),
        "peak_rss_mb": statistics.median(rss),
    }
    raw_samples.sort()
    unscaled = {
        "setup_s": statistics.median(w for _, w in setup),
        "scenario_s.p50": statistics.median(raw_samples),
        "scenario_s.p90": percentile(raw_samples, 0.9),
        "corpus_s": statistics.median(w for _, w in serial),
        "corpus_s.jobs": statistics.median(w for _, w in jobs),
    }
    counts = {
        "setup_s": len(setup), "scenario_s": len(samples), "scenario_passes": passes,
        "scenario_s.beyond_p90": sum(1 for v in samples if v > p90),
        "corpus_s": len(serial), "corpus_s.jobs": len(jobs), "peak_rss_mb": len(rss),
        "corpus_jobs": nproc(), "speed_probes": len(bench.probes),
    }
    ok = counts["scenario_s.beyond_p90"] >= 10
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, counts, unscaled, ok


def traced_round(bench: Bench, traced_first: bool = False):
    """One untraced and one traced in-process pass over the workload, in
    either order, so that a drift in machine speed across a round does not
    always favour the same pass.

    Returns the tracer, the traced report bytes, the tracing overhead (traced
    over untraced reference time, minus one) and the speed factor of the
    traced pass, PROBE_REF_S over its median probe."""
    import orbitlab

    tracer = Tracer()
    untraced = 0.0
    if not traced_first:
        untraced = sum(bench.timed_pass("in-process")[0])
    first_probe = len(bench.probes)
    with tracer.install(orbitlab):
        ref, _, blobs = bench.timed_pass("traced", tracer)
    factor = speed.PROBE_REF_S / statistics.median(bench.probes[first_probe:])
    if traced_first:
        untraced = sum(bench.timed_pass("in-process")[0])
    return tracer, blobs, sum(ref) / untraced - 1.0, factor


def layer_metrics(tracer, blobs: Dict[str, bytes], overhead: float,
                  factor: float) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass, by name: (value, unit).

    Self times are in reference seconds: wall seconds times the speed factor
    of the traced pass."""
    c, mx, n = tracer.calls, tracer.maxima, tracer.counts
    s = collections.defaultdict(float, {group: seconds * factor
                                        for group, seconds in tracer.self_s.items()})

    def layer_s(layer: str) -> float:
        return tracer.layer_self_s(layer) * factor

    scans = n["transport.scan_minkowski"]
    out = {
        "linalg.calls": (tracer.layer_calls("linalg"), "count"),
        "linalg.max_dim": (mx["linalg.max_dim"], "count"),
        "linalg.max_bits": (mx["linalg.max_bits"], "bits"),
    }
    for group in ("solve", "nullspace", "invert_matrix", "determinant", "mat_mul",
                  "rowreducer"):
        out[f"linalg.{group}.self_s"] = (s[f"linalg.{group}"], "s")
    out.update({
        "simplex.calls": (tracer.layer_calls("simplex"), "count"),
        "simplex.self_s": (layer_s("simplex"), "s"),
        "simplex.max_cells": (mx["simplex.max_cells"], "count"),
        "vectors.pair.calls": (c["vectors.pair"], "count"),
        "vectors.arith.calls": (c["vectors.arith"], "count"),
        "vectors.self_s": (layer_s("vectors"), "s"),
        "seminorms.minkowski.calls": (c["seminorms.minkowski"], "count"),
        "seminorms.minkowski.self_s": (s["seminorms.minkowski"], "s"),
        "seminorms.separating.calls": (c["seminorms.separating"], "count"),
        "seminorms.separating.self_s": (s["seminorms.separating"], "s"),
        "seminorms.self_s": (layer_s("seminorms"), "s"),
        "operators.invert.calls": (c["operators.invert"], "count"),
        "operators.invert.self_s": (s["operators.invert"], "s"),
        "operators.invert.max_k": (mx["operators.invert.max_k"], "count"),
        "operators.apply.calls": (c["operators.apply"], "count"),
        "operators.apply.self_s": (s["operators.apply"], "s"),
        "operators.matrix_on.self_s": (s["operators.matrix_on"], "s"),
        "triangular.self_s": (layer_s("triangular"), "s"),
        "triangular.coeff_bits": (mx["triangular.coeff_bits"], "bits"),
        "triangular.minor_bits": (mx["triangular.minor_bits"], "bits"),
        "transport.run.self_s": (s["transport.run"], "s"),
        "transport.verify.self_s": (s["transport.verify"], "s"),
        "transport.steps": (n["transport.steps"], "count"),
        "transport.scan_yield": (n["transport.steps"] / scans if scans else 0.0, "ratio"),
        "density.calls": (tracer.layer_calls("density"), "count"),
        "density.self_s": (layer_s("density"), "s"),
        "hypercyclic.build_shift.self_s": (s["hypercyclic.build_shift"], "s"),
        "hypercyclic.premise.self_s": (s["hypercyclic.premise"], "s"),
        "hypercyclic.witness.self_s": (s["hypercyclic.witness"], "s"),
        "hypercyclic.refute.self_s": (s["hypercyclic.refute"], "s"),
        "scenarios.self_s": (layer_s("scenarios"), "s"),
        "serialize.calls": (tracer.layer_calls("serialize"), "count"),
        "serialize.self_s": (layer_s("serialize"), "s"),
        "reports.emit.self_s": (s["reports.emit"], "s"),
        "reports.bytes": (sum(len(b) for b in blobs.values()), "bytes"),
        "reports.max_bits": (max((report_bits(b) for b in blobs.values()), default=0),
                             "bits"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return out


EXACT_COUNTS = ("calls", "max_dim", "max_bits", "max_cells", "max_k", "coeff_bits",
                "minor_bits", "steps", "scan_yield", "bytes")


def measure_per_layer(bench: Bench, seconds: float, started: float):
    """Traced rounds until `seconds` have passed; self times are medians over
    the rounds, while counts and bit sizes must repeat exactly."""
    bench.reference_pass()
    rounds = []
    t0 = time.perf_counter()
    while not rounds or (time.perf_counter() - t0 < seconds
                         and time.perf_counter() - started < HARD_STOP_S):
        tracer, *measured = traced_round(bench, traced_first=len(rounds) % 2 == 1)
        rounds.append(layer_metrics(tracer, *measured))
    tracer.write_spans(WORK / f"spans-{bench.workload}.jsonl")
    metrics = {}
    steady = True
    for name, (value, unit) in rounds[-1].items():
        values = [r[name][0] for r in rounds]
        if name.rsplit(".", 1)[-1] in EXACT_COUNTS:
            steady &= len(set(values)) == 1
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    counts = {"traced_rounds": len(rounds), "spans_last_round": len(tracer.spans),
              "speed_probes": len(bench.probes)}
    return metrics, counts, {}, steady


def load_pins(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return pins.get(workload, {})


def pin(workload_names) -> int:
    """Store SHA-256 digests of the default-seed reports (all must pass)."""
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workload_names:
        bench = Bench(workload, DEFAULT_SEED)
        bench.reference_pass()
        if bench.gate.failed:
            sys.stderr.write("\n".join(bench.gate.problems) + "\n")
            return 1
        pins[workload] = {name: hashlib.sha256(blob).hexdigest()
                          for name, blob in bench.gate.reference.items()}
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(len(v) for v in pins.values())} report digests in {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default-seed report digests and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    args = parser.parse_args(argv)

    if not (SRC / "orbitlab" / "cli.py").is_file():
        sys.stderr.write(f"error: no orbitlab sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin([args.workload] if args.workload else workloads.WORKLOADS)
    if args.selftest:
        import selftest
        return selftest.main()
    if not args.workload:
        parser.error("--workload is required")

    started = time.perf_counter()
    bench = Bench(args.workload, args.seed, load_pins(args.workload, args.seed))
    if args.trace:
        metrics, counts, unscaled, ok = measure_per_layer(bench, args.seconds, started)
    else:
        metrics, counts, unscaled, ok = measure_end_to_end(bench, args.seconds, started)
    gate = bench.gate
    env = environment(args, counts)
    env["unscaled_seconds"] = unscaled
    env["run_wall_s"] = time.perf_counter() - started
    probes = sorted(bench.probes)
    env["speed_probe_s"] = {"min": probes[0], "median": statistics.median(probes),
                            "max": probes[-1], "reference": speed.PROBE_REF_S}

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':34s} {gate.failed / gate.attempted:>14.6g} "
          f"({gate.failed} of {gate.attempted} scenario executions)")
    for problem in gate.problems:
        print(f"FAIL {problem}")
    if not ok:
        print("FAIL measurement: " + ("counts changed between traced rounds"
                                      if args.trace else "fewer than 10 samples beyond p90"))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": gate.failed == 0 and ok,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    # One record per run, never overwritten, so that sets of runs can be compared.
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    record = WORK / "results" / f"{args.workload}-{args.seed}-trace{args.trace}-{stamp}.json"
    record.write_text(json.dumps({"env": env, **result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
