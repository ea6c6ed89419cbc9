"""CPU speed probes behind the benchmark's reference seconds.

The machine the benchmark was tuned on (2 cores, a virtual machine) loses
speed to co-tenants in two ways, which swamp raw timings:

- each core flips between a fast and a slow state many times a second,
  independently of the other core, and CPU time slows as much as wall time;
- at times the host takes a core away for a quarter of the time or more
  ("steal" in /proc/stat), which stretches wall time but not CPU time.

So the benchmark times a piece by the time its cores actually ran, and
scales that by PROBE_REF_S over the mean time of a fixed calibration loop of
small-rational arithmetic run on the same cores:

- an in-process scenario is timed by its thread's CPU time, pinned to one
  core between two probes on the same thread (`factor`);
- a cold child process is a black box pinned to a set of cores.  While it
  runs, the parent probes each of those cores every SAMPLE_PERIOD_S from a
  thread pinned to it, and its wall time, less the time per core that the
  host and the probes took (`Sampler.lost_s`), is scaled by the mean probe.
  A probe on another core, or only before and after the child, says little
  about the core the child ran on.

A reference second is a wall second on a CPU where the loop takes
PROBE_REF_S: a slower program needs more of them, a busier machine does not.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction
from typing import Dict, Iterable, List

PROBE_LOOPS = 1000
# About the loop's time on an uncontended core of the tuning machine.
PROBE_REF_S = 0.0023
# A probe every 60 ms takes about 4-8 % of a sampled core from the child;
# `Sampler.lost_s` takes that time back out of the child's wall time.
SAMPLE_PERIOD_S = 0.06


def probe() -> float:
    """CPU seconds of the calibration loop on the calling thread."""
    start = time.thread_time()
    total = Fraction(0)
    for i in range(1, PROBE_LOOPS):
        total += Fraction(1, i % 97 + 1)
    return time.thread_time() - start


def stolen_by_host() -> Dict[int, float]:
    """Seconds each core has lost to the host so far (0 outside a VM)."""
    tick = 1 / os.sysconf("SC_CLK_TCK")
    out = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            fields = line.split()
            if fields[0].startswith("cpu") and fields[0] != "cpu":
                steal = int(fields[8]) if len(fields) > 8 else 0
                out[int(fields[0][3:])] = steal * tick
    return out


def factor(before: float, after: float) -> float:
    """Reference seconds per timed second between two probes."""
    return 2 * PROBE_REF_S / (before + after)


class Sampler:
    """Probes each of `cpus` from a thread pinned to it, from `__enter__`
    until `__exit__`, every SAMPLE_PERIOD_S; at least once per core."""

    def __init__(self, cpus: Iterable[int]):
        self.samples: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                         for cpu in self.samples]

    def _run(self, cpu: int):
        os.sched_setaffinity(0, {cpu})  # this thread only
        while True:
            self.samples[cpu].append(probe())
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __enter__(self) -> "Sampler":
        self._steal = stolen_by_host()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()
        after = stolen_by_host()
        self.steal_s = {cpu: after[cpu] - self._steal[cpu] for cpu in self.samples}

    def probes(self) -> List[float]:
        return [p for samples in self.samples.values() for p in samples]

    def factor(self) -> float:
        """Reference seconds per wall second while sampling."""
        return PROBE_REF_S / statistics.mean(self.probes())

    def lost_s(self) -> float:
        """Seconds per sampled core taken by the host and by the probes: what
        a child that kept every sampled core busy could not use."""
        return (sum(self.steal_s.values()) + sum(self.probes())) / len(self.samples)
