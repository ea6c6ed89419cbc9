"""Seeded scenario generators for the three benchmark workloads.

Every generator builds inputs that are feasible by construction (independent
bases, twin enumerations, nilpotent chains, grids that are nets).  The only
redraw allowed is for input validity, and it is decided here by an exact
integer check, never by running orbitlab: a failed scenario must measure the
program, not the sampling.  The scenario *shapes* (windows, stages, task mix)
are fixed per workload; the seed changes only the values, so runs with
different seeds do the same amount of work.

Why each workload, and which layers it should and should not stress:

triangularize
    Dense rational bases (entries p/q, |p| <= 3, q in {1, 2, 3}) under
    `interleave_triangularize`.  Growing eliminations and coefficient bit
    growth do nearly all the work: `linalg.solve`, `vectors.pair`.
    (`linalg.determinant` is not reached: `interleave_triangularize` carries
    the previous minor along.)  Transport, operators and simplex stay idle.
transport
    Many twin-enumeration transports with weight-form disks and exact
    geometric schedules.  Gram inversions (`operators.invert`), separating
    nullspace solves, sparse vector arithmetic, the `verify_transport` replay
    and the harness decode/emit carry the time.  No large elimination and no
    LP.
shiftgauge
    Build-shift (dense window x window `linalg.mat_mul` in the premise check,
    `operators.matrix_on`), transitivity witnesses, generator-form disk gauges
    and a small transport under a generator-form disk (exact LPs in `simplex`
    behind `seminorms.minkowski`), a common disk (`density`) and refute.  The
    same layers as the other workloads, used differently.  Build-shifts set
    the median and p90; the LPs show in the corpus time.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

WORKLOADS = ("triangularize", "transport", "shiftgauge")

# Scenario shapes, fixed per workload so that every seed does comparable work.
# Each workload has ten scenarios in three cost tiers of 3, 4 and 3: the
# median falls inside the middle tier and p90 inside the top one, so neither
# percentile sits on the edge between two tiers of different cost.
TRIANGULARIZE_SHAPES = ((12, 5),) * 3 + ((14, 6),) * 4 + ((16, 7),) * 3
TRANSPORT_SHAPES = ((28, 7),) * 3 + ((40, 10),) * 4 + ((64, 16),) * 3


def _q(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _pairs(entries: Dict[int, Fraction]) -> List[list]:
    return [[i, _q(v)] for i, v in sorted(entries.items()) if v != 0]


def _scenario(name: str, window: int, seed: int, task: str, payload: dict) -> dict:
    return {"name": name, "scalar_mode": "exact", "window": window, "seed": seed,
            "task": task, "payload": payload}


def _nonsingular(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test by Bareiss elimination on the rows scaled to integers."""
    mat = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        mat.append([int(v * den) for v in row])
    n, prev = len(mat), 1
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k]), None)
        if piv is None:
            return False
        mat[k], mat[piv] = mat[piv], mat[k]
        for r in range(k + 1, n):
            mat[r] = [(mat[r][j] * mat[k][k] - mat[r][k] * mat[k][j]) // prev
                      for j in range(n)]
        prev = mat[k][k]
    return True


# --- triangularize ----------------------------------------------------------

def _dense_basis(rng: random.Random, window: int) -> List[Dict[int, Fraction]]:
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                 for _ in range(window)] for _ in range(window)]
        if _nonsingular(rows):  # redraw only a singular basis
            return [{j + 1: v for j, v in enumerate(row)} for row in rows]


def triangularize(rng: random.Random) -> List[dict]:
    out = []
    for k, (window, stages) in enumerate(TRIANGULARIZE_SHAPES):
        basis = _dense_basis(rng, window)
        out.append(_scenario(
            f"tri-{k:02d}-w{window}s{stages}", window, rng.randint(0, 999),
            "triangularize",
            {"basis": [_pairs(u) for u in basis], "stages": stages},
        ))
    return out


# --- transport --------------------------------------------------------------

def _twins(rng: random.Random, window: int, stages: int, extras: int, shuffled: bool):
    """A = e_i + junk outside active(p); B = A reordered plus noise outside
    active(p).  Projections onto active(p) are unit vectors, so both
    enumerations are p-independent and each twin sits inside its slot.

    The order of B replays the minimal-unused rule of `run_transport`:
    the forward twin of the next A element is never the B element reserved
    for the backward step, and the backward twin is always still unused.
    `shuffled` orders B randomly otherwise, so forward pool scans pass over
    non-twins first; without it B swaps neighbouring pairs of A and every
    scan stops at its first candidate.
    """
    active = window // 2
    size = 2 * stages + extras
    noise = Fraction(1, 2 ** (2 * stages + 20))
    a = []
    for i in range(1, size + 1):
        entry = {i: Fraction(1)}
        for j in rng.sample(range(active + 1, window + 1), rng.randint(0, 2)):
            entry[j] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
        a.append(entry)
    twin_of_b: Dict[int, int] = {}
    free_a, free_b = list(range(size)), list(range(size))
    pick = rng.randrange if shuffled else (lambda n: 0)
    for _ in range(stages):
        n_fwd, m_bwd = free_a.pop(0), free_b.pop(0)
        m_fwd = free_b.pop(pick(len(free_b)))
        twin_of_b[m_fwd] = n_fwd
        twin_of_b[m_bwd] = free_a.pop(pick(len(free_a)))
    if shuffled:
        rng.shuffle(free_a)
    twin_of_b.update(zip(free_b, free_a))
    b = []
    for m in range(size):
        entry = dict(a[twin_of_b[m]])
        j = rng.randint(active + 1, window)
        entry[j] = entry.get(j, Fraction(0)) + noise * rng.choice((-2, -1, 1, 2))
        b.append(entry)
    p = {"kind": "sup", "weights": [[i, "1"] for i in range(1, active + 1)]}
    return a, b, p


def _transport_scenario(rng, name, window, stages, disk, shuffled) -> dict:
    extras = rng.randint(0, max(0, min(2, window // 2 - 2 * stages)))
    a, b, p = _twins(rng, window, stages, extras, shuffled)
    return _scenario(name, window, rng.randint(0, 999), "transport", {
        "a": [_pairs(x) for x in a], "b": [_pairs(x) for x in b],
        "p": p, "disk": disk, "stages": stages, "eps_schedule": "geometric:1/2",
    })


def transport(rng: random.Random) -> List[dict]:
    out = []
    for k, (window, stages) in enumerate(TRANSPORT_SHAPES):
        disk = {"weights": [[i, _q(Fraction(rng.randint(1, 4), rng.choice((1, 2))))]
                            for i in range(1, window + 1)]}
        out.append(_transport_scenario(rng, f"tr-{k:02d}-w{window}s{stages}",
                                       window, stages, disk, shuffled=True))
    return out


# --- shiftgauge -------------------------------------------------------------

def _build_shift(rng, name, window) -> dict:
    """Chain basis u_k = e_k + earlier active coordinates + kernel junk: unit
    triangular on active(p), hence independent modulo ker p."""
    n_us = window - 2
    us = []
    for k in range(1, n_us + 1):
        entry = {k: Fraction(1)}
        for j in rng.sample(range(1, k), min(k - 1, 2)):
            entry[j] = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 4)))
        entry[rng.randint(n_us + 1, window)] = Fraction(rng.randint(1, 3), 2)
        us.append(entry)
    return _scenario(name, window, rng.randint(0, 999), "hypercyclic", {
        "mode": "build-shift",
        "basis": [_pairs(u) for u in us],
        "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, n_us + 1)]},
        "disk": {"weights": [[i, _q(Fraction(rng.randint(1, 3)))]
                             for i in range(1, window + 1)]},
    })


def _witness(rng, name, window) -> dict:
    """T = I + S with S e_{k+1} = c_k e_k, c_k > 0: the chain part is
    nilpotent, and the active rows of T^n on the free columns are a positive
    diagonal scaling of a binomial block, of full rank for large enough n, so
    a witness with zero residual exists."""
    active = window // 2
    terms = [{"f": [[k + 1, "1"]],
              "v": [[k, _q(Fraction(rng.randint(1, 3), 2 ** k))]]}
             for k in range(1, window)]

    def point():
        return {i: Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
                for i in range(1, active + 1)}

    return _scenario(name, window, rng.randint(0, 999), "hypercyclic", {
        "mode": "witness",
        "operator": {"base": "identity", "terms": terms},
        "x": _pairs(point()), "y": _pairs(point()),
        "p": {"kind": "sup", "weights": [[i, "1"] for i in range(1, active + 1)]},
        "eps": "1/1000", "max_n": 64,
    })


def _generator_gauges(rng, name, dim) -> dict:
    """Scaled unit vectors keep every probe in the span; the extra sparse
    generators make the LP optimum a real choice."""
    gens = [{i: Fraction(rng.randint(1, 4), rng.choice((1, 2)))} for i in range(1, dim + 1)]
    for _ in range(dim // 2 + 2):
        gens.append({i: Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                     for i in rng.sample(range(1, dim + 1), 3)})
    probes = [{i: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
               for i in rng.sample(range(1, dim + 1), rng.randint(1, dim))}
              for _ in range(4)]
    return _scenario(name, dim, rng.randint(0, 999), "disk", {
        "generators": [_pairs(g) for g in gens],
        "probes": [_pairs(v) for v in probes],
    })


def _common(rng, name, dim) -> dict:
    """Half-step grids on [-1, 1]^dim are 1/4-nets of the targets; B is A
    shifted by at most 1/4 per coordinate, which keeps it a 1/4-net."""
    half = [Fraction(k, 2) for k in range(-2, 3)]
    grid = [dict(enumerate(point, start=1))
            for point in itertools.product(half, repeat=dim)]
    shift = {i: Fraction(rng.randint(-2, 2), 8) for i in range(1, dim + 1)}
    targets = [{i: Fraction(rng.randint(-4, 4), 4) for i in range(1, dim + 1)}
               for _ in range(3)]
    return _scenario(name, dim, rng.randint(0, 999), "disk", {"common": {
        "a": [_pairs(g) for g in grid],
        "b": [_pairs({i: g.get(i, 0) + shift[i] for i in range(1, dim + 1)})
              for g in grid],
        "targets": [_pairs(t) for t in targets],
        "eps": "1/4",
    }})


def _refute(rng, name, levels) -> dict:
    window = levels + 1
    terms = [{"f": [[k + 1, "1"]], "v": [[k, _q(Fraction(rng.randint(1, 3)))]]}
             for k in range(1, window)]
    return _scenario(name, window, rng.randint(0, 999), "refute", {
        "family_levels": levels, "first_active": 1, "b": [],
        "operator": {"base": "zero", "terms": terms},
        "x": [[rng.randint(2, window), "1"]], "horizon": window + 2,
    })


def _generator_transport(rng, name, window, stages) -> dict:
    """Twin transport under a generator-form disk: scaled unit generators
    span the window, so every gauge is finite; extra generators make each
    gauge an LP with a real choice."""
    gens = [{i: Fraction(rng.randint(1, 4), 2)} for i in range(1, window + 1)]
    for _ in range(3):
        gens.append({i: Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
                     for i in rng.sample(range(1, window + 1), 2)})
    return _transport_scenario(rng, name, window, stages,
                               {"generators": [_pairs(g) for g in gens]}, shuffled=False)


def shiftgauge(rng: random.Random) -> List[dict]:
    # Tiers of 4, 5 and 3 scenarios; the three cheapest of the middle tier and
    # the whole top tier are build-shifts of one size each, which is where the
    # median and p90 fall.
    return [
        _refute(rng, "sg-00-refute-l6", 6),
        _common(rng, "sg-01-common-d2", 2),
        _generator_gauges(rng, "sg-02-gauge-d5", 5),
        _witness(rng, "sg-03-witness-w10", 10),
        _build_shift(rng, "sg-04-shift-w9", 9),
        _build_shift(rng, "sg-05-shift-w9", 9),
        _build_shift(rng, "sg-06-shift-w9", 9),
        _witness(rng, "sg-07-witness-w11", 11),
        _generator_transport(rng, "sg-08-gtransport-w8s2", 8, 2),
        _build_shift(rng, "sg-09-shift-w11", 11),
        _build_shift(rng, "sg-10-shift-w11", 11),
        _build_shift(rng, "sg-11-shift-w11", 11),
    ]


GENERATORS: Dict[str, Callable[[random.Random], List[dict]]] = {
    "triangularize": triangularize,
    "transport": transport,
    "shiftgauge": shiftgauge,
}


def generate(workload: str, seed: int) -> List[dict]:
    """The workload's scenarios for this seed; same seed, same scenarios."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
