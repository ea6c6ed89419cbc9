"""The build-shift `continuity-bound` check decides on the Neumann certificate.

For S = sum_j f_j (x) v_j, p_D(S x) <= c p(x) for every x, with
c = sum_j p*(f_j) p_D(v_j).  A run passes the check exactly when
`neumann_certificate` succeeds, c < 1; c >= 1, or c = inf for an unbounded
term, fails it, and no vector is drawn either way.  Every shift that
`build_shift_operator` builds on k chain vectors has c = 1 - 2^(1-k).  That c
is a bound, not an estimate: p_D(S x) <= c p(x) holds on each vector
`oracles.random_window_vector` draws, for honest and corrupted S alike.
"""

import random
from fractions import Fraction

import pytest

import orbitlab.scenarios as scenarios
from orbitlab import (
    CoordFunctional,
    DiskSpec,
    SeminormSpec,
    SparseVector,
    eval_seminorm,
    minkowski,
    serialize,
)
from orbitlab.errors import NotInSpan
from orbitlab.hypercyclic import build_shift_operator
from orbitlab.operators import BASE_ZERO, FiniteRankOperator, NeumannBudget
from orbitlab.scalars import ONE
from orbitlab.scenarios import Scenario, run_scenario

import oracles

FORMS = ("weights", "generators")
# name -> how the terms of S are changed; `window` lies in the probe window
# but outside active(p), `window + 1` outside the window and the disk
CORRUPTIONS = {
    "honest": lambda terms, j, window, one: terms,
    "updates-x2": lambda terms, j, window, one: [(f, v.scale(2)) for f, v in terms],
    "updates-x4": lambda terms, j, window, one: [(f, v.scale(4)) for f, v in terms],
    "updates-x1024": lambda terms, j, window, one: [(f, v.scale(2 ** 10)) for f, v in terms],
    "f-outside-active": lambda terms, j, window, one: [
        (CoordFunctional({window: one}) if k == j else f, v) for k, (f, v) in enumerate(terms)],
    "v-unweighed": lambda terms, j, window, one: [
        (f, v + SparseVector({window + 1: one}) if k == j else v)
        for k, (f, v) in enumerate(terms)],
}
CASES = 4


def shift_scenario(rng, form):
    """A chain u_k = c e_k + earlier active coordinates + kernel junk on
    active(p) = 1..n_us < window, with a disk over 1..window in the given
    form: unit triangular on active(p), so independent modulo ker p."""
    window = rng.randint(4, 8)
    n_us = window - rng.randint(1, 2)
    us = []
    for k in range(1, n_us + 1):
        entry = {k: Fraction(rng.choice([1, 2, 3]))}
        for i in rng.sample(range(1, k), min(k - 1, 2)):
            entry[i] = Fraction(rng.randint(-4, 4), rng.choice([1, 3, 5]))
        entry[rng.randint(n_us + 1, window)] = Fraction(rng.randint(1, 3), 2)
        us.append(SparseVector(entry))
    coords = range(1, window + 1)
    if form == "weights":
        disk = DiskSpec(weights={i: Fraction(rng.randint(1, 7), rng.choice([2, 3, 8]))
                                 for i in coords})
    else:
        disk = DiskSpec.from_generators(
            [SparseVector.basis(i).scale(Fraction(rng.randint(1, 5), rng.choice([1, 4])))
             for i in coords]
            + [SparseVector({i: Fraction(rng.randint(-3, 3), 2) for i in coords})])
    return {
        "name": f"shift-{form}", "scalar_mode": "exact", "window": window,
        "seed": rng.randint(0, 999), "task": "hypercyclic",
        "payload": {
            "mode": "build-shift",
            "basis": [serialize.encode_pairs(u) for u in us],
            "p": oracles.encode_seminorm(SeminormSpec.sup_on(range(1, n_us + 1))),
            "disk": oracles.encode_disk(disk),
        },
    }


def continuity_check(report):
    return next(c for c in report.checks if c.name == "continuity-bound")


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("form", FORMS)
def test_run_gives_the_certificates_verdict(monkeypatch, form, how):
    built = []

    def corrupted(us, p, disk):
        spec = build_shift_operator(us, p, disk)
        terms = tuple(spec.operator.terms)
        j = random.Random(len(terms)).randrange(len(terms))
        s = FiniteRankOperator(BASE_ZERO, tuple(CORRUPTIONS[how](terms, j, window, ONE)))
        built.append((s, p, disk))
        return spec._replace(operator=s)

    monkeypatch.setattr(scenarios, "build_shift_operator", corrupted)
    outcomes = []
    for case in range(CASES):
        data = shift_scenario(random.Random(f"{form}:{case}"), form)
        window = data["window"]
        check = continuity_check(run_scenario(Scenario.from_dict(data)))
        s, p, disk = built.pop()
        c = NeumannBudget.of(s.terms, p, disk).c
        assert check.detail == "p_D(S x) <= p(x) on 100 seeded vectors"
        assert check.passed == (c < 1)
        outcomes.append((c < 1, check.passed))
    # (c < 1, verdict) of every case: only the honest shift passes, and a
    # shift whose v leaves span D fails the check rather than the run
    assert set(outcomes) == ({(True, True)} if how == "honest" else {(False, False)}), outcomes


@pytest.mark.parametrize("form", FORMS)
def test_every_built_shift_spends_one_minus_two_to_one_minus_k(form):
    """build_shift_operator weighs term n at 2^-n, so on k chain vectors its
    budget is exactly sum_{n<k} 2^-n = 1 - 2^(1-k): below 1, whatever the
    disk form."""
    for case in range(CASES):
        payload = shift_scenario(random.Random(f"{form}:{case}"), form)["payload"]
        us = [serialize.decode_vector(u) for u in payload["basis"]]
        p = serialize.decode_seminorm(payload["p"])
        disk = serialize.decode_disk(payload["disk"])
        s = build_shift_operator(us, p, disk).operator
        assert NeumannBudget.of(s.terms, p, disk).c == 1 - Fraction(2) ** (1 - len(us))


@pytest.mark.parametrize("seed", (1, 2))
def test_certificate_settles_every_exact_corpus_build_shift(seed):
    """Every build-shift of the benchmark's shiftgauge corpus passes the check."""
    shifts = [data for data in oracles.benchmark_workloads().generate("shiftgauge", seed)
              if data["task"] == "hypercyclic" and data["payload"]["mode"] == "build-shift"]
    assert len(shifts) == 6
    for data in shifts:
        assert continuity_check(run_scenario(Scenario.from_dict(data))).passed, data["name"]


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("form", FORMS)
def test_budget_bounds_every_sampled_vector(form, how):
    """The certificate's c is a bound, not an estimate: p_D(S x) <= c p(x) on
    each of 100 seeded window vectors, for honest and corrupted S alike.  c
    is infinite exactly when a term leaves active(p) (p*(f) = inf) or span D
    (p_D(v) = inf), a vacuous bound; S x leaves span D only in the second
    case."""
    outside = bounded = 0
    for case in range(CASES):
        data = shift_scenario(random.Random(f"{form}:{case}"), form)
        payload, window = data["payload"], data["window"]
        us = [serialize.decode_vector(u) for u in payload["basis"]]
        p = serialize.decode_seminorm(payload["p"])
        disk = serialize.decode_disk(payload["disk"])
        terms = tuple(build_shift_operator(us, p, disk).operator.terms)
        j = random.Random(len(terms)).randrange(len(terms))
        s = FiniteRankOperator(BASE_ZERO, tuple(CORRUPTIONS[how](terms, j, window, Fraction(1))))
        budget = NeumannBudget.of(s.terms, p, disk)
        unbounded = budget.c == float("inf")
        assert unbounded == (how in ("f-outside-active", "v-unweighed"))
        rng = random.Random(data["seed"])
        for _ in range(100):
            x = oracles.random_window_vector(rng, window)
            y = oracles.apply_terms(s, x)
            try:
                gauge = oracles.weight_gauge(disk.weights, y) if disk.weights is not None \
                    else minkowski(disk, y)
            except NotInSpan:
                assert how == "v-unweighed"
                outside += 1
                continue
            if not unbounded:
                assert gauge <= budget.c * eval_seminorm(p, x)
                bounded += 1
    assert bounded == (0 if how in ("f-outside-active", "v-unweighed") else 100 * CASES)
    assert (outside > 0) == (how == "v-unweighed")
