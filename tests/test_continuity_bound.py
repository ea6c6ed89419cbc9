"""The build-shift `continuity-bound` check: a certificate first, samples second.

For S = sum_j f_j (x) v_j, p_D(S x) <= c p(x) for every x, with
c = sum_j p*(f_j) p_D(v_j).  A run settles the check by
`neumann_certificate` when c < 1 and draws none of its 100 seeded vectors;
when the certificate fails (c >= 1, or c = inf for an unbounded term), the
samples run.  `oracles.continuity_samples` is the
sampled check as a slow path: fed the same `random.Random(seed)`, it must
give every run's verdict, on honest shifts and on shifts corrupted so that
the certificate fails.
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
def test_run_gives_the_sampled_oracles_verdict(monkeypatch, form, how):
    draws = oracles.spy_draws(monkeypatch)
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
        draws.clear()
        try:
            check = continuity_check(run_scenario(Scenario.from_dict(data)))
        except NotInSpan:
            check = None
        s, p, disk = built.pop()
        c = NeumannBudget.of(s.terms, p, disk).c
        try:
            samples = oracles.continuity_samples(s, p, disk, window,
                                                 random.Random(data["seed"]))
        except NotInSpan:
            assert check is None, "the oracle left span D and the run did not"
            outcomes.append("not-in-span")
            continue
        assert check is not None
        assert check.detail == "p_D(S x) <= p(x) on 100 seeded vectors"
        assert check.passed == all(samples)
        if c < 1:
            assert all(samples)
        assert draws == ([] if c < 1 else [window] * 100)
        outcomes.append((c < 1, check.passed))
    # (c < 1, verdict) of every case: each family reaches the outcomes it is
    # here for, and x2 both passes and fails the sampled bound
    assert set(outcomes) == {
        "honest": {(True, True)},
        "updates-x2": {(False, True), (False, False)},
        "updates-x4": {(False, False)},
        "updates-x1024": {(False, False)},
        "f-outside-active": {(False, False)},
        "v-unweighed": {"not-in-span"},
    }[how], outcomes


@pytest.mark.parametrize("seed", (1, 2))
def test_certificate_settles_every_exact_corpus_build_shift(monkeypatch, seed):
    """Every build-shift of the benchmark's shiftgauge corpus draws no sample,
    and its check passes."""
    draws = oracles.spy_draws(monkeypatch)
    shifts = [data for data in oracles.benchmark_workloads().generate("shiftgauge", seed)
              if data["task"] == "hypercyclic" and data["payload"]["mode"] == "build-shift"]
    assert len(shifts) == 6
    for data in shifts:
        draws.clear()
        assert continuity_check(run_scenario(Scenario.from_dict(data))).passed
        assert draws == [], data["name"]


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
@pytest.mark.parametrize("form", FORMS)
def test_budget_bounds_every_sampled_vector(form, how):
    """The certificate's c is a bound, not an estimate: p_D(S x) <= c p(x) on
    each of the 100 vectors the sampled check draws, for honest and corrupted
    S alike.  c is infinite exactly when a term leaves active(p) (p*(f) = inf)
    or span D (p_D(v) = inf), a vacuous bound; S x leaves span D only in the
    second case."""
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
            x = scenarios._random_window_vector(rng, window)
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
