"""Forward/backward matching steps and the alternating transport driver."""

import random
import sys
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    FiniteRankOperator,
    SeminormSpec,
    SparseVector,
    invert,
)
from orbitlab.density import Enumeration
from orbitlab.errors import (
    BudgetExceeded,
    Exhausted,
    NoApproximant,
    NotPIndependent,
    StageFailure,
)
from orbitlab.operators import BASE_ZERO
from orbitlab.scalars import ONE, parse
from orbitlab.scenarios import Scenario, run_scenario
from orbitlab.seminorms import Separator
from orbitlab.transport import (
    TransportState,
    run_transport,
    step_backward,
    step_forward,
    verify_transport,
)

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def frac(n, d=1):
    return Fraction(n, d)


def fresh_state(a_items, b_items, active, window, epsilons):
    return TransportState(
        Enumeration(tuple(a_items)),
        Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, active + 1)),
        oracles.l1_disk(range(1, window + 1)),
        tuple(epsilons),
    )


def geometric_schedule(count):
    return [frac(1, 2 ** (j + 2)) for j in range(count)]


class TestStepForward:
    def test_element_already_in_pool(self):
        state = fresh_state([sv(1)], [sv(1)], active=2, window=2,
                            epsilons=geometric_schedule(2))
        f, v, pos = step_forward(state, sv(1), Separator(state.p), [sv(1)], frac(1, 4))
        assert pos == 0
        assert v.is_zero()
        assert f == CoordFunctional.delta(1)

    def test_worked_arithmetic(self):
        state = fresh_state([sv(1)], [sv(frac(9, 10), frac(1, 10))], active=2,
                            window=2, epsilons=geometric_schedule(2))
        f, v, pos = step_forward(
            state, sv(1), Separator(state.p), [sv(frac(9, 10), frac(1, 10))], frac(1, 4)
        )
        assert pos == 0
        assert v == sv(frac(-1, 10), frac(1, 10))
        updated = state.terms.with_term(f, v).plus_identity()
        assert updated.apply(sv(1)) == sv(frac(9, 10), frac(1, 10))

    def test_no_approximant_reports_best(self):
        """The failure path gauges every pool element in full and names the
        first closest one, here the second of four."""
        pool = [sv(5, 5), sv(2, 1), sv(0, 3), sv(3)]  # l1 distances 9, 2, 4, 2 from (1, 0)
        state = fresh_state([sv(1)], pool, active=2, window=2, epsilons=geometric_schedule(2))
        u = sv(1)
        with pytest.raises(NoApproximant) as err:
            step_forward(state, u, Separator(state.p), pool, parse("1/4"))
        assert (err.value.best, err.value.best_index) == (2, 1)
        assert type(err.value.best) is type(ONE)
        assert str(err.value) == (f"no pool element within {parse('1/4')} of the "
                                  f"forward target; best distance {parse('2')}")

    def test_first_pool_element_beyond_the_bound_is_passed_over(self):
        pool = [sv(5, 5), sv(frac(9, 10), frac(1, 10))]
        state = fresh_state([sv(1)], pool, active=2, window=2,
                            epsilons=geometric_schedule(2))
        f, v, pos = step_forward(state, sv(1), Separator(state.p), pool, frac(1, 4))
        assert pos == 1
        assert state.terms.with_term(f, v).plus_identity().apply(sv(1)) == pool[1]


class TestStepBackward:
    def test_worked_arithmetic(self):
        state = fresh_state([sv(2, frac(1, 10))], [sv(2)], active=2, window=2,
                            epsilons=geometric_schedule(2))
        f, v, pos = step_backward(
            state, sv(2), Separator(state.p), [sv(2, frac(1, 10))], frac(1, 4)
        )
        assert pos == 0
        assert v == sv(0, frac(-1, 20))
        updated = state.terms.with_term(f, v).plus_identity()
        assert updated.apply(sv(2, frac(1, 10))) == sv(2)

    def test_element_already_matching(self):
        state = fresh_state([sv(2)], [sv(2)], active=2, window=2,
                            epsilons=geometric_schedule(2))
        f, v, pos = step_backward(
            state, sv(2), Separator(state.p), [sv(2)], frac(1, 4)
        )
        assert pos == 0
        assert v.is_zero()

    def test_zero_pairing_and_oversize_update_are_passed_over(self):
        # f = e_1*: e_2 pairs to 0, e_1 needs v = e_1 of size 1 > 1/4
        pool = [sv(0, 1), sv(1), sv(2, frac(1, 10))]
        state = fresh_state(pool, [sv(2)], active=2, window=2,
                            epsilons=geometric_schedule(2))
        f, v, pos = step_backward(state, sv(2), Separator(state.p), pool,
                                  frac(1, 4))
        assert f == CoordFunctional.delta(1)
        assert pos == 2
        assert v == sv(0, frac(-1, 20))
        assert state.terms.with_term(f, v).plus_identity().apply(pool[2]) == sv(2)


def twin_instance(rng, window, stages, extras=0, noise_exp=None):
    """A/B with b_i a perturbed copy of a_{pi(i)}, pi = neighbour swaps.

    The a's are e_i plus junk supported outside the active half, so the
    separating functionals stay coordinate-like and every forward/backward
    scan finds the twin.  Perturbations also live outside the active set
    (tiny divergences inside it would give the separating solve spurious
    near-kernel directions) at a scale far below the epsilon slots.
    """
    size = 2 * stages + extras
    active = window // 2
    assert size <= active
    if noise_exp is None:
        noise_exp = 2 * stages + 16
    noise = frac(1, 2 ** noise_exp)

    def junk():
        return SparseVector({
            i: frac(rng.randint(-4, 4), rng.choice([1, 2, 4]))
            for i in rng.sample(range(active + 1, window + 1), rng.randint(0, 2))
        })

    a_items = [SparseVector.basis(i) + junk() for i in range(1, size + 1)]
    pi = list(range(size))
    for i in range(0, size - 1, 2):
        pi[i], pi[i + 1] = pi[i + 1], pi[i]
    b_items = []
    for i in range(size):
        eta = SparseVector({
            rng.randint(active + 1, window): noise * rng.randint(-2, 2)
        })
        b_items.append(a_items[pi[i]] + eta)
    return (
        Enumeration(tuple(a_items)),
        Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, active + 1)),
        oracles.l1_disk(range(1, window + 1)),
    )


class TestRunTransport:
    def test_zero_stages_gives_identity(self):
        a, b, p, d = twin_instance(random.Random(1), 12, 2)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=0)
        j = state.operator
        assert j.terms == ()
        assert verify_transport(state).passed

    def test_twin_run_matches_exactly(self):
        rng = random.Random(5)
        a, b, p, d = twin_instance(rng, 16, 3, extras=1)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        j = state.operator
        report = verify_transport(state)
        assert report.passed, [c.name for c in oracles.failures(report)]
        for n, m in zip(state.n_idx, state.m_idx):
            assert j.apply(a.vector(n)) == b.vector(m)
        # pairing is one-to-one on built indices
        assert len(set(state.n_idx)) == 6
        assert len(set(state.m_idx)) == 6

    def test_same_set_permuted_enumeration(self):
        # A = B as sets with a neighbour-swap enumeration: exact twins
        a_items = tuple(SparseVector.basis(i) for i in range(1, 7))
        b_items = tuple(
            a_items[i + 1] if i % 2 == 0 else a_items[i - 1] for i in range(6)
        )
        a = Enumeration(a_items)
        b = Enumeration(b_items)
        p = SeminormSpec.sup_on(range(1, 7))
        d = oracles.l1_disk(range(1, 13))
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        j = state.operator
        assert verify_transport(state).passed
        # with exact twins every update vector is zero and J = I
        assert all(v.is_zero() for _, v in state.terms.terms)

    def test_stage_one_accepts_a_later_pool_element(self):
        """The forward pool of stage 1 is (b(2), b(3)); b(2) lies 2 away from
        a(1) in the disk gauge and b(3) within 2^-20, so the pair is (1, 3)."""
        noise = frac(1, 2 ** 20)
        a = Enumeration((sv(1), sv(0, 1), sv(0, 0, 1)))
        b = Enumeration((sv(0, 1, 0, 0, noise), sv(0, 0, 1, 0, 0, noise),
                         sv(1, 0, 0, 0, 0, 0, noise)))
        p = SeminormSpec.sup_on(range(1, 5))
        d = oracles.l1_disk(range(1, 9))
        state = run_transport(a, b, p, d, geometric_schedule(2), stages=1)
        assert state.n_idx == (1, 2)
        assert state.m_idx == (3, 1)
        report = verify_transport(state)
        assert report.passed, [c.name for c in oracles.failures(report)]
        for n, m in zip(state.n_idx, state.m_idx):
            assert state.operator.apply(a.vector(n)) == b.vector(m)

    def test_dependent_enumeration_rejected(self):
        p = SeminormSpec.sup_on([1, 2])
        d = oracles.l1_disk(range(1, 5))
        a = Enumeration((sv(1), sv(2)))
        b = Enumeration((sv(1), sv(0, 1)))
        with pytest.raises(NotPIndependent):
            run_transport(a, b, p, d, geometric_schedule(2), stages=1)

    def test_bad_schedule_rejected(self):
        a, b, p, d = twin_instance(random.Random(9), 12, 2)
        with pytest.raises(BudgetExceeded):
            run_transport(a, b, p, d, [frac(1, 2), frac(1, 2)], stages=1)
        with pytest.raises(Exhausted):
            run_transport(a, b, p, d, [frac(1, 4)] * 3, stages=2)

    def test_stage_failure_carries_partial_state(self):
        # far-apart sets cannot be matched inside tight slots
        p = SeminormSpec.sup_on(range(1, 4))
        d = oracles.l1_disk(range(1, 7))
        a = Enumeration((sv(1), sv(0, 1), sv(0, 0, 1)))
        b = Enumeration((sv(5), sv(0, 5), sv(0, 0, 5)))
        with pytest.raises(StageFailure) as err:
            run_transport(a, b, p, d, geometric_schedule(6), stages=1)
        assert err.value.stage == 1
        assert isinstance(err.value.state, TransportState)

    def test_kernel_fixing_outside_active(self):
        rng = random.Random(13)
        a, b, p, d = twin_instance(rng, 16, 3)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        j = state.operator
        for i in range(9, 17):
            e = SparseVector.basis(i)
            assert j.apply(e) == e

    def test_budget_certificate_below_one(self):
        rng = random.Random(17)
        a, b, p, d = twin_instance(rng, 16, 3)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        assert state.budget_used() < 1


class TestVerifyTransport:
    def test_vacuous_fresh_state(self):
        a, b, p, d = twin_instance(random.Random(21), 12, 2)
        state = TransportState(a, b, p, d, tuple(geometric_schedule(4)))
        assert verify_transport(state).passed

    def test_perturbed_term_caught_by_matching_check(self):
        rng = random.Random(23)
        a, b, p, d = twin_instance(rng, 16, 3)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        f, v = state.terms.terms[2]
        broken_terms = (
            state.terms.terms[:2]
            + ((f, v + SparseVector.basis(1)),)
            + state.terms.terms[3:]
        )
        from orbitlab.operators import FiniteRankOperator as FRO, BASE_ZERO

        bad = state._replace(terms=FRO(BASE_ZERO, broken_terms))
        report = verify_transport(bad)
        assert not report.passed
        names = {c.name for c in oracles.failures(report)}
        assert "exact-matching" in names

    def test_functional_off_the_active_set_is_reported_not_raised(self):
        from orbitlab.operators import FiniteRankOperator as FRO, BASE_ZERO

        state = fresh_state([sv(1), sv(0, 1)], [sv(1), sv(0, 1)], active=2, window=4,
                            epsilons=geometric_schedule(2))
        term = (CoordFunctional({3: frac(1, 2 ** 50)}), SparseVector.basis(1))
        report = verify_transport(state._replace(terms=FRO(BASE_ZERO, (term,))))
        failed = {c.name for c in oracles.failures(report)}
        assert {"slot-bounds", "budget-below-one", "kernel-fixed"} <= failed
        assert "p*(f) = inf" in next(c.detail for c in report.checks if c.name == "slot-bounds")

    def test_update_outside_the_disk_span_is_reported_not_raised(self):
        from orbitlab.operators import FiniteRankOperator as FRO, BASE_ZERO

        state = fresh_state([sv(1), sv(0, 1)], [sv(1), sv(0, 1)], active=2, window=4,
                            epsilons=geometric_schedule(2))
        term = (CoordFunctional.delta(1), SparseVector.basis(5).scale(frac(1, 2 ** 50)))
        report = verify_transport(state._replace(terms=FRO(BASE_ZERO, (term,))))
        failed = {c.name for c in oracles.failures(report)}
        assert {"slot-bounds", "budget-below-one"} <= failed
        assert "kernel-fixed" not in failed

    def test_invertibility_round_trip_checked(self):
        rng = random.Random(27)
        a, b, p, d = twin_instance(rng, 12, 2)
        state = run_transport(a, b, p, d, geometric_schedule(4), stages=2)
        j = state.operator
        j_inv = invert(j)
        for i in range(1, 13):
            e = SparseVector.basis(i)
            assert j_inv.apply(j.apply(e)) == e

    def test_each_term_gauged_once(self, monkeypatch):
        # generator-form disk: every p_D(v) is an LP, so each one counts
        import orbitlab.operators as operators

        a, b, p, _ = twin_instance(random.Random(31), 12, 2)
        disk = DiskSpec.from_generators([SparseVector.basis(i) for i in range(1, 13)])
        state = run_transport(a, b, p, disk, geometric_schedule(4), stages=2)
        expected_budget = state.budget_used()
        gauge, calls = operators.minkowski, []

        def counting(disk, v):
            calls.append(v)
            return gauge(disk, v)

        monkeypatch.setattr(operators, "minkowski", counting)
        report = verify_transport(state)
        assert report.passed
        assert calls == [v for _, v in state.terms.terms]
        budget = next(c for c in report.checks if c.name == "budget-below-one")
        assert budget.detail == f"c = {expected_budget}"

    def test_replay_applies_j_once_per_window_coordinate(self, monkeypatch):
        """J meets the matched a's once each and each window e_i once: the
        invertible round trip and kernel-fixed share the images J e_i."""
        import orbitlab.transport as transport

        a, b, p, d = twin_instance(random.Random(33), 12, 2)
        state = run_transport(a, b, p, d, geometric_schedule(4), stages=2)
        window = transport._window_indices(state)
        apply, window_calls, j_inputs = FiniteRankOperator.apply, [], []

        def spied_apply(op, x):
            if op.base == "identity" and op.terms is state.terms.terms:
                j_inputs.append(x)
            return apply(op, x)

        def spied_window(st):
            window_calls.append(st)
            return window

        monkeypatch.setattr(FiniteRankOperator, "apply", spied_apply)
        monkeypatch.setattr(transport, "_window_indices", spied_window)
        assert verify_transport(state).passed
        assert window_calls == [state]
        assert j_inputs == ([a.vector(n) for n in state.n_idx]
                            + [SparseVector.basis(i) for i in window])

    @pytest.mark.parametrize("gap, passed", [
        (frac(1, 2 ** 45), True), (0, False), (frac(-1, 2 ** 45), False),
    ], ids=["one-minus-2^-45", "one", "one-plus-2^-45"])
    def test_budget_below_one_is_decided_exactly(self, gap, passed):
        """c = 1 - 2^-45 certifies invertibility and c = 1 does not: no
        tolerance rounds a budget to one."""
        from orbitlab.operators import BASE_ZERO

        state = TransportState(
            Enumeration((sv(1),)), Enumeration((sv(1),)), SeminormSpec.sup_on([1, 2]),
            oracles.l1_disk(range(1, 5)), (frac(1, 2), frac(1, 4)),
            terms=FiniteRankOperator(BASE_ZERO, ((CoordFunctional.delta(1), sv(0, 1 - gap)),)))
        report = verify_transport(state)
        assert report.budget == 1 - gap
        check = next(c for c in report.checks if c.name == "budget-below-one")
        assert (check.passed, check.detail) == (passed, f"c = {1 - gap}")

    @pytest.mark.parametrize("shift", [frac(1, 2 ** 50), frac(1, 2 ** 20), 0],
                             ids=["2^-50", "2^-20", "none"])
    def test_exact_matching_refuses_any_residual(self, shift):
        """A matched pair passes only when J a(n_j) - b(m_j) is zero: moving
        b(m_1) by 2^-50 fails the check as surely as 2^-20, and the report
        carries the residuals."""
        a_items = [SparseVector.basis(i) for i in range(1, 5)]
        b_items = [a_items[k] + SparseVector({7 + i: frac(1, 10 ** 8)})
                   for i, k in enumerate([1, 0, 3, 2])]
        state = run_transport(Enumeration(tuple(a_items)), Enumeration(tuple(b_items)),
                              SeminormSpec.sup_on(range(1, 7)), oracles.l1_disk(range(1, 13)),
                              geometric_schedule(4), 2)
        m = state.m_idx[0]
        b = Enumeration(tuple(x + SparseVector({1: shift}) if k == m else x
                              for k, x in enumerate(b_items, start=1)))
        report = verify_transport(state._replace(b=b))
        check = next(c for c in report.checks if c.name == "exact-matching")
        assert check.passed is (shift == 0)
        assert check.detail == (f"pair 1: J a({state.n_idx[0]}) != b({m})" if shift
                                 else "all matched pairs exact")
        assert report.residuals == [state.operator.apply(state.a.vector(n)) - b.vector(k)
                                    for n, k in zip(state.n_idx, state.m_idx)]
        assert report.residuals[0] == SparseVector({1: -shift})

    def test_invertible_check_runs_the_round_trip(self, monkeypatch):
        """`invertible` applies the inverse it gets to every J e_i of the window:
        an inverse that is not one fails the check without raising."""
        a, b, p, d = twin_instance(random.Random(29), 12, 2)
        state = run_transport(a, b, p, d, geometric_schedule(4), stages=2)
        assert verify_transport(state).passed
        monkeypatch.setattr("orbitlab.transport.invert",
                            lambda j: FiniteRankOperator.identity())
        checks = {c.name: c for c in verify_transport(state).checks}
        assert (checks["invertible"].passed, checks["invertible"].detail) == \
            (False, "Gram solve and window round trip")
        assert all(c.passed for name, c in checks.items() if name != "invertible")


def dense_twin_instance(rng, window, stages, noise_den=2 ** 24):
    """Twins whose A-side vectors have three active coordinates and whose
    B-side copies carry noise of size 1/noise_den inside the active set too,
    so the separating echelon form needs back-elimination and the Gram
    matrix is not zero."""
    size, active = 2 * stages, window // 2
    a_items = [
        SparseVector({i: frac(1), i + 1: frac(rng.choice([-1, 1]), 2),
                      i + 2: frac(rng.randint(-2, 2), 3),
                      rng.randint(active + 1, window): frac(rng.randint(-3, 3), 2)})
        for i in range(1, size + 1)
    ]
    b_items = []
    for i in range(size):
        twin = a_items[i + 1 if i % 2 == 0 else i - 1]
        noise = SparseVector({rng.randint(1, active): frac(rng.choice([-1, 1]), noise_den),
                              rng.randint(active + 1, window): frac(1, noise_den)})
        b_items.append(twin + noise)
    return (
        Enumeration(tuple(a_items)),
        Enumeration(tuple(b_items)),
        SeminormSpec.sup_on(range(1, active + 1)),
        oracles.l1_disk(range(1, window + 1)),
    )


class TestIncrementalWorkspace:
    def test_dense_twin_runs_verify(self):
        for seed in range(5):
            a, b, p, d = dense_twin_instance(random.Random(seed), 16, 3)
            state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
            gram = [[f.pair(v) for _, v in state.terms.terms] for f, _ in state.terms.terms]
            assert any(any(row) for row in gram)
            report = verify_transport(state)
            assert report.passed, [c.detail for c in oracles.failures(report)]

    def test_forward_scan_builds_only_the_kept_difference(self, monkeypatch):
        """With a weight-form disk a forward step gauges its rejected pool
        elements without building r - target and without `minkowski`: its one
        `first_below` call passes over many candidates, and the step
        subtracts once, for the element it keeps."""
        import orbitlab.seminorms as seminorms
        import orbitlab.transport as transport

        step, sub, gauge, scan = (transport.step_forward, SparseVector.__sub__,
                                  seminorms.minkowski, transport.first_below)
        counts = {"steps": 0, "gauged": 0, "sub": 0, "minkowski": 0}
        inside = []

        def counted(name, fn):
            def spy(*args):
                if inside:
                    counts[name] += 1
                return fn(*args)
            return spy

        def spied_step(*args):
            counts["steps"] += 1
            inside.append(True)
            try:
                return step(*args)
            finally:
                inside.pop()

        def spied_scan(disk, pool, y, bound):
            # the candidates gauged: those passed over, and the one kept
            pos = scan(disk, pool, y, bound)
            counts["gauged"] += len(pool) if pos is None else pos + 1
            return pos

        monkeypatch.setattr(transport, "step_forward", spied_step)
        monkeypatch.setattr(transport, "first_below", spied_scan)
        monkeypatch.setattr(SparseVector, "__sub__", counted("sub", sub))
        monkeypatch.setattr(seminorms, "minkowski", counted("minkowski", gauge))
        monkeypatch.setattr(transport, "minkowski", counted("minkowski", gauge))
        # reversed twins: each forward scan passes over most of its pool
        a_items = tuple(SparseVector.basis(i) for i in range(1, 9))
        b_items = tuple(x + SparseVector({9 + i: frac(1, 2 ** 24)})
                        for i, x in enumerate(reversed(a_items)))
        a, b = Enumeration(a_items), Enumeration(b_items)
        p, d = SeminormSpec.sup_on(range(1, 9)), oracles.l1_disk(range(1, 17))
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        assert counts["steps"] == 3 and counts["gauged"] > 3 * counts["steps"]
        assert (counts["sub"], counts["minkowski"]) == (counts["steps"], 0)
        assert verify_transport(state).passed

    def test_scenario_run_applies_j_once_to_each_matched_a(self, monkeypatch):
        """The report's matched-pairs residuals are the replay's: J meets each
        a(n_j) once in a transport scenario run."""
        import orbitlab.scenarios as scenarios
        from orbitlab import serialize

        a, b, p, d = twin_instance(random.Random(41), 12, 2)
        run, apply, states, applied = scenarios.run_transport, FiniteRankOperator.apply, [], []

        def spied_run(*args):
            states.append(run(*args))
            return states[-1]

        def spied_apply(op, x):
            if op.base == "identity":
                applied.append(x)
            return apply(op, x)

        monkeypatch.setattr(scenarios, "run_transport", spied_run)
        monkeypatch.setattr(FiniteRankOperator, "apply", spied_apply)
        report = scenarios.run_scenario(scenarios.Scenario.from_dict({
            "name": "twin", "scalar_mode": "exact", "window": 12, "seed": 1,
            "task": "transport", "payload": {
                "a": [serialize.encode_pairs(x) for x in a.items],
                "b": [serialize.encode_pairs(x) for x in b.items],
                "p": oracles.encode_seminorm(p), "disk": oracles.encode_disk(d),
                "stages": 2, "eps_schedule": "geometric:1/2"}}))
        assert report.passed
        [state] = states
        assert [sum(x is state.a.vector(n) for x in applied) for n in state.n_idx] == [1] * 4
        rows = next(t for t in report.tables if t.name == "matched-pairs").rows
        j = state.operator
        assert [row[3] for row in rows] == [
            serialize.format_vector(apply(j, state.a.vector(n)) - state.b.vector(m))
            for n, m in zip(state.n_idx, state.m_idx)]

    def test_run_needs_no_from_scratch_solve(self, monkeypatch):
        import orbitlab.linalg as linalg

        args = twin_instance(random.Random(33), 24, 5, extras=2)
        expected = run_transport(*args, geometric_schedule(10), stages=5)

        def boom(*_args, **_kwargs):
            raise AssertionError("from-scratch solve reached")

        monkeypatch.setattr(linalg.RowReducer, "of", boom)
        state = run_transport(*args, geometric_schedule(10), stages=5)
        assert state == expected

    def test_the_only_from_scratch_solve_is_the_backward_gram_solve(self, monkeypatch):
        """The separator grows one row at a time, so a run's one from-scratch
        elimination, `RowReducer.of`, is the `linalg.solve` that
        `operators.solve` makes, at most once per backward step."""
        import orbitlab.linalg as linalg

        args = dense_twin_instance(random.Random(0), 28, 7, 2 ** 34)
        expected = run_transport(*args, geometric_schedule(14), stages=7)
        of, callers = linalg.RowReducer.of.__func__, []

        def where(depth):
            frame = sys._getframe(depth + 1)
            return f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"

        def spy(cls, rows):
            callers.append((where(1), where(2)))
            return of(cls, rows)

        monkeypatch.setattr(linalg.RowReducer, "of", classmethod(spy))
        state = run_transport(*args, geometric_schedule(14), stages=7)
        assert state == expected
        assert set(callers) == {("orbitlab.linalg.solve", "orbitlab.operators.solve")}
        assert len(callers) <= 7, callers

    def test_operators_make_no_pairing_across_disjoint_supports(self, monkeypatch):
        """Every pairing that `operators` makes (apply, invert, solve) in a
        dense-twin run and its verification meets a shared coordinate, whether
        it pairs the maps (`CoordFunctional.pair`) or, as exact `apply` does,
        their integer rows (`operators._dot`); the Gram rows that
        `_gram_rows` pairs count for its caller, and the steps' own pairings
        and pool scans are not counted."""
        import os
        import sys

        import orbitlab.operators as operators

        here = os.path.normcase(operators.__file__)
        pair, dot, made, wasted = CoordFunctional.pair, operators._dot, {}, []

        def record(a, b):
            frame = sys._getframe(2)
            while frame.f_code.co_name.startswith("<"):  # comprehensions
                frame = frame.f_back
            if os.path.normcase(frame.f_code.co_filename) == here:
                if frame.f_code.co_name == "_gram_rows":
                    frame = frame.f_back
                name = frame.f_code.co_name
                made[name] = made.get(name, 0) + 1
                if not set(a) & set(b):
                    wasted.append((name, a, b))

        def guarded(self, x):
            record(self.entries, x.entries)
            return pair(self, x)

        def guarded_dot(a, b):
            record(a, b)
            return dot(a, b)

        monkeypatch.setattr(CoordFunctional, "pair", guarded)
        monkeypatch.setattr(operators, "_dot", guarded_dot)
        a, b, p, d = dense_twin_instance(random.Random(3), 16, 3)
        state = run_transport(a, b, p, d, geometric_schedule(6), stages=3)
        assert verify_transport(state).passed
        assert wasted == []
        assert set(made) == {"apply", "invert", "solve"}, made


# exact `scalars.integer_row` calls in one transport corpus pass
# (perfbench/workloads.py, seeds 1 and 2): before vectors kept their integer
# form, when every gauge, pairing and solve scaled its vectors afresh, and
# now, when each map is scaled once and the rank test, the separator, the
# pool scan and the Gram inverse read the kept forms (-62.7 % and -60.9 %)
RESCALING_CALLS = {1: 4388, 2: 4186}
SCALED_ONCE_CALLS = 1635


@pytest.mark.parametrize("seed", sorted(RESCALING_CALLS))
def test_a_corpus_pass_scales_no_map_twice(monkeypatch, seed):
    """Over one exact transport corpus pass, `integer_row` is never given the
    same entries map twice, every call comes from `scalars.integer_of`, the
    form a map keeps, and it makes at most SCALED_ONCE_CALLS calls, fewer
    than half of RESCALING_CALLS.  Counts only; no time is measured."""
    scaled, callers = {}, set()

    def counting(entries):
        # the map is kept alive, so that no later map takes its id
        scaled.setdefault(id(entries), []).append(entries)
        frame = sys._getframe(1)
        callers.add(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        return convert(entries)

    convert = oracles.patch_scalars(monkeypatch, "integer_row", counting)
    for data in oracles.benchmark_workloads().generate("transport", seed):
        report = run_scenario(Scenario.from_dict(data))
        assert report.passed, data["name"]
    calls = sum(len(maps) for maps in scaled.values())
    assert [maps[0] for maps in scaled.values() if len(maps) > 1] == []
    assert callers == {"orbitlab.scalars.integer_of"}, callers
    assert 0 < calls <= SCALED_ONCE_CALLS < 0.5 * RESCALING_CALLS[seed], calls


def test_a_passing_replay_subtracts_no_map(monkeypatch):
    """Over the seed-1 transport corpus, `verify_transport` makes no
    `_FiniteMap.__sub__` call on a state it passes: exact-matching compares
    J a(n_j) with b(m_j) and gives an equal pair a zero residual.  With two
    pairs' m indices swapped it builds those two residuals, J a(n_j) -
    b(m_j), and no other.  Counts only; no time is measured."""
    from orbitlab import scenarios, vectors

    subs, replaying, states = [], [], []
    real_sub, real_verify = vectors._FiniteMap.__sub__, scenarios.verify_transport

    def counting(x, y):
        if replaying:
            subs.append((x, y))
        return real_sub(x, y)

    def replay(state):
        replaying.append(state)
        try:
            return real_verify(state)
        finally:
            replaying.pop()

    monkeypatch.setattr(vectors._FiniteMap, "__sub__", counting)
    monkeypatch.setattr(scenarios, "verify_transport", replay)
    monkeypatch.setattr(scenarios, "run_transport",
                        lambda *args: states.append(run_transport(*args)) or states[-1])
    corpus = oracles.benchmark_workloads().generate("transport", 1)
    for data in corpus:
        report = run_scenario(Scenario.from_dict(data))
        assert report.passed, data["name"]
    assert len(states) == len(corpus) and subs == []

    state = max(states, key=lambda s: len(s.m_idx))
    m_idx = list(state.m_idx)
    m_idx[0], m_idx[1] = m_idx[1], m_idx[0]
    replaying.append(state)
    broken = verify_transport(state._replace(m_idx=tuple(m_idx)))
    replaying.pop()
    j = state.operator
    want = [j.apply(state.a.vector(n)) - state.b.vector(m) for n, m in zip(state.n_idx, m_idx)]
    assert len(subs) == 2 and "exact-matching" in [c.name for c in oracles.failures(broken)]
    assert broken.residuals == want and sum(not r.is_zero() for r in want) == 2


class TestSlowPaths:
    """The separator and the forward scan against their Fraction slow paths
    (`oracles.separating_functional`, `oracles.first_below`) on families the
    corpus does not reach: its A-side projections are unit vectors, so no
    pivot there is negative or other than 1."""

    @staticmethod
    def seminorm(rng, active):
        weights = {i: frac(rng.randint(1, 7), rng.choice([1, 2, 3, 5])) for i in active}
        return SeminormSpec(rng.choice(["sup", "l1"]), weights)

    @staticmethod
    def dense(rng, coords):
        return SparseVector({i: frac(rng.choice([-6, -3, -2, -1, 1, 2, 4, 5]), rng.choice([1, 2, 3, 7]))
                             for i in coords if rng.random() < 0.8})

    def separator_cases(self, rng):
        """(p, constraints, u): dense constraints on active(p) = 1..n, some
        with coordinates outside it, a repeated or combined one now and then,
        and a u that is dense, a constraint, a combination of two plus a
        kernel vector, or zero on active(p)."""
        for _ in range(120):
            n = rng.randint(1, 7)
            p = self.seminorm(rng, range(1, n + 1))
            cons = [self.dense(rng, range(1, n + 3)) for _ in range(rng.randint(0, n))]
            if len(cons) >= 2 and rng.random() < 0.3:
                cons.append(cons[0] - cons[1].scale(frac(-3, 2)))
            roll = rng.random()
            if roll < 0.6 or len(cons) < 2:
                u = self.dense(rng, range(1, n + 3))
            elif roll < 0.8:
                u = rng.choice(cons)
            elif roll < 0.9:
                u = cons[0].scale(frac(2, 3)) + cons[1] + SparseVector({n + 1: frac(5)})
            else:
                u = SparseVector({n + 2: frac(-1, 3)})
            yield p, cons, u

    def test_the_separator_is_the_fraction_separator(self):
        """`Separator.of`, and a separator grown by `add`, give the slow
        path's functional, entries and entry order included, or its
        NoSeparation, over pivots that are negative or other than 1, and
        both keep integer rows only."""
        from orbitlab.errors import NoSeparation

        rng = random.Random(40)
        seen = set()
        for p, cons, u in self.separator_cases(rng):
            grown = Separator(p)
            for x in cons:
                grown.add(x)
            sep = Separator.of(p, cons)
            leads = [row[pc] for pc, row in sep._reducer.ints.items()]
            seen.update({"negative pivot": any(a < 0 for a in leads),
                         "wide pivot": any(abs(a) > 1 for a in leads)}.items())
            try:
                want = oracles.separating_functional(p, cons, u)
            except NoSeparation as exc:
                for s in (sep, grown):
                    with pytest.raises(NoSeparation) as got:
                        s.functional(u)
                    assert str(got.value) == str(exc)
                seen.add(("NoSeparation", True))
                continue
            for s in (sep, grown):
                f = s.functional(u)
                assert list(f.entries.items()) == list(want.entries.items()), (p.kind, cons, u)
                assert all(type(v) is Fraction for v in f.entries.values())
                # the separator keeps and reads integer rows only
                assert all(type(v) is int for row in s._reducer.ints.values()
                           for v in row.values())
            seen.add((p.kind, True))
        assert {("negative pivot", True), ("wide pivot", True), ("NoSeparation", True),
                ("sup", True), ("l1", True)} <= seen

    def forward_cases(self, rng):
        """(state, u, pool, eps) for one forward step: a separator over dense
        constraints, a T of one or two terms, and a pool of perturbed
        targets.  Weight disks have non-unit weights; one case in six has a
        generator disk instead.  A pool element may carry coordinate 9, which
        no weight covers (so it is gauged in full, and raises NotInSpan
        unless the target carries the same entry there), and eps may put the
        bound exactly at a candidate's gauge."""
        for _ in range(120):
            n = rng.randint(2, 5)
            p = self.seminorm(rng, range(1, n + 1))
            cons = [self.dense(rng, range(1, n + 1)) for _ in range(rng.randint(0, n - 1))]
            u = self.dense(rng, range(1, n + 3))
            if rng.random() < 0.3:
                u = u + SparseVector({9: frac(1, 2)})
            weights = {i: frac(rng.randint(1, 9), rng.choice([1, 4, 3])) for i in range(1, 8)}
            disk = DiskSpec(weights=weights)
            if rng.random() < 1 / 6:
                disk = DiskSpec.from_generators(
                    [SparseVector.basis(i).scale(w) for i, w in weights.items()]
                    + [SparseVector({1: frac(1), 2: frac(-1, 2)})])
            terms = tuple((CoordFunctional(self.dense(rng, range(1, n + 1)).entries),
                           self.dense(rng, range(1, 8)).scale(frac(1, 16)))
                          for _ in range(rng.randint(0, 2)))
            t = FiniteRankOperator(BASE_ZERO, terms)
            state = TransportState(Enumeration(()), Enumeration(()), p, disk, (),
                                   terms=t)
            target = u + oracles.apply_terms(t, u)
            pool = []
            for _ in range(rng.randint(1, 6)):
                r = target + self.dense(rng, range(1, 8)).scale(frac(1, rng.choice([1, 8, 64])))
                if rng.random() < 0.15:
                    r = r + SparseVector({9: frac(rng.choice([1, 3]), 4)})
                pool.append(r)
            eps = frac(1, rng.choice([2, 8, 32, 256]))
            yield state, cons, u, pool, eps

    @staticmethod
    def slow_forward(state, cons, u, pool, eps):
        """The forward step by its slow paths: f, the bound, the first pool
        position below it, else the closest element by full gauges."""
        from orbitlab.seminorms import minkowski

        f = oracles.separating_functional(state.p, cons, u)
        target = u + oracles.apply_terms(state.terms, u)
        f_u = f.pair(u)
        bound = eps * abs(f_u)
        pos = oracles.first_below(state.disk, pool, target, bound)
        if pos is not None:
            return f, (pool[pos] - target).scale(1 / f_u), pos
        gauges = [minkowski(state.disk, r - target) for r in pool]
        best = min(gauges)
        return "NoApproximant", best, gauges.index(best)

    def test_the_forward_step_is_the_fraction_scan(self):
        """`step_forward` accepts the pool position the slow scan accepts,
        with the same f and v, or raises the same NoApproximant (best and
        best_index) or NotInSpan, over both seminorm kinds, weight and
        generator disks, unweighted pool coordinates and bounds equal to a
        candidate's gauge."""
        from orbitlab.errors import NoSeparation, NotInSpan
        from orbitlab.seminorms import minkowski

        rng = random.Random(41)
        seen = set()
        for state, cons, u, pool, eps in self.forward_cases(rng):
            if rng.random() < 0.4:
                # the bound at the gauge of a candidate, which the strict test refuses
                try:
                    f = oracles.separating_functional(state.p, cons, u)
                    target = u + oracles.apply_terms(state.terms, u)
                    gauge = minkowski(state.disk, rng.choice(pool) - target)
                except (NoSeparation, NotInSpan):
                    gauge = None
                if gauge:
                    eps = gauge / abs(f.pair(u))
                    seen.add("tie")
            try:
                want = self.slow_forward(state, cons, u, pool, eps)
            except (NoSeparation, NotInSpan) as exc:
                with pytest.raises(type(exc)) as got:
                    step_forward(state, u, Separator.of(state.p, cons), pool, eps)
                assert str(got.value) == str(exc)
                seen.add(type(exc).__name__)
                continue
            sep = Separator.of(state.p, cons)
            if want[0] == "NoApproximant":
                with pytest.raises(NoApproximant) as got:
                    step_forward(state, u, sep, pool, eps)
                assert (got.value.best, got.value.best_index) == want[1:]
                seen.add("NoApproximant")
                continue
            f, v, pos = step_forward(state, u, sep, pool, eps)
            assert list(f.entries.items()) == list(want[0].entries.items())
            assert (v, pos) == want[1:]
            assert list(v.entries) == list(want[1].entries)
            seen.add(("kept", state.p.kind, state.disk.weights is None, pos > 0))
        assert {"tie", "NoApproximant", "NotInSpan", ("kept", "sup", False, True),
                ("kept", "l1", False, True), ("kept", "sup", True, False)} <= seen, seen
