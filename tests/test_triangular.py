"""Interleaved triangularization and the shuffled-basis operator."""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import CoordFunctional, SparseVector, linalg
from orbitlab.errors import Exhausted, LinearlyDependent
from orbitlab.scalars import EXACT
from orbitlab.triangular import (
    TriangularizeState,
    _Row,
    _scaled,
    _solution,
    build_omega_operator,
    interleave_triangularize,
    shuffled_matrix,
)
from orbitlab.vectors import _dot, combine

import oracles


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def deltas(n):
    return [CoordFunctional.delta(i) for i in range(1, n + 1)]


def pairing(funcs, vectors):
    return [[f.pair(x) for x in vectors] for f in funcs]


def greedy_pick(side, forced, chosen, candidates):
    """One greedy scan of the triangularizing pass: over the pairings of the
    forced items against the chosen items and the candidates, pivot on
    forced[j] against chosen[j] for each j < n = len(chosen), then take the
    first candidate with a non-zero entry against forced[n], as
    `interleave_triangularize` does.  The pick and the determinant of the
    extended minor, as `_solution` reads it off the pass's last pivot;
    Exhausted, as `interleave_triangularize` raises it, when every entry is zero."""
    n = len(chosen)
    own = [_scaled(x, EXACT) for x in forced[: n + 1]]
    other = [_scaled(x, EXACT) for x in list(chosen) + list(candidates)]
    fs, us = (own, other) if side == 0 else (other, own)
    elim = linalg.Bareiss([[_dot(f.row, u.row) for u in us] for f in fs])
    for j in range(n):
        elim.pick(j, j)
    pos = elim.in_row(n) if side == 0 else elim.in_column(n)
    if pos is None:
        raise Exhausted("every candidate makes the next leading minor zero")
    r, c = (n, pos) if side == 0 else (pos, n)
    elim.pick(r, c)
    det = _solution(elim, fs[:n] + [fs[r]], us[:n] + [us[c]], n + 1)[2]
    return candidates[pos - n], det


class TestGreedyExtendVector:
    """Side 0: a forced functional scans vectors."""

    def test_base_case_scans_for_nonzero(self):
        x, det = greedy_pick(
            0, [CoordFunctional.delta(1)], [], [SparseVector.basis(2), SparseVector.basis(1)]
        )
        assert x == SparseVector.basis(1)
        assert det == 1

    def test_extends_to_invertible_two_by_two(self):
        funcs = deltas(2)
        x, det = greedy_pick(0, funcs, [SparseVector.basis(1)], [sv(1, 1), sv(2, 0)])
        assert x == sv(1, 1)
        assert det == 1
        assert oracles.determinant(pairing(funcs, [SparseVector.basis(1), x])) == det

    def test_exhausted_when_all_in_kernel(self):
        with pytest.raises(Exhausted):
            greedy_pick(
                0, deltas(2), [SparseVector.basis(1)], [SparseVector.basis(1), sv(3)]
            )

    def test_determinant_recurrence_matches_direct_eval(self):
        rng = random.Random(51)
        for _ in range(25):
            n = rng.randint(1, 4)
            funcs = [
                CoordFunctional({i: Fraction(rng.randint(-3, 3)) for i in range(1, n + 3)})
                for _ in range(n + 1)
            ]
            chosen = []
            for m in range(n):
                cands = [
                    SparseVector({i: Fraction(rng.randint(-3, 3)) for i in range(1, n + 3)})
                    for _ in range(6)
                ]
                try:
                    x, det = greedy_pick(0, funcs[: m + 1], chosen, cands)
                except Exhausted:
                    break
                chosen.append(x)
                assert oracles.determinant(pairing(funcs[: m + 1], chosen)) == det


class TestGreedyExtendFunctional:
    """Side 1: a forced vector scans functionals."""

    def test_base_case(self):
        f, det = greedy_pick(
            1, [SparseVector.basis(2)], [], [CoordFunctional.delta(1), CoordFunctional.delta(2)]
        )
        assert f == CoordFunctional.delta(2)
        assert det == 1

    def test_two_by_two(self):
        f, det = greedy_pick(
            1,
            [SparseVector.basis(1), sv(1, 1)],
            [CoordFunctional.delta(1)],
            [CoordFunctional.delta(1), CoordFunctional.delta(2)],
        )
        assert f == CoordFunctional.delta(2)
        assert det == 1

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            greedy_pick(
                1,
                [SparseVector.basis(1), SparseVector.basis(2)],
                [CoordFunctional.delta(1)],
                [CoordFunctional.delta(1), CoordFunctional.delta(3)],
            )


def check_state_invariants(state: TriangularizeState):
    """Replays every posted invariant from raw data."""
    n = state.built
    assert len(set(state.alpha)) == n
    assert len(set(state.beta)) == n
    # leading minors all invertible, matching the incremental determinants
    fs = [state.funcs[a - 1] for a in state.alpha]
    us = [state.basis[b - 1] for b in state.beta]
    for m in range(1, n + 1):
        direct = oracles.determinant(pairing(fs[:m], us[:m]))
        assert direct != 0
        assert direct == state.minors[m - 1]
    # greedy minimality: odd picks force alpha and scan the basis, even picks
    # force beta and scan the functionals; every unused index below a scanned
    # pick gives a singular leading minor, the pick itself a non-zero one
    for m in range(1, n + 1):
        scanned = state.beta if m % 2 else state.alpha
        for i in range(1, scanned[m - 1] + 1):
            if i in scanned[: m - 1]:
                continue
            if m % 2:
                minor = pairing(fs[:m], us[: m - 1] + [state.basis[i - 1]])
            else:
                minor = pairing(fs[: m - 1] + [state.funcs[i - 1]], us[:m])
            assert (oracles.determinant(minor) != 0) == (i == scanned[m - 1])
    # coverage at every stage: {1..m} inside both prefixes of length 2m
    for m in range(1, n // 2 + 1):
        assert set(range(1, m + 1)) <= set(state.alpha[: 2 * m])
        assert set(range(1, m + 1)) <= set(state.beta[: 2 * m])
    # biorthogonal triangularity of the combined vectors
    for m, v in enumerate(state.v, start=1):
        assert state.coeffs[m - 1][m - 1] != 0
        for j in range(1, n + 1):
            expected = Fraction(int(j == m))
            if j <= m:
                assert fs[j - 1].pair(v) == expected
    # span property: u_beta(n) in span(v_1..v_n) \ span(v_1..v_{n-1})
    for m in range(1, n + 1):
        reducer = linalg.RowReducer()
        for v in state.v[: m - 1]:
            reducer.try_add(dict(v.entries))
        assert reducer.try_add(dict(us[m - 1].entries))  # not in the smaller span
        reducer2 = linalg.RowReducer()
        for v in state.v[:m]:
            reducer2.try_add(dict(v.entries))
        assert not reducer2.try_add(dict(us[m - 1].entries))  # inside the larger


class TestInterleave:
    def test_already_biorthogonal_basis(self):
        basis = [SparseVector.basis(i) for i in range(1, 9)]
        state = interleave_triangularize(basis, deltas(10), stages=3)
        assert state.alpha == (1, 2, 3, 4, 5, 6)
        assert state.beta == (1, 2, 3, 4, 5, 6)
        for m, v in enumerate(state.v, start=1):
            assert v == SparseVector.basis(m)
        check_state_invariants(state)

    def test_swapped_basis_single_stage(self):
        state = interleave_triangularize(
            [SparseVector.basis(2), SparseVector.basis(1)], deltas(4), stages=1
        )
        # alpha_1 = 1 is forced; the scan finds u_1 = e_2 useless for delta_1,
        # so beta_1 = 2 picks e_1; then beta_2 = 1 and the functional scan runs.
        assert state.alpha[0] == 1
        assert state.beta == (2, 1)
        check_state_invariants(state)

    def test_mixing_basis_two_stages(self):
        basis = [sv(1), sv(1, 1), sv(0, 0, 1), sv(1, 1, 1, 1)]
        state = interleave_triangularize(basis, deltas(6), stages=2)
        check_state_invariants(state)

    def test_window_margin_enforced(self):
        basis = [SparseVector.basis(i) for i in range(1, 3)]
        with pytest.raises(Exhausted):
            interleave_triangularize(basis, deltas(4), stages=2)

    def test_zero_stages_build_an_empty_prefix(self):
        state = interleave_triangularize([sv(1), sv(0, 1)], deltas(2), stages=0)
        assert (state.alpha, state.beta, state.coeffs, state.v, state.minors) == ((),) * 5

    def test_dependent_basis_rejected(self):
        basis = [sv(1), sv(2)]
        with pytest.raises(LinearlyDependent):
            interleave_triangularize(basis, deltas(4), stages=1)

    def test_random_rational_bases(self):
        rng = random.Random(61)
        for _ in range(5):
            n = 8
            basis = random_invertible_basis(rng, n)
            state = interleave_triangularize(basis, deltas(n + 2), stages=3)
            check_state_invariants(state)


def random_invertible_basis(rng, n):
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
            for _ in range(n)
        ]
        if oracles.determinant(rows) != 0:
            return [
                SparseVector({j + 1: v for j, v in enumerate(row) if v != 0})
                for row in rows
            ]


class TestOmegaOperator:
    def test_identity_case(self):
        basis = [SparseVector.basis(i) for i in range(1, 7)]
        state = interleave_triangularize(basis, deltas(8), stages=2)
        op = build_omega_operator(state)
        for m in range(1, 5):
            assert op.apply(SparseVector.basis(state.alpha[m - 1])) == state.v[m - 1]
        assert shuffled_matrix(state) == oracles.identity_matrix(4)

    def test_elementary_below_diagonal_entry(self):
        # basis (e1+e2, e2, e3, e4) keeps alpha = id and produces the matrix
        # with a single below-diagonal 1
        basis = [sv(1, 1), sv(0, 1), sv(0, 0, 1), sv(0, 0, 0, 1)]
        state = interleave_triangularize(basis, deltas(6), stages=2)
        assert state.alpha == (1, 2, 3, 4)
        assert state.v[0] == sv(1, 1)
        assert state.v[1] == sv(0, 1)
        m = shuffled_matrix(state)
        assert m[1][0] == 1
        assert all(m[j][j] == 1 for j in range(4))
        assert all(m[j][t] == 0 for j in range(4) for t in range(j + 1, 4))

    def test_unit_lower_triangular_in_shuffled_basis(self):
        rng = random.Random(67)
        basis = random_invertible_basis(rng, 8)
        state = interleave_triangularize(basis, deltas(10), stages=4)
        m = shuffled_matrix(state)
        for j in range(8):
            assert m[j][j] == 1
            for t in range(j + 1, 8):
                assert m[j][t] == 0

    def test_forward_solve_reconstructs_span_vectors(self):
        rng = random.Random(71)
        basis = random_invertible_basis(rng, 8)
        state = interleave_triangularize(basis, deltas(10), stages=4)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in state.v]
            y = SparseVector.zero()
            for c, v in zip(coeffs, state.v):
                y = y + v.scale(c)
            rhs = [y.get(a) for a in state.alpha]
            assert oracles.forward_solve(shuffled_matrix(state), rhs) == coeffs

    def test_maps_shuffled_prefix_onto_v_span(self):
        rng = random.Random(73)
        basis = random_invertible_basis(rng, 6)
        state = interleave_triangularize(basis, deltas(8), stages=3)
        op = build_omega_operator(state)
        for n in range(1, 7):
            reducer = linalg.RowReducer()
            for v in state.v[:n]:
                reducer.try_add(dict(v.entries))
            for j in range(n):
                image = op.apply(SparseVector.basis(state.alpha[j]))
                assert not reducer.try_add(dict(image.entries))

    def test_requires_coordinate_functionals(self):
        basis = [SparseVector.basis(1), SparseVector.basis(2)]
        funcs = [CoordFunctional({1: Fraction(2)}), CoordFunctional.delta(2),
                 CoordFunctional.delta(3), CoordFunctional.delta(4)]
        state = interleave_triangularize(basis, funcs, stages=1)
        with pytest.raises(ValueError):
            build_omega_operator(state)


def same(a, b):
    """Bit-equal: the same type and the same repr."""
    return type(a) is type(b) and repr(a) == repr(b)


def same_entries(got, want):
    """Entry lists equal in order, type and repr."""
    return len(got) == len(want) and all(
        i == j and same(a, b) for (i, a), (j, b) in zip(got, want))


def rational_family(rng, n, width, kind):
    """n seeded items of `width` coordinates: 'dense' small denominators,
    'sparse' mostly absent entries (int-0 pairings), 'wide' denominators of
    2^-40 mixed with small ones."""
    big = 2 ** 40

    def entry(i):
        if kind == "sparse" and rng.random() < 0.6:
            return 0
        if kind == "wide" and i % 2:
            return Fraction(rng.randint(-big, big), big)
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))

    return [{i: entry(i) for i in range(1, width + 1)} for _ in range(n)]


class TestIntegerRows:
    """Exact triangularization on integer rows against the Fraction loops of
    tests/oracles.py, bit for bit."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "wide"])
    def test_pairings_match_coord_functional_pair(self, kind):
        """A pairing of integer rows is an int, den·den times the items'."""
        rng = random.Random(211)
        fs = [CoordFunctional(e) for e in rational_family(rng, 6, 7, kind)]
        us = [SparseVector(e) for e in rational_family(rng, 6, 7, kind)]
        # disjoint supports pair to 0, cancelling ones too
        fs += [CoordFunctional({9: Fraction(1, 3)}), CoordFunctional({1: Fraction(1), 2: Fraction(1)})]
        us += [SparseVector({1: Fraction(2), 2: Fraction(-2)})]
        for f in fs:
            for u in us:
                rf, ru = _scaled(f, EXACT), _scaled(u, EXACT)
                for got in (_dot(rf.row, ru.row), _dot(ru.row, rf.row)):
                    assert type(got) is int and Fraction(got, rf.den * ru.den) == f.pair(u)

    @pytest.mark.parametrize("kind", ["dense", "sparse", "wide"])
    def test_combinations_match_the_plain_loop_in_order(self, kind):
        """start + sum c·row on integer rows gives the entries of the plain
        loop, in its order."""
        rng = random.Random(223)
        for _ in range(20):
            rows = [_scaled(SparseVector(e), EXACT) for e in rational_family(rng, 5, 6, kind)]
            us = [SparseVector(r.row) for r in rows]
            coeffs = [rng.choice([0, rng.randint(-5, 5), rng.randint(1, 2 ** 40)]) for _ in us]
            zero = _scaled(SparseVector.zero(), EXACT)
            got = list(zero.plus(coeffs, rows).row.items())
            assert got == list(oracles.combination(coeffs, us).items())
            rest = [-c for c in coeffs[1:]]
            got = list(rows[0].plus(rest, rows[1:]).row.items())
            assert got == list(oracles.combination(rest, us[1:], us[0]).items())
            assert all(type(v) is int for _, v in got)

    def test_cancelling_partial_sums_drop_and_reinsert_as_combine_does(self):
        us = [SparseVector({1: Fraction(1), 2: Fraction(2)}),
              SparseVector({1: Fraction(-1), 3: Fraction(1)}),
              SparseVector({1: Fraction(3), 2: Fraction(1)})]
        coeffs = [1, 1, 1]
        rows = [_scaled(u, EXACT) for u in us]
        got = list(_scaled(SparseVector.zero(), EXACT).plus(coeffs, rows).row.items())
        # coordinate 1 cancels after the second term and comes back last
        assert [i for i, _ in got] == [2, 3, 1] == list(oracles.combination(coeffs, us))
        assert got == list(oracles.combination(coeffs, us).items())
        assert got == list(combine(zip(coeffs, us)).entries.items())

    @pytest.mark.parametrize("kind, window, stages, general", [
        ("dense", 8, 3, False), ("sparse", 8, 3, False), ("wide", 6, 2, False),
        ("dense", 6, 2, True), ("wide", 6, 2, True)])
    def test_exact_triangularization_matches_the_determinant_oracle(
            self, kind, window, stages, general):
        rng = random.Random(227)
        for _ in range(3):
            while True:
                basis = [SparseVector(e) for e in rational_family(rng, window, window, kind)]
                if linalg.independent((u.entries for u in basis), EXACT):
                    break
            if general:
                funcs = [CoordFunctional(e)
                         for e in rational_family(rng, window + 2, window, kind)]
            else:
                funcs = deltas(window + 2)
            alpha, beta, coeffs, v, minors = oracles.triangularize(basis, funcs, stages)
            state = interleave_triangularize(basis, funcs, stages)
            assert (state.alpha, state.beta) == (alpha, beta)
            assert all(same(a, b) for got, exp in zip(state.coeffs, coeffs)
                       for a, b in zip(got, exp))
            assert [len(c) for c in state.coeffs] == [len(c) for c in coeffs]
            assert all(same(a, b) for a, b in zip(state.minors, minors))
            assert all(same_entries(list(x.entries.items()), y) for x, y in zip(state.v, v))


def rejected_candidates(state):
    """How many scans passed over a candidate: a scanned pick (beta at even
    positions, alpha at odd ones) that is not the least index unused before it."""
    count = 0
    for picks, scanned in ((state.beta, 0), (state.alpha, 1)):
        for j in range(scanned, len(picks), 2):
            first = min(set(range(1, len(picks) + 3)) - set(picks[:j]))
            count += picks[j] != first
    return count


def test_integer_factor_matches_the_oracles_beyond_the_corpus():
    """Inputs the corpus never reaches: functionals with denominators (the
    corpus borders only coordinate functionals, so D_f is the identity there),
    zero-heavy pairing matrices and scans that reject candidates.  Each minor
    is the oracle determinant of its block of the pairing matrix, and each
    coefficient vector solves A_m c = e_m."""
    rng = random.Random(239)
    rejected = scaled = runs = 0
    for kind in ("dense", "sparse", "wide"):
        for _ in range(8):
            while True:
                basis = [SparseVector(e) for e in rational_family(rng, 7, 7, kind)]
                if linalg.independent((u.entries for u in basis), EXACT):
                    break
            funcs = [CoordFunctional(e) for e in rational_family(rng, 9, 7, kind)]
            try:
                state = interleave_triangularize(basis, funcs, 3)
            except Exhausted:
                continue
            a = oracles.pairing_matrix(state)
            for m in range(1, state.built + 1):
                block = [row[:m] for row in a[:m]]
                assert state.minors[m - 1] == oracles.determinant(block)
                assert oracles.mat_vec(block, state.coeffs[m - 1]) == [int(k == m - 1) for k in range(m)]
            rejected += rejected_candidates(state)
            scaled += any(_scaled(state.funcs[i - 1], EXACT).den > 1 for i in state.alpha)
            runs += 1
    assert runs > 20 and rejected > 3 and scaled == runs


def dense_basis_16():
    """The seeded dense 16 x 16 basis of the 16 x 7 triangularization tests."""
    rng = random.Random(233)
    while True:
        basis = [SparseVector(e) for e in rational_family(rng, 16, 16, "dense")]
        if linalg.independent((u.entries for u in basis), EXACT):
            return basis


def test_one_pass_triangularizes_and_only_solution_back_substitutes(monkeypatch):
    """A seeded 16 x 7 triangularization runs one `Bareiss` pass, which picks
    and checks the basis, and borders nothing: no `Bordered.border` or
    `pivot` call, and no `dense_independent` fallback.  `Bordered.back` and
    `_Row.plus` are called only from `_solution`, once per prefix length
    m = 1..2s.  Counts only, no times."""
    calls = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapped)

    spy(linalg.Bareiss, "__init__")
    for name in ("border", "pivot", "back"):
        spy(linalg.Bordered, name)
    spy(linalg, "dense_independent")
    spy(_Row, "plus")
    interleave_triangularize(dense_basis_16(), deltas(18), 7)
    assert calls == {("__init__", "interleave_triangularize"): 1,
                     ("back", "_solution"): 14, ("plus", "_solution"): 14}


class TestBasisCheckFallback:
    """The pass proves the basis independent only at full column rank; a
    deficient pass, or a pick that finds no pivot, asks `dense_independent`,
    so a dependent basis raises LinearlyDependent before Exhausted."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        original = linalg.dense_independent

        def wrapped(rows):
            calls.append(original(rows))
            return calls[-1]
        monkeypatch.setattr(linalg, "dense_independent", wrapped)
        return calls

    def test_unseen_coordinate_falls_back_and_matches_the_oracle(self, fallbacks):
        """No functional sees coordinate 6 of an independent basis, so A' has
        rank 5 of 6 and the fallback proves the basis independent."""
        basis = random_invertible_basis(random.Random(79), 6)
        funcs = deltas(5) + [CoordFunctional.delta(7), CoordFunctional.delta(8)]
        state = interleave_triangularize(basis, funcs, 2)
        assert fallbacks == [True]
        alpha, beta, coeffs, v, minors = oracles.triangularize(basis, funcs, 2)
        assert (state.alpha, state.beta, state.coeffs, state.minors) == (alpha, beta, coeffs, minors)
        assert [list(x.entries.items()) for x in state.v] == v
        check_state_invariants(state)

    def test_dependent_basis_after_the_picks(self, fallbacks):
        """The picks succeed; the pass finishes deficient, and the fallback
        finds the dependence u_4 = u_1 + u_2."""
        basis = [sv(1), sv(0, 1), sv(0, 0, 1), sv(1, 1)]
        with pytest.raises(LinearlyDependent):
            interleave_triangularize(basis, deltas(4), 1)
        assert fallbacks == [False]

    def test_dependent_basis_whose_picks_exhaust(self, fallbacks):
        """u_2 = 2·u_1 leaves the vector step no pivot: LinearlyDependent, not
        Exhausted."""
        with pytest.raises(LinearlyDependent):
            interleave_triangularize([sv(1, 1), sv(2, 2), sv(0, 0, 1)], deltas(5), 1)
        assert fallbacks == [False]

    def test_independent_basis_whose_picks_exhaust(self, fallbacks):
        """Every functional is delta_1, so the vector step finds no pivot for
        u_2, and the basis is independent: Exhausted."""
        funcs = [CoordFunctional.delta(1)] * 4
        with pytest.raises(Exhausted, match="next leading minor zero"):
            interleave_triangularize([sv(1), sv(0, 1)], funcs, 1)
        assert fallbacks == [True]


def test_exact_triangularization_does_no_fraction_arithmetic(monkeypatch):
    """A seeded 16 x 7 exact triangularization: no Fraction sum, difference or
    product is formed in linalg (the dense basis check and the integer
    factor), in scalars or in the combinations (triangular, vectors.combine);
    minors, coefficients and the entries of v_m are each one Fraction of two
    ints."""
    basis = dense_basis_16()
    expected = interleave_triangularize(basis, deltas(18), 7)
    callers = set()

    def spy(name):
        original = getattr(Fraction, name)

        def wrapped(a, b):
            code = sys._getframe(1).f_code
            callers.add((Path(code.co_filename).name, code.co_name, name))
            return original(a, b)
        return wrapped

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, spy(name))
    state = interleave_triangularize(basis, deltas(18), 7)
    monkeypatch.undo()
    assert state == expected
    watched = {c for c in callers
               if c[0] in ("linalg.py", "scalars.py", "triangular.py") or c[:2] == ("vectors.py", "combine")}
    assert watched == set()
