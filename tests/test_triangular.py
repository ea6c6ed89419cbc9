"""Interleaved triangularization and the shuffled-basis operator."""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from orbitlab import CoordFunctional, SparseVector, linalg, vectors
from orbitlab.errors import Exhausted, LinearlyDependent
from orbitlab.scalars import integer_row
from orbitlab.triangular import (
    TriangularizeState,
    _solution,
    build_omega_operator,
    interleave_triangularize,
    shuffled_matrix,
)
from orbitlab.vectors import _dot

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
    own = [integer_row(x.entries) for x in forced[: n + 1]]
    other = [integer_row(x.entries) for x in list(chosen) + list(candidates)]
    fs, us = (own, other) if side == 0 else (other, own)
    elim = linalg.Bareiss([[_dot(f, u) for u, _ in us] for f, _ in fs])
    for j in range(n):
        elim.pick(j, j)
    pos = elim.in_row(n) if side == 0 else elim.in_column(n)
    if pos is None:
        raise Exhausted("every candidate makes the next leading minor zero")
    r, c = (n, pos) if side == 0 else (pos, n)
    column = elim.pick(r, c)
    dens = [(f[1], u[1]) for f, u in zip(fs[:n] + [fs[r]], us[:n] + [us[c]])]
    det = _solution(elim, dens, column, (), n + 1)[2]
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
            reducer.try_add(integer_row(v.entries)[0])
        assert reducer.try_add(integer_row(us[m - 1].entries)[0])  # not in the smaller span
        reducer2 = linalg.RowReducer()
        for v in state.v[:m]:
            reducer2.try_add(integer_row(v.entries)[0])
        assert not reducer2.try_add(integer_row(us[m - 1].entries)[0])  # inside the larger


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
                reducer.try_add(integer_row(v.entries)[0])
            for j in range(n):
                image = op.apply(SparseVector.basis(state.alpha[j]))
                assert not reducer.try_add(integer_row(image.entries)[0])

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
                (rf, fden), (ru, uden) = integer_row(f.entries), integer_row(u.entries)
                for got in (_dot(rf, ru), _dot(ru, rf)):
                    assert type(got) is int and Fraction(got, fden * uden) == f.pair(u)

    @pytest.mark.parametrize("kind, window, stages, funcs, dependent", [
        ("dense", 8, 3, "deltas", False), ("sparse", 8, 3, "deltas", False),
        ("wide", 6, 2, "deltas", False), ("dense", 6, 2, "general", False),
        ("wide", 6, 2, "general", False), ("dense", 8, 3, "missing", False),
        ("sparse", 8, 3, "missing", False), ("dense", 8, 3, "repeated", False),
        ("wide", 6, 2, "scaled", False), ("dense", 8, 3, "scaled", False),
        ("dense", 8, 3, "deltas", True), ("sparse", 8, 3, "missing", True),
        ("wide", 6, 2, "general", True)])
    def test_exact_triangularization_matches_the_determinant_oracle(
            self, kind, window, stages, funcs, dependent):
        """Each v_m has the oracle's entries in ascending coordinate order,
        whether its coordinates are read off unit functionals or off unit
        rows of their own; a dependent basis raises LinearlyDependent."""
        rng = random.Random(227)
        for _ in range(3):
            while True:
                basis = [SparseVector(e) for e in rational_family(rng, window, window, kind)]
                if linalg.independent(integer_row(u.entries)[0] for u in basis):
                    break
            fs = functional_family(rng, funcs, window, kind)
            if dependent:
                j, k, l = rng.sample(range(window), 3)
                basis[j] = basis[k].scale(Fraction(rng.randint(1, 3), 2)) - basis[l]
                with pytest.raises(LinearlyDependent):
                    interleave_triangularize(basis, fs, stages)
                continue
            alpha, beta, coeffs, v, minors = oracles.triangularize(basis, fs, stages)
            state = interleave_triangularize(basis, fs, stages)
            assert (state.alpha, state.beta) == (alpha, beta)
            assert all(same(a, b) for got, exp in zip(state.coeffs, coeffs)
                       for a, b in zip(got, exp))
            assert [len(c) for c in state.coeffs] == [len(c) for c in coeffs]
            assert all(same(a, b) for a, b in zip(state.minors, minors))
            assert len(state.v) == len(v)
            assert all(same_entries(list(x.entries.items()), sorted(y)) for x, y in zip(state.v, v))


def functional_family(rng, family, window, kind):
    """window + 2 seeded functionals on a basis of `window` coordinates:
    'deltas' δ_1..δ_{w+2}; 'general' rational ones; 'missing' unit ones in
    shuffled order that leave one basis coordinate unread, then three that
    read none; 'repeated' the
    deltas and a second δ_i; 'scaled' the deltas with δ_i made {i: 2} and
    δ_j made {j: 1/2}, so coordinate i is read by a unit row of its own."""
    if family == "general":
        return [CoordFunctional(e) for e in rational_family(rng, window + 2, window, kind)]
    if family == "missing":
        gap = rng.randint(1, window)
        fs = [CoordFunctional.delta(i) for i in range(1, window + 1) if i != gap]
        rng.shuffle(fs)
        return fs + [CoordFunctional.delta(i) for i in range(window + 1, window + 4)]
    fs = deltas(window + 2)
    if family == "repeated":
        fs[-1] = CoordFunctional.delta(rng.randint(1, window))
    elif family == "scaled":
        i, j = rng.sample(range(1, window + 1), 2)
        fs[i - 1] = CoordFunctional({i: Fraction(2)})
        fs[j - 1] = CoordFunctional({j: Fraction(1, 2)})
    return fs


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
                if linalg.independent(integer_row(u.entries)[0] for u in basis):
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
            scaled += any(integer_row(state.funcs[i - 1].entries)[1] > 1 for i in state.alpha)
            runs += 1
    assert runs > 20 and rejected > 3 and scaled == runs


def dense_basis_16():
    """The seeded dense 16 x 16 basis of the 16 x 7 triangularization tests."""
    rng = random.Random(233)
    while True:
        basis = [SparseVector(e) for e in rational_family(rng, 16, 16, "dense")]
        if linalg.independent(integer_row(u.entries)[0] for u in basis):
            return basis


def test_one_pass_triangularizes_and_only_solution_back_substitutes(monkeypatch):
    """A seeded 16 x 7 triangularization runs one `Bareiss` pass, which picks,
    gives each v_m and checks the basis, with no `vectors.combine`.
    `Bareiss.back` is called only from `_solution`, once per prefix length
    m = 1..2s.  Counts only, no times."""
    calls = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapped)

    spy(linalg.Bareiss, "__init__")
    spy(linalg.Bareiss, "back")
    spy(vectors, "combine")
    interleave_triangularize(dense_basis_16(), deltas(18), 7)
    assert calls == {("__init__", "interleave_triangularize"): 1, ("back", "_solution"): 14}


class TestBasisCheckFallback:
    """The finished pass is the basis check: with a unit row for each basis
    coordinate that no unit functional reads, its row space is that of the
    basis, so it proves the basis independent exactly at full column rank,
    and a dependent basis raises LinearlyDependent before Exhausted."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The number of rows of each `Bareiss` pass."""
        sizes = []
        original = linalg.Bareiss.__init__

        def wrapped(self, matrix):
            sizes.append(len(matrix))
            original(self, matrix)
        monkeypatch.setattr(linalg.Bareiss, "__init__", wrapped)
        return sizes

    def test_unseen_coordinate_falls_back_and_matches_the_oracle(self, passes):
        """No functional sees coordinate 6 of an independent basis, so a unit
        row e_6 joins the 7 functionals: the pass has full rank and reads
        coordinate 6 of each v_m off that row."""
        basis = random_invertible_basis(random.Random(79), 6)
        funcs = deltas(5) + [CoordFunctional.delta(7), CoordFunctional.delta(8)]
        state = interleave_triangularize(basis, funcs, 2)
        assert passes == [8]
        alpha, beta, coeffs, v, minors = oracles.triangularize(basis, funcs, 2)
        assert (state.alpha, state.beta, state.coeffs, state.minors) == (alpha, beta, coeffs, minors)
        assert [list(x.entries.items()) for x in state.v] == [sorted(y) for y in v]
        assert any(x.get(6) for x in state.v)
        check_state_invariants(state)

    def test_dependent_basis_after_the_picks(self, passes):
        """The picks succeed; the pass finishes deficient on the dependence
        u_4 = u_1 + u_2."""
        basis = [sv(1), sv(0, 1), sv(0, 0, 1), sv(1, 1)]
        with pytest.raises(LinearlyDependent):
            interleave_triangularize(basis, deltas(4), 1)
        assert passes == [4]

    def test_dependent_basis_whose_picks_exhaust(self, passes):
        """u_2 = 2·u_1 leaves the vector step no pivot: LinearlyDependent, not
        Exhausted."""
        with pytest.raises(LinearlyDependent):
            interleave_triangularize([sv(1, 1), sv(2, 2), sv(0, 0, 1)], deltas(5), 1)
        assert passes == [5]

    def test_independent_basis_whose_picks_exhaust(self, passes):
        """Every functional is delta_1, so only the unit row e_2 is non-zero at
        u_2 once delta_1 is picked: the vector step has no pivot, the basis
        is independent, and the run is Exhausted."""
        funcs = [CoordFunctional.delta(1)] * 4
        with pytest.raises(Exhausted, match="next leading minor zero"):
            interleave_triangularize([sv(1), sv(0, 1)], funcs, 1)
        assert passes == [5]


def test_exact_triangularization_does_no_fraction_arithmetic(monkeypatch):
    """A seeded 16 x 7 exact triangularization: no Fraction sum, difference or
    product is formed in linalg (the pass that picks, gives each v_m and
    checks the basis), in scalars, in triangular or in `vectors.combine`;
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
