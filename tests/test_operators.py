"""Finite-rank operators: application, budgets, exact inversion, conjugation."""

import random
from fractions import Fraction

import pytest

from orbitlab import (
    CoordFunctional,
    DiskSpec,
    FiniteRankOperator,
    SeminormSpec,
    SparseVector,
    conjugate_orbit,
    dual_norm,
    eval_seminorm,
    invert,
    minkowski,
    neumann_certificate,
    orbit,
)
from orbitlab.errors import BudgetExceeded, SingularOperator
from orbitlab.operators import BASE_IDENTITY, BASE_ZERO, CoordIndex, solve
from orbitlab.scalars import integer_row
from orbitlab.vectors import _clean, combine

import orbitlab.linalg as linalg
import oracles
from oracles import apply_terms, dense_gram, determinant, gram_solve


def sv(*entries):
    return SparseVector({i + 1: Fraction(v) for i, v in enumerate(entries) if v != 0})


def delta(i):
    return CoordFunctional.delta(i)


def backward_shift(window):
    """x -> (x_2, x_3, ..., x_window, 0) as a finite-rank operator."""
    terms = tuple(
        (delta(k + 1), SparseVector.basis(k)) for k in range(1, window)
    )
    return FiniteRankOperator(BASE_ZERO, terms)


class TestApply:
    def test_zero_operator(self):
        t = FiniteRankOperator.zero()
        assert t.apply(sv(5, -2)).is_zero()

    def test_identity(self):
        t = FiniteRankOperator.identity()
        x = sv(1, 2, 3)
        assert t.apply(x) == x

    def test_rank_one_update(self):
        t = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(Fraction(1, 2))),))
        assert t.apply(sv(1)) == sv(Fraction(3, 2))

    def test_matrix_on_window(self):
        t = backward_shift(3)
        assert t.matrix_on([1, 2, 3]) == [
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(0), Fraction(0)],
        ]


class TestNeumannCertificate:
    def setup_method(self):
        self.p = SeminormSpec.sup_on(range(1, 5))
        self.disk = oracles.l1_disk(range(1, 5))

    def test_zero_operator_budget(self):
        budget = neumann_certificate(FiniteRankOperator.zero(), self.p, self.disk)
        assert budget.c == 0

    def test_single_term(self):
        t = FiniteRankOperator(BASE_ZERO, ((delta(1), sv(Fraction(1, 2))),))
        budget = neumann_certificate(t, self.p, self.disk)
        assert budget.c == Fraction(1, 2)
        assert budget.per_term == ((Fraction(1), Fraction(1, 2)),)

    def test_exceeded(self):
        v = sv(Fraction(3, 4))
        t = FiniteRankOperator(BASE_ZERO, ((delta(1), v), (delta(2), v)))
        with pytest.raises(BudgetExceeded) as err:
            neumann_certificate(t, self.p, self.disk)
        assert err.value.c == Fraction(3, 2)

    @pytest.mark.parametrize("term", [
        (delta(5), sv(Fraction(1, 8))),
        (delta(1), SparseVector.basis(7).scale(Fraction(1, 8))),
    ], ids=["functional-not-p-bounded", "vector-outside-disk-span"])
    def test_unbounded_term_exceeds_the_budget(self, term):
        t = FiniteRankOperator(BASE_ZERO, ((delta(2), sv(0, Fraction(1, 4))), term))
        with pytest.raises(BudgetExceeded) as err:
            neumann_certificate(t, self.p, self.disk)
        assert err.value.c == float("inf")

    @pytest.mark.parametrize("term", [
        (CoordFunctional.delta(3), SparseVector.zero()),
        (CoordFunctional.zero(), SparseVector.basis(9)),
    ], ids=["unbounded-functional-zero-vector", "zero-functional-vector-outside-disk-span"])
    def test_term_with_a_zero_factor_adds_nothing(self, term):
        """inf * 0 would make c nan; the term is the zero map and adds 0."""
        budget = neumann_certificate(FiniteRankOperator(BASE_ZERO, (term,)),
                                     SeminormSpec.sup_on([1, 2]),
                                     DiskSpec(weights={1: 1, 2: 1, 3: 1}))
        assert budget.c == 0
        assert sorted(budget.per_term[0]) == [0, float("inf")]

    def test_continuity_bound_on_random_vectors(self):
        rng = random.Random(31)
        t = FiniteRankOperator(
            BASE_ZERO,
            (
                (delta(1), sv(0, Fraction(1, 4))),
                (delta(3), sv(Fraction(1, 8), 0, Fraction(1, 8))),
            ),
        )
        budget = neumann_certificate(t, self.p, self.disk)
        for _ in range(500):
            x = SparseVector({i: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4]))
                              for i in range(1, 5)})
            assert minkowski(self.disk, t.apply(x)) <= budget.c * eval_seminorm(self.p, x)


def random_certified_terms(rng, p, disk, n_terms):
    """T = sum f_j (.) v_j with p*(f_j) = 1 and p_D(v_j) below half the slot
    2^-(j+2), so the Neumann budget stays below one."""
    terms = []
    for j in range(n_terms):
        f = CoordFunctional({i: Fraction(rng.randint(-3, 3))
                             for i in rng.sample(range(1, 7), rng.randint(1, 3))})
        if f.is_zero():
            f = CoordFunctional.delta(rng.randint(1, 6))
        f = f.scale(Fraction(1) / dual_norm(p, f))
        v = SparseVector({i: Fraction(rng.randint(-5, 5), 8)
                          for i in rng.sample(range(1, 13), rng.randint(1, 3))})
        mass = minkowski(disk, v)
        if mass != 0:
            # scale into the epsilon slot 2^-(j+2) to keep c < 1
            v = v.scale(Fraction(1, 2 ** (j + 2)) / mass / 2)
        terms.append((f, v))
    return FiniteRankOperator(BASE_ZERO, tuple(terms))


class TestInvert:
    def test_identity_inverts_to_identity(self):
        assert invert(FiniteRankOperator.identity()).terms == ()

    def test_rank_one_sherman_morrison(self):
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(Fraction(1, 2))),))
        j_inv = invert(j)
        assert j_inv.terms[0][1] == sv(Fraction(-1, 3))
        assert j_inv.apply(sv(Fraction(3, 2))) == sv(1)

    def test_singular_detected(self):
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(-1)),))
        with pytest.raises(SingularOperator):
            invert(j)
        # f_2(v_2) = -1 makes I_2 + G singular: a pivot lands in the identity block
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(0, 1)), (delta(2), sv(0, -1))))
        with pytest.raises(SingularOperator, match="^2x2 matrix is not invertible$"):
            invert(j)

    @pytest.mark.parametrize("gap", [Fraction(1, 10 ** 14), Fraction(1, 2 ** 200)],
                             ids=["10^-14", "2^-200"])
    def test_a_nearly_singular_update_inverts_exactly(self, gap):
        """f(v) = -1 + gap leaves I + f (.) v invertible however small gap is:
        J e_1 = gap e_1, and the inverse takes it back to e_1 exactly."""
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(-1 + gap)),))
        j_inv = invert(j)
        assert j.apply(sv(1)) == sv(gap)
        assert j_inv.apply(sv(1)) == sv(1 / gap)
        for x in (sv(1), sv(0, 1), sv(Fraction(-2, 3), 0, 5)):
            assert j_inv.apply(j.apply(x)) == x and j.apply(j_inv.apply(x)) == x
        assert assert_solves(j, sv(gap)) == sv(1)

    def test_round_trip_on_random_certified_operators(self):
        rng = random.Random(37)
        p = SeminormSpec.sup_on(range(1, 7))
        disk = oracles.l1_disk(range(1, 13))
        for _ in range(200):
            t = random_certified_terms(rng, p, disk, rng.randint(1, 4))
            budget = neumann_certificate(t, p, disk)
            assert budget.c < 1
            j_op = t.plus_identity()
            j_inv = invert(j_op)
            for i in range(1, 13):
                e = SparseVector.basis(i)
                assert j_inv.apply(j_op.apply(e)) == e
                assert j_op.apply(j_inv.apply(e)) == e

    def test_kernel_fixing_outside_active(self):
        p = SeminormSpec.sup_on([1, 2, 3])
        f = CoordFunctional({1: Fraction(1, 2), 3: Fraction(1, 2)})
        j = FiniteRankOperator(BASE_IDENTITY, ((f, sv(Fraction(1, 4), Fraction(1, 4))),))
        for i in (4, 5, 9):
            e = SparseVector.basis(i)
            assert j.apply(e) == e


def sparse_rational(rng, cls, window, most):
    return cls({i: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
                for i in rng.sample(range(1, window + 1), rng.randint(1, most))})


def random_identity_plus_rank(rng, window=16):
    """I + sum f_j (.) v_j with up to 12 sparse terms over the window."""
    terms = tuple(
        (sparse_rational(rng, CoordFunctional, window, 3),
         sparse_rational(rng, SparseVector, window, 3))
        for _ in range(rng.randint(1, 12))
    )
    return FiniteRankOperator(BASE_IDENTITY, terms)


class TestSolve:
    def test_identity_returns_the_vector(self):
        u = sv(1, Fraction(2, 3))
        assert gram_solve(FiniteRankOperator.identity(), u) == u

    def test_exact_solve_inverts_apply_and_matches_invert(self):
        rng = random.Random(41)
        solved = 0
        for _ in range(150):
            j = random_identity_plus_rank(rng)
            u = sparse_rational(rng, SparseVector, 16, 6)
            try:
                j_inv = invert(j)
            except SingularOperator:
                with pytest.raises(SingularOperator):
                    gram_solve(j, u)
                continue
            w = gram_solve(j, u)
            assert j.apply(w) == u
            assert w == j_inv.apply(u)
            solved += 1
        assert solved > 100

    def test_singular_gram_raises_from_both(self):
        rng = random.Random(42)
        for _ in range(50):
            j = random_identity_plus_rank(rng)
            x = sparse_rational(rng, SparseVector, 16, 4)
            f = sparse_rational(rng, CoordFunctional, 16, 3)
            while f.pair(x) == 0:
                f = sparse_rational(rng, CoordFunctional, 16, 3)
            # the extra term sends x to J x - J x = 0, so J has a kernel
            singular = j.with_term(f, (-j.apply(x)).scale(1 / f.pair(x)))
            assert singular.apply(x).is_zero()
            with pytest.raises(SingularOperator):
                invert(singular)
            with pytest.raises(SingularOperator):
                gram_solve(singular, sparse_rational(rng, SparseVector, 16, 4))



def leading_minors_nonzero(j):
    """Oracle: every leading minor of I_k + G, by dense determinants."""
    gram = [[g + (1 if r == c else 0) for c, g in enumerate(row)]
            for r, row in enumerate(dense_gram(j.terms))]
    return all(determinant([row[:m] for row in gram[:m]]) != 0
               for m in range(1, len(gram) + 1))


def assert_solves(j, u):
    """`operators.solve(j, u)` against the oracles: the dense pivoting Gram
    solve, the inverse that `invert` builds, and J w = u; it returns w."""
    w = solve(j, u)
    assert w == gram_solve(j, u)
    assert w == invert(j).apply(u)
    assert j.apply(w) == u
    return w


def assert_refuses(j, u):
    """A singular J: `operators.solve` raises, as the oracles do, unless u
    meets no f_i, a vector J fixes, which it returns as it is."""
    if any(set(f.entries) & set(u.entries) for f, _ in j.terms):
        with pytest.raises(SingularOperator):
            gram_solve(j, u)
        with pytest.raises(SingularOperator):
            solve(j, u)
    else:
        assert solve(j, u) is u and j.apply(u) == u


class TestGramSolve:
    """`operators.solve`, the backward step's J^{-1} u, by one pivoting
    solve of the scaled Gram system that `invert` shares."""

    def test_empty_operator_returns_the_vector(self):
        u = sv(1, Fraction(2, 3))
        assert solve(FiniteRankOperator.identity(), u) is u
        with pytest.raises(ValueError):
            solve(FiniteRankOperator.zero(), u)

    def test_solve_matches_pivoting_solve_and_invert(self):
        """Only a truly singular J is refused; J's whose Gram system has a
        zero leading minor solve by pivoting."""
        rng = random.Random(44)
        solved = refused = past_zero_minor = 0
        for _ in range(150):
            j = random_identity_plus_rank(rng)
            u = sparse_rational(rng, SparseVector, 16, 6)
            try:
                invert(j)
            except SingularOperator:
                assert_refuses(j, u)
                refused += 1
                continue
            assert_solves(j, u)
            past_zero_minor += not leading_minors_nonzero(j)
            solved += 1
        assert solved > 100 and refused > 0 and past_zero_minor > 0

    def test_solve_matches_the_oracles_on_overlapping_supports(self):
        """Overlapping supports (G != 0, which the corpus never builds) with
        denominators on both sides: each solve is the oracle's pivoting
        Gram solve, and a singular J raises. u comes from `rng` only when
        every leading minor is non-zero, and from `extra` otherwise, so the
        J's are the seed-46 draws with or without zero leading minors."""
        rng, extra = random.Random(46), random.Random(47)
        solved = singular = past_zero_minor = 0
        for _ in range(120):
            j = random_identity_plus_rank(rng, window=rng.choice([5, 8]))
            assert any(g for row in dense_gram(j.terms) for g in row) or len(j.terms) == 1
            u = sparse_rational(rng if leading_minors_nonzero(j) else extra,
                                SparseVector, 8, 4)
            try:
                invert(j)
            except SingularOperator:
                assert_refuses(j, u)
                singular += 1
                continue
            assert_solves(j, u)
            past_zero_minor += not leading_minors_nonzero(j)
            solved += 1
        assert (solved, singular, past_zero_minor) == (119, 1, 6)

    def test_an_invertible_j_with_a_zero_leading_minor_solves(self):
        # I + G = [[0, 1], [1, 1]]: invertible, but its leading 1 x 1 minor is 0
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(-1, 1)), (delta(2), sv(1))))
        assert not leading_minors_nonzero(j)
        assert assert_solves(j, sv(3, 5)) == sv(2, 3)

    def test_a_singular_j_raises_on_solve(self):
        # I + G = [[3/2, 0], [0, 0]]: singular, whether or not the system
        # [I + G | f(u)] is consistent
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), sv(Fraction(1, 2))),
                                               (delta(2), sv(0, -1))))
        for u in (sv(1, 1), sv(1)):
            with pytest.raises(SingularOperator, match="^2x2 Gram system is singular$"):
                solve(j, u)


INDEX_WINDOW = 12


def index_families(rng):
    """(name, terms) families that stress the coordinate index differently."""
    def rational(cls, coords):
        return cls({i: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3, 4]))
                    for i in coords})

    window = range(1, INDEX_WINDOW + 1)
    dense = [(rational(CoordFunctional, window),
              rational(SparseVector, rng.sample(window, 3))) for _ in range(5)]
    disjoint = [(rational(CoordFunctional, (2 * j + 1, 2 * j + 2)),
                 rational(SparseVector, (2 * j + 1, 2 * j + 2))) for j in range(5)]
    # every functional touches coordinate 1, and one term appears twice
    repeated = [(rational(CoordFunctional, {1, *rng.sample(window, 2)}),
                 rational(SparseVector, rng.sample(window, 2))) for _ in range(5)]
    repeated.insert(3, repeated[1])
    sparse = [(rational(CoordFunctional, rng.sample(window, rng.randint(1, 3))),
               rational(SparseVector, rng.sample(window, rng.randint(1, 3))))
              for _ in range(8)]
    return [("dense", dense), ("disjoint", disjoint), ("repeated", repeated),
            ("sparse", sparse)]


def index_probes(rng):
    """x spread over the window, a dense x, x outside every support, the empty x."""
    window = range(1, INDEX_WINDOW + 1)
    xs = [sparse_rational(rng, SparseVector, INDEX_WINDOW, 4) for _ in range(4)]
    xs.append(SparseVector({i: Fraction(rng.randint(1, 9), 7) for i in window}))
    xs.append(SparseVector({INDEX_WINDOW + 3: Fraction(5, 2)}))
    xs.append(SparseVector.zero())
    return xs


def bits(x):
    """A vector's entries, equal for two vectors only if they are bit-equal."""
    return [(i, type(v), repr(v)) for i, v in x.pairs()]


def scalar_bits(values):
    return [(type(v), repr(v)) for v in values]


class TestCoordIndex:
    """The indexed pairings against the plain term loop, bit for bit."""

    def cases(self, seed):
        rng = random.Random(seed)
        for name, terms in index_families(rng):
            yield name, terms, index_probes(rng)

    def test_apply_matches_the_term_loop(self):
        for seed in range(6):
            for name, terms, xs in self.cases(seed):
                for base in (BASE_IDENTITY, BASE_ZERO):
                    op = FiniteRankOperator(base, terms)
                    for x in xs:
                        assert bits(op.apply(x)) == bits(apply_terms(op, x)), (name, base, x)

    def test_empty_operator_and_shared_index(self):
        for name, terms, xs in self.cases(0):
            for x in xs:
                assert FiniteRankOperator.identity().apply(x) is x
                assert FiniteRankOperator.zero().apply(x).is_zero()
            op = FiniteRankOperator(BASE_ZERO, terms)
            op.apply(xs[0])
            j = op.plus_identity()
            assert j.coord_index is op.coord_index and j.linear_part().coord_index is op.coord_index
            assert op.linear_part() is op
            # rebased before either is applied, T and S still build one index
            # between them
            fresh = FiniteRankOperator(BASE_IDENTITY, terms)
            s = fresh.linear_part()
            assert s.coord_index is fresh.coord_index
            assert j == FiniteRankOperator(BASE_IDENTITY, terms)
            assert hash(j) == hash(FiniteRankOperator(BASE_IDENTITY, terms))
            assert repr(j) == repr(FiniteRankOperator(BASE_IDENTITY, terms))
            for x in xs:
                assert bits(j.apply(x)) == bits(apply_terms(j, x)), name

    def test_compose_matches_the_term_loop(self):
        for seed in range(4):
            cases = list(self.cases(seed))
            for (name, terms, xs), (_, others, _) in zip(cases, cases[1:] + cases[:1]):
                for base, other_base in ((BASE_IDENTITY, BASE_IDENTITY), (BASE_ZERO, BASE_IDENTITY),
                                         (BASE_IDENTITY, BASE_ZERO)):
                    a = FiniteRankOperator(base, terms)
                    b = FiniteRankOperator(other_base, others)
                    images = [(g, apply_terms(a, w)) for g, w in b.terms]
                    expected = [(g, w) for g, w in images if not w.is_zero()]
                    if other_base == BASE_IDENTITY:
                        expected += list(a.terms)
                    composed = a.compose(b)
                    both = base == other_base == BASE_IDENTITY
                    assert composed.base == (BASE_IDENTITY if both else BASE_ZERO)
                    assert [(g, bits(w)) for g, w in composed.terms] == \
                        [(g, bits(w)) for g, w in expected], name

    def test_invert_builds_the_dense_gram(self, monkeypatch):
        """`invert` hands `linalg.solve` the non-zero entries of
        [D_f(I_k + G)D_v | D_f], D_f and D_v the denominators of the kept
        integer forms, row by row in ascending column order and bit for bit
        as the dense Gram so scaled, and each u_j is, bit for bit and in
        entry order, the term-order fold of column j of the answer with
        row r scaled by vden_r."""
        seen, solved = [], []
        solve = linalg.solve

        def spy(rows, k):
            seen.append([(list(row), scalar_bits(row.values())) for row in rows])
            solved.append(solve(rows, k))
            return solved[-1]

        monkeypatch.setattr(linalg, "solve", spy)
        inverted = 0
        for seed in range(6):
            for name, terms, xs in self.cases(seed):
                j = FiniteRankOperator(BASE_IDENTITY, terms)
                seen.clear()
                solved.clear()
                k = len(terms)
                fdens = [integer_row(f.entries)[1] for f, _ in terms]
                vdens = [integer_row(v.entries)[1] for _, v in terms]
                try:
                    j_inv = invert(j)
                    inverted += 1
                    m = solved[0]
                    folds = [combine((vden * m[r].get(c, 0), v)
                                     for r, ((_, v), vden) in enumerate(zip(terms, vdens)))
                             for c in range(k)]
                    assert [(f, entry_bits(u)) for f, u in j_inv.terms] == \
                        [(f, entry_bits(-u)) for (f, _), u in zip(terms, folds)], name
                except SingularOperator:
                    assert solved == [None]
                expected = [{c: fdens[r] * vdens[c] * (g + (r == c)) for c, g in enumerate(row)}
                            for r, row in enumerate(dense_gram(terms))]
                assert all(x.denominator == 1 for row in expected for x in row.values())
                expected = [{c: int(x) for c, x in row.items() if x} | {k + r: fdens[r]}
                            for r, row in enumerate(expected)]
                assert seen == [[(list(row), scalar_bits(row.values()))
                                 for row in expected]], name
                if seen:
                    for x in xs:
                        assert j_inv.apply(j.apply(x)) == x
        assert inverted > 12

    def test_solve_hands_linalg_the_dense_gram_and_the_pairings_of_u(self, monkeypatch):
        """`solve` hands `linalg.solve` the rows of D_f(I_k + G)D_v that
        `invert` builds, bit for bit as the dense Gram so scaled, each with
        the integer pairing fden_r·uden·f_r(u) at column k when it is
        non-zero; a u that meets no f_r is returned without a solve."""
        seen = []
        linalg_solve = linalg.solve

        def spy(rows, k):
            seen.append([(list(row), scalar_bits(row.values())) for row in rows])
            return linalg_solve(rows, k)

        monkeypatch.setattr(linalg, "solve", spy)
        solved = 0
        for seed in range(6):
            for name, terms, xs in self.cases(seed):
                j = FiniteRankOperator(BASE_IDENTITY, terms)
                k = len(terms)
                fden = [den_of(f) for f, _ in terms]
                vden = [den_of(v) for _, v in terms]
                dense = [{c: int(fden[r] * vden[c] * (g + (r == c))) for c, g in enumerate(row)}
                         for r, row in enumerate(dense_gram(terms))]
                for x in xs:
                    seen.clear()
                    try:
                        w = solve(j, x)
                    except SingularOperator:
                        assert_refuses(j, x)
                        continue
                    if not any(set(f.entries) & set(x.entries) for f, _ in terms):
                        assert w is x and seen == [], name
                        continue
                    rhs = [int(d * den_of(x) * f.pair(x)) for d, (f, _) in zip(fden, terms)]
                    expected = [{c: g for c, g in row.items() if g} | ({k: b} if b else {})
                                for row, b in zip(dense, rhs)]
                    assert seen == [[(list(row), scalar_bits(row.values()))
                                     for row in expected]], name
                    assert_solves(j, x)
                    solved += 1
        assert solved > 60


def den_of(x):
    """The lcm of the denominators of x's entries, as `integer_row` scales x."""
    return integer_row(x.entries)[1]


def entry_bits(x):
    """A vector's entries in insertion order, with type and repr."""
    return [(i, type(v), repr(v)) for i, v in x.entries.items()]


def rows_families(rng):
    """`index_families` plus families aimed at the integer path of `apply`:
    denominators of 2^-40 next to small ones, pairings that vanish, a
    coordinate that cancels and comes back, and a sum that cancels x."""
    tiny = 2 ** 40

    def wide(cls, coords):
        return cls({i: Fraction(rng.choice([-7, -1, 1, 3]), rng.choice([1, 6, tiny, 3 * tiny]))
                    for i in coords})

    window = range(1, INDEX_WINDOW + 1)
    wide_terms = [(wide(CoordFunctional, rng.sample(window, 4)),
                   wide(SparseVector, rng.sample(window, 3))) for _ in range(6)]
    # coordinate 1 of x = e_1/3 + 5/7 e_2 goes to 0 after the first term and
    # comes back, last, after the second; the third pairs x to 0
    comeback = [(CoordFunctional({1: Fraction(1)}), SparseVector({1: Fraction(-1)})),
                (CoordFunctional({2: Fraction(3)}),
                 SparseVector({3: Fraction(1, 2), 1: Fraction(7, 15)})),
                (CoordFunctional({1: Fraction(15, 7), 2: Fraction(-1)}),
                 SparseVector({4: Fraction(1)}))]
    # on x = e_1 + e_2 the identity-based sum is 0
    cancel = [(CoordFunctional({1: Fraction(1)}), SparseVector({1: Fraction(-1)})),
              (CoordFunctional({2: Fraction(2)}), SparseVector({2: Fraction(-1, 2)}))]
    return index_families(rng) + [("wide", wide_terms), ("comeback", comeback),
                                  ("cancel", cancel)]


def rows_probes(rng):
    tiny = 2 ** 40
    return index_probes(rng) + [
        SparseVector({1: Fraction(1, 3), 2: Fraction(5, 7)}),
        SparseVector({1: Fraction(1), 2: Fraction(1)}),
        SparseVector({i: Fraction(rng.randint(-9, 9) or 1, rng.choice([1, tiny, 5 * tiny]))
                      for i in rng.sample(range(1, INDEX_WINDOW + 1), 6)}),
    ]


class TestExactApply:
    """Exact `apply` sums on integer rows; it must give what the plain term
    loop gives, entry for entry, in the same order and with the same types."""

    def assert_matches_the_loop(self, op, x, name):
        got, want = op.apply(x), apply_terms(op, x)
        assert entry_bits(got) == entry_bits(want), (name, op.base, x)
        if want is x:
            assert got is x, name
        # coordinates no term touched keep x's own scalar objects
        for i, v in want.entries.items():
            if v is x.entries.get(i):
                assert got.entries[i] is v, (name, i)

    def test_matches_the_term_loop_on_seeded_families(self):
        for seed in range(8):
            rng = random.Random(seed)
            xs = rows_probes(rng)
            for name, terms in rows_families(rng):
                for base in (BASE_IDENTITY, BASE_ZERO):
                    op = FiniteRankOperator(base, terms)
                    for x in xs:
                        self.assert_matches_the_loop(op, x, name)

    def test_a_coordinate_that_cancels_comes_back_last(self):
        rng = random.Random(0)
        terms = dict(rows_families(rng))["comeback"]
        x = SparseVector({1: Fraction(1, 3), 2: Fraction(5, 7)})
        image = FiniteRankOperator(BASE_IDENTITY, terms).apply(x)
        assert list(image.entries) == [2, 3, 1]
        assert image.entries == {2: Fraction(5, 7), 3: Fraction(15, 14), 1: Fraction(1)}
        image = FiniteRankOperator(BASE_ZERO, terms[:1]).apply(x)
        assert image == SparseVector({1: Fraction(-1, 3)})

    def test_a_sum_that_cancels_x_is_the_zero_vector(self):
        terms = dict(rows_families(random.Random(0)))["cancel"]
        x = SparseVector({1: Fraction(1), 2: Fraction(1)})
        image = FiniteRankOperator(BASE_IDENTITY, terms).apply(x)
        assert image.is_zero() and type(image) is SparseVector

    def test_orbit_compose_and_matrix_match_the_term_loop(self):
        rng = random.Random(5)
        terms = dict(rows_families(rng))["dense"]
        x0 = rows_probes(rng)[4]
        t = FiniteRankOperator(BASE_IDENTITY, terms).linear_part()
        plain = [x0]
        for _ in range(3):
            plain.append(apply_terms(t, plain[-1]))
        assert [entry_bits(x) for x in orbit(t, x0, 4)] == [entry_bits(x) for x in plain]
        twice = t.compose(t)
        assert entry_bits(twice.apply(x0)) == entry_bits(apply_terms(twice, x0))
        cols = [apply_terms(t, SparseVector.basis(j)) for j in range(1, 5)]
        assert t.matrix_on(range(1, 5)) == [[c.get(i) for c in cols] for i in range(1, 5)]


def assert_clean(x):
    """x's entries are what `vectors._clean` makes of them: the same keys in
    the same order, with the same values and value types."""
    assert entry_bits(x) == [(i, type(v), repr(v)) for i, v in _clean(x.entries).items()]


def test_results_that_skip_the_cleaning_pass_are_clean():
    """`combine`, `apply`, `restrict` and `__neg__` build their results from
    clean entries without `_clean`; each result is what `_clean` would give."""
    for seed in range(6):
        rng = random.Random(seed)
        xs = rows_probes(rng)
        families = rows_families(rng)
        coefficients = [0, 1, -1, Fraction(1, 3), Fraction(-7, 2)]
        for name, terms in families:
            for base in (BASE_IDENTITY, BASE_ZERO):
                op = FiniteRankOperator(base, terms)
                for x in xs:
                    assert_clean(op.apply(x))
            fs = [f for f, _ in terms]
            for x in xs:
                assert_clean(-x)
                assert_clean(x.restrict(rng.sample(range(1, INDEX_WINDOW + 4), 5)))
                picked = rng.sample(xs, 3)
                pairs = [(rng.choice(coefficients), y) for y in picked]
                # a combination that cancels x outright
                assert_clean(combine(pairs + [(-1, x)], x))
                assert combine([(1, x), (-1, x)]).is_zero()
                assert_clean(combine((rng.choice(coefficients), f) for f in fs))
            for f in fs:
                for g in (-f, f.restrict(range(1, 5))):
                    assert_clean(g)
                    assert type(g) is CoordFunctional


def test_with_term_extends_the_parents_index_and_shares_no_list():
    rng = random.Random(23)
    xs = rows_probes(rng)
    for name, terms in rows_families(rng):
        op = FiniteRankOperator.zero()
        op.coord_index  # built here, so that each child extends its parent's
        for f, v in terms:
            before = [list(op.coord_index.hits(x)) for x in xs]
            grown = op.with_term(f, v)
            # carried, not rebuilt at the first use
            assert "coord_index" in vars(grown), name
            fresh = CoordIndex(g for g, _ in grown.terms)
            assert [list(grown.coord_index.hits(x)) for x in xs] == \
                [list(fresh.hits(x)) for x in xs], name
            shared = {id(at) for at in op.coord_index._at.values()}
            assert not shared & {id(at) for at in grown.coord_index._at.values()}, name
            grown.with_term(f, v)
            assert [list(op.coord_index.hits(x)) for x in xs] == before, name
            op = grown
    # an operator whose index was never built leaves its child to build one
    lazy = FiniteRankOperator(BASE_ZERO, terms).with_term(*terms[0])
    assert "coord_index" not in vars(lazy)
    assert list(lazy.coord_index.hits(xs[4])) == list(CoordIndex(
        g for g, _ in lazy.terms).hits(xs[4]))


class TestOrbit:
    @pytest.mark.parametrize("horizon", [0, 1, 2, 5])
    def test_applies_t_horizon_minus_one_times(self, monkeypatch, horizon):
        """The last element is not mapped again, so the replay
        orbit(T, z, n + 1)[n] costs n applications of T."""
        t, calls = backward_shift(4), []
        real = FiniteRankOperator.apply
        monkeypatch.setattr(FiniteRankOperator, "apply",
                            lambda self, x: calls.append(x) or real(self, x))
        out = orbit(t, SparseVector.basis(4), horizon)
        assert out == [SparseVector.basis(4 - k) if k < 4 else SparseVector.zero()
                       for k in range(horizon)]
        assert calls == out[:-1]


class TestCompose:
    def test_compose_matches_pointwise(self):
        rng = random.Random(41)
        for _ in range(30):
            def random_op():
                base = rng.choice([BASE_IDENTITY, BASE_ZERO])
                terms = tuple(
                    (
                        CoordFunctional({rng.randint(1, 5): Fraction(rng.randint(-3, 3) or 1)}),
                        SparseVector({rng.randint(1, 5): Fraction(rng.randint(-3, 3) or 2)}),
                    )
                    for _ in range(rng.randint(0, 3))
                )
                return FiniteRankOperator(base, terms)

            a, b = random_op(), random_op()
            composed = a.compose(b)
            for i in range(1, 6):
                e = SparseVector.basis(i)
                assert composed.apply(e) == a.apply(b.apply(e))


class TestConjugateOrbit:
    def test_identity_conjugation_is_plain_orbit(self):
        t0 = backward_shift(4)
        x0 = SparseVector.basis(4)
        plain = orbit(t0, x0, 4)
        assert conjugate_orbit(t0, x0, FiniteRankOperator.identity(), 4) == plain

    def test_horizon_one_returns_jx0(self):
        t0 = backward_shift(4)
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), SparseVector.basis(2)),))
        assert conjugate_orbit(t0, sv(1, 1), j, 1) == [j.apply(sv(1, 1))]

    def test_equals_j_of_orbit(self):
        t0 = backward_shift(4)
        x0 = SparseVector.basis(4)
        j = FiniteRankOperator(BASE_IDENTITY, ((delta(1), SparseVector.basis(2)),))
        left = conjugate_orbit(t0, x0, j, 4)
        right = [j.apply(x) for x in orbit(t0, x0, 4)]
        assert left == right

    def test_random_triples_horizon_50(self):
        rng = random.Random(43)
        for _ in range(20):
            window = 6
            t0_terms = tuple(
                (
                    CoordFunctional.delta(rng.randint(1, window)),
                    SparseVector({rng.randint(1, window): Fraction(rng.randint(-2, 2) or 1)}),
                )
                for _ in range(rng.randint(1, 3))
            )
            t0 = FiniteRankOperator(rng.choice([BASE_IDENTITY, BASE_ZERO]), t0_terms)
            # small certified perturbation keeps J invertible
            j = FiniteRankOperator(
                BASE_IDENTITY,
                (
                    (
                        CoordFunctional.delta(rng.randint(1, window)),
                        SparseVector({rng.randint(1, window): Fraction(1, rng.choice([4, 8]))}),
                    ),
                ),
            )
            x0 = SparseVector({i: Fraction(rng.randint(-2, 2)) for i in range(1, window + 1)})
            left = conjugate_orbit(t0, x0, j, 50)
            right = [j.apply(x) for x in orbit(t0, x0, 50)]
            assert left == right
