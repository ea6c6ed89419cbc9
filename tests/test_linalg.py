"""Exact elimination: the row reducer built at once and one row at a time,
the nullspaces, solves and inverses read off it, the fraction-free echelon
form behind every rank test, and the dense oracles the other tests rely on."""

import math
import random
from fractions import Fraction

import pytest

from orbitlab import linalg
from orbitlab.errors import SingularOperator
from orbitlab.scalars import EXACT

import oracles


def cofactor_det(m):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def rand_matrix(rng, n, m=None):
    m = m if m is not None else n
    return [
        [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(m)]
        for _ in range(n)
    ]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        assert oracles.determinant(m) == cofactor_det(m)


def test_determinant_empty_and_singular():
    assert oracles.determinant([]) == 1
    assert oracles.determinant([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0


def test_solve_round_trip():
    rng = random.Random(7)
    solved = 0
    while solved < 40:
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        if oracles.determinant(a) == 0:
            continue
        x = [Fraction(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(n)]
        b = oracles.mat_vec(a, x)
        assert oracles.solve(a, b) == x
        solved += 1


def test_solve_raises_on_singular():
    with pytest.raises(SingularOperator):
        oracles.solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
                     [Fraction(1), Fraction(1)])


def test_nullspace_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randint(0, 3)
        cols = rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols)
        basis = null_basis(a, cols)
        assert basis == oracles.nullspace(a, cols=cols)
        assert len(basis) == cols - oracles.rank(a)
        for vec in basis:
            assert all(sum(r[j] * vec[j] for j in range(cols)) == 0 for r in a)


def test_solve_any_finds_feasible_or_none():
    a = [[Fraction(1), Fraction(1), Fraction(0)]]
    x = solve_augmented(a, [Fraction(3)])
    assert x is not None
    assert x[0] + x[1] == 3
    assert x == oracles.solve_any(a, [Fraction(3)])
    # inconsistent system
    a2 = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve_augmented(a2, [Fraction(1), Fraction(2)]) is None
    assert oracles.solve_any(a2, [Fraction(1), Fraction(2)]) is None


def test_invert_matrix_round_trip():
    rng = random.Random(19)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n)
        if oracles.determinant(a) == 0:
            continue
        inv = inverse(a)
        assert oracles.mat_mul(a, inv) == oracles.identity_matrix(n)
        assert [list(col) for col in zip(*inv)] == \
            [oracles.solve(a, e) for e in oracles.identity_matrix(n)]
        done += 1


def test_row_reducer_tracks_rank():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        vectors = [
            {j + 1: Fraction(rng.randint(-4, 4)) for j in range(n)} for _ in range(n + 2)
        ]
        vectors = [{i: v for i, v in vec.items() if v != 0} for vec in vectors]
        reducer = linalg.RowReducer()
        added = sum(reducer.try_add(v) for v in vectors)
        matrix = [[vec.get(j + 1, Fraction(0)) for j in range(n)] for vec in vectors]
        assert added == oracles.rank(matrix)
        assert reducer.rank == added


def test_row_reducer_keeps_the_reduced_echelon_form():
    """`of`, in shuffled row orders, and `try_add`, one row at a time, agree
    with the dense oracle's reduced row echelon form on their rows, rank,
    nullspace vectors and residuals.  The sparse rows carry explicit zeros
    (int and Fraction), zero rows, repeated and proportional rows, and
    denominators up to 2^40."""
    rng = random.Random(29)

    def q():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5, 3 ** 10, 2 ** 40]))

    def with_zeros(row, cols):
        for _ in range(rng.choice([0, 0, 1, 2])):
            row[rng.randint(1, cols)] = rng.choice([0, Fraction(0)])
        return row

    for _ in range(150):
        cols = rng.randint(1, 8)
        rows = [with_zeros({j: q() for j in rng.sample(range(1, cols + 1), rng.randint(1, min(3, cols)))},
                           cols)
                for _ in range(rng.randint(1, 8))]
        roll = rng.random()
        if len(rows) >= 2 and roll < 0.4:
            s, t = rng.sample(rows, 2)
            rows.append({j: s.get(j, 0) - 2 * t.get(j, 0) for j in s.keys() | t.keys()})
        elif roll < 0.55:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.7:
            c = q()
            rows.append({j: c * v for j, v in rng.choice(rows).items()})
        elif roll < 0.85:
            rows.append(rng.choice([{}, {j: Fraction(0) for j in range(1, cols + 1)}]))
        red, pivots = oracles.rref([[row.get(j, 0) for j in range(1, cols + 1)] for row in rows])
        expected = {pc + 1: {j + 1: v for j, v in enumerate(red[r]) if v}
                    for r, pc in enumerate(pivots)}
        nulls = {fc: {pc + 1: -red[r][fc - 1] for r, pc in enumerate(pivots) if red[r][fc - 1]}
                 | {fc: 1} for fc in range(1, cols + 1) if fc - 1 not in pivots}
        probes = [with_zeros({j: q() for j in rng.sample(range(1, cols + 2), rng.randint(1, cols))},
                             cols) for _ in range(3)] + rows[:1]
        residuals = [{j: r for j in range(1, cols + 2)
                      if (r := v.get(j, 0) - sum(v.get(pc + 1, 0) * red[k][j - 1]
                                                 for k, pc in enumerate(pivots) if j <= cols))}
                     for v in probes]
        reducers = []
        for order in (rows, rng.sample(rows, len(rows)), rng.sample(rows, len(rows))):
            reducers.append(linalg.RowReducer.of(order))
            reducer = linalg.RowReducer()
            added = sum(reducer.try_add(row) for row in order)
            assert added == len(pivots)
            reducers.append(reducer)
        for reducer in reducers:
            assert reducer.rows == expected
            assert reducer.rank == len(pivots)
            # the exact form kept behind the rows: coprime integers
            assert all(math.gcd(*row.values()) == 1 for row in reducer._ints.values())
            for pc, row in reducer.rows.items():
                assert row[pc] == 1
                assert not any(other in row for other in reducer.rows if other != pc)
                assert all(type(v) is Fraction and v for v in row.values())
            for fc, vec in nulls.items():
                got = reducer.null_vector(fc)
                assert got == vec and list(got) == sorted(got)
            got = [reducer.residual(v) for v in probes]
            assert got == residuals
            assert all(type(v) is Fraction for res in got for v in res.values())
        assert list(reducers[0].rows) == sorted(expected)


def test_exact_row_reducer_drops_explicit_zeros():
    """An explicit zero of an exact input row is no entry of its reduced row,
    from `of` as from `try_add`, so no nullspace vector picks it up."""
    row = {1: Fraction(1), 2: Fraction(0)}
    red = linalg.RowReducer.of([row])
    assert red.rows == {1: {1: 1}}
    assert red.null_vector(2) == {2: 1}
    reducer = linalg.RowReducer()
    assert reducer.try_add(row)
    assert reducer.rows == red.rows


def rank_families(rng):
    """Seeded families of sparse rows: dense ones with mixed denominators,
    sparse ones, and either kind with repeated, combined and zero rows."""
    def dense(cols):
        return {j: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12]))
                for j in range(1, cols + 1)}

    def sparse_row(cols):
        return {j: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 4, 9]))
                for j in rng.sample(range(1, cols + 1), rng.randint(1, min(3, cols)))}

    yield []
    for _ in range(150):
        cols = rng.randint(1, 9)
        make = dense if rng.random() < 0.5 else sparse_row
        rows = [make(cols) for _ in range(rng.randint(1, 8))]
        roll = rng.random()
        if roll < 0.25:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.5 and len(rows) >= 2:
            s, t = rng.sample(rows, 2)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            rows.append({j: s.get(j, 0) - c * t.get(j, 0) for j in s.keys() | t.keys()})
        elif roll < 0.6:
            rows.append({})
        elif roll < 0.7:
            rows.append({j: Fraction(0) for j in range(1, cols + 1)})
        yield rng.sample(rows, len(rows))


def test_echelon_rank_matches_dense_oracle():
    rng = random.Random(41)
    for rows in rank_families(rng):
        cols = max((j for row in rows for j in row), default=0)
        expected = oracles.rank([[row.get(j, 0) for j in range(1, cols + 1)] for row in rows])
        assert linalg.row_rank(rows) == expected
        assert linalg.independent(rows) == (expected == len(rows))
        echelon = linalg.Echelon()
        added = sum(echelon.try_add(row) for row in rows)
        assert echelon.rank == added == expected
        for lead, row in echelon.rows.items():
            # primitive integer rows, each with its lowest coordinate at its key
            assert min(row) == lead
            assert all(type(v) is int for v in row.values())
            assert math.gcd(*row.values()) == 1


def test_dense_basis_check_matches_echelon():
    """`dense_independent` on the integer rows gives `independent`'s verdict
    and the oracle's: the rank families (dense and sparse rows, repeated,
    combined and zero rows, more rows than coordinates, the empty family),
    wide entries, and columns left with no pivot part-way through."""
    rng = random.Random(43)
    big = 2 ** 40
    families = list(rank_families(rng))
    for _ in range(60):
        n = rng.randint(1, 7)
        # column 2 is a multiple of column 1, so it has no pivot; n rows in n
        # + 1 columns may still be independent
        rows = [{j: Fraction(rng.randint(-big, big), big) if j % 2 else
                 Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for j in range(1, n + 2)}
                for _ in range(n)]
        for row in rows:
            row[2] = 3 * row[1]
        families.append(rows)
    families += [[{1: 1, 2: 1}, {1: 2, 2: 2, 3: 1}],
                 [{1: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 2}, {1: 2, 2: 2, 3: 3}]]
    verdicts = set()
    for rows in families:
        cols = max((j for row in rows for j in row), default=0)
        expected = oracles.rank([[row.get(j, 0) for j in range(1, cols + 1)] for row in rows])
        got = linalg.dense_independent([EXACT.integer_row(row)[0] for row in rows])
        assert got == linalg.independent(rows) == (expected == len(rows))
        verdicts.add(got)
    assert verdicts == {True, False}


def test_exact_rank_tests_build_no_fraction_row_reduction(monkeypatch):
    """The exact rank and independence tests stay on integers: with
    `RowReducer.try_add` unusable they still finish, with the same results."""
    from orbitlab.density import extract_p_independent, Enumeration
    from orbitlab.hypercyclic import build_shift_operator, range_kernel_premise_check
    from orbitlab.seminorms import SeminormSpec, p_independent
    from orbitlab.triangular import interleave_triangularize
    from orbitlab.vectors import CoordFunctional, SparseVector

    rng = random.Random(47)
    basis = [SparseVector({j: Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
                           for j in range(1, 9)}) for _ in range(6)]
    funcs = [CoordFunctional.delta(i) for i in range(1, 11)]
    p = SeminormSpec.sup_on(range(1, 5))
    chain = [SparseVector({k: Fraction(1), k + 1: Fraction(1, 3)}) for k in range(1, 5)]
    shift = build_shift_operator(chain, p, oracles.l1_disk(range(1, 7), Fraction(1, 3)))
    items = Enumeration(tuple(basis))
    whole = (SparseVector.zero(), Fraction(100))

    def results():
        return (interleave_triangularize(basis, funcs, 2),
                p_independent(p, basis[:4]), p_independent(p, basis[:5]),
                range_kernel_premise_check(shift.operator.plus_identity(), 6, 3),
                extract_p_independent(items, p, [whole] * 4))

    expected = results()

    def boom(*_args, **_kwargs):
        raise AssertionError("Fraction row reduction reached")

    monkeypatch.setattr(linalg.RowReducer, "try_add", boom)
    assert results() == expected
    assert expected[1] and not expected[2]


def bordered(a):
    """linalg.Bordered grown one row and column of the integer matrix a at a time."""
    lu = linalg.Bordered()
    for n in range(len(a)):
        row = lu.border(0, a[n][:n])
        col = lu.border(1, [a[k][n] for k in range(n)])
        lu.append(0, row, col, lu.pivot(a[n][n], row, col))
    return lu


def integer_matrix(rng, n):
    """A zero-heavy n x n matrix times 10: int entries (0 for either zero)."""
    return [[int(10 * v) for v in row] for row in zero_heavy_matrix(rng, n, n)]


def block_det(a, rows, cols):
    """The determinant of a's entries on rows x cols, by the Fraction oracle."""
    return oracles.determinant([[Fraction(a[r][c]) for c in cols] for r in rows])


def test_bordered_factor_pivots_and_solves():
    """The exact factor of an integer matrix: its pivots are the leading
    minors, its L̃ and Ũ entries the Bareiss minors, and `solve` and `back`
    return the minor Δ_n times the solution, every value an int."""
    rng = random.Random(31)
    done = 0
    while done < 40:
        n = rng.randint(1, 6)
        a = integer_matrix(rng, n)
        minors = [block_det(a, range(m), range(m)) for m in range(1, n + 1)]
        if 0 in minors:
            continue
        lu = bordered(a)
        assert lu.pivots == minors and lu.scale(n) == minors[-1] and lu.scale(0) == 1
        for i in range(n):
            for k in range(i):
                # entry k of row i is a^(k): rows 0..k-1 and i against columns 0..k
                assert lu.lower[0][i].get(k, 0) == block_det(a, [*range(k), i], range(k + 1))
                assert lu.lower[1][i].get(k, 0) == block_det(a, range(k + 1), [*range(k), i])
        entries = [v for side in lu.lower for row in side for v in row.values()]
        assert all(type(v) is int and v for v in entries + lu.pivots)
        b = [rng.randint(-4, 4) for _ in range(n)]
        x = lu.solve(b)
        assert all(type(v) is int for v in x)
        assert x == [minors[-1] * v for v in oracles.solve([[Fraction(v) for v in row] for row in a], b)]
        # A^T swaps the sides: border(0, b) eliminates b as a row, back(0, .) solves A^T
        z = lu.border(0, b)
        x = lu.back(0, [z.get(i, 0) for i in range(n)])
        assert oracles.mat_vec([list(col) for col in zip(*a)], x) == [minors[-1] * v for v in b]
        done += 1


def test_bareiss_pass_is_the_bordered_factor_of_its_pivots():
    """A `Bareiss` pass on pivots picked at random: each unpicked entry is the
    minor of the picks bordered by its row and column (Sylvester's identity),
    the factor is `Bordered`'s of the picked block in pick order, and the
    finished pass counts the rank."""
    rng = random.Random(37)
    for _ in range(40):
        a = [[int(10 * v) for v in row]
             for row in zero_heavy_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))]
        elim, picks = linalg.Bareiss(a), []
        while rng.random() < 0.8:
            nonzero = [(r, c) for r, row in elim.rows.items() for c, v in zip(elim.cols, row) if v]
            if not nonzero:
                break
            picks.append(rng.choice(nonzero))
            elim.pick(*picks[-1])
            rows, cols = [r for r, _ in picks], [c for _, c in picks]
            for i, row in elim.rows.items():
                assert row == [block_det(a, rows + [i], cols + [j]) for j in elim.cols]
        lu = bordered([[a[r][c] for _, c in picks] for r, _ in picks])
        assert (elim.lower, elim.pivots) == (lu.lower, lu.pivots)
        assert elim.rank() == oracles.rank(a)


def test_rank_of_projections():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(1)]]
    assert oracles.rank(rows, EXACT) == 2


def pivot_rows(red, pivots):
    """Dense oracle rows keyed by pivot column, non-zero entries only."""
    return {pc: {j: v for j, v in enumerate(red[r]) if v != 0}
            for r, pc in enumerate(pivots)}


def sparse(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def null_basis(a, cols, ctx=EXACT):
    """The dense nullspace basis of `RowReducer.of`: `null_vector` of each free column."""
    red = linalg.RowReducer.of(sparse(a), ctx)
    return [[red.null_vector(fc).get(j, ctx.zero) for j in range(cols)]
            for fc in range(cols) if fc not in red.rows]


def solve_augmented(a, b, ctx=EXACT):
    """A solution read off the augmented column of `RowReducer.of`, the right-hand
    side kept even where it is zero; None when that column pivots."""
    cols = len(a[0]) if a else 0
    red = linalg.RowReducer.of([row | {cols: bi} for row, bi in zip(sparse(a), b)], ctx)
    if cols in red.rows:
        return None
    return [red.rows[c].get(cols, ctx.zero) if c in red.rows else ctx.zero
            for c in range(cols)]


def inverse(a, ctx=EXACT):
    """The inverse read off `RowReducer.of` of [A | I]; no pivot lands in the I block."""
    n = len(a)
    red = linalg.RowReducer.of([row | {n + i: ctx.one} for i, row in enumerate(sparse(a))], ctx)
    assert all(pc < n for pc in red.rows)
    return [[red.rows[i].get(n + j, ctx.zero) for j in range(n)] for i in range(n)]


def zero_heavy_matrix(rng, rows, cols):
    """Mostly int 0 entries, a few Fraction(0), the rest nonzero Fractions;
    sometimes a row repeated as a combination of two others."""
    def entry():
        roll = rng.random()
        if roll < 0.7:
            return 0
        if roll < 0.75:
            return Fraction(0)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5]))

    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        s, t = rng.sample(range(rows - 1), 2)
        m[-1] = [x + 2 * y for x, y in zip(m[s], m[t])]
    return m


def test_rref_skipping_zeros_matches_dense_oracle():
    rng = random.Random(83)
    for _ in range(300):
        a = zero_heavy_matrix(rng, rng.randint(1, 8), rng.randint(1, 10))
        rows = linalg.RowReducer.of(sparse(a), EXACT).rows
        assert rows == pivot_rows(*oracles.rref(a, EXACT))
        assert all(type(v) is Fraction for row in rows.values() for v in row.values())


def test_zero_heavy_nullspace_and_solve_agree_with_oracle():
    rng = random.Random(85)
    for _ in range(100):
        n = rng.randint(1, 7)
        a = zero_heavy_matrix(rng, n, n)
        b = [rng.choice([0, Fraction(rng.randint(-4, 4), 3)]) for _ in range(n)]
        red, pivots = oracles.rref([row + [bi] for row, bi in zip(a, b)])
        if pivots == list(range(n)):
            assert oracles.solve(a, b) == [row[n] for row in red]
        else:
            with pytest.raises(SingularOperator):
                oracles.solve(a, b)
        assert null_basis(a, n) == oracles.nullspace(a)
        assert solve_augmented(a, b) == oracles.solve_any(a, b)
        for vec in null_basis(a, n):
            assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a)


def test_a_tiny_pivot_solves_exactly():
    """A first pivot of 10^-30 is as good as any: the solution of
    [[10^-30, 1], [1, 1]] x = (1, 2) is exact, with no search for a larger
    pivot."""
    tiny = Fraction(1, 10 ** 30)
    a = [[tiny, Fraction(1)], [Fraction(1), Fraction(1)]]
    want = [1 / (1 - tiny), (1 - 2 * tiny) / (1 - tiny)]
    assert solve_augmented(a, [Fraction(1), Fraction(2)]) == want
    assert oracles.solve(a, [Fraction(1), Fraction(2)]) == want
    assert oracles.determinant(a) == tiny - 1


def test_rows_apart_by_2_to_the_minus_45_are_independent():
    """Rank is exact: two rows that differ by 2^-45 in one entry are
    independent, and their copies are not."""
    near = [{1: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: 1 + Fraction(1, 2 ** 45)}]
    assert linalg.row_rank(near) == 2 and linalg.independent(near)
    reducer = linalg.RowReducer()
    assert [reducer.try_add(row) for row in near + [near[1]]] == [True, True, False]
    assert linalg.row_rank([near[0], near[0]]) == 1
    assert not linalg.independent([near[1], {j: 3 * v for j, v in near[1].items()}])


def test_bordered_factor_matches_the_plain_solve():
    """The factor of a Fraction matrix scaled to integers gives the plain
    Fraction solution times its minor, as ints."""
    rng = random.Random(139)
    done = 0
    while done < 20:
        n = rng.randint(1, 6)
        a = zero_heavy_matrix(rng, n, n)
        if any(oracles.determinant([row[:m] for row in a[:m]]) == 0 for m in range(1, n + 1)):
            continue
        b = [Fraction(rng.randint(-4, 4), 2 ** 40) if k % 2 else 0 for k in range(n)]
        lu = bordered([[int(10 * v) for v in row] for row in a])
        got = lu.solve([int(v * 2 ** 40) for v in b])
        want = oracles.solve(a, b)
        assert all(type(g) is int and g == w * 2 ** 40 * lu.scale(n) / 10 for g, w in zip(got, want))
        done += 1
