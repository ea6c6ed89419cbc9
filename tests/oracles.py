"""Dense textbook linear algebra, used by the tests as slow independent oracles.

The program itself eliminates with `linalg.RowReducer` and `linalg.Bordered`;
these helpers work on plain lists of row lists, share no code with it, and
exist only to check it.
"""

from orbitlab.errors import SingularOperator
from orbitlab.operators import IDENTITY
from orbitlab.scalars import EXACT
from orbitlab.vectors import combine


def identity_matrix(n, ctx=EXACT):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def determinant(a, ctx=EXACT):
    """Gaussian elimination: the first non-zero pivot in exact mode, the
    largest one in float mode."""
    m = [list(row) for row in a]
    n, det = len(m), ctx.one
    for k in range(n):
        col = [abs(m[i][k]) for i in range(k, n)]
        piv = k + (next((i for i, v in enumerate(col) if v), 0) if ctx.exact
                   else col.index(max(col)))
        if ctx.is_zero(m[piv][k]):
            return ctx.zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def _pivot_row(col, start, ctx):
    if ctx.exact:
        for i in range(start, len(col)):
            if col[i] != 0:
                return i
        return None
    best, best_mag = None, ctx.tol
    for i in range(start, len(col)):
        mag = abs(col[i])
        if mag > best_mag:
            best, best_mag = i, mag
    return best


def rref(a, ctx=EXACT):
    """Dense Gauss-Jordan reduced row echelon form.  Returns (rows, pivot_columns).

    Columns in ascending order; the pivot is searched from the current row on
    and swapped into place: the first non-zero in exact mode, the largest
    entry above the tolerance in float mode.  Zero entries are skipped: a zero
    of the pivot row is not divided and is not subtracted from the other rows,
    and every zero of the input (an int 0 included) comes out as ctx.zero.
    """
    if not a:
        return [], []
    zero = ctx.zero
    m = [[v if v else zero for v in row] for row in a]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = _pivot_row([m[i][c] for i in range(rows)], r, ctx)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        prow = m[r] = [v / pv if v else zero for v in m[r]]
        support = [j for j, y in enumerate(prow) if y]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if f and i != r and not ctx.is_zero(f):
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, cols=None, ctx=EXACT):
    """Nullspace basis, one vector per free column: 1 there, minus the
    column's entries at the pivots."""
    if cols is None:
        cols = len(a[0]) if a else 0
    red, pivots = rref(a, ctx)
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            vec = [ctx.zero] * cols
            vec[fc] = ctx.one
            for r, pc in enumerate(pivots):
                vec[pc] = -red[r][fc]
            basis.append(vec)
    return basis


def solve_any(a, b, ctx=EXACT):
    """Any solution of a (possibly rectangular) system; None if none."""
    cols = len(a[0]) if a else 0
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)], ctx)
    if cols in pivots:
        return None
    x = [ctx.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def rank(a, ctx=EXACT):
    return len(rref(a, ctx)[1])


def solve(a, b, ctx=EXACT):
    """The solution of a square system; SingularOperator if there is none."""
    n = len(a)
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)], ctx)
    if pivots != list(range(n)):
        raise SingularOperator(f"{n}x{n} system is singular")
    return [row[n] for row in red]


def gram_solve(j, u, ctx=EXACT):
    """J^{-1} u for J = I + sum_j f_j (.) v_j by one pivoting k x k Gram solve:
    u - sum_j c_j v_j with (I_k + G) c = (f_i(u))_i, G_rc = f_r(v_c)."""
    assert j.base == IDENTITY
    if not j.terms:
        return u
    gram = [[f.pair(v) + (ctx.one if r == c else 0) for c, (_, v) in enumerate(j.terms)]
            for r, (f, _) in enumerate(j.terms)]
    coeffs = solve(gram, [f.pair(u) for f, _ in j.terms], ctx)
    return combine(((-c, v) for (_, v), c in zip(j.terms, coeffs)), u)
