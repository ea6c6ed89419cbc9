"""Dense textbook linear algebra, used by the tests as slow independent oracles.

The program itself eliminates with `linalg.rref`, `linalg.RowReducer` and
`linalg.Bordered`; these helpers work on plain lists of row lists and exist
only to check it.
"""

from orbitlab import linalg
from orbitlab.errors import SingularOperator
from orbitlab.operators import IDENTITY
from orbitlab.scalars import EXACT
from orbitlab.vectors import combine


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


def rank(a, ctx=EXACT):
    return len(linalg.rref(a, ctx)[1])


def solve(a, b, ctx=EXACT):
    """The solution of a square system; SingularOperator if there is none."""
    n = len(a)
    red, pivots = linalg.rref([list(row) + [bi] for row, bi in zip(a, b)], ctx)
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
