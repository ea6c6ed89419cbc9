"""Dense linear algebra over exact rationals (or floats with a pivot tolerance).

Matrices are plain lists of row lists.  Determinants use fraction-free
Gaussian elimination (Bareiss) in exact mode so that minor invertibility is
never subject to rounding; float mode falls back to partially pivoted
elimination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .errors import SingularOperator
from .scalars import EXACT, Scalar, ScalarContext

Matrix = List[List[Scalar]]


def identity_matrix(n: int, ctx: ScalarContext = EXACT) -> Matrix:
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a: Matrix, x: Sequence[Scalar]) -> List[Scalar]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def _pivot_row(col: List[Scalar], start: int, ctx: ScalarContext) -> Optional[int]:
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


def determinant(a: Matrix, ctx: ScalarContext = EXACT) -> Scalar:
    """Exact mode: Bareiss fraction-free elimination.  Float mode: Gauss."""
    n = len(a)
    if n == 0:
        return ctx.one
    m = [list(row) for row in a]
    if not ctx.exact:
        det = 1.0
        for k in range(n):
            piv = _pivot_row([m[i][k] for i in range(n)], k, ctx)
            if piv is None:
                return ctx.zero
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            det *= m[k][k]
            for i in range(k + 1, n):
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        return det

    sign = 1
    prev = ctx.one
    for k in range(n - 1):
        piv = _pivot_row([m[i][k] for i in range(n)], k, ctx)
        if piv is None:
            return ctx.zero
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = ctx.zero
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rref(a: Matrix, ctx: ScalarContext = EXACT):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Zero entries are skipped: a zero of the pivot row is not divided and is
    not subtracted from the other rows, and every zero of the input (an int 0
    included) comes out as ctx.zero.  The reduced form is unique, so this is
    the same result as eliminating across the zeros, without the work.
    """
    if not a:
        return [], []
    zero = ctx.zero
    m = [[v if v else zero for v in row] for row in a]
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
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


def rank(a: Matrix, ctx: ScalarContext = EXACT) -> int:
    return len(rref(a, ctx)[1])


def nullspace(a: Matrix, cols: Optional[int] = None, ctx: ScalarContext = EXACT) -> List[List[Scalar]]:
    """Deterministic nullspace basis, one vector per free column."""
    if cols is None:
        cols = len(a[0]) if a else 0
    if not a:
        a = []
    red, pivots = rref(a, ctx)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ctx.zero] * cols
        vec[fc] = ctx.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(a: Matrix, b: Sequence[Scalar], ctx: ScalarContext = EXACT) -> List[Scalar]:
    """Solve a square system exactly; raises SingularOperator."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("solve expects a square matrix")
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    red, pivots = rref(aug, ctx)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularOperator(f"{n}x{n} system is singular")
    return [red[i][n] for i in range(n)]


def solve_any(a: Matrix, b: Sequence[Scalar], ctx: ScalarContext = EXACT) -> Optional[List[Scalar]]:
    """Any exact solution of a (possibly rectangular) system; None if none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug, ctx)
    if cols in pivots:
        return None
    x = [ctx.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def invert_matrix(a: Matrix, ctx: ScalarContext = EXACT) -> Matrix:
    n = len(a)
    aug = [list(row) + unit for row, unit in zip(a, identity_matrix(n, ctx))]
    red, pivots = rref(aug, ctx)
    if pivots != list(range(n)):
        raise SingularOperator(f"{n}x{n} matrix is not invertible")
    return [row[n:] for row in red]


class RowReducer:
    """Incremental independence test over dict-backed coordinate vectors."""

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self._pivots: Dict[int, Dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def residual(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        cur = {i: v for i, v in vec.items() if not self.ctx.is_zero(v)}
        for coord in sorted(self._pivots):
            if coord in cur:
                factor = cur[coord]
                row = self._pivots[coord]
                for i, v in row.items():
                    nv = cur.get(i, 0) - factor * v
                    if self.ctx.is_zero(nv):
                        cur.pop(i, None)
                    else:
                        cur[i] = nv
        return cur

    def try_add(self, vec: Dict[int, Scalar]) -> bool:
        """Reduce vec against stored rows; store and return True if independent."""
        res = self.residual(vec)
        if not res:
            return False
        coord = min(res)
        lead = res[coord]
        self._pivots[coord] = {i: v / lead for i, v in res.items()}
        return True
