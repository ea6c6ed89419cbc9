"""Exact elimination over rationals (or floats with a pivot tolerance).

Three forms, each written once:

- `rref`, the dense reduced row echelon form of a list of row lists, behind
  `nullspace`, `solve_any` and `invert_matrix`.  Exact mode takes the first
  non-zero pivot; float mode pivots on the largest entry above the tolerance.
- `RowReducer`, a sparse reduced echelon form that grows one dict-backed row
  at a time: independence tests, ranks and the separating-functional picks.
- `Bordered`, an L·D·U factor without pivoting that grows by one row and one
  column at a time: the pairing minors of triangularization and the Gram
  system of a growing identity-plus-finite-rank operator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import SingularOperator
from .scalars import EXACT, Scalar, ScalarContext

Matrix = List[List[Scalar]]


def identity_matrix(n: int, ctx: ScalarContext = EXACT) -> Matrix:
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


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
    """Incremental independence test that keeps the reduced row echelon form.

    `rows` maps each pivot coordinate to its row, a dict of non-zero entries
    that is 1 at its pivot and 0 at every other pivot.  The form is unique, so
    it equals the `rref` of the rows added so far, whatever their order.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self.rows: Dict[int, Dict[int, Scalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vec: Dict[int, Scalar]) -> Dict[int, Scalar]:
        """vec minus its component in the span of the rows, zero at every pivot."""
        cur = {i: v for i, v in vec.items() if not self.ctx.is_zero(v)}
        # the rows are 0 at each other's pivots, so each one is subtracted once
        for coord in sorted(self.rows.keys() & cur.keys()):
            _eliminate(cur, cur[coord], self.rows[coord], self.ctx)
        return cur

    def try_add(self, vec: Dict[int, Scalar]) -> bool:
        """Reduce vec against the rows; if it is independent, keep it normalised
        at its lowest coordinate, clear that coordinate from the older rows and
        return True."""
        res = self.residual(vec)
        if not res:
            return False
        coord = min(res)
        lead = res[coord]
        row = {i: v / lead for i, v in res.items()}
        for other in self.rows.values():
            if coord in other:
                _eliminate(other, other[coord], row, self.ctx)
        self.rows[coord] = row
        return True


def _eliminate(target: Dict[int, Scalar], factor: Scalar, row: Dict[int, Scalar],
               ctx: ScalarContext) -> None:
    """target -= factor * row in place, dropping entries that become zero."""
    for i, v in row.items():
        nv = target.get(i, 0) - factor * v
        if ctx.is_zero(nv):
            target.pop(i, None)
        else:
            target[i] = nv


class Bordered:
    """A = L·D·U, grown by one bordering row and column of A at a time.

    L and U^T are unit lower triangular; lower[0] and lower[1] hold their rows
    left of the diagonal as dicts of the non-zero entries, pivots the diagonal
    of D (Golub & Van Loan, Matrix Computations, §3.2).  As A^T = U^T·D·L^T,
    each operation takes a side: 0 for L, 1 for U^T.  There is no pivoting, so
    a pivot is det A_{n+1} / det A_n.  Zeros of L and U cost nothing in the
    substitutions.
    """

    def __init__(self):
        self.lower: Tuple[List[Dict[int, Scalar]], List[Dict[int, Scalar]]] = ([], [])
        self.pivots: List[Scalar] = []

    def border(self, side: int, entries: Sequence[Scalar]) -> Dict[int, Scalar]:
        """The next row of lower[side] for the bordering entries of A: the new
        row of A left of the diagonal for side 0, the new column above it for
        side 1.  Row n of A is (row of L)·D·U, so the row solves U^T·D x = entries."""
        z = _forward(self.lower[1 - side], entries)
        return {i: zi / d for i, (zi, d) in enumerate(zip(z, self.pivots)) if zi}

    def append(self, side: int, row: Dict[int, Scalar], col: Dict[int, Scalar],
               pivot: Scalar) -> None:
        """Border the factor: row joins lower[side], col joins lower[1 - side]."""
        self.lower[side].append(row)
        self.lower[1 - side].append(col)
        self.pivots.append(pivot)

    def back(self, side: int, rhs: Sequence[Scalar]) -> List[Scalar]:
        """x with T^T x = rhs for T the leading len(rhs) block of lower[side],
        solved row by row from the last."""
        n = len(rhs)
        cols: List[List[Tuple[int, Scalar]]] = [[] for _ in range(n)]  # rows of T^T
        for j, row in enumerate(self.lower[side][:n]):
            for k, t in row.items():
                cols[k].append((j, t))
        x = list(rhs)
        for k in range(n - 1, -1, -1):
            if cols[k]:
                x[k] -= sum(t * x[j] for j, t in cols[k])
        return x

    def solve(self, rhs: Sequence[Scalar]) -> List[Scalar]:
        """x with A x = rhs: L y = rhs, then U x = D^{-1} y."""
        y = _forward(self.lower[0], rhs)
        return self.back(1, [yi / d if yi else yi for yi, d in zip(y, self.pivots)])


def _forward(lower: List[Dict[int, Scalar]], rhs: Sequence[Scalar]) -> List[Scalar]:
    """x with T x = rhs, T unit lower triangular given by its rows left of the diagonal."""
    x: List[Scalar] = []
    for row, b in zip(lower, rhs):
        x.append(b - sum(t * x[j] for j, t in row.items()) if row else b)
    return x
