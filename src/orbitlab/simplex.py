"""Exact simplex solver for the small equality-form programs used by disk gauges.

Solves  min c.x  subject to  A x = b, x >= 0  over the rationals.  Two
phases with Bland's anti-cycling rule throughout, so runs terminate even on
the degenerate ties that tied optimal disk representations produce.  The tableau carries its reduced-cost row: each phase prices the
costs against the basis once, and every pivot then updates that row with the
same row step it applies to the constraint rows.

The tableau pivots on integers (fraction-free; Edmonds 1967, J. Res. NBS 71B;
Azulay and Pique 2001): [A | b] is scaled by L, the lcm of its denominators,
and the rows hold |det B| B^-1 [L A | I | L b] for the basis B of [L A | I],
so the artificial block ends as det(B) B^-1, the dual's source.  Each pivot
divides exactly by the previous |det B|.  Scaling moves no sign, ratio order
or tie, so Bland's rule takes the pivots it would take over Fractions.  A
caller may pass [A | b] already scaled (a generator disk's gauge); one driver
runs both.

`resolve` re-optimizes a kept optimum for a new b: the basis stays dual
feasible, so the dual simplex (Chvátal, Linear Programming, 1983,
ch. 10) runs from it on the new rhs, det(B) B^-1 times the scaled b, with
no phase 1; Bland's smallest-index rule, taken in the dual, keeps it finite
(Bland, Math. Oper. Res. 2, 1977).  The optimal value is unique, so it is
the value a fresh `solve_lp` finds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from .errors import WorkbenchError
from .scalars import ONE, ZERO, Scalar, coerce, integer_row


class Infeasible(WorkbenchError):
    """The constraint set A x = b, x >= 0 is empty."""


class Unbounded(WorkbenchError):
    """The objective decreases without bound on the feasible set."""


class LPResult(NamedTuple):
    value: Scalar
    x: List[Scalar]


class _IntTableau:
    """The equality-form tableau on integers: columns = variables +
    artificials, then rhs.

    The rows are den * B^-1 [S L A | I | S L b], S = diag(`signs`) the start
    rows' signs, `red` den times the reduced costs of the integer costs M c,
    den = |det B| > 0, `scale` = L and `cost_scale` = M of the latest
    pricing.  Values leave in the caller's units: x = rhs / den, an
    artificial rhs / (den L).  `basis[i]` is the column currently basic in
    row i; `red` is priced once per phase and then pivoted like the others.
    Bland's rule: the entering column is the lowest-index one with negative
    reduced cost, the leaving row breaks ratio ties by lowest basis column.
    """

    def __init__(self, rows, nvars: int, scale: int):
        """rows: the integer [L a_i | L b_i]."""
        self.nvars, self.nrows, self.ncols = nvars, len(rows), nvars + len(rows)
        self.scale, self.den, self.signs = scale, 1, [-1 if r[nvars] < 0 else 1 for r in rows]
        self.basis, self.rows = list(range(nvars, self.ncols)), []
        for i, row in enumerate(rows):
            if row[nvars] < 0:
                row = [-v for v in row]
            self.rows.append(row[:nvars] + [1 if k == i else 0 for k in range(self.nrows)]
                             + row[nvars:])
        self.red: List[int] = [0] * (self.ncols + 1)

    def pivot(self, row: int, col: int):
        """Bareiss step: the pivot row stays, every other row t (`red` too)
        becomes (p t - t[col] prow) / den exactly, then den = p; a negative
        pivot (an artificial driven out) negates the whole tableau."""
        prow, den = self.rows[row], self.den
        s = -1 if prow[col] < 0 else 1
        q, out = s * prow[col], []
        for t in self.rows + [self.red]:
            f = s * t[col]
            out.append([s * v for v in t] if t is prow
                       else [(q * v - f * y) // den for v, y in zip(t, prow)])
        *self.rows, self.red = out
        self.den, self.basis[row] = q, col

    def price(self, costs: Sequence[Scalar]):
        nums, self.cost_scale = integer_row(dict(enumerate(costs)))
        red = [self.den * nums.get(j, 0) for j in range(self.ncols)] + [0]
        for row, bcol in zip(self.rows, self.basis):
            f = nums.get(bcol)
            if f:
                red = [r - f * y for r, y in zip(red, row)]
        self.red = red

    def ratio_order(self, i: int, k: int, col: int) -> int:
        """The sign of rhs_i / a_i,col - rhs_k / a_k,col, by cross-multiplication:
        both pivots are > 0."""
        ri, rk, n = self.rows[i], self.rows[k], self.ncols
        d = ri[n] * rk[col] - rk[n] * ri[col]
        return (d > 0) - (d < 0)

    def minimize(self, costs: Sequence[Scalar], allowed: int):
        """Bland iterations; only columns < `allowed` may enter."""
        self.price(costs)
        while True:
            col = next((j for j in range(allowed) if self.red[j] < 0), None)
            if col is None:
                return
            best = None
            for i in range(self.nrows):
                if not self.rows[i][col] > 0:
                    continue
                if best is not None:
                    order = self.ratio_order(i, best, col)
                    if order > 0 or (order == 0 and self.basis[i] > self.basis[best]):
                        continue
                best = i
            if best is None:
                raise Unbounded("improving column has no positive entries")
            self.pivot(best, col)

    def artificial_sum(self) -> Scalar:
        """The phase-1 objective: the sum of the basic artificial values."""
        return Fraction(sum(row[self.ncols] for row, bcol in zip(self.rows, self.basis)
                            if bcol >= self.nvars), self.den * self.scale)

    def result(self, costs: Sequence[Scalar]) -> LPResult:
        """The basic solution and its cost under the phase-2 costs."""
        x = [ZERO] * self.nvars
        for row, bcol in zip(self.rows, self.basis):
            if bcol < self.nvars:
                x[bcol] = Fraction(row[self.ncols], self.den)
        return LPResult(Fraction(-self.red[self.ncols], self.den * self.cost_scale), x)


def solve_lp(c: Sequence[Scalar], a: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
             scale: Optional[int] = None) -> LPResult:
    """Minimize c.x over A x = b, x >= 0.  A caller may pass [A | b] already
    scaled: the integers L A and L b, and `scale` = L > 0."""
    return optimal_tableau(c, a, b, scale).result([coerce(v) for v in c])


def optimal_tableau(c: Sequence[Scalar], a: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
                    scale: Optional[int] = None) -> _IntTableau:
    """`solve_lp`'s two phases: its tableau at the optimum."""
    nvars, nrows, w = len(c), len(a), len(c) + 1
    if scale is None:
        rows = [[coerce(v) for v in (*a[i], b[i])] for i in range(nrows)]
        nums, scale = integer_row(dict(enumerate(v for row in rows for v in row)))
        rows = [[nums.get(i * w + j, 0) for j in range(w)] for i in range(nrows)]
    else:
        rows = [[*a[i], b[i]] for i in range(nrows)]
    tab = _IntTableau(rows, nvars, scale)

    # Phase 1: minimize the artificial sum; feasible iff it reaches zero.
    phase1 = [ZERO] * nvars + [ONE] * tab.nrows
    tab.minimize(phase1, allowed=tab.ncols)
    infeas = tab.artificial_sum()
    if infeas != 0:
        raise Infeasible(f"phase 1 optimum {infeas} > 0")

    # Drive lingering artificials out of the basis where possible.
    for i in range(tab.nrows):
        if tab.basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab.rows[i][j]), None)
            if col is not None:
                tab.pivot(i, col)

    # Phase 2: artificial columns may not re-enter.
    phase2 = [coerce(v) for v in c] + [ZERO] * tab.nrows
    tab.minimize(phase2, allowed=nvars)
    return tab


def resolve(tab: _IntTableau, b: Sequence[int], bden: int) -> Fraction:
    """The optimum of the tableau's LP for the rhs b / bden, b integers,
    by dual simplex from its optimal basis, dual feasible for every b.  Each
    row t is its artificial block times [S L A | I | S L b], `red` too but
    for den M c on the costs, zero on the artificials, so t's rhs is that
    block times S L b.  A row whose basic column is an artificial must read
    0, or b is outside the span of A.  Bland's rule in the dual: the leaving
    row has the lowest basic column among the negative rhs, the entering
    column the smallest red_j / -a_rj (cross-multiplied), lowest j on ties.
    Raises Infeasible; tab keeps its last basis for the next b."""
    n, nvars = tab.ncols, tab.nvars
    lb = [s * tab.scale * v for s, v in zip(tab.signs, b)]
    for t in tab.rows + [tab.red]:
        t[n] = sum(m * v for m, v in zip(t[nvars:n], lb) if v)
    if any(row[n] for row, bcol in zip(tab.rows, tab.basis) if bcol >= nvars):
        raise Infeasible("b is outside the span of A")
    while True:
        out = [i for i in range(tab.nrows) if tab.rows[i][n] < 0]
        if not out:
            return Fraction(-tab.red[n], tab.den * tab.cost_scale * bden)
        r = min(out, key=tab.basis.__getitem__)
        row, red, col = tab.rows[r], tab.red, None
        for j in range(nvars):
            if row[j] < 0 and (col is None or red[j] * row[col] > red[col] * row[j]):
                col = j
        if col is None:
            raise Infeasible("no column enters the leaving row")
        tab.pivot(r, col)
