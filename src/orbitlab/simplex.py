"""Exact dual simplex for the one LP the workbench solves: a disk's gauge.

The Minkowski gauge of a generator disk is  min sum c  subject to
[G | -G] c = u, c >= 0, unit costs over the rationals.  `gauge_tableau`
builds one tableau per disk at u = 0 and `resolve` reads every gauge off
it.  At u = 0 the artificial basis is feasible, so there is no phase 1:
each row's artificial is driven out on the row's first non-zero column,
and Bland's rule then minimizes the unit costs.  Every such pivot is
degenerate, so every ratio ties and the leaving row is the one with the
lowest basic column.  Unit costs are >= 0, so no column prices negative
without a positive entry, and the basis it ends at is optimal for u = 0:
dual feasible for every u.  The tableau carries its reduced-cost row,
priced at the artificial basis, where it is the costs themselves, and
pivoted with the same row step as the constraint rows.

The tableau pivots on integers (fraction-free; Edmonds 1967, J. Res. NBS 71B;
Azulay and Pique 2001): the caller scales [G | -G] by L, the lcm of its
denominators, and the rows hold |det B| B^-1 [L A | I | L b] for the basis
B of [L A | I], so the artificial block ends as det(B) B^-1, the dual's
source.  Each pivot divides exactly by the previous |det B|.  Scaling moves
no sign or tie, so Bland's rule takes the pivots it would take over
Fractions.

`resolve` re-optimizes the kept tableau for a new b: the basis stays dual
feasible, so the dual simplex (Chvátal, Linear Programming, 1983,
ch. 10) runs from it on the new rhs, det(B) B^-1 times the scaled b;
Bland's smallest-index rule, taken in the dual, keeps it finite (Bland,
Math. Oper. Res. 2, 1977).  The optimal value is unique, so it does not
depend on the basis a gauge starts from.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import WorkbenchError


class Infeasible(WorkbenchError):
    """The constraint set A x = b, x >= 0 is empty."""


class _IntTableau:
    """The equality-form tableau on integers: columns = variables +
    artificials, then rhs.

    The rows are den * B^-1 [L A | I | L b], `red` den times the reduced
    costs of the unit costs on the variables (zero on the artificials),
    den = |det B| > 0 and `scale` = L.  `basis[i]` is the column currently
    basic in row i.  Built on the artificial basis with rhs 0, where `red`
    is the costs themselves.
    """

    def __init__(self, rows, nvars: int, scale: int):
        """rows: the integer L a_i, each of nvars entries."""
        self.nvars, self.nrows, self.ncols = nvars, len(rows), nvars + len(rows)
        self.scale, self.den = scale, 1
        self.basis = list(range(nvars, self.ncols))
        self.rows = [list(row) + [1 if k == i else 0 for k in range(self.nrows)] + [0]
                     for i, row in enumerate(rows)]
        self.red: List[int] = [1] * nvars + [0] * (self.nrows + 1)

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


def gauge_tableau(rows: Sequence[Sequence[int]], nvars: int, scale: int) -> _IntTableau:
    """The tableau of min sum x over A x = b, x >= 0, optimal at b = 0 and so
    dual feasible for every b.  rows: the integers L A, nvars columns each
    (a disk whose generators are all zero has no rows), and `scale` = L > 0.
    Drives each row's artificial out on the row's first non-zero column,
    then minimizes by Bland's rule: the lowest-index column of negative
    reduced cost enters, and, every ratio tying at 0, the row with the
    lowest basic column among those positive in it leaves."""
    tab = _IntTableau(rows, nvars, scale)
    for i in range(tab.nrows):
        col = next((j for j in range(nvars) if tab.rows[i][j]), None)
        if col is not None:
            tab.pivot(i, col)
    while True:
        col = next((j for j in range(nvars) if tab.red[j] < 0), None)
        if col is None:
            return tab
        tab.pivot(min((i for i in range(tab.nrows) if tab.rows[i][col] > 0),
                      key=tab.basis.__getitem__), col)


def resolve(tab: _IntTableau, b: Sequence[int], bden: int) -> Fraction:
    """The optimum of the tableau's LP for the rhs b / bden, b integers,
    by dual simplex from its basis, dual feasible for every b.  Each row t
    is its artificial block times [L A | I | L b], `red` too but for den
    times the unit costs, zero on the artificials, so t's rhs is that block
    times L b.  A row whose basic column is an artificial must read 0, or b
    is outside the span of A.  Bland's rule in the dual: the leaving row
    has the lowest basic column among the negative rhs, the entering column
    the smallest red_j / -a_rj (cross-multiplied), lowest j on ties.
    Raises Infeasible; tab keeps its last basis for the next b."""
    n, nvars = tab.ncols, tab.nvars
    lb = [tab.scale * v for v in b]
    for t in tab.rows + [tab.red]:
        t[n] = sum(m * v for m, v in zip(t[nvars:n], lb) if v)
    if any(row[n] for row, bcol in zip(tab.rows, tab.basis) if bcol >= nvars):
        raise Infeasible("b is outside the span of A")
    while True:
        out = [i for i in range(tab.nrows) if tab.rows[i][n] < 0]
        if not out:
            return Fraction(-tab.red[n], tab.den * bden)
        r = min(out, key=tab.basis.__getitem__)
        row, red, col = tab.rows[r], tab.red, None
        for j in range(nvars):
            if row[j] < 0 and (col is None or red[j] * row[col] > red[col] * row[j]):
                col = j
        if col is None:
            raise Infeasible("no column enters the leaving row")
        tab.pivot(r, col)
