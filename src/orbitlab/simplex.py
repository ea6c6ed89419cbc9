"""Exact simplex solver for the small equality-form programs used by disk gauges.

Solves  min c.x  subject to  A x = b, x >= 0  over the scalars of the active
mode.  Two phases with Bland's anti-cycling rule throughout, so runs
terminate even on the degenerate ties that tied optimal disk representations
produce.  The tableau carries its reduced-cost row: each phase prices the
costs against the basis once, and every pivot then updates that row with the
same zero-skipping row step it applies to the constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .errors import WorkbenchError
from .scalars import EXACT, Scalar, ScalarContext


class Infeasible(WorkbenchError):
    """The constraint set A x = b, x >= 0 is empty."""


class Unbounded(WorkbenchError):
    """The objective decreases without bound on the feasible set."""


@dataclass
class LPResult:
    value: Scalar
    x: List[Scalar]


def _eliminate(target: List[Scalar], row: Sequence[Scalar], col: int) -> None:
    """target -= target[col] * row in place, skipping the zero entries of row."""
    f = target[col]
    if f:
        for j, y in enumerate(row):
            if y:
                target[j] -= f * y


class _Tableau:
    """Equality-form tableau: columns = variables + artificials, then rhs.

    `basis[i]` is the column currently basic in row i; `red` is the
    reduced-cost row, priced once per phase and then pivoted like the others.
    Bland's rule: the entering column is the lowest-index one with negative
    reduced cost, the leaving row breaks ratio ties by lowest basis column.
    """

    def __init__(self, a, b, nvars: int, ctx: ScalarContext):
        self.ctx = ctx
        self.nvars = nvars
        self.nrows = len(a)
        self.ncols = nvars + self.nrows
        self.rows: List[List[Scalar]] = []
        self.basis: List[int] = []
        for i in range(self.nrows):
            row = [ctx.coerce(v) for v in a[i]]
            rhs = ctx.coerce(b[i])
            if rhs < 0:
                row = [-v for v in row]
                rhs = -rhs
            row += [ctx.one if k == i else ctx.zero for k in range(self.nrows)]
            row.append(rhs)
            self.rows.append(row)
            self.basis.append(nvars + i)
        self.red: List[Scalar] = [ctx.zero] * (self.ncols + 1)

    def pivot(self, row: int, col: int):
        piv = self.rows[row][col]
        prow = self.rows[row] = [v / piv for v in self.rows[row]]
        for target in self.rows[:row] + self.rows[row + 1:] + [self.red]:
            _eliminate(target, prow, col)
        self.basis[row] = col

    def minimize(self, costs: Sequence[Scalar], allowed: int):
        """Bland iterations; only columns < `allowed` may enter."""
        ctx = self.ctx
        self.red = list(costs) + [ctx.zero]
        for row, bcol in zip(self.rows, self.basis):
            _eliminate(self.red, row, bcol)
        while True:
            col = next((j for j in range(allowed) if ctx.lt(self.red[j], 0)), None)
            if col is None:
                return
            best_row = best_ratio = None
            for i in range(self.nrows):
                coef = self.rows[i][col]
                if not ctx.lt(0, coef):
                    continue
                ratio = self.rows[i][self.ncols] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[best_row])
                ):
                    best_row, best_ratio = i, ratio
            if best_row is None:
                raise Unbounded("improving column has no positive entries")
            self.pivot(best_row, col)

    def solution(self) -> List[Scalar]:
        x = [self.ctx.zero] * self.nvars
        for i, bcol in enumerate(self.basis):
            if bcol < self.nvars:
                x[bcol] = self.rows[i][self.ncols]
        return x


def solve_lp(c: Sequence[Scalar], a: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
             ctx: ScalarContext = EXACT) -> LPResult:
    """Minimize c.x over A x = b, x >= 0."""
    nvars = len(c)
    tab = _Tableau(a, b, nvars, ctx)

    # Phase 1: minimize the artificial sum; feasible iff it reaches zero.
    phase1 = [ctx.zero] * nvars + [ctx.one] * tab.nrows
    tab.minimize(phase1, allowed=tab.ncols)
    infeas = sum(
        (tab.rows[i][tab.ncols] for i in range(tab.nrows) if tab.basis[i] >= nvars),
        ctx.zero,
    )
    if not ctx.is_zero(infeas):
        raise Infeasible(f"phase 1 optimum {infeas} > 0")

    # Drive lingering artificials out of the basis where possible.
    for i in range(tab.nrows):
        if tab.basis[i] >= nvars:
            col = next(
                (j for j in range(nvars) if not ctx.is_zero(tab.rows[i][j])), None
            )
            if col is not None:
                tab.pivot(i, col)

    # Phase 2: artificial columns may not re-enter.
    phase2 = [ctx.coerce(v) for v in c] + [ctx.zero] * tab.nrows
    tab.minimize(phase2, allowed=nvars)

    x = tab.solution()
    value = sum((ctx.coerce(c[j]) * x[j] for j in range(nvars)), ctx.zero)
    return LPResult(value=value, x=x)
