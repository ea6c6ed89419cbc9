"""Greedy triangularization of a basis against separating functionals.

Maintains two index prefixes alpha (into the functional list) and beta (into
the basis list) such that every leading minor of the pairing matrix
A[j][k] = f_alpha(j)(u_beta(k)) is invertible, alternating a forced
minimal-index pick with a greedy scan.  Both are pivots of one
`linalg.Bareiss` pass over the whole pairing matrix, whose entry at (f, u)
is the leading minor bordered by f and u: a functional step pivots on the
first non-zero entry of the least unused row, a vector step on that of the
least unused column.  Finished, the pass proves the basis independent by
its full column rank; a deficient pass, or a step without a pivot, asks
`linalg.dense_independent`.  The solution of A_m c = e_m gives the
coefficients making the combined vectors v_m biorthogonal and triangular
against the chosen functionals, which turns the shuffled basis matrix unit
lower triangular.

The work is done on integers (fraction-free arithmetic; Bareiss, Math. Comp.
22, 1968).  Each functional and basis vector is scaled once to an integer
row over its denominator (`ScalarContext.integer_row`), and the pass runs
on their pairings, A' = D_f·A·D_u for D_f and D_u the denominators: its
pivots are the leading minors Δ'_k of A', and `_solution` back-substitutes
over its pivot rows.  A Fraction is built only for a minor, a coefficient
or an entry of v_m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .errors import Exhausted, LinearlyDependent
from .operators import FiniteRankOperator, ZERO
from .scalars import EXACT, Scalar, ScalarContext
from .vectors import CoordFunctional, SparseVector, _built, _dot

# The driver refuses to start without this much slack beyond the prefix it
# must build; greedy scans need room.
WINDOW_MARGIN = 2


class _Row:
    """A functional or basis vector as integer numerators over one positive denominator.

    Pairings (`_dot` of two rows, their dens' product times the items') and
    combinations of rows are sums on integers, and neither builds a Fraction.
    """

    __slots__ = ("row", "den")

    def __init__(self, row: Dict[int, int], den: int):
        self.row = row
        self.den = den

    def plus(self, coeffs: Sequence[int], rows: Sequence["_Row"]) -> "_Row":
        """self + sum of c * row over the pairs with c != 0, numerators only
        (den 1); each coordinate is inserted, and dropped where a partial sum
        cancels, in the order `vectors.combine` would use."""
        acc = dict(self.row)
        for c, r in zip(coeffs, rows):
            if c:
                for i, v in r.row.items():
                    s = acc.get(i, 0) + v * c
                    if s:
                        acc[i] = s
                    else:
                        del acc[i]
        return _Row(acc, 1)


def _scaled(item, ctx: ScalarContext) -> _Row:
    """The item as a `_Row`, scaled by `ctx.integer_row`."""
    return _Row(*ctx.integer_row(item.entries))


def _solution(lu: linalg.Bordered, fs: Sequence[_Row], us: Sequence[_Row],
              m: int) -> Tuple[Tuple[Scalar, ...], SparseVector, Scalar]:
    """(c, v_m, det A_m) for the solution c of A_m c = e_m and v_m the
    combination of us with it; fs and us in pick order, `lu` their factor.

    y = Δ'_{m-1}·(column m of U'_m^{-1}) is an integer vector for the
    minors Δ' of A', so c_j = uden_j·y_j·fden_m / Δ'_m,
    v_m = (fden_m / Δ'_m)·sum_j y_j·u_row_j and det A_m = Δ'_m / prod of
    fden·uden; only these values become Fractions.
    """
    y = lu.back(1, [0] * (m - 1) + [lu.scale(m - 1)])
    minor, fden = lu.pivots[m - 1], fs[m - 1].den
    c = tuple(Fraction(u.den * yj * fden, minor) for u, yj in zip(us, y))
    acc = _Row({}, 1).plus(y, us).row
    v = _built(SparseVector, {i: Fraction(fden * e, minor) for i, e in acc.items()})
    return c, v, Fraction(minor, math.prod(f.den * u.den for f, u in zip(fs[:m], us)))


class TriangularizeState(NamedTuple):
    """Prefixes of the two bijections plus the triangular combination data.

    alpha/beta are 1-based indices into funcs/basis.  coeffs[m-1] holds the
    m coefficients of v_m = sum_j c_{j,m} u_{beta(j)}; minors[m-1] is the
    exact determinant of the m x m leading pairing minor.
    """

    alpha: Tuple[int, ...]
    beta: Tuple[int, ...]
    basis: Tuple[SparseVector, ...]
    funcs: Tuple[CoordFunctional, ...]
    coeffs: Tuple[Tuple[Scalar, ...], ...]
    v: Tuple[SparseVector, ...]
    minors: Tuple[Scalar, ...]

    @property
    def built(self) -> int:
        return len(self.alpha)


def interleave_triangularize(basis: Sequence[SparseVector],
                             funcs: Sequence[CoordFunctional],
                             stages: int,
                             ctx: ScalarContext = EXACT) -> TriangularizeState:
    """Run `stages` rounds of the alternating construction (prefix length 2k).

    Each round picks the minimal unused functional index, scans the basis for
    a vector keeping the minor invertible, then picks the minimal unused
    basis index and scans the functionals.  Raises Exhausted when the inputs
    are too short for the requested prefix plus margin, LinearlyDependent when
    the basis is not linearly independent.
    """
    basis, funcs = tuple(basis), tuple(funcs)
    target = 2 * stages
    if len(basis) < target or len(funcs) < target + WINDOW_MARGIN:
        raise Exhausted(
            f"prefix of length {target} needs at least {target} basis vectors "
            f"and {target + WINDOW_MARGIN} functionals"
        )
    fs, us = [_scaled(f, ctx) for f in funcs], [_scaled(u, ctx) for u in basis]
    elim = linalg.Bareiss([[_dot(f.row, u.row) for u in us] for f in fs])
    picks = []
    for step in range(target):
        # even steps force the least unused row (functional), odd steps the least unused column
        if step % 2:
            c = elim.cols[0]
            r = elim.in_column(c)
        else:
            r = next(iter(elim.rows))
            c = elim.in_row(r)
        if r is None or c is None:
            break
        elim.pick(r, c)
        picks.append((r, c))
    if elim.rank() < len(us) and not linalg.dense_independent([u.row for u in us]):
        raise LinearlyDependent("basis vectors are not linearly independent")
    if len(picks) < target:
        raise Exhausted("every candidate makes the next leading minor zero")

    fs, us = [fs[r] for r, _ in picks], [us[c] for _, c in picks]
    coeffs, vs, minors = list(zip(*(_solution(elim, fs, us, m)
                                    for m in range(1, target + 1)))) or [()] * 3
    alpha, beta = tuple(r + 1 for r, _ in picks), tuple(c + 1 for _, c in picks)
    return TriangularizeState(alpha, beta, basis, funcs, coeffs, vs, minors)


def build_omega_operator(state: TriangularizeState) -> FiniteRankOperator:
    """Operator x -> sum_n x_{alpha(n)} v_n for coordinate-functional states.

    Its matrix in the shuffled basis e_alpha(1), e_alpha(2), ... is unit
    lower triangular, so it maps the span of the first n shuffled basis
    vectors onto span{v_1..v_n}.
    """
    for a in state.alpha:
        f = state.funcs[a - 1]
        if f.pairs() != ((a, 1),):
            raise ValueError(
                "shuffled-basis operator needs coordinate functionals as funcs"
            )
    terms = tuple(
        (state.funcs[a - 1], v) for a, v in zip(state.alpha, state.v)
    )
    return FiniteRankOperator(ZERO, terms)


def shuffled_matrix(state: TriangularizeState) -> List[List[Scalar]]:
    """M[j][n] = coordinate alpha(j+1) of v_{n+1}, which is f_alpha(j+1)(v_{n+1})
    for coordinate functionals; unit lower triangular."""
    return [[v.get(a) for v in state.v] for a in state.alpha]
