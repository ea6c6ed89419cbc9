"""Greedy triangularization of a basis against separating functionals.

Maintains two index prefixes alpha (into the functional list) and beta (into
the basis list) such that every leading minor of the pairing matrix
A[j][k] = f_alpha(j)(u_beta(k)) is invertible, alternating a forced
minimal-index pick with a greedy scan.  Both are pivots of one
`linalg.Bareiss` pass whose entry at (f, u) is the leading minor bordered
by f and u: a functional step pivots on the first non-zero entry of the
least unused row, a vector step on that of the least unused column.  The
solution of A_m c = e_m gives the coefficients making the combined vectors
v_m biorthogonal and triangular against the chosen functionals, which turns
the shuffled basis matrix unit lower triangular.

The pass's rows are the functionals, then a unit row e_i for each basis
coordinate i that no unit functional δ_i reads; unit rows are never
picked.  By Sylvester's identity (Bareiss, Math. Comp. 22, 1968) the column
that pick m eliminates holds Δ'_m·g(v_m)/fden_m at each row g of the pass,
fden_m the denominator of the m-th picked functional, so v_m is read off it
at the rows that read a coordinate.  The unit rows give the pass the
row space of the basis, so the finished pass has full column rank exactly
when the basis is independent.

The work is done on integers (fraction-free arithmetic).  Each functional
and basis vector is read as the integer row over its denominator that it
keeps (`scalars.integer_of`), and the pass runs on their pairings,
A' = D_f·A·D_u for D_f and D_u the denominators: its pivots are the leading
minors Δ'_k of A', and `_solution` back-substitutes over its pivot rows.
A Fraction is built only for a minor, a coefficient or an entry of v_m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .errors import Exhausted, LinearlyDependent
from .operators import BASE_ZERO, FiniteRankOperator
from .scalars import Scalar, integer_of
from .vectors import CoordFunctional, SparseVector, _built, _dot

# The driver refuses to start without this much slack beyond the prefix it
# must build; greedy scans need room.
WINDOW_MARGIN = 2


def _solution(lu: linalg.Bareiss, dens: Sequence[Tuple[int, int]], column: Dict[int, int],
              coords: Sequence[Tuple[int, int]], m: int
              ) -> Tuple[Tuple[Scalar, ...], SparseVector, Scalar]:
    """(c, v_m, det A_m) for the solution c of A_m c = e_m and v_m the
    combination of the picked basis vectors with it: `dens` holds the
    (fden, uden) of the picks in order, `column` is the column that pick m
    eliminated, as `Bareiss.pick` returns it, and `coords` gives the pass
    row that reads each basis coordinate, (coordinate, row) in ascending
    coordinate order.

    y = Δ'_{m-1}·(column m of U'_m^{-1}) is an integer vector for the
    minors Δ' of A', so c_j = uden_j·y_j·fden_m / Δ'_m.  The column's entry
    a_i at a row reading coordinate i is Δ'_m·(coordinate i of v_m) / fden_m,
    and rows picked before m, absent from it, read 0 there by
    biorthogonality.  det A_m = Δ'_m / prod of fden·uden; only these values
    become Fractions.
    """
    y = lu.back([0] * (m - 1) + [lu.scale(m - 1)])
    minor, fden = lu.pivots[m - 1], dens[m - 1][0]
    c = tuple(Fraction(uden * yj * fden, minor) for (_, uden), yj in zip(dens, y))
    v = _built(SparseVector, {i: Fraction(fden * column[r], minor)
                              for i, r in coords if r in column})
    return c, v, Fraction(minor, math.prod(f * u for f, u in dens[:m]))


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
                             stages: int) -> TriangularizeState:
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
    fs, us = [integer_of(f) for f in funcs], [integer_of(u) for u in basis]
    rows = [[_dot(f, u) for u, _ in us] for f, _ in fs]
    # the pass row reading each basis coordinate: a unit functional on it (two
    # equal rows read the same, and one is zero once the other is picked), or
    # a unit row of its own after the functionals
    reads = {next(iter(f)): r for r, (f, _) in enumerate(fs) if list(f.values()) == [1]}
    coords = []
    for i in sorted(set().union(*(u for u, _ in us))):
        if i not in reads:
            reads[i] = len(rows)
            rows.append([u.get(i, 0) for u, _ in us])
        coords.append((i, reads[i]))
    elim = linalg.Bareiss(rows)
    picks, columns = [], []
    for step in range(target):
        # even steps force the least unused row (functional), odd steps the least
        # unused column; a unit row (r >= len(fs)) is never a pivot
        if step % 2:
            c = elim.cols[0]
            r = elim.in_column(c)
        else:
            r = next(iter(elim.rows))
            c = elim.in_row(r)
        if r is None or r >= len(fs) or c is None:
            break
        columns.append(elim.pick(r, c))
        picks.append((r, c))
    if elim.rank() < len(us):
        raise LinearlyDependent("basis vectors are not linearly independent")
    if len(picks) < target:
        raise Exhausted("every candidate makes the next leading minor zero")

    dens = [(fs[r][1], us[c][1]) for r, c in picks]
    coeffs, vs, minors = list(zip(*(_solution(elim, dens, column, coords, m)
                                    for m, column in enumerate(columns, start=1)))) or [()] * 3
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
    return FiniteRankOperator(BASE_ZERO, terms)


def shuffled_matrix(state: TriangularizeState) -> List[List[Scalar]]:
    """M[j][n] = coordinate alpha(j+1) of v_{n+1}, which is f_alpha(j+1)(v_{n+1})
    for coordinate functionals; unit lower triangular."""
    return [[v.get(a) for v in state.v] for a in state.alpha]
