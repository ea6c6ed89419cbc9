"""Greedy triangularization of a basis against separating functionals.

Maintains two index prefixes alpha (into the functional list) and beta (into
the basis list) such that every leading minor of the pairing matrix
A[j][k] = f_alpha(j)(u_beta(k)) is invertible, alternating a forced
minimal-index pick with a greedy scan.  Both run on one `linalg.Bordered`
factor of A that grows by a row and a column per pick; as transposing A
swaps its two triangles, functional and vector picks share the code with the
roles swapped.  The scan pairs each candidate with the defect item, the
forced item minus a combination of the chosen ones of its kind that pairs to
zero with every chosen item of the other kind; that one pairing decides the
candidate.  The solution of A_m c = e_m gives the coefficients making the
combined vectors v_m biorthogonal-triangular against the chosen functionals,
which is exactly what turns the shuffled basis matrix unit lower triangular.

The work is done on integers (fraction-free arithmetic; Bareiss, Math.
Comp. 22, 1968).  Each functional and basis vector is scaled once to an
integer row over its denominator (`ScalarContext.integer_row`), and the
basis check reuses those rows.  The factor is bordered with the
pairings of these rows, A' = D_f·A·D_u for D_f and D_u the denominators, and
keeps the leading minors Δ'_k of A'.  The defect item is the integer
combination Δ'_n·(forced - sum_j λ_j own_j) of a fraction-free back
substitution, so its pairing with a candidate is Δ'_{n+1} itself and a
rejected candidate costs one integer pairing.  A Fraction is built only for
a value the state holds: a minor, a coefficient or an entry of v_m (see
`_Bordered.solution`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from . import linalg
from .errors import Exhausted, LinearlyDependent
from .operators import FiniteRankOperator, ZERO
from .scalars import EXACT, Scalar, ScalarContext
from .vectors import CoordFunctional, SparseVector, _dot

# The driver refuses to start without this much slack beyond the prefix it
# must build; greedy scans need room.
WINDOW_MARGIN = 2


class _Row:
    """A functional or basis vector as integer numerators over one positive denominator.

    Pairings and combinations of rows are sums on integers, and neither
    builds a Fraction.
    """

    __slots__ = ("row", "den")

    def __init__(self, row: Dict[int, int], den: int):
        self.row = row
        self.den = den

    def pair(self, other: "_Row") -> int:
        """The pairing of the numerators, den·other.den times the items'."""
        return _dot(self.row, other.row)

    def plus(self, scale: int, coeffs: Sequence[int], rows: Sequence["_Row"]) -> "_Row":
        """scale·self + sum of c * row over the pairs with c != 0, numerators
        only (den 1); each coordinate is inserted, and dropped where a partial
        sum cancels, in the order `vectors.combine` would use."""
        acc = {i: v * scale for i, v in self.row.items()}
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


class _Bordered(linalg.Bordered):
    """The factor of the pairing matrix of the functionals and vectors chosen
    so far; items[0] and items[1] hold them, as `_scaled` gives them, in pick
    order.  The factor is bordered with the pairings of their numerators,
    A' = D_f·A·D_u for D_f and D_u the denominators."""

    def __init__(self, ctx: ScalarContext):
        super().__init__(ctx)
        self.items: Tuple[list, list] = ([], [])

    def extend(self, side: int, forced, candidates: Sequence) -> int:
        """Border A with `forced` and the first candidate giving a non-zero pivot.

        `forced` is a functional for side 0 and a vector for side 1; the
        candidates are of the other kind.  Returns the position of the pick;
        raises Exhausted when every pivot vanishes.
        """
        own, other = self.items[side], self.items[1 - side]
        n = len(own)
        row = self.border(side, [forced.pair(y) for y in other])
        # the defect item pairs to zero with every chosen item of the other
        # kind, and to the next pivot with the candidate
        lam = self.back(side, [row.get(k, 0) for k in range(n)])
        defect = forced.plus(self.scale(n), [-c for c in lam], own)
        for pos, candidate in enumerate(candidates):
            pivot = defect.pair(candidate)
            if pivot:
                break
        else:
            raise Exhausted("every candidate pairs to zero with the defect item")
        col = self.border(1 - side, [x.pair(candidate) for x in own])
        own.append(forced)
        other.append(candidate)
        self.append(side, row, col, pivot)
        return pos

    def solution(self, m: int) -> Tuple[Tuple[Scalar, ...], SparseVector, Scalar]:
        """(c, v_m, det A_m) for the solution c of A_m c = e_m, v_m the
        combination of the chosen vectors with it.

        y = Δ'_{m-1}·(column m of U'_m^{-1}) is an integer vector for the
        minors Δ' of A', so c_j = uden_j·y_j·fden_m / Δ'_m,
        v_m = (fden_m / Δ'_m)·sum_j y_j·u_row_j and det A_m = Δ'_m / prod of
        fden·uden; only these values become Fractions.
        """
        fs, us = self.items
        y = self.back(1, [0] * (m - 1) + [self.scale(m - 1)])
        minor, fden = self.pivots[m - 1], fs[m - 1].den
        c = tuple(Fraction(u.den * yj * fden, minor) for u, yj in zip(us, y))
        acc = _Row({}, 1).plus(1, y, us).row
        v = SparseVector({i: Fraction(fden * e, minor) for i, e in acc.items()})
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
    basis = tuple(basis)
    funcs = tuple(funcs)
    target = 2 * stages
    if len(basis) < target or len(funcs) < target + WINDOW_MARGIN:
        raise Exhausted(
            f"prefix of length {target} needs at least {target} basis vectors "
            f"and {target + WINDOW_MARGIN} functionals"
        )
    items = ([_scaled(f, ctx) for f in funcs], [_scaled(u, ctx) for u in basis])
    if not linalg.independent((u.row for u in items[1]), ctx):
        raise LinearlyDependent("basis vectors are not linearly independent")

    lu = _Bordered(ctx)
    picks: Tuple[List[int], List[int]] = ([], [])  # alpha, beta
    for step in range(target):
        # even steps force a functional index and scan the basis, odd steps
        # force a basis index and scan the functionals
        side = step % 2
        forced = min(i for i in range(1, len(items[side]) + 1) if i not in picks[side])
        candidates = [i for i in range(1, len(items[1 - side]) + 1)
                      if i not in picks[1 - side]]
        pos = lu.extend(side, items[side][forced - 1],
                        [items[1 - side][i - 1] for i in candidates])
        picks[side].append(forced)
        picks[1 - side].append(candidates[pos])

    coeffs, vs, minors = list(zip(*(lu.solution(m) for m in range(1, target + 1)))) or [()] * 3
    return TriangularizeState(
        alpha=tuple(picks[0]),
        beta=tuple(picks[1]),
        basis=basis,
        funcs=funcs,
        coeffs=coeffs,
        v=vs,
        minors=minors,
    )


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
