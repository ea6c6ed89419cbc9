"""Greedy triangularization of a basis against separating functionals.

Maintains two index prefixes alpha (into the functional list) and beta (into
the basis list) such that every leading minor of the pairing matrix
A[j][k] = f_alpha(j)(u_beta(k)) is invertible, alternating a forced
minimal-index pick with a greedy scan.  Both run on one `linalg.Bordered`
factorisation A = L·D·U that grows by a row and a column per pick; as
A^T = U^T·D·L^T, functional and vector picks share the code with the roles
swapped.  The scan pairs each candidate with the defect item, the forced
item minus a combination of the chosen ones of its kind that pairs to zero
with every chosen item of the other kind; that one pairing is the candidate's
pivot.  A pivot is det A_{n+1} / det A_n, so the minors are running products,
and column m of U_m^{-1} over the m-th pivot gives the coefficients making
the combined vectors v_m biorthogonal-triangular against the chosen
functionals, which is exactly what turns the shuffled basis matrix unit
lower triangular.

In exact mode the work is done on integers (fraction-free arithmetic;
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9).
Each functional and basis vector is scaled once to an integer row over its
denominator (`ScalarContext.integer_row`), and the basis check reuses those
rows.  Pairings, the defect items and the combined vectors v_m are integer
sums over one common denominator, and the substitutions of the factor are
`ScalarContext.sub_products`; a Fraction is built only for a pairing, a
substitution result or an entry of v_m.  Float mode pairs and combines the
items as given, in the same order as before.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .errors import Exhausted, LinearlyDependent
from .scalars import EXACT, Scalar, ScalarContext
from .vectors import CoordFunctional, SparseVector, combine

# The driver refuses to start without this much slack beyond the prefix it
# must build; greedy scans need room.
WINDOW_MARGIN = 2


class _Row:
    """An exact item as integer numerators over one positive denominator.

    Pairings and combinations of rows are sums on integers; a Fraction is
    built only for a pairing that is read and for each entry of a combined
    vector.
    """

    __slots__ = ("row", "den")

    def __init__(self, row: Dict[int, int], den: int):
        self.row = row
        self.den = den

    def pair(self, other: "_Row") -> Scalar:
        """The pairing as `CoordFunctional.pair` gives it: the int 0 when the
        supports are disjoint, a Fraction otherwise."""
        small, large = self.row, other.row
        if len(large) < len(small):
            small, large = large, small
        dot = None
        for i, v in small.items():
            w = large.get(i)
            if w is not None:
                dot = v * w if dot is None else dot + v * w
        return 0 if dot is None else Fraction(dot, self.den * other.den)

    def plus(self, coeffs: Sequence[Scalar], rows: Sequence["_Row"]) -> "_Row":
        """self + sum of c * row over the pairs with c != 0, over the lcm of the
        denominators; each coordinate is inserted, and dropped where a partial
        sum cancels, in the order `vectors.combine` would use."""
        terms = [(c, r) for c, r in zip(coeffs, rows) if c]
        dens = [c.denominator * r.den for c, r in terms]
        den = lcm(self.den, *dens)
        scale = den // self.den
        acc = {i: v * scale for i, v in self.row.items()}
        for (c, r), d in zip(terms, dens):
            scale = c.numerator * (den // d)
            for i, v in r.row.items():
                s = acc.get(i, 0) + v * scale
                if s:
                    acc[i] = s
                else:
                    del acc[i]
        return _Row(acc, den)

    def vector(self) -> SparseVector:
        den = self.den
        return SparseVector({i: Fraction(v, den) for i, v in self.row.items()})


class _Plain:
    """A float item, paired and combined as given."""

    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    @property
    def row(self):
        return self.item.entries

    def pair(self, other: "_Plain") -> Scalar:
        """The pairing of a functional and a vector, given in either order."""
        a, b = self.item, other.item
        return a.pair(b) if isinstance(a, CoordFunctional) else b.pair(a)

    def plus(self, coeffs: Sequence[Scalar], rows: Sequence["_Plain"]) -> "_Plain":
        return _Plain(combine(zip(coeffs, (r.item for r in rows)), self.item))

    def vector(self) -> SparseVector:
        return self.item


def _scaled(item, ctx: ScalarContext):
    """The item as a `_Row` where `ctx.integer_row` scales it (exact mode),
    as given otherwise."""
    scaled = ctx.integer_row(item.entries)
    return _Plain(item) if scaled is None else _Row(*scaled)


class _Bordered(linalg.Bordered):
    """A = L·D·U for the pairing matrix of the functionals and vectors chosen
    so far; items[0] and items[1] hold them, as `_scaled` gives them, in pick
    order."""

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
        row = self.border(side, [forced.pair(y) for y in other])
        # the defect item pairs to zero with every chosen item of the other kind
        lam = self.back(side, [row.get(k, self.ctx.zero) for k in range(len(own))])
        defect = forced.plus([-c for c in lam], own)
        for pos, candidate in enumerate(candidates):
            pivot = defect.pair(candidate)
            if not self.ctx.is_zero(pivot):
                break
        else:
            raise Exhausted("every candidate pairs to zero with the defect item")
        col = self.border(1 - side, [x.pair(candidate) for x in own])
        own.append(forced)
        other.append(candidate)
        self.append(side, row, col, pivot)
        return pos

    def coeffs(self, m: int) -> List[Scalar]:
        """The solution c of A_m c = e_m: column m of U_m^{-1} over the m-th pivot."""
        unit = [self.ctx.one if k == m - 1 else self.ctx.zero for k in range(m)]
        return [c / self.pivots[m - 1] for c in self.back(1, unit)]


@dataclass(frozen=True)
class TriangularizeState:
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

    def chosen_funcs(self) -> List[CoordFunctional]:
        return [self.funcs[a - 1] for a in self.alpha]

    def chosen_basis(self) -> List[SparseVector]:
        return [self.basis[b - 1] for b in self.beta]


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

    zero = _scaled(SparseVector.zero(), ctx)
    coeffs: List[Tuple[Scalar, ...]] = []
    vs: List[SparseVector] = []
    for m in range(1, target + 1):
        c = lu.coeffs(m)
        coeffs.append(tuple(c))
        vs.append(zero.plus(c, lu.items[1]).vector())

    return TriangularizeState(
        alpha=tuple(picks[0]),
        beta=tuple(picks[1]),
        basis=basis,
        funcs=funcs,
        coeffs=tuple(coeffs),
        v=tuple(vs),
        minors=tuple(itertools.accumulate(lu.pivots, operator.mul)),
    )


def build_omega_operator(state: TriangularizeState):
    """Operator x -> sum_n x_{alpha(n)} v_n for coordinate-functional states.

    Its matrix in the shuffled basis e_alpha(1), e_alpha(2), ... is unit
    lower triangular, so it maps the span of the first n shuffled basis
    vectors onto span{v_1..v_n}.
    """
    from .operators import FiniteRankOperator, ZERO

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
    """M[j][n] = coordinate alpha(j+1) of v_{n+1}; unit lower triangular."""
    return [[v.get(a) for v in state.v] for a in state.alpha]
