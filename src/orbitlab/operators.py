"""Finite-rank perturbations of the identity and their exact inverses.

An operator is base + sum_j f_j (x) v_j with base either the identity or
zero.  Inversion goes through the k x k Gram system G_ij = f_i(v_j); the
Neumann sum c = sum_j p*(f_j) p_D(v_j) < 1 is kept as the invertibility
certificate only, never as a numerical inversion device.  `NeumannBudget.of`
is the one place that sums it, for `neumann_certificate` and for the
transport state and its replay; an unbounded gauge counts as infinity there.

Every pairing against a list of terms reads a `CoordIndex`, which maps each
coordinate to the ascending positions of the terms that touch it (the
compressed-column layout of a sparse matrix; Davis, Direct Methods for
Sparse Linear Systems, SIAM 2006, ch. 2).  A term whose support misses that
of x pairs to 0 and is never paired: `apply`, the Gram matrix of `invert`
and the borders of `GramFactor` pair only the overlapping (term, vector)
pairs, in term order, so each sum is that of the plain term loop.

`apply` runs on integers (fraction-free arithmetic; Geddes,
Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9): x and
each term's f and v are integer rows over their denominators, the forms
`ScalarContext.integer_of` keeps on each vector, and the term rows stay on
the operator like its index.  Pairings are integer dot products, and start
+ sum_j f_j(x) v_j is one integer sum per coordinate over a common
denominator, so one Fraction is built per coordinate the terms touch.

`GramFactor` serves the construction: it keeps I_k + G factored as terms
arrive, fraction-free, and returns J^{-1} u with two triangular
substitutions.  `invert`
serves verification: it builds the whole inverse in term form from the
inverse Gram matrix, a pivoting path independent of the factor that
`verify_transport` replays against the window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import linalg
from .errors import BudgetExceeded, NotInSpan, NotPBounded, SingularOperator
from .scalars import EXACT, Scalar, ScalarContext, _immutable
from .seminorms import DiskSpec, SeminormSpec, dual_norm, minkowski
from .vectors import CoordFunctional, SparseVector, _built, _dot, combine

IDENTITY = "identity"
ZERO = "zero"

Term = Tuple[CoordFunctional, SparseVector]
TermRows = Tuple[Dict[int, int], int, Dict[int, int], int]
FiniteMap = Union[CoordFunctional, SparseVector]


class CoordIndex:
    """Coordinate -> ascending positions of the indexed maps that touch it.

    Maps are indexed in the order they are added.  `hits(x)` lists the
    positions whose map shares a coordinate with x, so pairing x with the
    maps anywhere else gives the int 0 without a pairing.
    """

    def __init__(self, maps: Iterable[FiniteMap] = ()):
        self._at: Dict[int, List[int]] = {}
        self._size = 0
        for m in maps:
            self.add(m)

    def add(self, m: FiniteMap) -> None:
        """Index m at the next position."""
        at, pos = self._at, self._size
        for i in m.entries:
            if i in at:
                at[i].append(pos)
            else:
                at[i] = [pos]
        self._size = pos + 1

    def extended(self, m: FiniteMap) -> "CoordIndex":
        """A copy sharing no list with this index, with m at the next position."""
        index = CoordIndex()
        index._at = {i: at.copy() for i, at in self._at.items()}
        index._size = self._size
        index.add(m)
        return index

    def hits(self, x: FiniteMap) -> Sequence[int]:
        """Ascending positions of the indexed maps sharing a coordinate with x;
        read only, as it may be the index's own list."""
        at = self._at
        found = [at[i] for i in x.entries if i in at]
        if len(found) < 2:
            return found[0] if found else ()
        return sorted(set().union(*found))


class FiniteRankOperator:
    """x -> base(x) + sum_j f_j(x) v_j, term order preserved."""

    __setattr__ = __delattr__ = _immutable

    def __init__(self, base: str = IDENTITY, terms: Iterable[Term] = ()):
        if base not in (IDENTITY, ZERO):
            raise ValueError(f"unknown base {base!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "terms", tuple(terms))

    def __eq__(self, other):
        return ((self.base, self.terms) == (other.base, other.terms)
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash((self.base, self.terms))

    def __repr__(self):
        return f"FiniteRankOperator(base={self.base!r}, terms={self.terms!r})"

    @classmethod
    def identity(cls) -> "FiniteRankOperator":
        return cls(IDENTITY, ())

    @classmethod
    def zero(cls) -> "FiniteRankOperator":
        return cls(ZERO, ())

    @cached_property
    def coord_index(self) -> CoordIndex:
        """Index of the term functionals, built at the first use and kept on
        the instance, outside equality and hashing."""
        return CoordIndex(f for f, _ in self.terms)

    @cached_property
    def _term_rows(self) -> List[Optional[TermRows]]:
        """Per term, its f and v as `ScalarContext.integer_row` scales them,
        (f row, f den, v row, v den); `apply` fills a term's slot when it
        first pairs the term."""
        return [None] * len(self.terms)

    def _rebased(self, base: str) -> "FiniteRankOperator":
        """The same terms over another base, sharing one index and one list of
        term rows with this operator, built here if not yet."""
        op = FiniteRankOperator(base, self.terms)
        op.__dict__.update(coord_index=self.coord_index, _term_rows=self._term_rows)
        return op

    def with_term(self, f: CoordFunctional, v: SparseVector) -> "FiniteRankOperator":
        """The operator with one more term, keeping the term rows already
        scaled and, once built, this operator's index extended by f."""
        op = FiniteRankOperator(self.base, self.terms + ((f, v),))
        if "_term_rows" in self.__dict__:
            op.__dict__["_term_rows"] = self._term_rows + [None]
        if "coord_index" in self.__dict__:
            op.__dict__["coord_index"] = self.coord_index.extended(f)
        return op

    def linear_part(self) -> "FiniteRankOperator":
        """T - I for an identity base; a zero-base operator is its own linear part."""
        return self if self.base == ZERO else self._rebased(ZERO)

    def plus_identity(self) -> "FiniteRankOperator":
        return self._rebased(IDENTITY)

    def apply(self, x: SparseVector, ctx: ScalarContext = EXACT) -> SparseVector:
        """base(x) + sum_j f_j(x) v_j over the terms that meet x, in term order.

        The terms' integer rows are paired with x's integer form
        (`ctx.integer_of`), and start + sum_j f_j(x) v_j is summed on integers
        over one common denominator, building one Fraction per coordinate the
        terms touch; the other coordinates of x keep their Fractions, and the
        entries come in the order `vectors.combine` would give them.
        """
        identity = self.base == IDENTITY
        start = x if identity else SparseVector.zero()
        hits = self.coord_index.hits(x)
        if not hits:
            return start
        xrow, xden = ctx.integer_of(x)
        rows, terms = self._term_rows, self.terms
        # f_j(x) v_j as (numerator, denominator, v_j row) for f_j(x) != 0
        picked = []
        for j in hits:
            r = rows[j]
            if r is None:
                f, v = terms[j]
                r = rows[j] = ctx.integer_of(f) + ctx.integer_of(v)
            frow, fden, vrow, vden = r
            dot = _dot(frow, xrow)
            if dot:
                den = fden * xden * vden
                g = gcd(dot, den)
                picked.append((dot // g, den // g, vrow))
        if not picked:
            return start
        den = lcm(xden if identity else 1, *(d for _, d, _ in picked))
        start_row, scale = (xrow if identity else {}), den // xden
        acc: Dict[int, int] = {}
        out = dict(start.entries)
        for num, d, vrow in picked:
            m = num * (den // d)
            for i, v in vrow.items():
                s = (acc[i] if i in acc else start_row.get(i, 0) * scale) + v * m
                acc[i] = s
                if s:
                    out[i] = s
                else:
                    out.pop(i, None)
        return _built(SparseVector, {i: Fraction(acc[i], den) if i in acc else v
                                     for i, v in out.items()})

    def compose(self, other: "FiniteRankOperator",
                ctx: ScalarContext = EXACT) -> "FiniteRankOperator":
        """self after other, expanded back into base-plus-terms form."""
        terms: List[Term] = []
        for g, w in other.terms:
            image = self.apply(w, ctx)
            if not image.is_zero():
                terms.append((g, image))
        if other.base == IDENTITY:
            for f, v in self.terms:
                terms.append((f, v))
        base = IDENTITY if self.base == IDENTITY and other.base == IDENTITY else ZERO
        return FiniteRankOperator(base, tuple(terms))

    def matrix_on(self, indices: Sequence[int],
                  ctx: ScalarContext = EXACT) -> List[List[Scalar]]:
        """Matrix of the operator restricted to the given window coordinates."""
        cols = [self.apply(SparseVector.basis(j, ctx), ctx) for j in indices]
        return [[col.get(i) for col in cols] for i in indices]


def _gauge(measure, *args) -> Scalar:
    """measure(*args), or infinity where the gauge is unbounded: a functional
    that is not p-bounded, a vector outside the span of the disk."""
    try:
        return measure(*args)
    except (NotPBounded, NotInSpan):
        return inf


class NeumannBudget(NamedTuple):
    """c = sum_j p*(f_j) p_D(v_j) of the terms of T, with the pair
    (p*(f_j), p_D(v_j)) of each term; c < 1 certifies that I + T is invertible."""

    c: Scalar
    per_term: Tuple[Tuple[Scalar, Scalar], ...]

    @classmethod
    def of(cls, terms: Sequence[Term], p: SeminormSpec, disk: DiskSpec,
           ctx: ScalarContext = EXACT) -> "NeumannBudget":
        """Each term gauged once, an unbounded gauge counted as infinity; c
        summed in term order from `ctx.zero`.  A term with a zero factor adds
        nothing, also when the other is infinite (its f (.) v is zero)."""
        per_term = tuple((_gauge(dual_norm, p, f, ctx), _gauge(minkowski, disk, v, ctx))
                         for f, v in terms)
        return cls(sum((df * pv for df, pv in per_term if df and pv), ctx.zero), per_term)


def neumann_certificate(t: FiniteRankOperator, p: SeminormSpec, disk: DiskSpec,
                        ctx: ScalarContext = EXACT) -> NeumannBudget:
    """The budget of a base-zero operator; BudgetExceeded if c >= 1 or a
    non-zero term is unbounded (c = inf)."""
    if t.base != ZERO:
        raise ValueError("certificate applies to the finite-rank part only")
    budget = NeumannBudget.of(t.terms, p, disk, ctx)
    if not budget.c < 1:
        raise BudgetExceeded(budget.c)
    return budget


class GramFactor:
    """I_k + G factored for the terms of J = I + sum_j f_j (.) v_j, G_rc = f_r(v_c).

    A `linalg.Bordered` factor grows by one row and one column per term: the
    integer factor of D_f·(I_k + G)·D_v, for D_f and D_v the denominators of
    the integer forms `ScalarContext.integer_of` keeps on the f_r and v_c:
    entry (r, c) is fden_r·vden_c·δ_rc + f_r·v_c on the integer rows.  Two
    coordinate indices, one of the f_r and one of the v_c, grow with it, so
    term m + 1 costs one pairing per overlapping pair: one per term r <= m whose v_r meets the
    support of f (its row and diagonal) and one per earlier term whose f_r
    meets that of v (its column), 2m + 1 when every support overlaps.  `solve`
    pairs u with the f_r that meet it, then makes one forward and one back
    substitution.  There is no pivoting: det(I_m + G_m) = det J_m, so every
    leading minor is non-zero while every J_m is invertible.  A zero pivot
    makes `solve`, and any further `extend`, raise SingularOperator.
    """

    def __init__(self, ctx: ScalarContext = EXACT):
        self.ctx = ctx
        self._vs: List[SparseVector] = []
        # per term: f's and v's integer rows, its diagonal unit fden·vden and
        # v's denominator
        self._rows: List[Tuple[Mapping[int, int], Mapping[int, int], int, int]] = []
        self._f_index = CoordIndex()
        self._v_index = CoordIndex()
        self._lu = linalg.Bordered()

    def _nonsingular(self) -> None:
        pivots = self._lu.pivots
        if pivots and pivots[-1] == 0:
            n = len(pivots)
            raise SingularOperator(f"{n}x{n} Gram system is singular")

    def extend(self, f: CoordFunctional, v: SparseVector) -> None:
        """Border the factor with the term f (.) v."""
        self._nonsingular()
        lu, rows, m = self._lu, self._rows, len(self._rows)
        self._vs.append(v)
        self._f_index.add(f)
        self._v_index.add(v)
        (frow, fden), (vrow, vden) = self.ctx.integer_of(f), self.ctx.integer_of(v)
        rows.append((frow, vrow, fden * vden, vden))
        # new column of G down to the diagonal, new row left of it
        col = [0] * (m + 1)
        for r in self._f_index.hits(v):
            col[r] = _dot(rows[r][0], vrow)
        row = [0] * m
        for c in self._v_index.hits(f):
            if c < m:
                row[c] = _dot(frow, rows[c][1])
        diagonal = rows[m][2] + col.pop()
        row, col = lu.border(0, row), lu.border(1, col)
        lu.append(0, row, col, lu.pivot(diagonal, row, col))

    def solve(self, u: SparseVector) -> SparseVector:
        """J^{-1} u = u - sum_j c_j v_j with (I_k + G) c = (f_i(u))_i; u itself
        when it meets no f_i.  The factor gives x = Δ·c' for the scaled system
        and its minor Δ, and c_j = vden_j·x_j / (Δ·uden), one Fraction per
        non-zero c_j."""
        self._nonsingular()
        lu, rows = self._lu, self._rows
        hits = self._f_index.hits(u)
        if not hits:
            return u
        urow, uden = self.ctx.integer_of(u)
        rhs = [0] * len(rows)
        for r in hits:
            rhs[r] = _dot(rows[r][0], urow)
        den = lu.scale(len(rows)) * uden
        return combine(((Fraction(-r[3] * x, den), v)
                        for v, r, x in zip(self._vs, rows, lu.solve(rhs)) if x), u)


def invert(j: FiniteRankOperator, ctx: ScalarContext = EXACT) -> FiniteRankOperator:
    """Exact inverse of I + sum f_j (.) v_j via the Gram system.

    The inverse is I - sum_j f_j (.) u_j with u_j = sum_i M_ij v_i and
    M = (I_k + G)^{-1}, G_ij = f_i(v_j), read off one pivoting
    `linalg.RowReducer.of` of [I_k + G | I_k], independent of `GramFactor`;
    one walk down its rows gives each -u_j its -M_ij for one `combine`.
    SingularOperator when I_k + G is singular, i.e. when the operator
    annihilates some vector.
    """
    if j.base != IDENTITY:
        raise ValueError("inversion expects an identity-plus-finite-rank operator")
    if not j.terms:
        return FiniteRankOperator.identity()
    terms, coords, k = j.terms, j.coord_index, len(j.terms)
    # the sparse rows of [I_k + G | I_k], each in ascending column order
    gram: List[Dict[int, Scalar]] = [{} for _ in terms]
    for c, (_, v) in enumerate(terms):
        for r in coords.hits(v):
            gram[r][c] = terms[r][0].pair(v)
        gram[c][c] = gram[c].get(c, 0) + ctx.one
    red = linalg.RowReducer.of(
        [{c: g for c, g in row.items() if g} | {k + r: ctx.one} for r, row in enumerate(gram)], ctx)
    if any(pc >= k for pc in red.rows):
        raise SingularOperator(f"{k}x{k} matrix is not invertible")
    cols: List[List[Tuple[Scalar, SparseVector]]] = [[] for _ in terms]
    for r, (_, v) in enumerate(terms):
        for c, m in red.rows[r].items():
            if c >= k:
                cols[c - k].append((-m, v))
    return FiniteRankOperator(IDENTITY, tuple((f, combine(u)) for (f, _), u in zip(terms, cols)))


def orbit(t: FiniteRankOperator, x0: SparseVector, horizon: int,
          ctx: ScalarContext = EXACT) -> List[SparseVector]:
    """First `horizon` elements x0, T x0, T^2 x0, ..., applying T horizon - 1 times."""
    out = [x0]
    for _ in range(horizon - 1):
        out.append(t.apply(out[-1], ctx))
    return out[:horizon]


def conjugate_orbit(t0: FiniteRankOperator, x0: SparseVector, j: FiniteRankOperator,
                    horizon: int, ctx: ScalarContext = EXACT) -> List[SparseVector]:
    """Orbit of J T0 J^{-1} started at J x0, computed through the conjugate."""
    j_inv = invert(j, ctx)
    conjugated = j.compose(t0, ctx).compose(j_inv, ctx)
    return orbit(conjugated, j.apply(x0, ctx), horizon, ctx)
