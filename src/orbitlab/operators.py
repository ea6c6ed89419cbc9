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
of x pairs to 0 and is never paired: `apply` and the Gram system of `solve`
and `invert` pair only the overlapping (term, vector) pairs, in term order,
so each sum is that of the plain term loop.

`apply` runs on integers (fraction-free arithmetic; Geddes,
Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9): x and
each term's f and v are integer rows over their denominators, the forms
`scalars.integer_of` keeps on each vector and functional, so no operator
keeps rows of its own.  Pairings are integer dot products, and start
+ sum_j f_j(x) v_j is one integer sum per coordinate over a common
denominator, so one Fraction is built per coordinate the terms touch.

`solve` serves the construction and `invert` verification.  Both build
the Gram system scaled to integers, D_f(I_k + G)D_v, in one place,
`_gram_rows`, and make one pivoting `linalg.solve` of it: `solve` with
the pairings of u for J^{-1} u, `invert` with D_f for the whole inverse in
term form, which `verify_transport` replays against the window.  The
replay checks go through `apply` alone, so they stay independent of the
shared system.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from . import linalg
from .errors import BudgetExceeded, NotInSpan, NotPBounded, SingularOperator
from .scalars import Scalar, _immutable, integer_of
from .seminorms import DiskSpec, SeminormSpec, dual_norm, minkowski
from .vectors import CoordFunctional, SparseVector, _built, _dot, combine

BASE_IDENTITY = "identity"
BASE_ZERO = "zero"

Term = Tuple[CoordFunctional, SparseVector]
FiniteMap = Union[CoordFunctional, SparseVector]
IntForm = Tuple[Dict[int, int], int]


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

    def __init__(self, base: str = BASE_IDENTITY, terms: Iterable[Term] = ()):
        if base not in (BASE_IDENTITY, BASE_ZERO):
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
        return cls(BASE_IDENTITY, ())

    @classmethod
    def zero(cls) -> "FiniteRankOperator":
        return cls(BASE_ZERO, ())

    @cached_property
    def coord_index(self) -> CoordIndex:
        """Index of the term functionals, built at the first use and kept on
        the instance, outside equality and hashing."""
        return CoordIndex(f for f, _ in self.terms)

    def _rebased(self, base: str) -> "FiniteRankOperator":
        """The same terms over another base, sharing one index with this
        operator, built here if not yet."""
        op = FiniteRankOperator(base, self.terms)
        op.__dict__["coord_index"] = self.coord_index
        return op

    def with_term(self, f: CoordFunctional, v: SparseVector) -> "FiniteRankOperator":
        """The operator with one more term and, once built, this operator's
        index extended by f."""
        op = FiniteRankOperator(self.base, self.terms + ((f, v),))
        if "coord_index" in self.__dict__:
            op.__dict__["coord_index"] = self.coord_index.extended(f)
        return op

    def linear_part(self) -> "FiniteRankOperator":
        """T - I for an identity base; a zero-base operator is its own linear part."""
        return self if self.base == BASE_ZERO else self._rebased(BASE_ZERO)

    def plus_identity(self) -> "FiniteRankOperator":
        return self._rebased(BASE_IDENTITY)

    def apply(self, x: SparseVector) -> SparseVector:
        """base(x) + sum_j f_j(x) v_j over the terms that meet x, in term order.

        Each f_j's integer form (`integer_of`) is paired with x's, v_j's
        form is read only when f_j(x) != 0, and start + sum_j f_j(x) v_j is
        summed on integers over one common denominator, building one
        Fraction per coordinate the terms touch; the other coordinates of x
        keep their Fractions, and the entries come in the order
        `vectors.combine` would give them.
        """
        identity = self.base == BASE_IDENTITY
        start = x if identity else SparseVector.zero()
        hits = self.coord_index.hits(x)
        if not hits:
            return start
        xrow, xden = integer_of(x)
        terms = self.terms
        # f_j(x) v_j as (numerator, denominator, v_j row) for f_j(x) != 0
        picked = []
        for j in hits:
            f, v = terms[j]
            frow, fden = integer_of(f)
            dot = _dot(frow, xrow)
            if dot:
                vrow, vden = integer_of(v)
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

    def compose(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        """self after other, expanded back into base-plus-terms form."""
        terms: List[Term] = []
        for g, w in other.terms:
            image = self.apply(w)
            if not image.is_zero():
                terms.append((g, image))
        if other.base == BASE_IDENTITY:
            for f, v in self.terms:
                terms.append((f, v))
        both = self.base == other.base == BASE_IDENTITY
        base = BASE_IDENTITY if both else BASE_ZERO
        return FiniteRankOperator(base, tuple(terms))

    def matrix_on(self, indices: Sequence[int]) -> List[List[Scalar]]:
        """Matrix of the operator restricted to the given window coordinates."""
        cols = [self.apply(SparseVector.basis(j)) for j in indices]
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
    def of(cls, terms: Sequence[Term], p: SeminormSpec, disk: DiskSpec) -> "NeumannBudget":
        """Each term gauged once, an unbounded gauge counted as infinity; c
        summed in term order from a Fraction 0.  A term with a zero factor adds
        nothing, also when the other is infinite (its f (.) v is zero)."""
        per_term = tuple((_gauge(dual_norm, p, f), _gauge(minkowski, disk, v))
                         for f, v in terms)
        return cls(sum((df * pv for df, pv in per_term if df and pv), Fraction(0)), per_term)


def neumann_certificate(t: FiniteRankOperator, p: SeminormSpec, disk: DiskSpec) -> NeumannBudget:
    """The budget of a base-zero operator; BudgetExceeded if c >= 1 or a
    non-zero term is unbounded (c = inf)."""
    if t.base != BASE_ZERO:
        raise ValueError("certificate applies to the finite-rank part only")
    budget = NeumannBudget.of(t.terms, p, disk)
    if not budget.c < 1:
        raise BudgetExceeded(budget.c)
    return budget


def _gram_rows(j: FiniteRankOperator) -> Tuple[List[Dict[int, int]], List[IntForm], List[IntForm]]:
    """The sparse rows of D_f(I_k + G)D_v for the terms of j, each in
    ascending column order, with the integer forms (row, den) of the f_r and
    of the v_c: entry (r, c) is fden_r·vden_c·δ_rc + f_r·v_c on the integer
    forms `scalars.integer_of` keeps.  A column pairs v_c only with the f_r
    that `j.coord_index` finds on its support."""
    terms, coords = j.terms, j.coord_index
    fs, vs = [integer_of(f) for f, _ in terms], [integer_of(v) for _, v in terms]
    rows: List[Dict[int, int]] = [{} for _ in terms]
    for c, ((_, v), (vrow, vden)) in enumerate(zip(terms, vs)):
        for r in coords.hits(v):
            if dot := _dot(fs[r][0], vrow):
                rows[r][c] = dot
        if diagonal := rows[c].pop(c, 0) + fs[c][1] * vden:
            rows[c][c] = diagonal
    return rows, fs, vs


def solve(j: FiniteRankOperator, u: SparseVector) -> SparseVector:
    """J^{-1} u for J = I + sum_j f_j (.) v_j: u - sum_j c_j v_j with
    (I_k + G) c = (f_i(u))_i, or u itself when it meets no f_i.

    One pivoting `linalg.solve` of [D_f(I_k + G)D_v | r], r_i = F_i·U on the
    integer forms of f_i and u, gives x with c_j = vden_j·x_j / uden, one
    Fraction per non-zero c_j.  SingularOperator when I_k + G is singular.
    """
    if j.base != BASE_IDENTITY:
        raise ValueError("solve expects an identity-plus-finite-rank operator")
    hits = j.coord_index.hits(u)
    if not hits:
        return u
    rows, fs, vs = _gram_rows(j)
    urow, uden = integer_of(u)
    k = len(rows)
    for r in hits:
        if dot := _dot(fs[r][0], urow):
            rows[r][k] = dot
    solved = linalg.solve(rows, k)
    if solved is None or len(solved) < k:
        raise SingularOperator(f"{k}x{k} Gram system is singular")
    return combine(((-vden * x[0] / uden, v)
                    for x, (_, v), (_, vden) in zip(solved.values(), j.terms, vs) if x), u)


def invert(j: FiniteRankOperator) -> FiniteRankOperator:
    """Exact inverse of I + sum f_j (.) v_j via the Gram system.

    The inverse is I - sum_j f_j (.) u_j with u_j = sum_i M_ij v_i and
    M = (I_k + G)^{-1}, G_ij = f_i(v_j).  One pivoting `linalg.solve` of
    [D_f(I_k + G)D_v | D_f], the rows `_gram_rows` builds as for `solve`,
    gives D_v^{-1}·M, so row r of M is vden_r times its row r;
    one walk down M's rows gives each -u_j its -M_ij for one `combine`.
    SingularOperator when I_k + G is singular, i.e. when the operator
    annihilates some vector.
    """
    if j.base != BASE_IDENTITY:
        raise ValueError("inversion expects an identity-plus-finite-rank operator")
    if not j.terms:
        return FiniteRankOperator.identity()
    terms, k = j.terms, len(j.terms)
    rows, fs, vs = _gram_rows(j)
    solved = linalg.solve([row | {k + r: fs[r][1]} for r, row in enumerate(rows)], k)
    if solved is None:
        raise SingularOperator(f"{k}x{k} matrix is not invertible")
    cols: List[List[Tuple[Scalar, SparseVector]]] = [[] for _ in terms]
    for row, (_, v), (_, vden) in zip(solved.values(), terms, vs):
        for c, x in row.items():
            cols[c].append((-vden * x, v))
    return FiniteRankOperator(BASE_IDENTITY,
                              tuple((f, combine(u)) for (f, _), u in zip(terms, cols)))


def orbit(t: FiniteRankOperator, x0: SparseVector, horizon: int) -> List[SparseVector]:
    """First `horizon` elements x0, T x0, T^2 x0, ..., applying T horizon - 1 times."""
    out = [x0]
    for _ in range(horizon - 1):
        out.append(t.apply(out[-1]))
    return out[:horizon]


def conjugate_orbit(t0: FiniteRankOperator, x0: SparseVector, j: FiniteRankOperator,
                    horizon: int) -> List[SparseVector]:
    """Orbit of J T0 J^{-1} started at J x0, computed through the conjugate."""
    j_inv = invert(j)
    conjugated = j.compose(t0).compose(j_inv)
    return orbit(conjugated, j.apply(x0), horizon)
