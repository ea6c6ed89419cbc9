"""Seminorms, disks, dual norms and the concrete separating-functional solve.

Seminorms are sup- or l1-combinations of weighted coordinates over a finite
active set; their kernels are exactly the vectors supported outside the
active set, so kernel membership is a support inspection.  The dual norm and
the Minkowski gauge of a disk are computed in closed form (weight form) or
by an exact linear program (generator form).  The sup kind's dual norm
sum_i |f_i| / w_i and the weight-form gauge sum_i |u_i| / d_i are
`ScalarContext.abs_ratio_sum`, one integer numerator over one common
denominator, and a generator disk scales its LP matrix once and re-solves
each gauge from its last optimum.  `gauge_below` answers whether
the gauge of x - y lies below a bound, and in weight form sums it from x
and y and stops once the bound is reached, building no difference; it sums
on integers, over the inverse weights the disk scales once.  The
separating-functional construction replaces the Hahn-Banach step of the
abstract theory with a finite nullspace pick: `Separator` keeps the
constraint list that grows one vector at a time in a `linalg.RowReducer`,
and `Separator.of` fills one from a single `linalg.RowReducer.of` for a list
given once.  The p-independence test needs only a rank, so it runs on
`linalg.independent`, fraction-free.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from . import linalg, simplex
from .errors import NoSeparation, NotInSpan, NotPBounded
from .scalars import EXACT, Scalar, ScalarContext, _exact_entry, _immutable
from .vectors import CoordFunctional, SparseVector

SUP = "sup"
L1 = "l1"


def _clean_weights(weights: Mapping[int, Scalar]) -> dict:
    out = {}
    for idx, w in weights.items():
        idx = int(idx)
        if idx < 1:
            raise ValueError(f"coordinate indices are positive, got {idx}")
        w = _exact_entry(w, idx, "weight")
        if not w > 0:
            raise ValueError(f"weight at coordinate {idx} must be positive, got {w}")
        out[idx] = w
    return out


class SeminormSpec:
    """p(x) = max_i w_i |x_i|  (sup kind)  or  sum_i w_i |x_i|  (l1 kind); unhashable."""

    __slots__ = ("kind", "weights")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, kind: str, weights: Optional[Mapping[int, Scalar]] = None):
        if kind not in (SUP, L1):
            raise ValueError(f"unknown seminorm kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", _clean_weights(weights or {}))

    def __eq__(self, other):
        return ((self.kind, self.weights) == (other.kind, other.weights)
                if type(other) is type(self) else NotImplemented)

    def __reduce__(self):
        return type(self), (self.kind, self.weights)

    @classmethod
    def sup_on(cls, indices: Iterable[int], weight: Scalar = 1):
        return cls(SUP, {i: weight for i in indices})

    @property
    def active(self) -> frozenset:
        return frozenset(self.weights)


def eval_seminorm(p: SeminormSpec, x: SparseVector) -> Scalar:
    """p(x); the int 0 when x is supported outside active(p)."""
    terms = [p.weights[i] * abs(v) for i, v in x.entries.items() if i in p.weights]
    return max(terms, default=0) if p.kind == SUP else sum(terms)


def dual_norm(p: SeminormSpec, f: CoordFunctional, ctx: ScalarContext = EXACT) -> Scalar:
    """Smallest c with |f(x)| <= c p(x), the int 0 for f = 0; NotPBounded if
    no such c exists.

    The sup kind's c is sum_i |f_i| / w_i, summed by `ctx.abs_ratio_sum` on
    integers over one common denominator.  The l1 kind's c is the largest
    |f_i| / w_i.
    """
    for i in sorted(f.entries):
        if i not in p.weights:
            raise NotPBounded(i)
    if p.kind == L1:
        return max((abs(v) / p.weights[i] for i, v in f.entries.items()), default=0)
    return ctx.abs_ratio_sum((v, p.weights[i]) for i, v in f.entries.items()) if f.entries else 0


def dual_norm_witness(p: SeminormSpec, f: CoordFunctional,
                      ctx: ScalarContext = EXACT) -> Tuple[Scalar, SparseVector]:
    """Dual norm plus an x with p(x) <= 1 and |f(x)| = dual_norm exactly.

    Sup kind: the sign-pattern vertex of the unit cube; l1 kind: the single
    best coordinate.
    """
    c = dual_norm(p, f, ctx)
    if f.is_zero():
        return c, SparseVector.zero()
    if p.kind == SUP:
        entries = {
            i: (1 if v > 0 else -1) / p.weights[i] for i, v in f.entries.items()
        }
        return c, SparseVector(entries)
    best = max(sorted(f.entries), key=lambda i: abs(f.entries[i]) / p.weights[i])
    sign = 1 if f.entries[best] > 0 else -1
    return c, SparseVector({best: sign / p.weights[best]})


class DiskSpec:
    """A disk given by l1-type coordinate weights or by a generator list.

    Weight form: p_D(x) = sum_i |x_i| / d_i on vectors supported in the
    weighted coordinates.  Generator form: p_D(u) is the minimal l1 mass of a
    representation of u as a combination of the generators.  Only this form hashes.
    The gauges keep what they scale once outside equality and pickles:
    `_gauge_rows` the scaled [G | -G] of a generator disk for `minkowski`, with
    the optimal tableau of its latest solved gauge, and `_gauge_weights` the
    integer inverse weights of a weight disk for `gauge_below`.
    """

    __slots__ = ("weights", "generators", "_gauge_rows", "_gauge_weights")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, weights: Optional[Mapping[int, Scalar]] = None,
                 generators: Optional[Sequence[SparseVector]] = None):
        if (weights is None) == (generators is None):
            raise ValueError("disk needs exactly one of weights / generators")
        object.__setattr__(self, "weights", None if weights is None else _clean_weights(weights))
        object.__setattr__(self, "generators", None if generators is None else tuple(generators))
        object.__setattr__(self, "_gauge_rows", None)
        object.__setattr__(self, "_gauge_weights", None)

    def __eq__(self, other):
        return ((self.weights, self.generators) == (other.weights, other.generators)
                if type(other) is type(self) else NotImplemented)

    def __hash__(self):
        return hash((self.weights, self.generators))

    def __reduce__(self):
        return type(self), (self.weights, self.generators)

    @classmethod
    def from_generators(cls, xs: Sequence[SparseVector]):
        return cls(generators=tuple(xs))


def minkowski(disk: DiskSpec, u: SparseVector, ctx: ScalarContext = EXACT) -> Scalar:
    """Gauge of u with respect to the disk; NotInSpan if u is outside span D.

    A generator disk solves min sum c over [G | -G] c = u, c >= 0.  With u's
    integer form (`ctx.integer_of`), the disk keeps L_G [G | -G] from its
    first gauge, and `simplex.optimal_tableau` gets the rows
    L [G | -G | u] that `solve_lp` would build itself, L = lcm(L_G, den u).
    The disk keeps that optimal tableau, and `simplex.resolve` reads every
    gauge from it, the later ones by dual simplex on their u, with no
    phase 1.  A u off the generators' support fails before either.
    """
    if disk.weights is not None:
        weights = disk.weights
        for i in u.entries:
            if i not in weights:
                raise NotInSpan(f"coordinate {i} carries no disk weight")
        return ctx.abs_ratio_sum((v, weights[i]) for i, v in u.entries.items())

    gens = disk.generators
    if u.is_zero():
        return ctx.zero
    if not gens:
        raise NotInSpan("empty generator list spans only 0")
    w = 2 * len(gens)
    try:
        if disk._gauge_rows is None:
            coords = sorted(set().union(*(g.support for g in gens)))
            nums, den = ctx.integer_row(dict(enumerate(
                sign * g.get(i) for i in coords for sign in (1, -1) for g in gens)))
            template = {i: [nums.get(r * w + j, 0) for j in range(w)] for r, i in enumerate(coords)}
            object.__setattr__(disk, "_gauge_rows", (den, template, None))
        (gen_den, template, tab), (urow, uden) = disk._gauge_rows, ctx.integer_of(u)
        if not u.entries.keys() <= template.keys():
            raise simplex.Infeasible("u has a coordinate outside the generators' support")
        b = [urow.get(i, 0) for i in template]
        if tab is None:
            den = lcm(gen_den, uden)
            m, mu = den // gen_den, den // uden
            a = [[m * v for v in row] for row in template.values()]
            tab = simplex.optimal_tableau([ctx.one] * w, a, [v * mu for v in b], ctx, scale=den)
            object.__setattr__(disk, "_gauge_rows", (gen_den, template, tab))
        return simplex.resolve(tab, b, uden)
    except simplex.Infeasible as exc:
        raise NotInSpan("u is not a combination of the generators") from exc


def gauge_below(disk: DiskSpec, x: SparseVector, y: SparseVector, bound: Scalar,
                ctx: ScalarContext = EXACT) -> bool:
    """minkowski(disk, x - y, ctx) < bound, without building x - y when the
    disk has weight form and weighs every coordinate of x and y.

    Sums |x_i - y_i| / d_i in the entry order of x - y (x's entries, then y's
    others) and returns False at the first partial sum that is not below the
    bound: the terms are non-negative, so no later sum is below it either.
    Otherwise it takes the full gauge, so an LP or NotInSpan comes as from
    `minkowski`.

    With x = X / x̄ and y = Y / ȳ in their integer forms (`ctx.integer_of`,
    kept on each vector, so a pool scan scales nothing twice), the sum runs on
    integers: with 1 / d_i = c_i / P, N sums |X_i·ȳ - Y_i·x̄|·c_i, the gauge
    is N / (x̄·ȳ·P), and each partial sum is compared with the bound p / q
    as N·q < p·x̄·ȳ·P, so it stops where the Fraction sum would.  The disk
    keeps (c, P), `ctx.integer_row` of its inverse weights, from its first
    gauge.
    """
    weights, xe, ye = disk.weights, x.entries, y.entries
    if weights is None or not (xe.keys() <= weights.keys() and ye.keys() <= weights.keys()):
        return minkowski(disk, x - y, ctx) < bound
    if disk._gauge_weights is None:
        object.__setattr__(disk, "_gauge_weights",
                           ctx.integer_row({i: 1 / w for i, w in weights.items()}))
    (mult, wden), (xrow, xden), (yrow, yden) = (disk._gauge_weights, ctx.integer_of(x),
                                                ctx.integer_of(y))
    p, q = bound.as_integer_ratio()
    limit, total = p * xden * yden * wden, 0
    diffs = chain(((i, a * yden - yrow[i] * xden if i in yrow else a * yden)
                   for i, a in xrow.items()),
                  ((i, b * xden) for i, b in yrow.items() if i not in xrow))
    for i, a in diffs:
        if a:
            total += abs(a) * mult[i]
            if total * q >= limit:
                return False
    return total * q < limit


def project_active(p: SeminormSpec, x: SparseVector) -> dict:
    """x restricted to active(p), its residue modulo ker p, as a plain dict."""
    return {i: v for i, v in x.entries.items() if i in p.weights}


def p_independent(p: SeminormSpec, xs: Sequence[SparseVector],
                  ctx: ScalarContext = EXACT) -> bool:
    """Rank test: the residues of xs modulo ker p, their projections on the
    active coordinates, are linearly independent.  `linalg.independent` runs
    it on integers and stops at the first dependent residue."""
    return linalg.independent((project_active(p, x) for x in xs), ctx)


class Separator:
    """Separating functionals against a constraint list that grows one vector at a time.

    Keeps the constraints' active projections in a `linalg.RowReducer`, whose
    rows are their reduced row echelon form keyed by pivot coordinate.  The
    nullspace vector of a free coordinate c is `RowReducer.null_vector(c)`,
    and RREF is unique, so `functional` picks the f that a from-scratch
    `RowReducer.of` of the same projections picks.
    """

    def __init__(self, p: SeminormSpec, ctx: ScalarContext = EXACT):
        self.p = p
        self.ctx = ctx
        self._reducer = linalg.RowReducer(ctx)
        self._support: set = set()

    @classmethod
    def of(cls, p: SeminormSpec, constraints: Sequence[SparseVector],
           ctx: ScalarContext = EXACT) -> "Separator":
        """A separator for the constraints, from one `linalg.RowReducer.of` of
        their projections."""
        sep = cls(p, ctx)
        projections = [project_active(p, x) for x in constraints]
        sep._support.update(*projections)
        sep._reducer = linalg.RowReducer.of(projections, ctx)
        return sep

    def add(self, x: SparseVector) -> None:
        """Append one constraint."""
        proj = project_active(self.p, x)
        self._support.update(proj)
        self._reducer.try_add(proj)

    def functional(self, u: SparseVector) -> CoordFunctional:
        """f with support in active(p), f = 0 on the constraints, f(u) != 0,
        dual_norm(p, f) = 1.

        Scans the free coordinates of the constraint and active u supports in
        ascending order and rescales the first nullspace vector that is non-zero
        on u; raises NoSeparation exactly when (u + span constraints) meets ker p.
        """
        ctx, rows = self.ctx, self._reducer.rows
        u_act = project_active(self.p, u)
        coords = self._support.union(u_act)
        if not coords:
            raise NoSeparation("u projects to zero on the active coordinates")
        hits = [(rows[pc], u_act[pc]) for pc in rows.keys() & u_act.keys()]
        for fc in sorted(coords - rows.keys()):
            # f(u) for the nullspace vector f of fc
            if u_act.get(fc, 0) == sum(row[fc] * x for row, x in hits if fc in row):
                continue
            f = CoordFunctional(self._reducer.null_vector(fc))
            return f.scale(1 / dual_norm(self.p, f, ctx))
        raise NoSeparation("u lies in span(constraints) + ker p")
