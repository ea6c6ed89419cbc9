"""Seminorms, disks, dual norms and the concrete separating-functional solve.

Seminorms are sup- or l1-combinations of weighted coordinates over a finite
active set; their kernels are exactly the vectors supported outside the
active set, so kernel membership is a support inspection.  The dual norm and
the Minkowski gauge of a disk are computed in closed form (weight form) or
by an exact linear program (generator form), the one LP the workbench
solves.  The sup kind's dual norm sum_i |f_i| / w_i, the weight-form
gauge sum_i |u_i| / d_i and the scan of `first_below` are each one
integer loop over a map's kept form (`integer_of`) and the spec's kept
inverse weights (`_inverse_weights`).
`first_below` stops a candidate's sum at the bound and builds no
difference.  A generator disk scales its LP matrix once, at its first
non-zero gauge, into one `simplex.gauge_tableau` built at u = 0, and reads
every gauge off it with `simplex.resolve`.

The active projection, x's residue modulo ker p, has one form:
`active_row`, the integer form x keeps (`scalars.integer_of`) cut to
active(p), a multiple of x's entries there.  Ranks and nullspaces do not
change when a row is scaled, so the p-independence test and the
separating-functional construction read it as it is, and a solve that
needs the entries themselves scales back by x's denominator.  That
construction replaces the Hahn-Banach step of the abstract theory with a
finite nullspace pick: `Separator` keeps the constraint list that grows one
vector at a time in a `linalg.RowReducer`, and `Separator.of` fills one
from a single `linalg.RowReducer.of` for a list given once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import linalg, simplex
from .errors import NoSeparation, NotInSpan, NotPBounded
from .scalars import ZERO, Scalar, _exact_entry, _immutable, integer_of, integer_row
from .vectors import CoordFunctional, SparseVector, _built

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


def _inverse_weights(spec) -> Tuple[Dict[int, int], int]:
    """(c, P) with 1 / w_i = c_i / P: w_i = a_i / b_i gives c_i = b_i·P / a_i,
    P = lcm(a_i).  Kept in the spec's `_gauge_weights` from the first call."""
    if spec._gauge_weights is None:
        ratios = {i: w.as_integer_ratio() for i, w in spec.weights.items()}
        big = lcm(*[a for a, _ in ratios.values()])
        object.__setattr__(spec, "_gauge_weights",
                           ({i: b * (big // a) for i, (a, b) in ratios.items()}, big))
    return spec._gauge_weights


def _weighted_sum(spec, row: Mapping[int, int], den: int) -> Scalar:
    """sum_i |row_i| / (den·w_i), one Fraction, for an integer row on the weights."""
    mult, big = _inverse_weights(spec)
    total = 0
    for i, a in row.items():
        total += abs(a) * mult[i]
    return Fraction(total, den * big)


class SeminormSpec:
    """p(x) = max_i w_i |x_i|  (sup kind)  or  sum_i w_i |x_i|  (l1 kind); unhashable.
    `_gauge_weights`, outside equality and pickles, keeps its inverse weights."""

    __slots__ = ("kind", "weights", "_gauge_weights")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, kind: str, weights: Optional[Mapping[int, Scalar]] = None):
        if kind not in (SUP, L1):
            raise ValueError(f"unknown seminorm kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weights", _clean_weights(weights or {}))
        object.__setattr__(self, "_gauge_weights", None)

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


def dual_norm(p: SeminormSpec, f: CoordFunctional) -> Scalar:
    """Smallest c with |f(x)| <= c p(x), the int 0 for f = 0; NotPBounded if
    no such c exists.

    The sup kind's c is sum_i |f_i| / w_i, `_weighted_sum` of f's kept
    form; the l1 kind's c is the largest |f_i| / w_i.
    """
    for i in sorted(f.entries):
        if i not in p.weights:
            raise NotPBounded(i)
    if not f.entries:
        return 0
    return _dual(p, f.entries) if p.kind == L1 else _weighted_sum(p, *integer_of(f))


def _dual(p: SeminormSpec, row: Mapping[int, Scalar]) -> Scalar:
    """The dual norm of a non-empty row on active(p): integers, or the
    entries of an l1-kind functional."""
    if p.kind == L1:
        return max(abs(v) / p.weights[i] for i, v in row.items())
    return _weighted_sum(p, row, 1)


def dual_norm_witness(p: SeminormSpec, f: CoordFunctional) -> Tuple[Scalar, SparseVector]:
    """Dual norm plus an x with p(x) <= 1 and |f(x)| = dual_norm exactly.

    Sup kind: the sign-pattern vertex of the unit cube; l1 kind: the single
    best coordinate.
    """
    c = dual_norm(p, f)
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
    `_gauge_rows` a generator disk's (coordinate -> row, tableau), the row of
    each coordinate of the generators' support in the one gauge tableau of
    its scaled [G | -G], from its first non-zero gauge, and `_gauge_weights`
    the integer inverse weights of a weight disk.
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


def minkowski(disk: DiskSpec, u: SparseVector) -> Scalar:
    """Gauge of u with respect to the disk; NotInSpan if u is outside span D.

    A weight disk takes `_weighted_sum` of u's kept form.  A generator
    disk solves min sum c over [G | -G] c = u, c >= 0.  Its first non-zero
    gauge scales [G | -G] once to the integers L_G [G | -G] and keeps
    `simplex.gauge_tableau` of them, dual feasible for every u.  A u with a
    coordinate off the generators' support is refused; any other gauge is
    `simplex.resolve` of the kept tableau on u's integer form
    (`integer_of`), by dual simplex from the basis the last gauge left.
    """
    if disk.weights is not None:
        weights = disk.weights
        for i in u.entries:
            if i not in weights:
                raise NotInSpan(f"coordinate {i} carries no disk weight")
        return _weighted_sum(disk, *integer_of(u))

    gens = disk.generators
    if u.is_zero():
        return ZERO
    if not gens:
        raise NotInSpan("empty generator list spans only 0")
    if disk._gauge_rows is None:
        coords, w = sorted(set().union(*(g.support for g in gens))), 2 * len(gens)
        nums, den = integer_row(dict(enumerate(
            sign * g.get(i) for i in coords for sign in (1, -1) for g in gens)))
        rows = [[nums.get(r * w + j, 0) for j in range(w)] for r in range(len(coords))]
        object.__setattr__(disk, "_gauge_rows", ({i: r for r, i in enumerate(coords)},
                                                 simplex.gauge_tableau(rows, w, den)))
    (index, tab), (urow, uden) = disk._gauge_rows, integer_of(u)
    if not urow.keys() <= index.keys():
        raise NotInSpan("u is not a combination of the generators")
    b = [0] * len(index)
    for i, v in urow.items():
        b[index[i]] = v
    try:
        return simplex.resolve(tab, b, uden)
    except simplex.Infeasible as exc:
        raise NotInSpan("u is not a combination of the generators") from exc


def first_below(disk: DiskSpec, pool: Sequence[SparseVector], y: SparseVector,
                bound: Scalar) -> Optional[int]:
    """The first position in pool of an x with minkowski(disk, x - y) < bound,
    or None; x - y is built only where the weight-form sum cannot be taken.

    A generator disk, or a y with a coordinate that carries no weight, gauges
    each x - y with `minkowski`, and so does an x with such a coordinate, so
    an LP or NotInSpan comes as from `minkowski`.  Otherwise the scan sums
    |x_i - y_i| / d_i in the entry order of x - y (x's entries, then y's
    others) and rejects x at the first partial sum that is not below the
    bound: the terms are non-negative, so no later sum is below it either.
    x passes only if its full sum is below the bound.

    With x = X / x̄ and y = Y / ȳ in their integer forms (`integer_of`,
    kept on each vector, so a scan scales nothing twice), the sum runs on
    integers: with 1 / d_i = c_i / P, N sums |X_i·ȳ - Y_i·x̄|·c_i, the gauge
    is N / (x̄·ȳ·P), and each partial sum is compared with the bound p / q
    as N·q < p·x̄·ȳ·P, so it stops where the Fraction sum would.  y's form,
    the bound and the disk's kept (c, P) are read once per scan.
    """
    weights = disk.weights
    if weights is None or not y.entries.keys() <= weights.keys():
        return next((pos for pos, x in enumerate(pool) if minkowski(disk, x - y) < bound), None)
    (mult, wden), (yrow, yden) = _inverse_weights(disk), integer_of(y)
    p, q = bound.as_integer_ratio()
    limit = p * yden * wden
    for pos, x in enumerate(pool):
        if not x.entries.keys() <= weights.keys():
            if minkowski(disk, x - y) < bound:
                return pos
            continue
        xrow, xden = integer_of(x)
        cut, total = limit * xden, 0
        for i, a in xrow.items():
            b = yrow.get(i)
            a = a * yden if b is None else a * yden - b * xden
            if a:
                total += abs(a) * mult[i]
                if total * q >= cut:
                    break
        else:
            for i, b in yrow.items():
                if i not in xrow:
                    total += abs(b) * xden * mult[i]
                    if total * q >= cut:
                        break
            else:
                if total * q < cut:
                    return pos
    return None


def active_row(p: SeminormSpec, x: SparseVector) -> Dict[int, int]:
    """x's integer form (`integer_of`) restricted to active(p), its residue
    modulo ker p, as a fresh dict: den times x's entries on active(p), for
    den = `integer_of(x)[1]`, so it has their rank and row space."""
    return {i: v for i, v in integer_of(x)[0].items() if i in p.weights}


def p_independent(p: SeminormSpec, xs: Sequence[SparseVector]) -> bool:
    """Rank test: the residues of xs modulo ker p, their projections on the
    active coordinates, are linearly independent.  `linalg.independent` runs
    it on their `active_row`s and stops at the first dependent residue."""
    return linalg.independent(active_row(p, x) for x in xs)


class Separator:
    """Separating functionals against a constraint list that grows one vector at a time.

    Keeps the constraints' `active_row`s in a `linalg.RowReducer`, whose
    rows are their reduced row echelon form keyed by pivot coordinate, kept
    as integers.  The nullspace vector of a free coordinate c is read as the
    primitive integer row `RowReducer.null_row(c)`, and RREF is unique, so
    `functional` picks the f that a from-scratch `RowReducer.of` of the same
    rows picks.
    """

    def __init__(self, p: SeminormSpec):
        self.p = p
        self._reducer = linalg.RowReducer()
        self._support: set = set()

    @classmethod
    def of(cls, p: SeminormSpec, constraints: Sequence[SparseVector]) -> "Separator":
        """A separator for the constraints, from one `linalg.RowReducer.of` of
        their `active_row`s."""
        sep = cls(p)
        rows = [active_row(p, x) for x in constraints]
        sep._support.update(*rows)
        sep._reducer = linalg.RowReducer.of(rows)
        return sep

    def add(self, x: SparseVector) -> None:
        """Append one constraint."""
        row = active_row(self.p, x)
        self._support.update(row)
        self._reducer.try_add(row)

    def functional(self, u: SparseVector) -> CoordFunctional:
        """f with support in active(p), f = 0 on the constraints, f(u) != 0,
        dual_norm(p, f) = 1.

        Scans the free coordinates of the constraint and active u supports in
        ascending order for the first whose nullspace vector is non-zero on
        u (`RowReducer.first_free`, on u's `active_row`), and divides its
        `null_row` N by its own dual norm c: one Fraction N_i / c per entry,
        in ascending coordinate order.  Raises NoSeparation exactly when
        (u + span constraints) meets ker p.
        """
        urow = active_row(self.p, u)
        coords = self._support.union(urow)
        if not coords:
            raise NoSeparation("u projects to zero on the active coordinates")
        fc = self._reducer.first_free(urow, coords)
        if fc is None:
            raise NoSeparation("u lies in span(constraints) + ker p")
        row = self._reducer.null_row(fc)
        num, den = _dual(self.p, row).as_integer_ratio()
        return _built(CoordFunctional, {i: Fraction(n * den, num) for i, n in row.items()})
