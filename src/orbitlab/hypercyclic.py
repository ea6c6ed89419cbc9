"""Weighted-shift assembly, premise checks, witness search and orbit refutation.

Hypercyclicity itself is not assertable at desk scale.  This module computes
what can be checked: the assembled shift, whose chain identities and
continuity bound `scenarios` checks, the dimension of span of range-kernel
intersections feeding the dense-span premise, explicit transitivity
witnesses with re-evaluable residuals, and the instrumented quantities of
the non-orbit refutation.

Operators stay in their term form sum_j f_j (x) v_j = V·F.  S is
`linear_part()`, every orbit (the demo's too) is `operators.orbit`, and
every active projection a rank reads is the integer
`seminorms.active_row`.  Every map the module powers is composed from one
integer factor pair d·S = W·F (`_factors`), read once from the kept forms
and applied to sparse integer columns (`_mul`), so its powers are integer
column sums.  The premise runs one loop on the powers of such a map: ranks
by `linalg.row_rank`, each nullspace one `linalg.RowReducer.of`, and an
`linalg.Echelon` basis of the intersections.  When the v's and the f's are
independent, the map is the k x k matrix F·W, similar to a multiple of the
core G = F·V; otherwise it is W·F = d·S on the whole support.  The witness
steps T's own orbit, which `scenarios` replays, as integer columns of
d·T = d·base + W·F, one `linalg.solve` of its active rows a step; it tests
nilpotency on F·P·W for the window cut P, since A·B and B·A are nilpotent
together (Horn and Johnson, Matrix Analysis, 2nd ed., 2013, §1.3).  No
matrix power of S is ever multiplied out.  `apply`, the weight-form disk
gauge and the ranks work on integers and build a Fraction only for an entry
of their result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .density import Enumeration, biorthogonalize
from .errors import NotNested, NotNilpotent, NotPIndependent, WitnessNotFound
from .operators import BASE_IDENTITY, BASE_ZERO, FiniteRankOperator, orbit
from .scalars import ONE, Scalar, integer_of
from .seminorms import (
    DiskSpec,
    SeminormSpec,
    dual_norm,
    eval_seminorm,
    minkowski,
    active_row,
    p_independent,
)
from .vectors import CoordFunctional, SparseVector

# a sparse column of a power of an integer map: coordinate -> non-zero int
Column = Dict[int, int]


class ShiftOperatorSpec(NamedTuple):
    """Backward shift along a biorthogonal chain with damped weights.

    S u_k = w_{k-1} u_{k-1}, S u_1 = 0, with w_n = 2^{-n} divided by
    p_D(u_n) p*(f_{n+1}) so that the disk gauge of S x never exceeds p(x).
    """

    us: Tuple[SparseVector, ...]
    fs: Tuple[CoordFunctional, ...]
    weights: Tuple[Scalar, ...]
    operator: FiniteRankOperator


def build_shift_operator(us: Sequence[SparseVector], p: SeminormSpec,
                         disk: DiskSpec) -> ShiftOperatorSpec:
    """Assemble the chain operator; KernelCollision when span(us) meets ker p."""
    us = tuple(us)
    fs = tuple(biorthogonalize(us, p))
    weights: List[Scalar] = []
    terms = []
    for n in range(1, len(us)):
        u_n = us[n - 1]
        f_next = fs[n]
        denom = minkowski(disk, u_n) * dual_norm(p, f_next)
        w = ONE / 2 ** n / denom
        weights.append(w)
        terms.append((f_next, u_n.scale(w)))
    s = FiniteRankOperator(BASE_ZERO, tuple(terms))
    return ShiftOperatorSpec(us=us, fs=fs, weights=tuple(weights), operator=s)


class PremiseRow(NamedTuple):
    n: int
    dim_range: int
    dim_kernel: int
    dim_intersection: int


class PremiseReport(NamedTuple):
    rows: List[PremiseRow]
    span_dim: int
    window_dim: int
    window_meet_dim: int


def range_kernel_premise_check(t: FiniteRankOperator, window: int, depth: int) -> PremiseReport:
    """Dimensions of range(S^n) ∩ ker(S^n) for S = `t.linear_part()`, n <= depth.

    Computations run on the full support of the operator, which should
    extend beyond the probe window: a truncated chain is only surjective
    below its top, so headroom above the window is the finite stand-in for
    the surjectivity of the infinite chain.  S^n maps range(S^n) onto
    range(S^{2n}) with kernel range(S^n) ∩ ker(S^n), so the intersection is
    S^n null(S^{2n}), of dimension rank S^n - rank S^{2n}.

    When S = V·F = sum_j v_j ⊗ f_j has independent v's and independent f's,
    the work moves to the k x k core G = F·V, G_ij = f_i(v_j).  Then
    S^n = V G^{n-1} F, so rank S^n = rank G^{n-1}; S^n x = 0 for
    x = V G^{n-1} y exactly when G^{2n-1} y = 0, so the intersection is
    V G^{n-1} null(G^{2n-1}), of dimension rank G^{n-1} - rank G^{2n-1}.
    V is injective, so it maps a basis of the sum of the G^{n-1} null(G^{2n-1})
    onto one of the sum of the intersections, and only that basis is mapped.
    The loop runs on the integer matrix F·W = d·A·G·A⁻¹ of `_factors`, with
    A = diag(a_j) the denominators of the f_j.  Scaling and similarity keep
    every rank; A carries null(G^m) onto null((F·W)^m), and each reduced
    row echelon null vector of G^m onto a multiple of that of (F·W)^m for
    the same free column, and W maps A·z onto d·V·z, so the basis vectors
    W·z span what the V·z span and no dimension reported changes.  Otherwise the same loop (`_meets`) runs on
    W·F = d·S over the whole support.  The independence tests read the
    integer forms the v's and f's keep (`integer_of`), and the span's part
    above the window the integer columns of its basis.  The report compares
    the part of the accumulated span lying inside the window against the
    window dimension.
    """
    s = t.linear_part()
    top = window
    for f, v in s.terms:
        top = max([top] + list(f.support) + list(v.support))
    _, fcols, wcols = _factors(s)
    if (s.terms
            and linalg.independent(integer_of(v)[0] for _, v in s.terms)
            and linalg.independent(integer_of(f)[0] for f, _ in s.terms)):
        core = {l: _mul(fcols, col) for l, col in wcols.items()}
        dims, basis = _meets(lambda col: _mul(core, col), len(core), depth, 1)
        union = [_mul(wcols, z) for z in basis]
    else:
        dims, union = _meets(lambda col: _mul(wcols, _mul(fcols, col)), top, depth, 0)
    rows = [PremiseRow(n=n, dim_range=dim_range, dim_kernel=top - dim_range,
                       dim_intersection=dim_intersection)
            for n, (dim_range, dim_intersection) in enumerate(dims, start=1)]
    # the basis is independent, and so is its image under the injective V:
    # dim U = len(union), and dim(U ∩ W) = dim U - dim(its image above the window)
    span_dim = len(union)
    above = linalg.row_rank({i: v for i, v in vec.items() if i > window} for vec in union)
    return PremiseReport(rows=rows, span_dim=span_dim, window_dim=window,
                         window_meet_dim=span_dim - above)


def _meets(advance: Callable[[Column], Column], size: int, depth: int,
           shift: int) -> Tuple[List[Tuple[int, int]], List[Column]]:
    """Per n <= depth, (rank A^{n-s}, rank A^{n-s} - rank A^{2n-s}) for the map
    A on coordinates 1..size and s = `shift`, with a basis of the sum of the
    A^{n-s} null(A^{2n-s}).

    The powers are kept as the columns A^m e_j, sparse dicts starting from
    the unit columns e_1..e_size; `advance` maps a non-zero column of A^m
    to that of A^{m+1}, and a zero column stays zero.  A holds ints, and so
    does every power and basis vector.  Each nullspace is one
    `linalg.RowReducer.of` of the size sparse rows of A^{2n-s}; each of its
    vectors, read as a primitive integer row (`RowReducer.null_row`), mixes
    the columns of A^{n-s} by `_fold`.
    """
    # powers[m][j - 1] = A^m e_j, ranks[m] = rank A^m
    powers = [[{j: 1} for j in range(1, size + 1)]]
    for _ in range(2 * depth - shift):
        powers.append([advance(col) if col else col for col in powers[-1]])
    ranks = {0: size}
    dims, basis, echelon = [], [], linalg.Echelon()
    for n in range(1, depth + 1):
        single = n - shift
        rows: List[Column] = [{} for _ in range(size)]
        for j, col in enumerate(powers[2 * n - shift]):
            for i, x in col.items():
                rows[i - 1][j] = x
        red = linalg.RowReducer.of(rows)
        ranks[2 * n - shift] = red.rank
        if single not in ranks:
            ranks[single] = linalg.row_rank(powers[single])
        dims.append((ranks[single], ranks[single] - red.rank))
        for fc in range(size):
            if fc not in red.ints:
                y = red.null_row(fc)
                z = _fold((c, powers[single][j]) for j, c in y.items())
                if z and echelon.try_add(z):
                    basis.append(z)
    return dims, basis


def _factors(t: FiniteRankOperator) -> Tuple[int, Dict[int, Column], Dict[int, Column]]:
    """(d, F, W) with d·S = W·F on integers, for S = sum_j v_j ⊗ f_j the
    terms of t, each matrix kept as its sparse integer columns.

    With f_j = F_j / a_j and v_j = V_j / b_j in their integer forms
    (`integer_of`) and d the lcm of the a_j·b_j, F's row j is F_j and W's
    column j is W_j = V_j·d / (a_j·b_j).  F is kept column by column, the
    coordinate i mapped to (F_ji)_j, and W's columns by term, j = 1..k, so
    that `_mul` applies either to a column.  With A = diag(a_j), F·W is
    d·A·G·A⁻¹ for the core G = F·V, G_ij = f_i(v_j)."""
    forms = [integer_of(f) for f, _ in t.terms]
    vrows = [integer_of(v) for _, v in t.terms]
    d = lcm(*[a * b for (_, a), (_, b) in zip(forms, vrows)])
    w = {j: {i: x * (d // (a * b)) for i, x in vrow.items()}
         for j, ((_, a), (vrow, b)) in enumerate(zip(forms, vrows), start=1)}
    f: Dict[int, Column] = {}
    for j, (frow, _) in enumerate(forms, start=1):
        for i, x in frow.items():
            f.setdefault(i, {})[j] = x
    return d, f, w


def _mul(m: Dict[int, Column], col: Column) -> Column:
    """m·col for the matrix m kept as its sparse columns m[l]; a coordinate
    of col with no column in m meets a zero column."""
    return _fold((x, m[l]) for l, x in col.items() if l in m)


def _fold(pairs: Iterable[Tuple[int, Column]]) -> Column:
    """The sum of c·col over the (c, col) pairs, summed per coordinate in
    pair order as `vectors.combine` sums, on sparse dicts of ints."""
    acc: Column = {}
    for c, col in pairs:
        for i, v in col.items():
            t = acc.get(i, 0) + v * c
            if t:
                acc[i] = t
            else:
                acc.pop(i, None)
    return acc


def transitivity_witness(t: FiniteRankOperator, x: SparseVector, y: SparseVector,
                         eps: Scalar, max_n: int, p: SeminormSpec,
                         window: int) -> Tuple[int, SparseVector]:
    """Search for (n, z) with p(z - x) < eps and p(T^n z - y) < eps, z - x on
    the free columns (window coordinates outside active(p)): p(z - x) = 0.

    T's own orbit, which `scenarios` replays, carries z - x into active(p),
    where y - T^n x is solved exactly, or z = x when it cannot be.  Raises
    NotNilpotent when the chain part is not nilpotent on the window,
    WitnessNotFound with the best (n, residual), never below eps, on
    failure.  With x = X / xd and y = Y / yd (`integer_of`), the orbit is
    the integer columns d^n·xd·T^n x and N_j = d^n·T^n e_j, stepped by
    d·T = d·base + W·F (`_factors`); active(p)'s rows solve
    N·c' = d^n·xd·Y - yd·X, and c = c' / (xd·yd).

    The gate reads the chain part cut to the window, P·S·P = (P·V)(F·P): the
    search is exact for any T, but the chain it rests on lives in the
    window; a term above it, even a direction T fixes, is left to the
    replay.  P·S·P is nilpotent when the k x k core F·P·V is, since
    (AB)^{m+1} = A(BA)^m B, and so when F·P·W = d·A·(F·P·V)·A⁻¹ is, from
    the same `_factors` call as the step; (F·P·W)^k = 0 is tested on
    integer columns.
    """
    d, fcols, wcols = _factors(t)
    gate = {l: _mul(fcols, {i: x for i, x in col.items() if i <= window})
            for l, col in wcols.items()}
    columns = [{l: 1} for l in gate]
    for _ in gate:
        columns = [c for c in (_mul(gate, c) for c in columns) if c]
    if columns:
        raise NotNilpotent("witness search needs a nilpotent chain part on the window")

    best_n, best_res = 0, eval_seminorm(p, x - y)
    if best_res < eps:
        return 0, x
    free_cols = [i for i in range(1, window + 1) if i not in p.weights]
    identity = t.base == BASE_IDENTITY

    def step(col: Column) -> Column:
        pairs = [(c, wcols[l]) for l, c in _mul(fcols, col).items()]
        return _fold([(d, col)] + pairs if identity else pairs)
    yrow, yd = integer_of(y)
    tnx, xd = integer_of(x)
    tne = [{j: 1} for j in free_cols]
    for n in range(1, max_n + 1):
        tnx, tne, dn = step(tnx), [step(col) for col in tne], xd * d ** n
        # the columns N_j, then d^n·xd·yd·(y - T^n x)
        cols = tne + [_fold([(dn, yrow), (-yd, tnx)])]
        sol = linalg.solve([{c: col[i] for c, col in enumerate(cols) if i in col}
                            for i in sorted(p.weights)], len(tne))
        if sol is not None:
            return n, x + SparseVector({free_cols[pc]: c[0] / (xd * yd)
                                        for pc, c in sol.items() if c})
        # z = x: one Fraction per row of active(p)
        gap = cols[-1]
        res = eval_seminorm(p, SparseVector({i: Fraction(gap[i], dn * yd)
                                             for i in p.weights if i in gap}))
        if res < eps:
            return n, x
        if res < best_res:
            best_n, best_res = n, res
    raise WitnessNotFound(best_n, best_res)


def omega_shift_demo(window: int, x0: SparseVector, horizon: int) -> List[SparseVector]:
    """First `horizon` elements of the `orbit` of x0 cut to the window under
    the backward shift B = sum_{i<window} δ_{i+1} ⊗ e_i, so (B x)_i = 1·x_{i+1}."""
    shift = FiniteRankOperator(BASE_ZERO, tuple(
        (CoordFunctional.delta(i + 1), SparseVector.basis(i)) for i in range(1, window)))
    return orbit(shift, x0.restrict(range(1, window + 1)), horizon)


class NonOrbitSet(NamedTuple):
    """B (independent net part) plus C (kernel ladder), with the family kept
    for the series instrumentation."""

    b: Enumeration
    c: Tuple[SparseVector, ...]
    family: Tuple[SeminormSpec, ...]

    @property
    def items(self) -> Tuple[SparseVector, ...]:
        return tuple(self.b.items) + self.c

    def __contains__(self, x: SparseVector) -> bool:
        return x in self.b.items or x in self.c


def build_nonorbit_set(family: Sequence[SeminormSpec], b: Enumeration) -> NonOrbitSet:
    """Kernel-ladder construction: x_n = first basis vector active for
    p_{n+1} but not p_n; A = B plus the ladder, exactly independent."""
    family = tuple(family)
    if not p_independent(family[0], b.items):
        raise NotPIndependent("net part is not independent for the first seminorm")
    picks: List[SparseVector] = []
    for n in range(len(family) - 1):
        gap = sorted(family[n + 1].active - family[n].active)
        if not gap:
            raise NotNested(f"no new active coordinate between levels {n + 1} and {n + 2}")
        picks.append(SparseVector.basis(gap[0]))
    combined = list(b.items) + picks
    if not linalg.independent(integer_of(x)[0] for x in combined):
        raise NotPIndependent("combined set is linearly dependent")
    return NonOrbitSet(b=b, c=tuple(picks), family=family)


class RefuteReport(NamedTuple):
    """Instrumented orbit-versus-set facts; all outcomes are entries."""

    horizon: int
    in_a: List[bool]
    first_exit: Optional[int]
    covers_a: bool
    m_set: List[int]
    p1_partial_sum: Scalar
    series_sums: Dict[int, Scalar]
    orbit_p1_rank: int
    distinct_orbit: int

    @property
    def m_count(self) -> int:
        return len(self.m_set)

    @property
    def diverges(self) -> bool:
        """The orbit prefix fails to realize A: it exits or cannot cover."""
        return self.first_exit is not None or not self.covers_a


def refute_orbit(t: FiniteRankOperator, x: SparseVector, a_set: NonOrbitSet,
                 horizon: int) -> RefuteReport:
    """Compute the orbit prefix and the refutation quantities.

    M collects the steps leaving the kernel ladder for the net part; the
    first seminorm applied to the normalized continuation gives exactly one
    per member of M, the divergence mechanism of the refutation.  Higher
    seminorms give the absolute-sum certificates of the auxiliary series.
    """
    prefix = orbit(t, x, horizon)
    p1 = a_set.family[0]
    in_a = [p in a_set for p in prefix]
    first_exit = next((i for i, ok in enumerate(in_a) if not ok), None)

    distinct = list(dict.fromkeys(prefix))
    covers = set(a_set.items) <= set(distinct)

    m_set = [
        n for n in range(horizon - 1)
        if prefix[n] in a_set.c and prefix[n + 1] in a_set.b.items
    ]

    p1_sum = Fraction(0)
    series: Dict[int, Scalar] = {k: Fraction(0) for k in range(1, len(a_set.family) + 1)}
    for n in m_set:
        # p1 of the continuation over its own gauge: one per member of M
        denom = eval_seminorm(p1, prefix[n + 1])
        p1_sum += denom / denom
        for k, p_k in enumerate(a_set.family, start=1):
            series[k] += eval_seminorm(p_k, prefix[n]) / denom

    rank = linalg.row_rank(active_row(p1, el) for el in distinct)

    return RefuteReport(
        horizon=horizon,
        in_a=in_a,
        first_exit=first_exit,
        covers_a=covers,
        m_set=m_set,
        p1_partial_sum=p1_sum,
        series_sums=series,
        orbit_p1_rank=rank,
        distinct_orbit=len(distinct),
    )
