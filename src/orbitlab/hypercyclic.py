"""Weighted-shift assembly, premise checks, witness search and orbit refutation.

Hypercyclicity itself is not assertable at desk scale.  This module computes
what can be checked: the assembled shift, whose chain identities and
continuity bound `scenarios` checks, the dimension of span of range-kernel
intersections feeding the dense-span premise, explicit transitivity
witnesses with re-evaluable residuals, and the instrumented quantities of
the non-orbit refutation.

Operators stay in their term form sum_j f_j (x) v_j = V·F.  S is
`linear_part()`, every orbit (the demo's too) is `operators.orbit`, and
every active projection is `seminorms.project_active`.  The premise runs one
loop on the powers of a map, kept as sparse columns: ranks by
`linalg.row_rank`, each nullspace one `linalg.RowReducer.of`, and an
`linalg.Echelon` basis of the intersections.  When the v's and the f's are
independent and values do not depend on the route
(`ScalarContext.route_free`, exact mode), the map is the k x k core G = F·V,
scaled once to an integer matrix, so its powers are integer column sums;
otherwise it is S itself on the whole support, pushed through
`FiniteRankOperator.apply`.  The witness tests nilpotency on the window the
same way: on the integer core F·P·V (P the window cut) in exact mode, since
A·B and B·A are nilpotent together (Horn and Johnson, Matrix Analysis, 2nd
ed., 2013, §1.3), and by pushing the window's columns through `apply` in
float mode.  No matrix power of S is ever multiplied out.  In exact mode
`apply`, the weight-form disk gauge and the ranks work on integers and
build a Fraction only for an entry of their result.  The witness's
active-row solve is one `RowReducer.of` on sparse rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import linalg
from .density import Enumeration, biorthogonalize
from .errors import NotNested, NotNilpotent, NotPIndependent, WitnessNotFound
from .operators import FiniteRankOperator, ZERO, orbit
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import (
    DiskSpec,
    SeminormSpec,
    dual_norm,
    eval_seminorm,
    minkowski,
    p_independent,
    project_active,
)
from .vectors import CoordFunctional, SparseVector, _dot, combine

# a sparse column of a power: coordinate -> non-zero int or scalar
Column = Dict[int, Union[int, Scalar]]


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
                         disk: DiskSpec, ctx: ScalarContext = EXACT) -> ShiftOperatorSpec:
    """Assemble the chain operator; KernelCollision when span(us) meets ker p."""
    us = tuple(us)
    fs = tuple(biorthogonalize(us, p, ctx))
    weights: List[Scalar] = []
    terms = []
    for n in range(1, len(us)):
        u_n = us[n - 1]
        f_next = fs[n]
        denom = minkowski(disk, u_n, ctx) * dual_norm(p, f_next, ctx)
        w = ctx.one / 2 ** n / denom
        weights.append(w)
        terms.append((f_next, u_n.scale(w)))
    s = FiniteRankOperator(ZERO, tuple(terms))
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


def range_kernel_premise_check(t: FiniteRankOperator, window: int, depth: int,
                               ctx: ScalarContext = EXACT) -> PremiseReport:
    """Dimensions of range(S^n) ∩ ker(S^n) for S = `t.linear_part()`, n <= depth.

    Computations run on the full support of the operator, which should
    extend beyond the probe window: a truncated chain is only surjective
    below its top, so headroom above the window is the finite stand-in for
    the surjectivity of the infinite chain.  S^n maps range(S^n) onto
    range(S^{2n}) with kernel range(S^n) ∩ ker(S^n), so the intersection is
    S^n null(S^{2n}), of dimension rank S^n - rank S^{2n}.

    When the values do not depend on the route (`ctx.route_free`) and
    S = V·F = sum_j v_j ⊗ f_j has independent v's and independent f's, the
    work moves to the k x k core G = F·V, G_ij = f_i(v_j).  Then
    S^n = V G^{n-1} F, so rank S^n = rank G^{n-1}; S^n x = 0 for
    x = V G^{n-1} y exactly when G^{2n-1} y = 0, so the intersection is
    V G^{n-1} null(G^{2n-1}), of dimension rank G^{n-1} - rank G^{2n-1}.
    V is injective, so it maps a basis of the sum of the G^{n-1} null(G^{2n-1})
    onto one of the sum of the intersections, and only that basis is mapped.
    The loop runs on the integer matrix d·G (`_integer_core`): ranks,
    nullspaces (the reduced row echelon form is unique) and spans do not
    change when G is scaled, so neither does any dimension reported.
    Otherwise the same loop (`_meets`) runs on S over the whole support.  The
    report compares the part of the accumulated span lying inside the window
    against the window dimension.
    """
    s = t.linear_part()
    top = window
    for f, v in s.terms:
        top = max([top] + list(f.support) + list(v.support))
    core = (s.terms and ctx.route_free
            and linalg.independent((v.entries for _, v in s.terms), ctx)
            and linalg.independent((f.entries for f, _ in s.terms), ctx))
    if core:
        vs = [v for _, v in s.terms]
        dims, basis = _meets(_integer_core(s, vs, ctx),
                             [{j: 1} for j in range(1, len(vs) + 1)], depth, 1, ctx)
        union = [combine((c, vs[i - 1]) for i, c in z.items()).entries for z in basis]
    else:
        dims, union = _meets(lambda col: s.apply(SparseVector(col), ctx).entries,
                             [{j: ctx.one} for j in range(1, top + 1)], depth, 0, ctx)
    rows = [PremiseRow(n=n, dim_range=dim_range, dim_kernel=top - dim_range,
                       dim_intersection=dim_intersection)
            for n, (dim_range, dim_intersection) in enumerate(dims, start=1)]
    # dim(U ∩ W) = dim U - dim(image of U in the coordinates above the window)
    span_dim = linalg.row_rank(union, ctx)
    above = linalg.row_rank(
        ({i: v for i, v in vec.items() if i > window} for vec in union), ctx)
    return PremiseReport(rows=rows, span_dim=span_dim, window_dim=window,
                         window_meet_dim=span_dim - above)


def _meets(advance: Callable[[Column], Column], identity: List[Column], depth: int,
           shift: int, ctx: ScalarContext) -> Tuple[List[Tuple[int, int]], List[Column]]:
    """Per n <= depth, (rank A^{n-s}, rank A^{n-s} - rank A^{2n-s}) for the map
    A on coordinates 1..size and s = `shift`, with a basis of the sum of the
    A^{n-s} null(A^{2n-s}).

    The powers are kept as the columns A^m e_j, sparse dicts starting from
    the size columns of `identity`; `advance` maps a non-zero column of A^m
    to that of A^{m+1}, and a zero column stays zero.  Each nullspace is one
    `linalg.RowReducer.of` of the size sparse rows of A^{2n-s}; each of its
    vectors, scaled to integers where `ctx.integer_row` scales it, mixes the
    columns of A^{n-s} by `_fold`.  On an integer A every power and basis
    vector holds ints.
    """
    size = len(identity)
    # powers[m][j - 1] = A^m e_j, ranks[m] = rank A^m
    powers = [identity]
    for _ in range(2 * depth - shift):
        powers.append([advance(col) if col else col for col in powers[-1]])
    ranks = {0: size}
    dims, basis, echelon = [], [], linalg.Echelon(ctx)
    for n in range(1, depth + 1):
        single = n - shift
        rows: List[Dict[int, Scalar]] = [{} for _ in range(size)]
        for j, col in enumerate(powers[2 * n - shift]):
            for i, x in col.items():
                rows[i - 1][j] = x
        red = linalg.RowReducer.of(rows, ctx)
        ranks[2 * n - shift] = red.rank
        if single not in ranks:
            ranks[single] = linalg.row_rank(powers[single], ctx)
        dims.append((ranks[single], ranks[single] - red.rank))
        for fc in range(size):
            if fc not in red.rows:
                y = red.null_vector(fc)
                scaled = ctx.integer_row(y)
                y = scaled[0] if scaled else {j: c for j, c in y.items() if not ctx.is_zero(c)}
                z = _fold((c, powers[single][j]) for j, c in y.items())
                if z and echelon.try_add(z):
                    basis.append(z)
    return dims, basis


def _integer_core(s: FiniteRankOperator, vs: Sequence[SparseVector],
                  ctx: ScalarContext) -> Callable[[Column], Column]:
    """The k x k core G_ij = f_i(v_j) of the terms f_i of s and the given v_j,
    scaled to an integer matrix d·G (exact mode), as the map of a sparse
    column on coordinates 1..k to its image under d·G.

    Each f_i and v_j gives its integer form kept by `ctx.integer_of`, each
    pairing is an integer dot product, and one `ctx.integer_row` scales G."""
    k = len(vs)
    frows = [ctx.integer_of(f) for f, _ in s.terms]
    # G_ij flattened at (j - 1)·k + i - 1, column by column
    flat = {}
    for j, v in enumerate(vs):
        vrow, vden = ctx.integer_of(v)
        for i in s.coord_index.hits(v):
            frow, fden = frows[i]
            if dot := _dot(frow, vrow):
                flat[j * k + i] = Fraction(dot, fden * vden)
    cols: List[Column] = [{} for _ in vs]
    for ji, x in ctx.integer_row(flat)[0].items():
        cols[ji // k][ji % k + 1] = x
    return lambda col: _fold((x, cols[l - 1]) for l, x in col.items())


def _fold(pairs: Iterable[Tuple[Union[int, Scalar], Column]]) -> Column:
    """The sum of c·col over the (c, col) pairs, summed per coordinate in
    pair order as `vectors.combine` sums, on sparse dicts of ints or scalars."""
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
                         eps: Scalar, max_n: int, p: SeminormSpec, window: int,
                         ctx: ScalarContext = EXACT) -> Tuple[int, SparseVector]:
    """Search for (n, z) with p(z - x) < eps and p(T^n z - y) < eps.

    The correction z - x lives in the window coordinates outside the active
    set of p (the free directions of the seminorm, the top of the chain);
    applying T^n cascades it into the active rows, which are solved exactly.
    T acts cut to the window: every `apply` is followed by restriction to
    coordinates 1..window, so the n-th step is (P T P)^n with P the window
    projection.  Raises NotNilpotent when S = `t.linear_part()` is not nilpotent
    on the window, WitnessNotFound with the best (n, residual) on failure.

    S = V·F is nilpotent on the window when P·S·P = (P·V)(F·P) is, that is,
    since (AB)^{m+1} = A(BA)^m B, when the k x k core F·P·V with entries
    f_i(P v_j) is.  Exact mode (`ctx.route_free`) tests (F·P·V)^k = 0 on
    integer columns, with no condition on the terms; float mode pushes the
    window's columns through S, under its tolerance.
    """
    indices = range(1, window + 1)

    def step(op: FiniteRankOperator, v: SparseVector) -> SparseVector:
        return op.apply(v, ctx).restrict(indices)

    s = t.linear_part()
    if ctx.route_free:
        k = len(s.terms)
        core = _integer_core(s, [v.restrict(indices) for _, v in s.terms], ctx)
        columns = [{j: 1} for j in range(1, k + 1)]
        for _ in range(k):
            columns = [w for w in map(core, columns) if w]
        nilpotent = not columns
    else:
        cols = [SparseVector.basis(j, ctx) for j in indices]
        for _ in range(window):
            cols = [w for w in (step(s, c) for c in cols) if not w.is_zero()]
        nilpotent = all(ctx.is_zero(v) for c in cols for v in c.entries.values())
    if not nilpotent:
        raise NotNilpotent("witness search needs a nilpotent chain part on the window")

    active_rows = [i for i in indices if i in p.weights]
    free_cols = [i for i in indices if i not in p.weights]

    res0 = eval_seminorm(p, x - y)
    if ctx.lt(res0, eps):
        return 0, x
    best_n, best_res = 0, res0

    # T^n x and T^n e_j for the free columns j, all cut to the window
    tnx = x.restrict(indices)
    tne = [SparseVector.basis(j, ctx) for j in free_cols]
    for n in range(1, max_n + 1):
        tnx = step(t, tnx)
        tne = [step(t, v) for v in tne]
        gap = [y.get(i) - tnx.get(i) for i in active_rows]
        # sol maps the position of a free column to its non-zero coefficient,
        # read off the augmented column k; None when the active rows cannot be met
        k, sol = len(free_cols), None
        if k:
            red = linalg.RowReducer.of(
                [{c: v.entries[i] for c, v in enumerate(tne) if i in v.entries} | {k: g}
                 for i, g in zip(active_rows, gap)], ctx)
            if k not in red.rows:
                sol = {pc: row[k] for pc, row in red.rows.items()
                       if not ctx.is_zero(row.get(k, 0))}
        if sol is None:
            residual = SparseVector(
                {i: g for i, g in zip(active_rows, gap) if not ctx.is_zero(g)}
            )
            drift = eval_seminorm(p, residual)
            if drift < best_res:
                best_n, best_res = n, drift
            continue
        z = x + SparseVector({free_cols[pc]: c for pc, c in sol.items()})
        res_x = eval_seminorm(p, z - x)
        image = combine(((c, tne[pc]) for pc, c in sol.items()), tnx)
        res_y = eval_seminorm(p, image - y)
        worst = max(res_x, res_y)
        if ctx.lt(res_x, eps) and ctx.lt(res_y, eps):
            return n, z
        if worst < best_res:
            best_n, best_res = n, worst
    raise WitnessNotFound(best_n, best_res)


def omega_shift_demo(window: int, x0: SparseVector, horizon: int,
                     ctx: ScalarContext = EXACT) -> List[SparseVector]:
    """First `horizon` elements of the `orbit` of x0 cut to the window under
    the backward shift B = sum_{i<window} δ_{i+1} ⊗ e_i, so (B x)_i = 1·x_{i+1}."""
    shift = FiniteRankOperator(ZERO, tuple(
        (CoordFunctional.delta(i + 1, ctx), SparseVector.basis(i, ctx)) for i in range(1, window)))
    return orbit(shift, x0.restrict(range(1, window + 1)), horizon, ctx)


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


def build_nonorbit_set(family: Sequence[SeminormSpec], b: Enumeration,
                       ctx: ScalarContext = EXACT) -> NonOrbitSet:
    """Kernel-ladder construction: x_n = first basis vector active for
    p_{n+1} but not p_n; A = B plus the ladder, exactly independent."""
    family = tuple(family)
    if not p_independent(family[0], b.items, ctx):
        raise NotPIndependent("net part is not independent for the first seminorm")
    picks: List[SparseVector] = []
    for n in range(len(family) - 1):
        gap = sorted(family[n + 1].active - family[n].active)
        if not gap:
            raise NotNested(f"no new active coordinate between levels {n + 1} and {n + 2}")
        picks.append(SparseVector.basis(gap[0], ctx))
    combined = list(b.items) + picks
    if not linalg.independent((x.entries for x in combined), ctx):
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
                 horizon: int, ctx: ScalarContext = EXACT) -> RefuteReport:
    """Compute the orbit prefix and the refutation quantities.

    M collects the steps leaving the kernel ladder for the net part; the
    first seminorm applied to the normalized continuation gives exactly one
    per member of M, the divergence mechanism of the refutation.  Higher
    seminorms give the absolute-sum certificates of the auxiliary series.
    """
    prefix = orbit(t, x, horizon, ctx)
    p1 = a_set.family[0]
    in_a = [p in a_set for p in prefix]
    first_exit = next((i for i, ok in enumerate(in_a) if not ok), None)

    distinct = list(dict.fromkeys(prefix))
    covers = set(a_set.items) <= set(distinct)

    m_set = [
        n for n in range(horizon - 1)
        if prefix[n] in a_set.c and prefix[n + 1] in a_set.b.items
    ]

    p1_sum = ctx.zero
    series: Dict[int, Scalar] = {k: ctx.zero for k in range(1, len(a_set.family) + 1)}
    for n in m_set:
        # p1 of the continuation over its own gauge: one per member of M
        denom = eval_seminorm(p1, prefix[n + 1])
        p1_sum += denom / denom
        for k, p_k in enumerate(a_set.family, start=1):
            series[k] += eval_seminorm(p_k, prefix[n]) / denom

    rank = linalg.row_rank((project_active(p1, el) for el in distinct), ctx)

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
