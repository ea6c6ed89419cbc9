"""Weighted-shift assembly, premise checks, witness search and orbit refutation.

Hypercyclicity itself is not assertable at desk scale.  This module checks
what can be checked: the chain identities and continuity bound of the
assembled shift, the dimension of span of range-kernel intersections feeding
the dense-span premise, explicit transitivity witnesses with re-evaluable
residuals, and the instrumented quantities of the non-orbit refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .density import Enumeration, biorthogonalize
from .errors import NotNested, NotPIndependent, WitnessNotFound
from .operators import FiniteRankOperator, IDENTITY, ZERO, orbit
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import (
    DiskSpec,
    SeminormSpec,
    dual_norm,
    eval_seminorm,
    minkowski,
    p_independent,
)
from .vectors import CoordFunctional, SparseVector


@dataclass(frozen=True)
class ShiftOperatorSpec:
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
        denom = minkowski(disk, u_n, ctx) * dual_norm(p, f_next)
        w = (Fraction(1, 2 ** n) if ctx.exact else 2.0 ** -n) / denom
        weights.append(w)
        terms.append((f_next, u_n.scale(w)))
    s = FiniteRankOperator(ZERO, tuple(terms), ctx.exact)
    return ShiftOperatorSpec(us=us, fs=fs, weights=tuple(weights), operator=s)


@dataclass
class PremiseRow:
    n: int
    dim_range: int
    dim_kernel: int
    dim_intersection: int


@dataclass
class PremiseReport:
    rows: List[PremiseRow]
    span_dim: int
    window_dim: int
    window_meet_dim: int

    @property
    def dense_span(self) -> bool:
        return self.window_meet_dim == self.window_dim


def _independent_columns(columns: List[List[Scalar]], ctx: ScalarContext) -> List[List[Scalar]]:
    reducer = linalg.RowReducer(ctx)
    kept = []
    for col in columns:
        as_map = {i + 1: v for i, v in enumerate(col) if not ctx.is_zero(v)}
        if as_map and reducer.try_add(as_map):
            kept.append(col)
    return kept


def range_kernel_premise_check(t: FiniteRankOperator, window: int, depth: int,
                               ctx: ScalarContext = EXACT) -> PremiseReport:
    """Dimensions of range(S^n) ∩ ker(S^n) for S = T - I, n <= depth.

    Computations run on the full support of the operator, which should
    extend beyond the probe window: a truncated chain is only surjective
    below its top, so headroom above the window is the finite stand-in for
    the surjectivity of the infinite chain.  The intersection is S^n applied
    to the nullspace of S^{2n}; the report compares the part of the
    accumulated span lying inside the window against the window dimension.
    """
    s = t.linear_part() if t.base == IDENTITY else t
    top = window
    for f, v in s.terms:
        top = max([top] + list(f.support) + list(v.support))
    ambient = list(range(1, top + 1))
    dim = len(ambient)
    s_mat = s.matrix_on(ambient)
    rows: List[PremiseRow] = []
    union: List[List[Scalar]] = []
    accumulated = linalg.RowReducer(ctx)
    power = linalg.identity_matrix(dim, ctx.exact)
    for n in range(1, depth + 1):
        power = linalg.mat_mul(power, s_mat)
        double = linalg.mat_mul(power, power)
        dim_range = linalg.rank(power, ctx)
        kernel = linalg.nullspace(power, cols=dim, ctx=ctx)
        meet = [linalg.mat_vec(power, y) for y in linalg.nullspace(double, cols=dim, ctx=ctx)]
        meet = _independent_columns(meet, ctx)
        for col in meet:
            if accumulated.try_add({i + 1: v for i, v in enumerate(col)
                                    if not ctx.is_zero(v)}):
                union.append(col)
        rows.append(PremiseRow(
            n=n,
            dim_range=dim_range,
            dim_kernel=len(kernel),
            dim_intersection=len(meet),
        ))
    # dim(U ∩ W) = dim U + dim W - dim(U + W) for the window subspace W
    span_dim = accumulated.rank
    window_rows = [
        [Fraction(int(j + 1 == i)) if ctx.exact else float(j + 1 == i) for j in range(dim)]
        for i in range(1, window + 1)
    ]
    joint = linalg.rank(union + window_rows, ctx)
    window_meet = span_dim + window - joint
    return PremiseReport(rows=rows, span_dim=span_dim, window_dim=window,
                         window_meet_dim=window_meet)


def _nilpotent_on_window(s_mat: List[List[Scalar]], ctx: ScalarContext) -> bool:
    n = len(s_mat)
    power = s_mat
    for _ in range(n - 1):
        if all(ctx.is_zero(v) for row in power for v in row):
            return True
        power = linalg.mat_mul(power, s_mat)
    return all(ctx.is_zero(v) for row in power for v in row)


def transitivity_witness(t: FiniteRankOperator, x: SparseVector, y: SparseVector,
                         eps: Scalar, max_n: int, p: SeminormSpec,
                         window: Optional[int] = None,
                         ctx: ScalarContext = EXACT) -> Tuple[int, SparseVector]:
    """Search for (n, z) with p(z - x) < eps and p(T^n z - y) < eps.

    The correction z - x lives in the window coordinates outside the active
    set of p (the free directions of the seminorm, the top of the chain);
    applying T^n cascades it into the active rows, which are solved exactly.
    Raises WitnessNotFound with the best (n, residual) on failure.
    """
    if window is None:
        window = max(
            [max(x.support, default=1), max(y.support, default=1), max(p.active)]
            + [max(v.support, default=1) for _, v in t.terms]
            + [max(f.support, default=1) for f, _ in t.terms]
        )
    indices = list(range(1, window + 1))
    s = t.linear_part() if t.base == IDENTITY else t
    if not _nilpotent_on_window(s.matrix_on(indices), ctx):
        raise ValueError("witness search needs a nilpotent chain part on the window")

    active_rows = [i for i in indices if i in p.weights]
    free_cols = [i for i in indices if i not in p.weights]
    t_mat = t.matrix_on(indices)

    res0 = eval_seminorm(p, x - y)
    if ctx.lt(res0, eps):
        return 0, x
    best_n, best_res = 0, res0

    power = linalg.identity_matrix(window, ctx.exact)
    x_col = [x.get(i) for i in indices]
    y_col = [y.get(i) for i in indices]
    for n in range(1, max_n + 1):
        power = linalg.mat_mul(power, t_mat)
        tnx = linalg.mat_vec(power, x_col)
        block = [[power[i - 1][j - 1] for j in free_cols] for i in active_rows]
        rhs = [y_col[i - 1] - tnx[i - 1] for i in active_rows]
        sol = linalg.solve_any(block, rhs, ctx) if free_cols else None
        if sol is None:
            residual = SparseVector(
                {i: y_col[i - 1] - tnx[i - 1] for i in active_rows
                 if not ctx.is_zero(y_col[i - 1] - tnx[i - 1])},
                ctx.exact,
            )
            drift = eval_seminorm(p, residual)
            if drift < best_res:
                best_n, best_res = n, drift
            continue
        correction = SparseVector(
            {j: c for j, c in zip(free_cols, sol) if not ctx.is_zero(c)}, ctx.exact
        )
        z = x + correction
        res_x = eval_seminorm(p, z - x)
        z_col = [z.get(i) for i in indices]
        tnz = linalg.mat_vec(power, z_col)
        image = SparseVector(
            {i: v for i, v in zip(indices, tnz) if not ctx.is_zero(v)}, ctx.exact
        )
        res_y = eval_seminorm(p, image - y)
        worst = max(res_x, res_y)
        if ctx.lt(res_x, eps) and ctx.lt(res_y, eps):
            return n, z
        if worst < best_res:
            best_n, best_res = n, worst
    raise WitnessNotFound(best_n, best_res)


def omega_shift_demo(window: int, x0: SparseVector, horizon: int,
                     exact: bool = True) -> List[SparseVector]:
    """Orbit prefix of the plain coordinate shift; entries beyond the window
    read as zero."""
    out = []
    x = x0.restrict(range(1, window + 1))
    for _ in range(horizon):
        out.append(x)
        x = SparseVector(
            {i: x.get(i + 1) for i in range(1, window) if x.get(i + 1) != 0}, exact
        )
    return out


@dataclass(frozen=True)
class NonOrbitSet:
    """B (independent net part) plus C (kernel ladder), with the family kept
    for the series instrumentation."""

    b: Enumeration
    c: Tuple[SparseVector, ...]
    family: Tuple[SeminormSpec, ...]

    @property
    def items(self) -> Tuple[SparseVector, ...]:
        return tuple(self.b.items) + self.c

    def in_b(self, x: SparseVector) -> bool:
        return any(x == y for y in self.b.items)

    def in_c(self, x: SparseVector) -> bool:
        return any(x == y for y in self.c)

    def __contains__(self, x: SparseVector) -> bool:
        return self.in_b(x) or self.in_c(x)


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
        picks.append(SparseVector.basis(gap[0], ctx.exact))
    reducer = linalg.RowReducer(ctx)
    for x in list(b.items) + picks:
        if not reducer.try_add(dict(x.entries)):
            raise NotPIndependent("combined set is linearly dependent")
    return NonOrbitSet(b=b, c=tuple(picks), family=family)


@dataclass
class RefuteReport:
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
    prefix = orbit(t, x, horizon)
    p1 = a_set.family[0]
    in_a = [p in a_set for p in prefix]
    first_exit = next((i for i, ok in enumerate(in_a) if not ok), None)

    distinct: List[SparseVector] = []
    for el in prefix:
        if all(el != d for d in distinct):
            distinct.append(el)
    covers = all(any(item == el for el in distinct) for item in a_set.items)

    m_set = [
        n for n in range(horizon - 1)
        if a_set.in_c(prefix[n]) and a_set.in_b(prefix[n + 1])
    ]

    zero = Fraction(0) if ctx.exact else 0.0
    p1_sum = zero
    series: Dict[int, Scalar] = {k: zero for k in range(1, len(a_set.family) + 1)}
    for n in m_set:
        denom = eval_seminorm(p1, prefix[n + 1])
        p1_sum += eval_seminorm(p1, prefix[n + 1]) / denom
        for k, p_k in enumerate(a_set.family, start=1):
            series[k] += eval_seminorm(p_k, prefix[n]) / denom

    reducer = linalg.RowReducer(ctx)
    rank = 0
    for el in distinct:
        proj = {i: v for i, v in el.entries.items() if i in p1.weights}
        if proj and reducer.try_add(proj):
            rank += 1

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
