"""Back-and-forth synthesis of an invertible operator matching two enumerations.

Alternates forward steps (send the next unmatched element of A onto some
element of B) and backward steps (arrange a preimage in A for the next
unmatched element of B), each time adding one rank-one term f (.) v with
dual-norm-one f and a v small enough in the disk gauge that the running
Neumann budget stays below one.  The matched pairs are exact identities, not
approximations: the rank-one update absorbs the distance to the chosen
approximant.

`run_transport` returns only the `TransportState`, the one replayable
record of the run; J is its `operator`.  Each step returns the position in
its pool of the element it accepted, and one routine records the matched
pair: it adds the A-side vector to the constraints of the next separating
functional and the term to J.  So a run keeps two solvers that grow with
them: a `Separator`, the echelon form of the constraints, and a
`GramFactor`, a bordered factor of the Gram system for the backward solves.
They are derived data, not part of the `TransportState`;
`verify_transport` uses neither and rebuilds the inverse of J from scratch.
It reads the slot bounds and the budget from one `NeumannBudget`, applies J
once to each matched a(n_j), for the exact-matching residuals that the
report also prints, and once to each window unit vector, for both the round
trip and kernel-fixed.  The forward scan gauges its pool with `gauge_below`, so it
builds the difference to the target only for the element it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from .density import Enumeration
from .errors import (
    BudgetExceeded,
    Exhausted,
    NoApproximant,
    NotPIndependent,
    StageFailure,
)
from .operators import FiniteRankOperator, GramFactor, NeumannBudget, invert
from .reports import CheckResult, VerificationReport
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import DiskSpec, SeminormSpec, Separator, gauge_below, minkowski, p_independent
from .vectors import CoordFunctional, SparseVector, close


@dataclass(frozen=True)
class TransportState:
    """Everything the verifier needs to replay a run from raw data.  `terms`
    is the base-zero running T_k, 0 in a fresh state of stage 0."""

    a: Enumeration
    b: Enumeration
    p: SeminormSpec
    disk: DiskSpec
    epsilons: Tuple[Scalar, ...]
    stage: int = 0
    n_idx: Tuple[int, ...] = ()
    m_idx: Tuple[int, ...] = ()
    terms: FiniteRankOperator = field(default_factory=FiniteRankOperator.zero)

    @property
    def operator(self) -> FiniteRankOperator:
        """J = I + T_k."""
        return self.terms.plus_identity()

    def budget_used(self, ctx: ScalarContext = EXACT) -> Scalar:
        return NeumannBudget.of(self.terms.terms, self.p, self.disk, ctx).c


def step_forward(state: TransportState, u: SparseVector, separator: Separator,
                 pool: Sequence[SparseVector], eps: Scalar,
                 ctx: ScalarContext = EXACT) -> Tuple[CoordFunctional, SparseVector, int]:
    """One forward step: returns (f, v, pos) with (I + T + f (.) v) u = pool[pos].

    f separates u from the matched A-side vectors that `separator` holds,
    with dual norm one; pool[pos] is the first pool element within
    eps * |f(u)| of u + T u in the disk gauge; v is the exact update making
    the image land on it.  The scan asks `gauge_below`, which in weight form
    stops summing a rejected element's distance once it reaches the bound;
    only when no element is kept are the full gauges taken, to name the
    closest in NoApproximant.
    """
    t = state.terms
    f = separator.functional(u)
    target = u + t.apply(u, ctx)
    f_u = f.pair(u)
    bound = eps * abs(f_u)
    for pos, r in enumerate(pool):
        if gauge_below(state.disk, r, target, bound, ctx):
            return f, (r - target).scale(1 / f_u), pos
    best: Optional[Scalar] = None
    best_pos = None
    for pos, r in enumerate(pool):
        dist = minkowski(state.disk, r - target, ctx)
        if best is None or dist < best:
            best, best_pos = dist, pos
    raise NoApproximant(
        f"no pool element within {bound} of the forward target; best distance {best}",
        best=best,
        best_index=best_pos,
    )


def step_backward(state: TransportState, u: SparseVector, separator: Separator,
                  gram: GramFactor, pool: Sequence[SparseVector], eps: Scalar,
                  ctx: ScalarContext = EXACT) -> Tuple[CoordFunctional, SparseVector, int]:
    """One backward step: returns (f, v, pos) with (I + T + f (.) v) pool[pos] = u.

    Solves (I + T) w = u exactly with `gram`, the factored Gram system of the
    terms of T, separates w from the matched A-side vectors that `separator`
    holds, then scans the pool for the first a with f(a) != 0 whose exact
    update vector v = (I + T)(w - a) / f(a) fits in the eps slot.
    """
    j = state.operator
    w = gram.solve(u)
    f = separator.functional(w)
    best: Optional[Scalar] = None
    best_pos = None
    for pos, a in enumerate(pool):
        f_a = f.pair(a)
        if ctx.is_zero(f_a):
            continue
        v = j.apply(w - a, ctx).scale(1 / f_a)
        size = minkowski(state.disk, v, ctx)
        if ctx.lt(size, eps):
            return f, v, pos
        if best is None or size < best:
            best, best_pos = size, pos
    raise NoApproximant(
        f"no pool element yields an update below {eps}; best size {best}",
        best=best,
        best_index=best_pos,
    )


def _min_unused(used: Sequence[int]) -> int:
    n = 1
    taken = set(used)
    while n in taken:
        n += 1
    return n


def _unused(side: Enumeration, used: Sequence[int]) -> List[int]:
    taken = set(used)
    return [i for i in range(1, len(side) + 1) if i not in taken]


def run_transport(a: Enumeration, b: Enumeration, p: SeminormSpec, disk: DiskSpec,
                  eps_schedule: Sequence[Scalar], stages: int,
                  ctx: ScalarContext = EXACT) -> TransportState:
    """Drive `stages` rounds of the alternating scheme and return the state;
    J is its `operator`.

    Index selection follows the minimal-unused rule; each aborted step is
    re-raised as StageFailure carrying the stage number and partial state.
    Unusable inputs raise before any stage: NotPIndependent for an
    enumeration, Exhausted for a schedule with fewer than 2 * stages slots,
    BudgetExceeded for one whose first 2 * stages slots sum to 1 or more.
    """
    if not p_independent(p, a.items, ctx):
        raise NotPIndependent("first enumeration is not p-independent")
    if not p_independent(p, b.items, ctx):
        raise NotPIndependent("second enumeration is not p-independent")
    if len(eps_schedule) < 2 * stages:
        raise Exhausted(f"epsilon schedule has {len(eps_schedule)} slots; "
                        f"{stages} stages need {2 * stages}")
    total = sum(eps_schedule[: 2 * stages])
    if not total < 1:
        raise BudgetExceeded(total, "epsilon schedule sum")

    state = TransportState(a, b, p, disk, tuple(eps_schedule))
    separator, gram = Separator(p, ctx), GramFactor(ctx)
    for q in range(1, stages + 1):
        try:
            state = _run_stage(state, separator, gram, q, ctx)
        except (NoApproximant, Exhausted) as exc:
            raise StageFailure(q, state, exc) from exc
    return state


def _matched(state: TransportState, separator: Separator, gram: GramFactor,
             f: CoordFunctional, v: SparseVector, n: int, m: int) -> TransportState:
    """The state with the pair J a(n) = b(m) made by the term f (.) v; a(n)
    joins the separator's constraints and the term joins the Gram factor."""
    separator.add(state.a.vector(n))
    gram.extend(f, v)
    return replace(state, terms=state.terms.with_term(f, v),
                   n_idx=state.n_idx + (n,), m_idx=state.m_idx + (m,))


def _run_stage(state: TransportState, separator: Separator, gram: GramFactor,
               q: int, ctx: ScalarContext) -> TransportState:
    a, b = state.a, state.b
    n_fwd = _min_unused(state.n_idx)
    m_bwd = _min_unused(state.m_idx)
    if n_fwd > len(a) or m_bwd > len(b):
        raise Exhausted(f"enumeration prefix exhausted at stage {q}")

    # forward: u = a(n_fwd), pool = unused B except the reserved backward target
    pool_idx = _unused(b, state.m_idx + (m_bwd,))
    f, v, pos = step_forward(state, a.vector(n_fwd), separator,
                             [b.vector(i) for i in pool_idx], state.epsilons[2 * q - 2], ctx)
    state = _matched(state, separator, gram, f, v, n_fwd, pool_idx[pos])

    # backward: u = b(m_bwd), pool = unused A
    pool_idx = _unused(a, state.n_idx)
    f, v, pos = step_backward(state, b.vector(m_bwd), separator, gram,
                              [a.vector(i) for i in pool_idx], state.epsilons[2 * q - 1], ctx)
    return replace(_matched(state, separator, gram, f, v, pool_idx[pos], m_bwd), stage=q)


def _window_indices(state: TransportState) -> List[int]:
    indices = set(state.p.active)
    if state.disk.weights is not None:
        indices |= set(state.disk.weights)
    for x in list(state.a.items) + list(state.b.items):
        indices |= set(x.support)
    return sorted(indices)


def verify_transport(state: TransportState, ctx: ScalarContext = EXACT) -> VerificationReport:
    """Recompute every invariant of the state from raw data.

    Failures are report entries, never exceptions; each entry carries a
    witness message for diagnosis.  exact-matching computes each residual
    J a(n_j) - b(m_j) once and passes when its every entry is `ctx.is_zero`;
    the report carries the residuals, with the budget.
    """
    checks: List[CheckResult] = []
    k = state.stage
    built = 2 * k

    def add(name, passed, detail=""):
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    add("index-count", len(state.n_idx) == built and len(state.m_idx) == built,
        f"{len(state.n_idx)} n / {len(state.m_idx)} m indices for stage {k}")

    add("indices-distinct", len(set(state.n_idx)) == len(state.n_idx)
        and len(set(state.m_idx)) == len(state.m_idx),
        "indices pairwise distinct")

    want = set(range(1, k + 1))
    add("index-coverage", want <= set(state.n_idx) and want <= set(state.m_idx),
        f"{{1..{k}}} inside both index sets")

    budget = NeumannBudget.of(state.terms.terms, state.p, state.disk, ctx)
    slot_details = [f"term {j}: p*(f) = {df}, p_D(v) = {pv}"
                    for j, (df, pv) in enumerate(budget.per_term, start=1)
                    if not df <= 1 or not pv < state.epsilons[j - 1]]
    add("slot-bounds", not slot_details, "; ".join(slot_details) or "all slots respected")

    add("two-terms-per-stage", len(state.terms.terms) == built,
        f"{len(state.terms.terms)} terms")

    j_op = state.operator
    pairs = list(zip(state.n_idx, state.m_idx))
    residuals = [j_op.apply(state.a.vector(n), ctx) - state.b.vector(m) for n, m in pairs]
    match_details = [f"pair {j}: J a({n}) != b({m})"
                     for j, ((n, m), r) in enumerate(zip(pairs, residuals), start=1)
                     if not all(ctx.is_zero(v) for v in r.entries.values())]
    add("exact-matching", not match_details, "; ".join(match_details) or "all matched pairs exact")

    add("budget-below-one", ctx.lt(budget.c, ctx.one), f"c = {budget.c}")

    # J e once per window coordinate, for the round trip and the kernel check
    indices = _window_indices(state)
    basis = [SparseVector.basis(i, ctx) for i in indices]
    images = [j_op.apply(e, ctx) for e in basis]
    try:
        j_inv = invert(j_op, ctx)
        round_trip = all(close(j_inv.apply(je, ctx), e, ctx) for e, je in zip(basis, images))
        add("invertible", round_trip, "Gram solve and window round trip")
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        add("invertible", False, str(exc))

    add("kernel-fixed", all(close(je, e, ctx) for i, e, je in zip(indices, basis, images)
                            if i not in state.p.active),
        "J e_i = e_i outside the active set")

    replay_ok = True
    for q in range(1, k + 1):
        expect_n = _min_unused(state.n_idx[: 2 * q - 2])
        expect_m = _min_unused(state.m_idx[: 2 * q - 2])
        if state.n_idx[2 * q - 2] != expect_n or state.m_idx[2 * q - 1] != expect_m:
            replay_ok = False
    add("min-rule-replay", replay_ok, "forced indices match the minimal-unused rule")

    return VerificationReport(checks=checks, budget=budget.c, residuals=residuals)
