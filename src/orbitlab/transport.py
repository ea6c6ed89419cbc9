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
functional and the term to J.  So a run keeps one solver that grows with
them, a `Separator`, the echelon form of the constraints; it is derived
data, not part of the `TransportState`.  A backward step solves J w = u
with `operators.solve`, one pivoting solve of J's Gram system, and
`verify_transport` rebuilds the inverse of J from the same system with
`invert`; a wrong w still fails its exact-matching, since the update
keeps J(w - a)/f(a).  It reads the slot bounds and the budget from one
`NeumannBudget`, applies J once to each matched a(n_j), for
exact-matching, and once to each window unit vector, for both the round
trip and kernel-fixed.  The forward scan
is one `first_below` over its pool, so it builds the difference to the
target only for the element it keeps.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .density import Enumeration
from .errors import (
    BudgetExceeded,
    Exhausted,
    NoApproximant,
    NotPIndependent,
    StageFailure,
)
from .operators import FiniteRankOperator, NeumannBudget, invert, solve
from .reports import CheckResult, VerificationReport
from .scalars import Scalar
from .seminorms import DiskSpec, SeminormSpec, Separator, first_below, minkowski, p_independent
from .vectors import CoordFunctional, SparseVector


class TransportState(NamedTuple):
    """Everything the verifier needs to replay a run from raw data.  `terms`
    is the base-zero running T_k, in a fresh state of stage 0 one shared zero operator."""

    a: Enumeration
    b: Enumeration
    p: SeminormSpec
    disk: DiskSpec
    epsilons: Tuple[Scalar, ...]
    stage: int = 0
    n_idx: Tuple[int, ...] = ()
    m_idx: Tuple[int, ...] = ()
    terms: FiniteRankOperator = FiniteRankOperator.zero()

    @property
    def operator(self) -> FiniteRankOperator:
        """J = I + T_k."""
        return self.terms.plus_identity()

    def budget_used(self) -> Scalar:
        return NeumannBudget.of(self.terms.terms, self.p, self.disk).c


def step_forward(state: TransportState, u: SparseVector, separator: Separator,
                 pool: Sequence[SparseVector],
                 eps: Scalar) -> Tuple[CoordFunctional, SparseVector, int]:
    """One forward step: returns (f, v, pos) with (I + T + f (.) v) u = pool[pos].

    f separates u from the matched A-side vectors that `separator` holds,
    with dual norm one; pool[pos] is the first pool element within
    eps * |f(u)| of u + T u in the disk gauge; v is the exact update making
    the image land on it.  The scan is one `first_below`, which in weight
    form stops summing a rejected element's distance once it reaches the
    bound; only when no element is kept are the full gauges taken, to name
    the closest in NoApproximant.
    """
    t = state.terms
    f = separator.functional(u)
    target = u + t.apply(u)
    f_u = f.pair(u)
    bound = eps * abs(f_u)
    pos = first_below(state.disk, pool, target, bound)
    if pos is not None:
        return f, (pool[pos] - target).scale(1 / f_u), pos
    best: Optional[Scalar] = None
    best_pos = None
    for pos, r in enumerate(pool):
        dist = minkowski(state.disk, r - target)
        if best is None or dist < best:
            best, best_pos = dist, pos
    raise NoApproximant(
        f"no pool element within {bound} of the forward target; best distance {best}",
        best=best,
        best_index=best_pos,
    )


def step_backward(state: TransportState, u: SparseVector, separator: Separator,
                  pool: Sequence[SparseVector],
                  eps: Scalar) -> Tuple[CoordFunctional, SparseVector, int]:
    """One backward step: returns (f, v, pos) with (I + T + f (.) v) pool[pos] = u.

    Solves (I + T) w = u exactly with `operators.solve`, separates w from
    the matched A-side vectors that `separator` holds, then scans the pool
    for the first a with f(a) != 0 whose exact update vector
    v = (I + T)(w - a) / f(a) fits in the eps slot.
    """
    j = state.operator
    w = solve(j, u)
    f = separator.functional(w)
    best: Optional[Scalar] = None
    best_pos = None
    for pos, a in enumerate(pool):
        f_a = f.pair(a)
        if f_a == 0:
            continue
        v = j.apply(w - a).scale(1 / f_a)
        size = minkowski(state.disk, v)
        if size < eps:
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
                  eps_schedule: Sequence[Scalar], stages: int) -> TransportState:
    """Drive `stages` rounds of the alternating scheme and return the state;
    J is its `operator`.

    Index selection follows the minimal-unused rule; each aborted step is
    re-raised as StageFailure carrying the stage number and partial state.
    Unusable inputs raise before any stage: NotPIndependent for an
    enumeration, Exhausted for a schedule with fewer than 2 * stages slots,
    BudgetExceeded for one whose first 2 * stages slots sum to 1 or more.
    """
    if not p_independent(p, a.items):
        raise NotPIndependent("first enumeration is not p-independent")
    if not p_independent(p, b.items):
        raise NotPIndependent("second enumeration is not p-independent")
    if len(eps_schedule) < 2 * stages:
        raise Exhausted(f"epsilon schedule has {len(eps_schedule)} slots; "
                        f"{stages} stages need {2 * stages}")
    total = sum(eps_schedule[: 2 * stages])
    if not total < 1:
        raise BudgetExceeded(total, "epsilon schedule sum")

    state = TransportState(a, b, p, disk, tuple(eps_schedule))
    separator = Separator(p)
    for q in range(1, stages + 1):
        try:
            state = _run_stage(state, separator, q)
        except (NoApproximant, Exhausted) as exc:
            raise StageFailure(q, state, exc) from exc
    return state


def _matched(state: TransportState, separator: Separator,
             f: CoordFunctional, v: SparseVector, n: int, m: int) -> TransportState:
    """The state with the pair J a(n) = b(m) made by the term f (.) v; a(n)
    joins the separator's constraints."""
    separator.add(state.a.vector(n))
    return state._replace(terms=state.terms.with_term(f, v),
                          n_idx=state.n_idx + (n,), m_idx=state.m_idx + (m,))


def _run_stage(state: TransportState, separator: Separator, q: int) -> TransportState:
    a, b = state.a, state.b
    n_fwd = _min_unused(state.n_idx)
    m_bwd = _min_unused(state.m_idx)
    if n_fwd > len(a) or m_bwd > len(b):
        raise Exhausted(f"enumeration prefix exhausted at stage {q}")

    # forward: u = a(n_fwd), pool = unused B except the reserved backward target
    pool_idx = _unused(b, state.m_idx + (m_bwd,))
    f, v, pos = step_forward(state, a.vector(n_fwd), separator,
                             [b.vector(i) for i in pool_idx], state.epsilons[2 * q - 2])
    state = _matched(state, separator, f, v, n_fwd, pool_idx[pos])

    # backward: u = b(m_bwd), pool = unused A
    pool_idx = _unused(a, state.n_idx)
    f, v, pos = step_backward(state, b.vector(m_bwd), separator,
                              [a.vector(i) for i in pool_idx], state.epsilons[2 * q - 1])
    return _matched(state, separator, f, v, pool_idx[pos], m_bwd)._replace(stage=q)


def _window_indices(state: TransportState) -> List[int]:
    indices = set(state.p.active)
    if state.disk.weights is not None:
        indices |= set(state.disk.weights)
    for x in list(state.a.items) + list(state.b.items):
        indices |= set(x.support)
    return sorted(indices)


def verify_transport(state: TransportState) -> VerificationReport:
    """Recompute every invariant of the state from raw data.

    Failures are report entries, never exceptions; each entry carries a
    witness message for diagnosis.  exact-matching compares J a(n_j) with
    b(m_j) and builds the residual J a(n_j) - b(m_j) only for an unequal
    pair, a zero one otherwise; the report carries them, with the budget.
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

    budget = NeumannBudget.of(state.terms.terms, state.p, state.disk)
    slot_details = [f"term {j}: p*(f) = {df}, p_D(v) = {pv}"
                    for j, (df, pv) in enumerate(budget.per_term, start=1)
                    if not df <= 1 or not pv < state.epsilons[j - 1]]
    add("slot-bounds", not slot_details, "; ".join(slot_details) or "all slots respected")

    add("two-terms-per-stage", len(state.terms.terms) == built,
        f"{len(state.terms.terms)} terms")

    j_op = state.operator
    pairs = list(zip(state.n_idx, state.m_idx))
    residuals, match_details = [], []
    for j, (n, m) in enumerate(pairs, start=1):
        image, target = j_op.apply(state.a.vector(n)), state.b.vector(m)
        if image == target:
            residuals.append(SparseVector.zero())
        else:
            residuals.append(image - target)
            match_details.append(f"pair {j}: J a({n}) != b({m})")
    add("exact-matching", not match_details, "; ".join(match_details) or "all matched pairs exact")

    add("budget-below-one", budget.c < 1, f"c = {budget.c}")

    # J e once per window coordinate, for the round trip and the kernel check
    indices = _window_indices(state)
    basis = [SparseVector.basis(i) for i in indices]
    images = [j_op.apply(e) for e in basis]
    try:
        j_inv = invert(j_op)
        round_trip = all(j_inv.apply(je) == e for e, je in zip(basis, images))
        add("invertible", round_trip, "Gram solve and window round trip")
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        add("invertible", False, str(exc))

    add("kernel-fixed", all(je == e for i, e, je in zip(indices, basis, images)
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
