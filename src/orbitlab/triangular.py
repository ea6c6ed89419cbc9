"""Greedy triangularization of a basis against separating functionals.

Maintains two index prefixes alpha (into the functional list) and beta (into
the basis list) such that every leading minor of the pairing matrix
A[j][k] = f_alpha(j)(u_beta(k)) is invertible, alternating a forced
minimal-index pick with a greedy scan.  Both run on one bordered
factorisation A = L·D·U (L and U^T unit lower triangular) that grows by a row
and a column per pick (Golub & Van Loan, Matrix Computations, §3.2); as
A^T = U^T·D·L^T, functional and vector picks share the code with the roles
swapped.  A pivot is det A_{n+1} / det A_n, so the minors are running
products, and column m of U_m^{-1} over the m-th pivot gives the coefficients
making the combined vectors v_m biorthogonal-triangular against the chosen
functionals, which is exactly what turns the shuffled basis matrix unit lower
triangular.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import linalg
from .errors import Exhausted, LinearlyDependent
from .scalars import EXACT, Scalar, ScalarContext
from .vectors import CoordFunctional, SparseVector, combine

# The driver refuses to start without this much slack beyond the prefix it
# must build; greedy scans need room.
WINDOW_MARGIN = 2


def _pair(a, b) -> Scalar:
    """The pairing of a functional and a vector, given in either order."""
    return a.pair(b) if isinstance(a, CoordFunctional) else b.pair(a)


def _forward(lower, rhs) -> List[Scalar]:
    """Solve T x = rhs, T unit lower triangular given by its rows below the diagonal."""
    x: List[Scalar] = []
    for row, b in zip(lower, rhs):
        x.append(b - sum(t * xj for t, xj in zip(row, x)))
    return x


def _back(lower, rhs) -> List[Scalar]:
    """Solve T^T x = rhs for the leading len(rhs) x len(rhs) block of the same T."""
    x = list(rhs)
    for k in range(len(x) - 1, -1, -1):
        x[k] -= sum(lower[j][k] * x[j] for j in range(k + 1, len(x)))
    return x


class _Bordered:
    """A = L·D·U for the pairing matrix of the functionals and vectors chosen so far.

    items[0] and items[1] hold the chosen functionals and vectors in pick
    order, lower[0] and lower[1] the rows of L and of U^T below the diagonal,
    pivots the diagonal of D.
    """

    def __init__(self, ctx: ScalarContext):
        self.ctx = ctx
        self.items: Tuple[list, list] = ([], [])
        self.lower: Tuple[list, list] = ([], [])
        self.pivots: List[Scalar] = []

    def extend(self, side: int, forced, candidates: Sequence) -> int:
        """Border A with `forced` and the first candidate giving a non-zero pivot.

        `forced` is a functional for side 0 and a vector for side 1; the
        candidates are of the other kind.  Returns the position of the pick;
        raises Exhausted when every pivot vanishes.
        """
        own, other = self.items[side], self.items[1 - side]
        own_lower, other_lower = self.lower[side], self.lower[1 - side]
        # the bordering row of A (of A^T for side 1) is row^T·D·U; the defect
        # item pairs to zero with every chosen item of the other kind
        c = [_pair(forced, y) for y in other]
        row = [z / d for z, d in zip(_forward(other_lower, c), self.pivots)]
        defect = combine(((-lam, x) for lam, x in zip(_back(own_lower, row), own)), forced)
        for pos, candidate in enumerate(candidates):
            pivot = _pair(defect, candidate)
            if not self.ctx.is_zero(pivot):
                break
        else:
            raise Exhausted("every candidate pairs to zero with the defect item")
        b = [_pair(x, candidate) for x in own]
        col = [z / d for z, d in zip(_forward(own_lower, b), self.pivots)]
        own.append(forced)
        other.append(candidate)
        own_lower.append(row)
        other_lower.append(col)
        self.pivots.append(pivot)
        return pos

    def coeffs(self, m: int) -> List[Scalar]:
        """The solution c of A_m c = e_m: column m of U_m^{-1} over the m-th pivot."""
        unit = [self.ctx.one if k == m - 1 else self.ctx.zero for k in range(m)]
        return [c / self.pivots[m - 1] for c in _back(self.lower[1], unit)]


def _greedy_extend(side, forced, chosen, candidates, ctx):
    n = len(chosen)
    if len(forced) < n + 1:
        raise Exhausted(f"need {n + 1} items on the forced side to extend {n} chosen ones")
    lu = _Bordered(ctx)
    for item, pick in zip(forced, chosen):
        try:
            lu.extend(side, item, [pick])
        except Exhausted:
            raise LinearlyDependent("chosen prefix has a singular leading pairing minor") from None
    pos = lu.extend(side, forced[n], candidates)
    return candidates[pos], math.prod(lu.pivots)


def greedy_extend_vector(funcs: Sequence[CoordFunctional],
                         chosen: Sequence[SparseVector],
                         candidates: Sequence[SparseVector],
                         ctx: ScalarContext = EXACT) -> Tuple[SparseVector, Scalar]:
    """First candidate keeping the extended minor invertible, with its det.

    Every leading minor of the pairing of funcs[:n] with the n chosen vectors
    must be invertible, as interleave_triangularize keeps them; LinearlyDependent
    otherwise, even when the full n x n minor is not singular.  Exhausted when
    funcs has fewer than n + 1 items or no candidate keeps the minor invertible.
    """
    return _greedy_extend(0, funcs, chosen, candidates, ctx)


def greedy_extend_functional(vectors: Sequence[SparseVector],
                             chosen: Sequence[CoordFunctional],
                             candidates: Sequence[CoordFunctional],
                             ctx: ScalarContext = EXACT) -> Tuple[CoordFunctional, Scalar]:
    """Dual of greedy_extend_vector with vector and functional roles swapped.

    Same precondition: every leading minor of the pairing of the chosen
    functionals with vectors[:n] must be invertible, else LinearlyDependent.
    """
    return _greedy_extend(1, vectors, chosen, candidates, ctx)


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

    def pairing_matrix(self) -> List[List[Scalar]]:
        return [[f.pair(x) for x in self.chosen_basis()] for f in self.chosen_funcs()]


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
    reducer = linalg.RowReducer(ctx)
    if not all(reducer.try_add(dict(u.entries)) for u in basis):
        raise LinearlyDependent("basis vectors are not linearly independent")

    lu = _Bordered(ctx)
    items = (funcs, basis)
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

    coeffs: List[Tuple[Scalar, ...]] = []
    vs: List[SparseVector] = []
    for m in range(1, target + 1):
        c = lu.coeffs(m)
        coeffs.append(tuple(c))
        vs.append(combine(zip(c, lu.items[1])))

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


def omega_forward_solve(state: TriangularizeState, y: SparseVector,
                        ctx: ScalarContext = EXACT) -> List[Scalar]:
    """Coefficients z with sum_n z_n v_n = y, by forward substitution.

    Only valid for y in the span of the built v's; the caller can verify by
    recombining.  Demonstrates exact invertibility of the triangular matrix.
    """
    m = shuffled_matrix(state)
    n = state.built
    zs: List[Scalar] = []
    for j in range(n):
        val = y.get(state.alpha[j])
        for t in range(j):
            val -= m[j][t] * zs[t]
        zs.append(val / m[j][j])
    return zs


def map_between_spans(source: TriangularizeState, target: TriangularizeState,
                      x: SparseVector, ctx: ScalarContext = EXACT) -> SparseVector:
    """Convenience composition: solve through the source triangle, push
    through the target one.  No claims beyond the built prefixes."""
    if source.built != target.built:
        raise ValueError("states must have prefixes of equal length")
    return combine(zip(omega_forward_solve(source, x, ctx), target.v))
