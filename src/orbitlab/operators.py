"""Finite-rank perturbations of the identity and their exact inverses.

An operator is base + sum_j f_j (x) v_j with base either the identity or
zero.  Inversion goes through the k x k Gram system G_ij = f_i(v_j); the
Neumann sum c = sum_j p*(f_j) p_D(v_j) < 1 is kept as the invertibility
certificate only, never as a numerical inversion device.

`solve` serves the construction: it returns J^{-1} u for one vector with one
Gram solve.  `invert` serves verification: it builds the whole inverse in
term form from the inverse Gram matrix, an independent slower path that
`verify_transport` replays against the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import BudgetExceeded, SingularOperator
from .scalars import EXACT, Scalar, ScalarContext
from .seminorms import DiskSpec, SeminormSpec, dual_norm, minkowski
from .vectors import CoordFunctional, SparseVector

IDENTITY = "identity"
ZERO = "zero"

Term = Tuple[CoordFunctional, SparseVector]


@dataclass(frozen=True)
class FiniteRankOperator:
    """x -> base(x) + sum_j f_j(x) v_j, term order preserved."""

    base: str = IDENTITY
    terms: Tuple[Term, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.base not in (IDENTITY, ZERO):
            raise ValueError(f"unknown base {self.base!r}")
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def identity(cls) -> "FiniteRankOperator":
        return cls(IDENTITY, ())

    @classmethod
    def zero(cls) -> "FiniteRankOperator":
        return cls(ZERO, ())

    def with_term(self, f: CoordFunctional, v: SparseVector) -> "FiniteRankOperator":
        return FiniteRankOperator(self.base, self.terms + ((f, v),))

    @property
    def rank_bound(self) -> int:
        return len(self.terms)

    def linear_part(self) -> "FiniteRankOperator":
        """The operator minus its identity component."""
        return FiniteRankOperator(ZERO, self.terms)

    def plus_identity(self) -> "FiniteRankOperator":
        return FiniteRankOperator(IDENTITY, self.terms)

    def apply(self, x: SparseVector) -> SparseVector:
        out = x if self.base == IDENTITY else SparseVector.zero()
        for f, v in self.terms:
            coeff = f.pair(x)
            if coeff != 0:
                out = out + v.scale(coeff)
        return out

    def compose(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        """self after other, expanded back into base-plus-terms form."""
        terms: List[Term] = []
        for g, w in other.terms:
            image = w if self.base == IDENTITY else SparseVector.zero()
            for f, v in self.terms:
                coeff = f.pair(w)
                if coeff != 0:
                    image = image + v.scale(coeff)
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
        cols = [self.apply(SparseVector.basis(j, ctx)) for j in indices]
        return [[col.get(i) for col in cols] for i in indices]


@dataclass(frozen=True)
class NeumannBudget:
    """Certificate c = sum_j p*(f_j) p_D(v_j) < 1 for invertibility of I + T."""

    p: SeminormSpec
    disk: DiskSpec
    c: Scalar
    per_term: Tuple[Tuple[Scalar, Scalar], ...]
    epsilons: Optional[Tuple[Scalar, ...]] = None


def neumann_certificate(t: FiniteRankOperator, p: SeminormSpec, disk: DiskSpec,
                        epsilons: Optional[Sequence[Scalar]] = None,
                        ctx: ScalarContext = EXACT) -> NeumannBudget:
    """Compute the budget of a base-zero operator; BudgetExceeded if c >= 1."""
    if t.base != ZERO:
        raise ValueError("certificate applies to the finite-rank part only")
    per_term = []
    c = ctx.zero
    for f, v in t.terms:
        df = dual_norm(p, f)
        pv = minkowski(disk, v, ctx)
        per_term.append((df, pv))
        c += df * pv
    if not c < 1:
        raise BudgetExceeded(c)
    return NeumannBudget(
        p=p,
        disk=disk,
        c=c,
        per_term=tuple(per_term),
        epsilons=tuple(epsilons) if epsilons is not None else None,
    )


def _gram(j: FiniteRankOperator, ctx: ScalarContext) -> List[List[Scalar]]:
    """I_k + G with G_rc = f_r(v_c) for the terms of J = I + sum f (.) v."""
    if j.base != IDENTITY:
        raise ValueError("inversion expects an identity-plus-finite-rank operator")
    return [
        [f.pair(v) + (ctx.one if r == c else 0) for c, (_, v) in enumerate(j.terms)]
        for r, (f, _) in enumerate(j.terms)
    ]


def solve(j: FiniteRankOperator, u: SparseVector,
          ctx: ScalarContext = EXACT) -> SparseVector:
    """J^{-1} u for J = I + sum_j f_j (.) v_j, without forming the inverse.

    w = u - sum_j c_j v_j where (I_k + G) c = (f_i(u))_i: one k x k solve.
    SingularOperator when I_k + G is singular.
    """
    gram = _gram(j, ctx)
    if not gram:
        return u
    coeffs = linalg.solve(gram, [f.pair(u) for f, _ in j.terms], ctx)
    w = u
    for (_, v), c in zip(j.terms, coeffs):
        if c != 0:
            w = w - v.scale(c)
    return w


def invert(j: FiniteRankOperator, ctx: ScalarContext = EXACT) -> FiniteRankOperator:
    """Exact inverse of I + sum f_j (.) v_j via the Gram system.

    The inverse is I - sum_j f_j (.) u_j with u_j = sum_i M_ij v_i and
    M = (I_k + G)^{-1}, G_ij = f_i(v_j).  SingularOperator when I_k + G is
    singular, i.e. when the operator annihilates some vector.
    """
    gram = _gram(j, ctx)
    if not gram:
        return FiniteRankOperator.identity()
    m = linalg.invert_matrix(gram, ctx)
    k = len(gram)
    new_terms = []
    for col in range(k):
        u = SparseVector.zero()
        for row in range(k):
            if m[row][col] != 0:
                u = u + j.terms[row][1].scale(m[row][col])
        new_terms.append((j.terms[col][0], -u))
    return FiniteRankOperator(IDENTITY, tuple(new_terms))


def orbit(t: FiniteRankOperator, x0: SparseVector, horizon: int) -> List[SparseVector]:
    """First `horizon` elements x0, T x0, T^2 x0, ..."""
    out = []
    x = x0
    for _ in range(horizon):
        out.append(x)
        x = t.apply(x)
    return out


def conjugate_orbit(t0: FiniteRankOperator, x0: SparseVector, j: FiniteRankOperator,
                    horizon: int, ctx: ScalarContext = EXACT) -> List[SparseVector]:
    """Orbit of J T0 J^{-1} started at J x0, computed through the conjugate."""
    j_inv = invert(j, ctx)
    conjugated = j.compose(t0).compose(j_inv)
    return orbit(conjugated, j.apply(x0), horizon)
