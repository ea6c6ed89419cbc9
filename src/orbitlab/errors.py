"""Failure modes shared across the workbench.

Every error corresponds to a checkable condition that a caller may want to
catch and react to (enlarge a window, extend an enumeration prefix, loosen a
schedule).  Errors carry the data needed for that diagnosis.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all orbitlab errors."""


class NotPBounded(WorkbenchError):
    """Functional has support outside the seminorm's active coordinates."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"functional is unbounded on ker p (coordinate {index})")


class NotInSpan(WorkbenchError):
    """Vector is not in the span of the disk generators / weighted coordinates."""


class NoSeparation(WorkbenchError):
    """(u + span L) meets ker p; no separating functional exists."""


class BudgetExceeded(WorkbenchError):
    """Neumann budget c >= 1; invertibility is not certified."""

    def __init__(self, c, what: str = "budget c"):
        self.c = c
        super().__init__(f"{what} = {c} >= 1")


class SingularOperator(WorkbenchError):
    """Identity-plus-finite-rank operator has nontrivial kernel."""


class Exhausted(WorkbenchError):
    """A greedy scan ran out of admissible candidates."""


class NoApproximant(WorkbenchError):
    """No element of the enumeration prefix was close enough."""

    def __init__(self, message: str, best=None, best_index: int | None = None):
        self.best = best
        self.best_index = best_index
        super().__init__(message)


class KernelCollision(WorkbenchError):
    """span(us) meets ker p nontrivially."""


class LinearlyDependent(WorkbenchError):
    """A family expected to be linearly independent is not."""


class NotPIndependent(WorkbenchError):
    """A set expected to be p-independent has dependent active projections."""


class NotNested(WorkbenchError):
    """Seminorm family is not strictly nested."""


class NotANet(WorkbenchError):
    """A set fails to be an eps-net for the stated targets."""


class WitnessNotFound(WorkbenchError):
    """Transitivity witness search failed within max_n."""

    def __init__(self, best_n: int, best_residual):
        self.best_n = best_n
        self.best_residual = best_residual
        super().__init__(
            f"no witness within budget; best residual {best_residual} at n = {best_n}"
        )


class StageFailure(WorkbenchError):
    """A transport stage aborted; carries the stage number and partial state."""

    def __init__(self, stage: int, state, cause: Exception):
        self.stage = stage
        self.state = state
        super().__init__(f"transport aborted at stage {stage}: {cause}")
