"""orbitlab: finite-stage constructions from the operator-transport workbench.

Exact-rational sparse vectors, seminorms and disks; finite-rank operators
with Neumann invertibility certificates; greedy triangularization of a basis
against coordinate functionals; back-and-forth transport of one independent
enumeration onto another; weighted-shift assembly and orbit instrumentation.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetExceeded,
    Exhausted,
    KernelCollision,
    LinearlyDependent,
    NoApproximant,
    NoSeparation,
    NotANet,
    NotInSpan,
    NotNested,
    NotPBounded,
    NotPIndependent,
    SingularOperator,
    StageFailure,
    WitnessNotFound,
    WorkbenchError,
)
from .scalars import Scalar  # noqa: F401
from .vectors import CoordFunctional, SparseVector  # noqa: F401
from .seminorms import (  # noqa: F401
    DiskSpec,
    SeminormSpec,
    dual_norm,
    dual_norm_witness,
    eval_seminorm,
    minkowski,
    p_independent,
)
from .operators import (  # noqa: F401
    FiniteRankOperator,
    NeumannBudget,
    conjugate_orbit,
    invert,
    neumann_certificate,
    orbit,
)
