"""Numerical workbench for WRT invariants of figure-eight surgeries and
the optimistic limits of their asymptotics.

The package evaluates tau_N(M_p) at q = exp(2 pi i/N) by two independent
formulas, builds the dilogarithm potential whose critical values give the
optimistic limit of 2 pi i log(tau_N)/N, enumerates and branch-corrects
the critical points, and compares the results against reference
CS + i Vol geometry data.
"""

from .errors import (
    BranchInconsistencyError,
    DomainError,
    PrecisionExhaustedError,
    ReferenceDataError,
    SingularPointError,
    UnsupportedFramingError,
)
from .geometry_reference import (
    GeometryReference,
    MatchReport,
    builtin_references,
    compare,
    infinity_solution,
    limit_infinity,
    load_references,
)
from .potential import (
    BranchCorrection,
    branch_correct,
    eval_log_gradient,
    eval_potential,
)
from .quantum_invariants import (
    RootOfUnityContext,
    colored_jones_fig8,
    formula_discrepancy,
    growth_profile,
    quantum_integer,
    wrt_direct,
    wrt_double_sum,
)
from .saddle_solver import (
    SaddlePoint,
    classify,
    residual_fig8,
    solve_fig8,
    symmetry_orbit,
    track_geometric,
)
from .specfun import (
    bernoulli2_periodic,
    clausen2,
    dilog,
    dilog_unit_circle_decomposition,
    principal_log,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCorrection",
    "BranchInconsistencyError",
    "DomainError",
    "GeometryReference",
    "MatchReport",
    "PrecisionExhaustedError",
    "ReferenceDataError",
    "RootOfUnityContext",
    "SaddlePoint",
    "SingularPointError",
    "UnsupportedFramingError",
    "bernoulli2_periodic",
    "branch_correct",
    "builtin_references",
    "classify",
    "clausen2",
    "colored_jones_fig8",
    "compare",
    "dilog",
    "dilog_unit_circle_decomposition",
    "eval_log_gradient",
    "eval_potential",
    "formula_discrepancy",
    "growth_profile",
    "infinity_solution",
    "limit_infinity",
    "load_references",
    "principal_log",
    "quantum_integer",
    "residual_fig8",
    "solve_fig8",
    "symmetry_orbit",
    "track_geometric",
    "wrt_direct",
    "wrt_double_sum",
    "__version__",
]
