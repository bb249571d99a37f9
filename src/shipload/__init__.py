"""Revenue-optimal cargo loading of a box-hull vessel.

The loading plan maximizes freight revenue subject to deadweight, hold
volume, and a minimum metacentric height.  The stability requirement is an
exact quadratic constraint on the per-type cargo masses, so the problem is
a linearly constrained quadratic program whose character (convex or not)
depends only on the stacking order of the cargo densities.
"""

from .hydrostatics import (
    HydroState,
    center_of_mass,
    constraint_slack,
    draft,
    hydro_state,
    keel_to_metacenter,
    metacentric_height,
)
from .model import (
    BALLAST_LABEL,
    CargoType,
    Environment,
    LoadingOrder,
    Problem,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    revenue,
    stacking_matrix,
)
from .oracle import LatticeSpec, certify, grid_search
from .quadratic_analysis import (
    CongruenceResult,
    Definiteness,
    DefinitenessClass,
    classify_constraint_matrix,
    congruence_diagonal,
    eigen_sign_check,
)
from .solver import (
    KktReport,
    Solution,
    SolverStatus,
    kkt_verify,
    mu_sensitivity,
    solve,
    solve_lp,
)

__version__ = "0.1.0"

__all__ = [
    "BALLAST_LABEL",
    "CargoType",
    "CongruenceResult",
    "Definiteness",
    "DefinitenessClass",
    "Environment",
    "HydroState",
    "KktReport",
    "LatticeSpec",
    "LoadingOrder",
    "Problem",
    "Solution",
    "SolverStatus",
    "StabilityPolicy",
    "Vessel",
    "assemble_problem",
    "center_of_mass",
    "certify",
    "classify_constraint_matrix",
    "congruence_diagonal",
    "constraint_slack",
    "draft",
    "eigen_sign_check",
    "grid_search",
    "hydro_state",
    "keel_to_metacenter",
    "kkt_verify",
    "metacentric_height",
    "mu_sensitivity",
    "revenue",
    "solve",
    "solve_lp",
    "stacking_matrix",
]
