"""Revenue-optimal cargo loading of a box-hull vessel.

The loading plan maximizes freight revenue subject to deadweight, hold
volume, and a minimum metacentric height.  The stability requirement is an
exact quadratic constraint on the per-type cargo masses, so the problem is
a linearly constrained quadratic program whose character (convex or not)
depends only on the stacking order of the cargo densities.

Names load on first use: ``import shipload`` imports no submodule, and the
first lookup of a public name imports its home module and binds the name
here, so later lookups are plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under its home module.
_EXPORTS = {
    "hydrostatics": (
        "HydroState", "center_of_mass", "constraint_slack", "draft", "hydro_state",
        "keel_to_metacenter", "metacentric_height",
    ),
    "model": (
        "BALLAST_LABEL", "CargoType", "Environment", "LoadingOrder", "Problem",
        "StabilityPolicy", "Vessel", "assemble_problem", "revenue", "stacking_matrix",
    ),
    "oracle": ("LatticeSpec", "certify", "grid_search"),
    "quadratic_analysis": (
        "CongruenceResult", "Definiteness", "DefinitenessClass",
        "classify_constraint_matrix", "congruence_diagonal", "eigen_sign_check",
    ),
    "solver": (
        "KktReport", "Solution", "SolverStatus", "kkt_verify", "mu_sensitivity",
        "solve", "solve_lp",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules that ``shipload.<name>`` reaches after a bare ``import shipload``.
_SUBMODULES = (*_EXPORTS, "cli", "kkt_enumeration")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
