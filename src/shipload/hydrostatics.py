"""Box-hull hydrostatics and the bridge to the algebraic stability constraint.

For a box hull floating upright, draft, buoyancy center, and metacenter all
follow from the displaced volume alone.  The loaded center of mass adds the
cargo stack on top of the lightship term.  ``constraint_slack`` evaluates
the same stability condition in its multiplied-out quadratic form; the two
views agree up to floating-point roundoff, which is what makes the
assembled problem trustworthy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Environment, Problem, Vessel

__all__ = [
    "HydroState",
    "draft",
    "keel_to_metacenter",
    "center_of_mass",
    "hydro_state",
    "metacentric_height",
    "constraint_slack",
]


@dataclass(frozen=True)
class HydroState:
    """Upright equilibrium of the loaded vessel.

    Heights are measured from the keel: ``keel_to_buoyancy`` (KB) and
    ``keel_to_mass`` (KG) locate the buoyancy and mass centers,
    ``keel_to_metacenter`` (KM) the metacenter, and ``metacentric_height``
    is GM = KM - KG.
    """

    draft: float
    keel_to_buoyancy: float
    buoyancy_to_metacenter: float
    keel_to_metacenter: float
    keel_to_mass: float
    metacentric_height: float
    displacement_mass: float


def draft(vessel: Vessel, environment: Environment, total_cargo_mass: float) -> float:
    """Submerged depth of the hull carrying the given cargo mass.

    Archimedes for a box: displaced water mass rho*L*B*T balances light
    mass plus cargo.  A draft above the beam is physically suspicious for
    this hull shape and triggers a warning.
    """
    if total_cargo_mass < 0:
        raise ValueError(f"cargo mass must be nonnegative, got {total_cargo_mass}")
    t = (vessel.light_mass + total_cargo_mass) / (
        environment.water_density * vessel.length * vessel.beam
    )
    if t > vessel.beam:
        warnings.warn(
            f"draft {t:.3f} m exceeds the beam {vessel.beam} m; "
            "the box-hull formulas are dubious this deep",
            stacklevel=2,
        )
    return t


def keel_to_metacenter(vessel: Vessel, draft: float) -> float:
    """Height of the metacenter above the keel, KM = B^2/(12 T) + T/2.

    The first term is the waterplane inertia divided by displaced volume
    (the buoyancy-to-metacenter arm of a box), the second the buoyancy
    center itself at half draft.
    """
    if draft <= 0:
        raise ValueError(f"draft must be positive, got {draft}")
    return vessel.beam**2 / (12.0 * draft) + draft / 2.0


def center_of_mass(problem: Problem, x) -> float:
    """Height KG of the loaded vessel's center of mass above the keel."""
    return hydro_state(problem, x).keel_to_mass


def hydro_state(problem: Problem, x) -> HydroState:
    """Full upright-equilibrium state for the loading vector ``x``."""
    arr = problem.check_vector(x)
    if np.any(arr < 0):
        raise ValueError("loading vector has a negative entry")
    vessel = problem.vessel
    total = float(arr.sum())
    t = draft(vessel, problem.environment, total)
    kb = t / 2.0
    bm = vessel.beam**2 / (12.0 * t)
    # Stack moment about the keel, x'Wx / (2 B L), in O(n): W[i][j] = v[min(i, j)]
    # for v = 1/d gives x'Wx = sum_k dv_k S_k^2, dv the steps of v, S the suffix sums.
    suffix = np.cumsum(arr[::-1])[::-1]
    steps = problem.volume_coeffs.copy()
    steps[1:] -= problem.volume_coeffs[:-1]
    moment = float(steps @ suffix**2) / (2.0 * vessel.waterplane_area)
    kg = (vessel.light_kg * vessel.light_mass + moment) / (total + vessel.light_mass)
    return HydroState(
        draft=t,
        keel_to_buoyancy=kb,
        buoyancy_to_metacenter=bm,
        keel_to_metacenter=kb + bm,
        keel_to_mass=kg,
        metacentric_height=kb + bm - kg,
        displacement_mass=total + vessel.light_mass,
    )


def metacentric_height(problem: Problem, x) -> float:
    """GM = KM - KG for the given loading."""
    return hydro_state(problem, x).metacentric_height


def constraint_slack(problem: Problem, x) -> float:
    """Room left in the stability constraint, in ton-meters.

    Evaluates rhs - (quad_scale * x'Ax + linear_coeff * sum(x)), the
    stability slack of the solver's own loading evaluation.  This is
    the GM condition multiplied through by the displacement, so the value
    is nonnegative exactly when the loading keeps GM at or above the
    required margin.
    """
    from .solver import _stability_slack

    x = problem.check_vector(x)
    return _stability_slack(problem, x, float(x.sum()))
