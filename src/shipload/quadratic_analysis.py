"""Definiteness analysis of the stability constraint matrix.

The matrix A[i][j] = 1/d_min(i,j) - 1/rho has min-index structure, so it is
congruent to a diagonal matrix whose entries are consecutive differences of
the generating vector.  Congruence preserves eigenvalue sign counts, which
means the diagonal alone classifies A as positive semidefinite, negative
semidefinite, or indefinite in O(n) time.  The classification drives solver
dispatch: a semidefinite-plus case gives a convex feasible region where any
KKT point is globally optimal, anything else needs the enumeration of the
candidate KKT points.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Definiteness",
    "CongruenceResult",
    "DefinitenessClass",
    "congruence_diagonal",
    "classify_constraint_matrix",
    "eigen_sign_check",
]

# Diagonal entries this small relative to the largest one count as zero;
# ballast at exactly the water density produces a true zero that floating
# point may perturb either way.
SIGN_TOLERANCE = 1e-12


class Definiteness(enum.Enum):
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True, eq=False)
class CongruenceResult:
    """Diagonal congruent to the min-index matrix, plus a reconstruction check.

    ``diagonal`` holds (m1, m2 - m1, ..., mn - m(n-1)) for the generating
    vector ``generator`` = m.  ``factor_check_residual`` is the largest
    absolute entry of Q - B diag(D) B' with B unit lower triangular of ones;
    it vanishes in exact arithmetic.  Building Q costs O(n^3), so the
    residual is computed on first access only and the solve path, which
    reads just the diagonal, stays O(n).
    """

    diagonal: np.ndarray
    generator: np.ndarray

    @functools.cached_property
    def factor_check_residual(self) -> float:
        n = self.generator.size
        idx = np.arange(n)
        q = self.generator[np.minimum.outer(idx, idx)]
        b = np.tril(np.ones((n, n)))
        return float(np.abs(q - b @ np.diag(self.diagonal) @ b.T).max())


@dataclass(frozen=True, eq=False)
class DefinitenessClass:
    kind: Definiteness
    evidence: CongruenceResult


def congruence_diagonal(m) -> CongruenceResult:
    """Diagonalize Q[i][j] = m[min(i,j)] by congruence with a ones matrix."""
    vec = np.asarray(m, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("need a nonempty vector")
    n = vec.size
    diagonal = np.empty(n)
    diagonal[0] = vec[0]
    diagonal[1:] = np.diff(vec)
    diagonal.flags.writeable = False
    generator = vec.copy()
    generator.flags.writeable = False
    return CongruenceResult(diagonal=diagonal, generator=generator)


def classify_constraint_matrix(densities, water_density: float) -> DefinitenessClass:
    """Classify A = W - (1/rho) 11' from the ordered densities alone.

    A has min-index structure with generating vector m[k] = 1/d[k] - 1/rho,
    so its congruent diagonal is

        (1/d1 - 1/rho, 1/d2 - 1/d1, ..., 1/dn - 1/d(n-1))

    and the sign pattern of that diagonal is the classification.  Zero
    entries are compatible with either semidefinite class; an all-zero
    diagonal reports as positive semidefinite.
    """
    d = np.asarray(densities, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("densities must be a nonempty vector")
    for i, value in enumerate(d):
        if not (value > 0):
            raise ValueError(f"density at index {i} must be positive, got {value}")
    if not (water_density > 0):
        raise ValueError(f"water density must be positive, got {water_density}")

    evidence = congruence_diagonal(1.0 / d - 1.0 / water_density)
    scale = float(np.abs(evidence.diagonal).max())
    tol = SIGN_TOLERANCE * scale
    has_pos = bool(np.any(evidence.diagonal > tol))
    has_neg = bool(np.any(evidence.diagonal < -tol))
    if has_pos and has_neg:
        kind = Definiteness.INDEFINITE
    elif has_neg:
        kind = Definiteness.NEGATIVE_SEMIDEFINITE
    else:
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    return DefinitenessClass(kind=kind, evidence=evidence)


def eigen_sign_check(matrix) -> tuple[int, int, int]:
    """Eigenvalue sign counts (negative, zero, positive) of a symmetric matrix.

    Independent route to the inertia; by Sylvester's law it must agree with
    the congruent diagonal's sign counts.  Kept out of the solve path on
    purpose, the O(n) diagonal is authoritative there.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigenvalues = np.linalg.eigvalsh((a + a.T) / 2.0)
    tol = 1e-12 * max(1.0, float(np.abs(eigenvalues).max())) * a.shape[0]
    n_negative = int(np.sum(eigenvalues < -tol))
    n_positive = int(np.sum(eigenvalues > tol))
    return (n_negative, a.shape[0] - n_negative - n_positive, n_positive)
