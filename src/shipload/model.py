"""Data model for the cargo loading optimizer.

A loading plan assigns a mass ``x[i]`` to each cargo type, stacked in a
fixed bottom-to-top order inside a box-shaped hold.  Assembly folds hull
geometry, water density, and a metacentric-height margin into a single
quadratic stability constraint next to the two linear capacity limits,
producing the instance

    maximize    p . x
    subject to  sum(x) <= C                       (deadweight)
                sum(x[i] / d[i]) <= V             (hold volume)
                s * x'Ax + b * sum(x) <= r        (stability margin)
                x >= 0

with ``A[i][j] = 1/d_min(i,j) - 1/rho``.  The min-index coupling comes from
the stack: cargo j rests on top of everything loaded below it, so its
height, and with it the center of mass of the whole load, depends on the
volume of the cargoes underneath.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .quadratic_analysis import DefinitenessClass, classify_constraint_matrix

__all__ = [
    "Vessel",
    "CargoType",
    "Environment",
    "StabilityPolicy",
    "LoadingOrder",
    "Problem",
    "stacking_matrix",
    "assemble_problem",
    "revenue",
    "BALLAST_LABEL",
]

BALLAST_LABEL = "ballast"


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_density(value: float, name: str) -> float:
    """A finite positive density whose reciprocal, the volume of a ton, is finite too."""
    density = _require_finite(value, name)
    if not (density > 0 and 1.0 / density < math.inf):
        raise ValueError(f"{name} must be positive with a finite reciprocal, got {density}")
    return density


@dataclass(frozen=True)
class Vessel:
    """Box-hull geometry and lightship properties.

    All lengths in meters, masses in tons, volumes in cubic meters.
    ``light_kg`` is the height of the empty vessel's center of mass above
    the keel.
    """

    length: float
    beam: float
    deadweight: float
    volume_capacity: float
    light_mass: float
    light_kg: float

    def __post_init__(self) -> None:
        for name in ("length", "beam", "deadweight", "volume_capacity", "light_mass"):
            value = _require_finite(getattr(self, name), name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        kg = _require_finite(self.light_kg, "light_kg")
        if kg < 0:
            raise ValueError(f"light_kg must be nonnegative, got {kg}")
        object.__setattr__(self, "light_kg", kg)
        if kg > self.beam:
            warnings.warn(
                f"light_kg = {kg} m lies above the beam ({self.beam} m); "
                "check the unit convention",
                stacklevel=2,
            )

    @property
    def waterplane_area(self) -> float:
        """Horizontal cross-section of the box hull, beam times length."""
        return self.beam * self.length


@dataclass(frozen=True)
class CargoType:
    """One selectable cargo: a label, a density, and a freight rate."""

    label: str
    density: float
    freight_rate: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("cargo label must be a nonempty string")
        density = _require_density(self.density, "density")
        rate = _require_finite(self.freight_rate, "freight_rate")
        if rate < 0:
            raise ValueError(f"freight_rate must be nonnegative, got {rate}")
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "freight_rate", rate)


@dataclass(frozen=True)
class Environment:
    """Water properties; density defaults to 1 t/m^3."""

    water_density: float = 1.0

    def __post_init__(self) -> None:
        rho = _require_density(self.water_density, "water_density")
        object.__setattr__(self, "water_density", rho)


@dataclass(frozen=True)
class StabilityPolicy:
    """Minimum metacentric height the loaded vessel must keep, in meters."""

    min_metacentric_height: float

    def __post_init__(self) -> None:
        mu = _require_finite(self.min_metacentric_height, "min_metacentric_height")
        if mu < 0:
            raise ValueError(f"min_metacentric_height must be nonnegative, got {mu}")
        object.__setattr__(self, "min_metacentric_height", mu)


@dataclass(frozen=True)
class LoadingOrder:
    """Bottom-to-top arrangement rule for the cargo stack.

    ``normal`` stacks by decreasing density (densest at the keel),
    ``reverse`` by increasing density, and ``explicit`` takes a caller
    permutation of input positions.  Sorting is stable, so cargoes of equal
    density keep their input order.
    """

    kind: str
    explicit_order: tuple[int, ...] | None = None

    _KINDS = ("normal", "reverse", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown loading order kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.explicit_order:
                raise ValueError("explicit order needs a permutation")
            perm = tuple(int(i) for i in self.explicit_order)
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(
                    f"explicit order {perm} is not a permutation of 0..{len(perm) - 1}"
                )
            object.__setattr__(self, "explicit_order", perm)
        elif self.explicit_order is not None:
            raise ValueError(f"{self.kind} order takes no permutation")

    @classmethod
    def normal(cls) -> "LoadingOrder":
        return cls("normal")

    @classmethod
    def reverse(cls) -> "LoadingOrder":
        return cls("reverse")

    @classmethod
    def explicit(cls, positions: Iterable[int]) -> "LoadingOrder":
        return cls("explicit", tuple(int(i) for i in positions))

    def arrangement(self, densities: Sequence[float]) -> tuple[int, ...]:
        """Indices into ``densities``, listed bottom-to-top."""
        n = len(densities)
        if self.kind == "explicit":
            if len(self.explicit_order) != n:
                raise ValueError(
                    f"explicit order covers {len(self.explicit_order)} positions, "
                    f"but there are {n} cargo types"
                )
            return self.explicit_order
        d = np.asarray(densities, dtype=float)
        return tuple(np.argsort(-d if self.kind == "normal" else d, kind="stable").tolist())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Problem:
    """Assembled loading instance; immutable and safe to share between runs.

    ``cargoes`` is already permuted bottom-to-top.  The stability data is
    kept in split form (``quad_scale``, ``quad_matrix``, ``linear_coeff``,
    ``rhs``) rather than pre-multiplied so the algebra stays checkable
    against the physical metacentric-height condition.  ``classification``
    is the definiteness class of ``quad_matrix``, computed once from the
    ordered densities and the water density.
    """

    vessel: Vessel
    environment: Environment
    policy: StabilityPolicy
    cargoes: tuple[CargoType, ...]
    objective: np.ndarray
    deadweight_cap: float
    volume_coeffs: np.ndarray
    volume_cap: float
    quad_matrix: np.ndarray
    quad_scale: float
    linear_coeff: float
    rhs: float
    ballast_index: int | None = None
    densities: np.ndarray = field(init=False)
    classification: DefinitenessClass = field(init=False)

    def __post_init__(self) -> None:
        densities = _frozen(np.array([c.density for c in self.cargoes], dtype=float))
        object.__setattr__(self, "densities", densities)
        object.__setattr__(
            self,
            "classification",
            classify_constraint_matrix(densities, self.environment.water_density),
        )

    @property
    def n(self) -> int:
        return len(self.cargoes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.cargoes)

    def check_vector(self, x) -> np.ndarray:
        """Validate and convert a loading vector to a float array."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(
                f"loading vector has shape {arr.shape}, expected ({self.n},)"
            )
        return arr


def stacking_matrix(densities) -> np.ndarray:
    """Pairwise stack-coupling matrix W with W[i][j] = 1/d_min(i,j).

    Entry (i, j) is the inverse density of whichever of the two cargoes
    sits lower in the hold; it converts mass loaded below a level into
    stack height at that level.
    """
    d = np.asarray(densities, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("densities must be a nonempty vector")
    if not (d.min() > 0.0 and d.max() < math.inf):
        i = int(np.argmin((d > 0.0) & (d < math.inf)))
        raise ValueError(f"density at index {i} must be positive, got {d[i]}")
    with np.errstate(over="ignore"):
        v = 1.0 / d
    if v.max() == math.inf:
        i = int(np.argmax(v))
        raise ValueError(f"density at index {i} has no finite reciprocal, got {d[i]}")
    return _stacking(v)


def _stacking(volume_coeffs: np.ndarray) -> np.ndarray:
    """:func:`stacking_matrix` from the inverse densities 1/d, of densities already checked."""
    idx = np.arange(volume_coeffs.size)
    return volume_coeffs[np.minimum.outer(idx, idx)]


def assemble_problem(
    vessel: Vessel,
    environment: Environment,
    policy: StabilityPolicy,
    cargoes: Sequence[CargoType],
    order: LoadingOrder | None = None,
    include_ballast: bool = True,
) -> Problem:
    """Permute cargoes by the loading order and build the full instance.

    When ``include_ballast`` is set, a zero-rate cargo with the density of
    water is added to the selection.  Under ``normal``/``reverse`` it is
    slotted by its density rank like any other cargo; under an explicit
    order, which only speaks about the caller's cargoes, it goes to the
    bottom of the stack.

    The stability coefficients come from multiplying the metacentric-height
    condition GM >= mu through by the displacement and collecting terms:

        s = 1 / (2 B L)
        b = mu - M / (rho B L)
        r = M^2 / (2 rho B L) + rho B^3 L / 12 - (mu + kg) M

    with M the light mass and kg its center of mass above the keel.
    """
    order = order if order is not None else LoadingOrder.normal()
    base = list(cargoes)
    for i, cargo in enumerate(base):
        if not isinstance(cargo, CargoType):
            raise TypeError(f"cargoes[{i}] is not a CargoType")
    if not base and not include_ballast:
        raise ValueError("at least one cargo type is required")

    ballast: CargoType | None = None
    if include_ballast:
        if any(c.label == BALLAST_LABEL for c in base):
            raise ValueError(
                f"cargo label {BALLAST_LABEL!r} is reserved for the "
                "auto-inserted ballast type; rename the cargo or disable ballast"
            )
        ballast = CargoType(BALLAST_LABEL, environment.water_density, 0.0)

    if order.kind == "explicit":
        positions = order.arrangement([c.density for c in base])
        stack = [base[i] for i in positions]
        if ballast is not None:
            stack.insert(0, ballast)
            ballast_index = 0
        else:
            ballast_index = None
    else:
        pool = base + ([ballast] if ballast is not None else [])
        positions = order.arrangement([c.density for c in pool])
        stack = [pool[i] for i in positions]
        ballast_index = positions.index(len(base)) if ballast is not None else None

    seen: dict[str, int] = {}
    for i, cargo in enumerate(stack):
        if cargo.label in seen:
            raise ValueError(f"duplicate cargo label {cargo.label!r}")
        seen[cargo.label] = i

    d = np.array([c.density for c in stack], dtype=float)
    p = np.array([c.freight_rate for c in stack], dtype=float)
    rho = environment.water_density
    area = vessel.waterplane_area
    mu = policy.min_metacentric_height
    light = vessel.light_mass

    # The densities passed CargoType's checks.
    volume_coeffs = 1.0 / d
    quad_matrix = _stacking(volume_coeffs) - 1.0 / rho
    quad_scale = 1.0 / (2.0 * area)
    linear_coeff = mu - light / (rho * area)
    rhs = (
        light**2 / (2.0 * rho * area)
        + rho * vessel.beam**3 * vessel.length / 12.0
        - (mu + vessel.light_kg) * light
    )

    return Problem(
        vessel=vessel,
        environment=environment,
        policy=policy,
        cargoes=tuple(stack),
        objective=_frozen(p),
        deadweight_cap=vessel.deadweight,
        volume_coeffs=_frozen(volume_coeffs),
        volume_cap=vessel.volume_capacity,
        quad_matrix=_frozen(quad_matrix),
        quad_scale=quad_scale,
        linear_coeff=linear_coeff,
        rhs=rhs,
        ballast_index=ballast_index,
    )


def revenue(problem: Problem, x) -> float:
    """Freight earned by the loading vector ``x``, in money units."""
    arr = problem.check_vector(x)
    return float(problem.objective @ arr)
