"""Shared fixtures: the 3500 TEU case-study vessel and its cargo market."""

import os
from pathlib import Path

import numpy as np
import pytest

import shipload
from shipload import (
    CargoType,
    Environment,
    LoadingOrder,
    SolverOptions,
    SolverStatus,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    solver,
)


@pytest.fixture
def carrier():
    return Vessel(
        length=200.0,
        beam=25.0,
        deadweight=45000.0,
        volume_capacity=120000.0,
        light_mass=15000.0,
        light_kg=2.0,
    )


@pytest.fixture
def market():
    return (
        CargoType("type1", 0.80, 4.5),
        CargoType("type2", 0.60, 5.0),
        CargoType("type3", 0.50, 5.1),
        CargoType("type4", 0.45, 5.5),
    )


@pytest.fixture
def assemble_case(carrier, market):
    """Build the case-study problem for a margin and loading order."""

    def build(mu, order=None, include_ballast=True, water_density=1.0):
        return assemble_problem(
            carrier,
            Environment(water_density),
            StabilityPolicy(mu),
            market,
            order if order is not None else LoadingOrder.normal(),
            include_ballast,
        )

    return build


def draw_random_problem(
    rng, sizes=(1, 6), orders=(LoadingOrder.normal(), LoadingOrder.reverse()), room=(0.5, 2.0)
):
    """A random scenario with a feasible empty vessel (rhs >= 0).

    The cargo count is drawn from ``range(*sizes)``, the order from
    ``orders``, where ``"explicit"`` stands for a random permutation, and
    the hold volume is the deadweight stowed at the lowest density times a
    factor drawn from ``room``; the defaults give small instances of either
    order.
    """
    for _ in range(64):
        n = int(rng.integers(*sizes))
        densities = rng.uniform(0.3, 1.2, size=n)
        rates = rng.uniform(0.0, 10.0, size=n)
        cargoes = tuple(
            CargoType(f"c{i}", float(densities[i]), float(rates[i])) for i in range(n)
        )
        length = float(rng.uniform(50.0, 300.0))
        beam = float(rng.uniform(8.0, 40.0))
        light = float(rng.uniform(500.0, 20000.0))
        light_kg = float(rng.uniform(0.5, beam / 4.0))
        cap = float(light * rng.uniform(0.5, 3.0))
        volume = float(cap / densities.min() * rng.uniform(*room))
        rho = float(rng.uniform(0.95, 1.05))
        vessel = Vessel(length, beam, cap, volume, light, light_kg)
        area = beam * length
        mu_cap = light / (2.0 * rho * area) + rho * beam**3 * length / (12.0 * light) - light_kg
        if mu_cap <= 0.0:
            continue
        mu = float(rng.uniform(0.0, 0.8 * mu_cap))
        order = orders[int(rng.integers(len(orders)))]
        if order == "explicit":
            order = LoadingOrder.explicit(rng.permutation(n).tolist())
        include_ballast = bool(rng.integers(2))
        problem = assemble_problem(
            vessel, Environment(rho), StabilityPolicy(mu), cargoes, order, include_ballast
        )
        if problem.rhs >= 0.0:
            return problem
    raise AssertionError("could not draw a feasible random scenario")


def large_reverse_stack(n):
    """A reverse stack of ``n`` cargoes; lighter ones pay more, so the relaxation's vertex is unstable."""
    densities = np.random.default_rng(n).uniform(0.35, 0.9, n).tolist()
    cargoes = tuple(CargoType(f"c{i}", d, 12.0 - 8.0 * d) for i, d in enumerate(densities))
    return assemble_problem(
        Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, 2.0), Environment(), StabilityPolicy(4.0),
        cargoes, LoadingOrder.reverse(), False,
    )


def draw_nonneg_loading(problem, rng):
    """A random nonnegative loading within the deadweight cap."""
    weights = rng.dirichlet(np.full(problem.n, 0.6))
    return weights * problem.deadweight_cap * rng.uniform()


def local_trap(problem, seed=17):
    """The point one SLSQP run reaches from the first random start of ``seed``, as a Solution.

    On the four-cargo reverse case study at mu = 4 this is the KKT point of
    revenue 197 165.9, a local maximum below the global 226 331.0.
    ``solve`` does not return it: its first start is the enumerated
    optimum.
    """
    options = SolverOptions()
    x0 = solver._random_start(problem, np.random.default_rng(seed))
    scaled = solver._ScaledProblem(problem, options.max_iterations)
    x, _, _ = solver._local_solve(problem, scaled, x0)
    multipliers = solver._recover_multipliers(problem, x, options.feasibility_tolerance)
    report = solver._kkt_report(problem, x, *multipliers, options.kkt_tolerance)
    return solver._solution(problem, x, multipliers, report, SolverStatus.LOCAL_ONLY, 1, 0)


def package_env():
    """Environment for a fresh interpreter that imports the package under test."""
    package_parent = str(Path(shipload.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_parent, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
