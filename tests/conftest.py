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
    SolverStatus,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    kkt_enumeration,
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
    rng,
    sizes=(1, 6),
    orders=(LoadingOrder.normal(), LoadingOrder.reverse()),
    room=(0.5, 2.0),
    degenerate=False,
):
    """A random scenario with a feasible empty vessel (rhs >= 0).

    The cargo count is drawn from ``range(*sizes)``, the order from
    ``orders``, where ``"explicit"`` stands for a random permutation, and
    the hold volume is the deadweight stowed at the lowest density times a
    factor drawn from ``room``; the defaults give small instances of either
    order.  With ``degenerate`` one cargo takes the density of another, or
    of water.
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
        if degenerate:
            i, j = rng.integers(n, size=2)
            densities[i] = rho if i == j else densities[j]
            cargoes = tuple(
                CargoType(f"c{i}", float(densities[i]), float(rates[i])) for i in range(n)
            )
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


# Stacks, bottom first, that the KKT enumeration once refused, with the
# revenue that the seeded 32-start SLSQP multistart reached on each: vessel
# (length, beam, deadweight, volume, light mass, light KG), water density,
# margin, cargoes (label, density, rate), ballast, revenue.
_PINNED_STACKS = {
    # Equal densities apart in the stack, c5 and c1.
    "twins-apart": (
        (259.8578463895469, 9.460182817215198, 28600.003082927655, 47780.46515992606,
         12459.602182570494, 2.098902933208228),
        1.039760034510713, 0.2510442135875529,
        (("c5", 0.32950196648747104, 9.884437030222667),
         ("c4", 1.0043141712400014, 4.785476144524054),
         ("c2", 0.9902090545229565, 4.5169375766564706),
         ("c6", 0.36917956748725406, 2.3994923327479256),
         ("c0", 0.712038619585611, 3.981452439674036),
         ("c3", 0.7131133466547207, 4.513610953619369),
         ("c1", 0.32950196648747104, 7.405724890116195)),
        True, 178780.437635,
    ),
    # A paying cargo at water density at the bottom.
    "paying-water-density": (
        (278.9523980242668, 25.542808993177374, 8079.573624995399, 9879.798733529638,
         4378.925387455741, 1.1186773378988555),
        0.9730107209091962, 47.65538293052424,
        (("c0", 0.9730107209091962, 9.783739930400259),
         ("c1", 0.7440471688305376, 4.987342702298267),
         ("c5", 0.9599664540809885, 5.761488386732062),
         ("c2", 0.5104058681640763, 4.432734215524597),
         ("c3", 0.5274775017495491, 3.7915103001014963),
         ("c4", 0.7259899835316677, 8.215405896094792)),
        False, 34276.778569,
    ),
    # Two copies of c0, apart in the stack, tie the relaxation at two vertices.
    "tied-face": (
        (72.07462886582309, 11.117037323904913, 22929.21105790493, 45507.63563864857,
         11904.268350531107, 0.7846597340035453),
        1.0283432715416296, 3.4131702776266066,
        (("c0", 0.42652566248681345, 9.963282659270943),
         ("c1", 0.9556217436807735, 7.132359614572889),
         ("c3", 0.9669490986046845, 3.3390831441429003),
         ("c2", 0.42652566248681345, 9.963282659270943)),
        True, 210457.221369,
    ),
}


def pinned_stack_inputs():
    """``assemble_problem``'s arguments for each pinned stack, with its multistart revenue."""
    return {
        name: (
            (
                Vessel(*vessel), Environment(rho), StabilityPolicy(mu),
                tuple(CargoType(*cargo) for cargo in cargoes),
                LoadingOrder.explicit(range(len(cargoes))), ballast,
            ),
            revenue,
        )
        for name, (vessel, rho, mu, cargoes, ballast, revenue) in _PINNED_STACKS.items()
    }


def pinned_stacks():
    """Each pinned stack as a problem, with its multistart revenue."""
    return {
        name: (assemble_problem(*arguments), revenue)
        for name, (arguments, revenue) in pinned_stack_inputs().items()
    }


def closed_form_optimum(problem):
    """The closed form's global candidate: (revenue, loads, complete, multipliers).

    A stable point of the relaxation's optimal face with the LP duals, or
    else the enumerated optimum with stability binding, as ``solve`` finds
    them before any exchange grows the latter.
    """
    face, lam_dw, lam_vol = solver._lp_optimum(problem)
    point = solver._stable_point(problem, face)
    if point is not None:
        return float(problem.objective @ point.x), point.x, True, (lam_dw, lam_vol, 0.0)
    return solver._kkt_optimum(problem, len(face) <= 2)


def draw_nonneg_loading(problem, rng):
    """A random nonnegative loading within the deadweight cap."""
    weights = rng.dirichlet(np.full(problem.n, 0.6))
    return weights * problem.deadweight_cap * rng.uniform()


def support_loads(units, support):
    """``kkt_enumeration.support_points`` with each point's loads as tonnes of every cargo."""
    points = []
    for z, *lams in kkt_enumeration.support_points(units, support):
        x = np.zeros(units.n)
        x[support] = z
        points.append((units.cap * x, *lams))
    return points


def local_trap(problem):
    """Type4 alone at its best point on the stability boundary, as a Solution with its multipliers.

    On the four-cargo reverse case study at mu = 4 (no ballast), type4 is
    the bottom cargo, and this is the KKT point of 35 848.4 t and revenue
    197 165.9, a local maximum below the global 226 331.0 that a local
    solve from a random start can stop in.  ``solve`` does not return it.
    """
    units = kkt_enumeration.scaled_units(problem)
    x, *lams = max(
        support_loads(units, [0]), key=lambda point: problem.objective @ point[0]
    )
    point = solver._Loading(problem, x)
    multipliers = solver._closed_form_multipliers(problem, point, lams)
    report = solver._kkt_report(problem, point, *multipliers)
    return solver._solution(problem, x, multipliers, report, SolverStatus.LOCAL_ONLY, 1, 0)


def refuse_search(*args, **kwargs):
    """Stand-in for ``oracle.grid_search`` where the root bound must decide."""
    raise AssertionError("certify searched the lattice")


def package_env():
    """Environment for a fresh interpreter that imports the package under test."""
    package_parent = str(Path(shipload.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_parent, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


def scipy_nnls(gradients, rates, at_zero):
    """(lam, nu, residual norm) of the multiplier fit by ``scipy.optimize.nnls``.

    The columns are ``gradients``, then -e_i for every cargo ``at_zero``:
    the fit that ``solver._nnls`` solves, under its limit of 3 * columns
    iterations.  There must be a column; SciPy 1.17 crashes without one.
    """
    from scipy.optimize import nnls

    columns = np.column_stack([*gradients, -np.eye(rates.size)[:, at_zero]])
    coef, rnorm = nnls(columns, rates, maxiter=3 * columns.shape[1])
    return coef[: len(gradients)], coef[len(gradients):], rnorm
