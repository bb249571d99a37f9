"""The solver's one evaluation of a loading and its relaxation, bit for bit against references.

The references are the earlier implementations, which computed the slacks
and the stability gradient once per use and the loads and duals of every
basis of the relaxation.  Same formulas in the same order of operations
give the same bits, so every comparison here is exact: a float must have
the same value and sign, an array the same bytes, and NaN stays NaN.
"""

import math

import numpy as np

from shipload import (
    CargoType,
    LoadingOrder,
    Vessel,
    assemble_problem,
    constraint_slack,
    kkt_enumeration,
    kkt_verify,
    solve,
    solver,
)
from shipload.solver import KktReport, stability_gradient

from conftest import draw_random_problem, scipy_nnls

ORDERS = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")


def _same(a, b):
    """Equal bits: the same float or array, with signed zeros told apart and NaN equal to NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


# ---------------------------------------------------------------------------
# references: the evaluation of a loading


def _reference_slacks(problem, x):
    dw = problem.deadweight_cap - float(x.sum())
    vol = problem.volume_cap - float(problem.volume_coeffs @ x)
    return dw, vol, constraint_slack(problem, x)


def _reference_violation(problem, x, slacks):
    """Worst relative violation of the constraints and of x >= 0, NaN when x holds a NaN."""
    scales = problem.deadweight_cap, problem.volume_cap, max(1.0, abs(problem.rhs))
    terms = [
        *(-slack / scale for slack, scale in zip(slacks, scales)),
        -float(x.min(initial=0.0)) / max(1.0, problem.deadweight_cap),
    ]
    return math.nan if any(map(math.isnan, terms)) else max(0.0, *terms)


def _reference_gradient(problem, x):
    return 2.0 * problem.quad_scale * (problem.quad_matrix @ x) + problem.linear_coeff


def _reference_active_set(problem, x):
    threshold = 10.0 * solver.FEASIBILITY_TOLERANCE
    mass_scale = max(1.0, problem.deadweight_cap)
    dw, vol, stab = _reference_slacks(problem, x)
    return (
        abs(dw) <= threshold * mass_scale,
        abs(vol) <= threshold * max(1.0, problem.volume_cap),
        abs(stab) <= threshold * max(1.0, abs(problem.rhs)),
        np.abs(x) <= threshold * mass_scale,
    )


def _reference_multipliers(problem, x):
    """Active-set multiplier recovery with every input checked for finiteness."""
    n = problem.n
    *binding, at_zero = _reference_active_set(problem, x)
    gradients = (np.ones(n), problem.volume_coeffs, _reference_gradient(problem, x))
    active = [k for k, on in enumerate(binding) if on]
    zero = np.flatnonzero(at_zero)
    lam = [0.0, 0.0, 0.0]
    nu = np.zeros(n)
    if active or zero.size:
        rates = np.asarray_chkfinite(problem.objective, dtype=np.float64)
        fit = None
        if active:
            dense = np.asarray_chkfinite(np.column_stack([gradients[k] for k in active]))
            fit = solver._sign_feasible_fit(dense, rates, at_zero)
        if fit is None:
            fit = scipy_nnls([gradients[k] for k in active], rates, at_zero)[:2]
        for k, value in zip(active, fit[0]):
            lam[k] = float(value)
        nu[zero] = fit[1]
    return (*lam, nu)


def _reference_report(problem, x, lam_dw, lam_vol, lam_stab, nu):
    p = problem.objective
    dw, vol, stab = _reference_slacks(problem, x)
    grad = _reference_gradient(problem, x)
    lagrangian_gap = p - lam_dw - lam_vol * problem.volume_coeffs - lam_stab * grad + nu
    stationarity = float(np.abs(lagrangian_gap).max())
    complementarity = max(
        abs(lam_dw * dw),
        abs(lam_vol * vol),
        abs(lam_stab * stab),
        float(np.abs(nu * x).max(initial=0.0)),
    )
    primal = _reference_violation(problem, x, (dw, vol, stab))
    dual = min(lam_dw, lam_vol, lam_stab, float(nu.min(initial=0.0)))
    objective = abs(float(p @ x))
    rate_scale = max(1.0, float(np.abs(p).max(initial=0.0)))
    tol = solver.KKT_TOLERANCE
    satisfied = (
        stationarity <= tol * rate_scale
        and complementarity <= tol * max(1.0, objective)
        and primal <= tol
        and dual >= -tol
    )
    return KktReport(stationarity, complementarity, primal, dual, satisfied)


def _loadings(problem, rng):
    """Loadings that are feasible, over a cap, with negative and with zero entries."""
    answer = np.array(solve(problem).x)
    spread = rng.dirichlet(np.full(problem.n, 0.6)) * problem.deadweight_cap
    negative = spread * rng.uniform(-0.2, 1.0, problem.n)
    zeroed = spread * (rng.random(problem.n) < 0.5)
    return [answer, 0.5 * answer, 1.3 * answer, spread, 2.0 * spread, negative, zeroed]


class TestSharedEvaluation:
    def test_matches_the_public_functions(self):
        rng = np.random.default_rng(20)
        checked, violated, nan = 0, 0, 0
        for draw in range(300):
            problem = draw_random_problem(
                rng, sizes=(1, 23), orders=ORDERS, room=(0.3, 2.0), degenerate=draw % 3 == 0
            )
            loads = _loadings(problem, rng)
            if draw % 100 == 0:
                with_nan = loads[3].copy()
                with_nan[int(rng.integers(problem.n))] = math.nan
                loads.append(with_nan)
            for x in loads:
                point = solver._Loading(problem, x)
                slacks = _reference_slacks(problem, x)
                assert all(_same(a, b) for a, b in zip(point.slacks, slacks)), (draw, x)
                assert _same(point.slacks[2], constraint_slack(problem, x))
                assert _same(point.gradient, _reference_gradient(problem, x))
                assert _same(point.gradient, stability_gradient(problem, x))
                assert _same(point.violation, _reference_violation(problem, x, slacks))
                active = solver.active_set(problem, x)
                reference = _reference_active_set(problem, x)
                assert active[:3] == reference[:3] and np.array_equal(active[3], reference[3])
                checked += 1
                violated += point.violation > 0.0
                nan += math.isnan(point.violation)
        assert checked >= 2000 and violated >= 700 and nan == 3, (checked, violated, nan)

    def test_kkt_verify_on_raw_loads_matches_the_reference(self):
        rng = np.random.default_rng(21)
        satisfied = set()
        for draw in range(300):
            problem = draw_random_problem(
                rng, sizes=(1, 23), orders=ORDERS, room=(0.3, 2.0), degenerate=draw % 3 == 0
            )
            loads = _loadings(problem, rng)
            if draw == 0:
                loads.append(np.full(problem.n, math.nan))
            for x in loads:
                report = kkt_verify(problem, x)
                reference = _reference_report(problem, x, *_reference_multipliers(problem, x))
                for field in ("stationarity_residual", "complementarity_residual",
                              "primal_feasibility", "dual_feasibility"):
                    assert _same(getattr(report, field), getattr(reference, field)), (draw, field)
                assert report.satisfied == reference.satisfied
                satisfied.add(report.satisfied)
        assert satisfied == {True, False}


# ---------------------------------------------------------------------------
# reference: every basis of the relaxation with its loads and duals


def _reference_vertices(p, v, densities, cap, room):
    """(first load, second load, lam_C, lam_V, revenue) of every basis, in ``_bases`` order."""
    n = p.size
    nothing = np.zeros(n)
    i, j, _, _ = solver._bases(n)
    p_i, p_j, v_i, v_j = p[i], p[j], v[i], v[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        pair_lam_v = (p_j - p_i) / (v_j - v_i)
        pair_i = (room - v_j * cap) / (v_i - v_j)
        pair_j = (v_i * cap - room) / (v_i - v_j)
        pair_revenue = p_i * pair_i + p_j * pair_j
        volume_loads = room * densities
        volume_lam_v = p * densities
        volume_revenue = p * volume_loads
    load_first = np.concatenate([[0.0], np.full(n, cap), volume_loads, pair_i])
    load_second = np.concatenate([[0.0], nothing, nothing, pair_j])
    lam_c = np.concatenate([[0.0], p, nothing, p_i - pair_lam_v * v_i])
    lam_v = np.concatenate([[0.0], nothing, volume_lam_v, pair_lam_v])
    feasible = np.concatenate(
        [[True], v * cap <= room, volume_loads <= cap, (pair_i >= 0) & (pair_j >= 0)]
    )
    revenue = np.concatenate([[0.0], p * cap, volume_revenue, pair_revenue])
    revenue[~feasible] = -np.inf
    return load_first, load_second, lam_c, lam_v, revenue


def _reference_lp_optimum(problem):
    """(face, lam_C, lam_V) from the loads and duals of every basis, and how many bases tie."""
    p, v, d = problem.objective, problem.volume_coeffs, problem.densities
    cap, n = problem.deadweight_cap, problem.n
    _, _, first, second = solver._bases(n)
    load_first, load_second, lam_c, lam_v, revenue = _reference_vertices(
        p, v, d, cap, problem.volume_cap
    )

    tol = 1e-9
    best = revenue.max()
    tied = np.flatnonzero(revenue >= best * (1.0 - tol))
    nu = lam_c[tied, None] + lam_v[tied, None] * v - p
    violation = -np.minimum(nu.min(axis=1), np.minimum(lam_c[tied], lam_v[tied]))
    pick = np.argmin(np.maximum(violation, tol * p.max()))
    b = tied[pick]
    points = np.zeros((tied.size, n))
    rows = np.arange(tied.size)
    points[rows, second[tied]] = load_second[tied]
    points[rows, first[tied]] = load_first[tied]
    points = np.maximum(points, 0.0)
    face = [pick]
    if tied.size > 1:
        runs = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
        summed = np.add.reduceat(points, runs, axis=1)
        for k in range(tied.size):
            if np.abs(summed[face] - summed[k]).max(axis=1).min() > tol * cap:
                face.append(k)
    lam_dw, lam_vol = max(float(lam_c[b]), 0.0), max(float(lam_v[b]), 0.0)
    return (points[face], lam_dw, lam_vol), tied.size


def _tie_variant(problem, family, rng):
    """The drawn problem, or a copy rebuilt into one tie family of ``solve_lp``'s docstring.

    "twin": a cargo repeated with its density and rate, so two vertices
    earn the same; "both caps": the hold holds exactly the deadweight of
    one cargo, C v_i = V; "zero rates": every rate 0; "alone": one cargo.
    """
    if family == "drawn":
        return problem
    cargoes = list(problem.cargoes)
    vessel = problem.vessel
    if family == "twin":
        i, j = rng.choice(len(cargoes), size=2) if len(cargoes) > 1 else (0, 0)
        cargoes.insert(int(j), CargoType("twin", cargoes[i].density, cargoes[i].freight_rate))
    elif family == "both caps":
        k = int(rng.integers(len(cargoes)))
        room = vessel.deadweight * (1.0 / cargoes[k].density)
        vessel = Vessel(vessel.length, vessel.beam, vessel.deadweight, room,
                        vessel.light_mass, vessel.light_kg)
    elif family == "zero rates":
        cargoes = [CargoType(c.label, c.density, 0.0) for c in cargoes]
    elif family == "alone":
        cargoes = [cargoes[int(rng.integers(len(cargoes)))]]
    return assemble_problem(
        vessel, problem.environment, problem.policy, tuple(cargoes),
        LoadingOrder.explicit(range(len(cargoes))), False,
    )


class TestRelaxationReference:
    FAMILIES = ("drawn", "twin", "both caps", "zero rates", "alone")

    def test_face_and_duals_match_every_basis(self):
        rng = np.random.default_rng(22)
        tied_faces = {family: 0 for family in self.FAMILIES}
        water = 0
        for draw in range(3000):
            drawn = draw_random_problem(
                rng, sizes=(1, 13), orders=ORDERS, room=(0.3, 2.0), degenerate=draw % 2 == 0
            )
            family = self.FAMILIES[draw % len(self.FAMILIES)]
            problem = _tie_variant(drawn, family, rng)
            face, lam_dw, lam_vol = solver._lp_optimum(problem)
            (ref_face, ref_dw, ref_vol), tied = _reference_lp_optimum(problem)
            assert _same(face, ref_face), (draw, family)
            assert _same(lam_dw, ref_dw) and _same(lam_vol, ref_vol), (draw, family)
            tied_faces[family] += tied > 1
            water += bool((problem.densities == problem.environment.water_density).any())
        assert tied_faces["twin"] >= 100 and tied_faces["both caps"] >= 100, tied_faces
        assert tied_faces["zero rates"] == 600, tied_faces
        assert water >= 300

    def test_bound_table_reads_the_same_revenues(self):
        # The enumeration's bound table calls it on scaled units with a dummy
        # cargo of v = 0, whose density is infinite.
        rng = np.random.default_rng(23)
        for _ in range(300):
            problem = draw_random_problem(rng, sizes=(1, 13), orders=ORDERS, degenerate=True)
            units = kkt_enumeration.scaled_units(problem)
            with np.errstate(divide="ignore"):
                densities = 1.0 / units.v
            room = units.room * (1.0 + 1e-6) + 1e-6
            arguments = units.p, units.v, densities, 1.0 + 1e-6, room
            revenue = solver.relaxation_vertices(*arguments)
            assert _same(revenue, _reference_vertices(*arguments)[-1])
