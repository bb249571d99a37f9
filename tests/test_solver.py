"""LP baseline, multistart quadratically constrained solves, and KKT checks."""

import logging
import math
import subprocess
import sys

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LoadingOrder,
    SolverOptions,
    SolverStatus,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    classify_constraint_matrix,
    constraint_slack,
    kkt_verify,
    mu_sensitivity,
    solve,
    solve_lp,
)
from shipload import solver
from shipload.cli import load_bundled_scenario
from shipload.solver import stability_gradient

from conftest import draw_random_problem, large_reverse_stack, local_trap, package_env


@pytest.fixture
def without_enumeration(monkeypatch):
    """``solve`` as if the KKT enumeration were over budget: the seeded random starts alone."""
    monkeypatch.setattr(solver, "_kkt_optimum", lambda problem: (-math.inf, None, False, None))


def _force_local_solve(monkeypatch):
    """Make ``solve`` run start 0 as a local solve: the convex exchange stalls,
    and the enumerated optimum comes without multipliers, so it only seeds the local solve."""
    kkt_optimum = solver._kkt_optimum
    monkeypatch.setattr(solver, "_convex_exchange", lambda *args: None)
    monkeypatch.setattr(solver, "_kkt_optimum", lambda problem: (*kkt_optimum(problem)[:3], None))


@pytest.fixture
def without_closed_form(monkeypatch):
    """``solve`` as if no closed-form point verified: start 0 is a local solve, as before."""
    _force_local_solve(monkeypatch)


@pytest.fixture
def twin(carrier, market):
    """Reverse mu = 4 plus a copy of type4: the relaxation's optimum is a segment.

    The segment moves mass between the copies, which are neighbours in the
    stack, so the enumeration merges them and settles the row.
    """
    return assemble_problem(
        carrier, Environment(), StabilityPolicy(4.0), market + (CargoType("type5", 0.45, 5.5),),
        LoadingOrder.reverse(), True,
    )


class TestSolverOptions:
    def test_defaults(self):
        options = SolverOptions()
        assert options.multistart_count == 32
        assert options.rng_seed == 0
        assert options.feasibility_tolerance == 1e-8
        assert options.kkt_tolerance == 1e-6
        assert options.max_iterations == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(multistart_count=0),
            dict(feasibility_tolerance=0.0),
            dict(kkt_tolerance=-1.0),
            dict(max_iterations=0),
            dict(feasibility_tolerance=float("inf")),
            dict(kkt_tolerance=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestSolveLp:
    def test_case_study_vertex(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve_lp(problem)
        assert solution.revenue == pytest.approx(247500.0, rel=1e-9)
        assert solution.status is SolverStatus.OPTIMAL
        # Single nonzero load: the full deadweight of the cheapest-stowing type.
        nonzero = np.flatnonzero(solution.x > 1e-6)
        assert list(nonzero) == [4]
        assert solution.x[4] == pytest.approx(45000.0, rel=1e-9)
        assert problem.volume_coeffs @ solution.x == pytest.approx(100000.0, rel=1e-9)

    def test_case_study_duals(self, assemble_case):
        solution = solve_lp(assemble_case(4.0))
        assert solution.multiplier_deadweight == pytest.approx(5.5, abs=1e-9)
        assert solution.multiplier_volume == pytest.approx(0.0, abs=1e-9)
        assert solution.multiplier_stability == 0.0
        assert np.allclose(
            solution.multipliers_nonneg, [5.5, 1.0, 0.5, 0.4, 0.0], atol=1e-9
        )

    def test_stability_violated_at_vertex(self, assemble_case):
        solution = solve_lp(assemble_case(4.0))
        assert solution.kkt.satisfied is False

    def test_zero_rates(self, carrier, market):
        zero = tuple(CargoType(c.label, c.density, 0.0) for c in market)
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), zero, LoadingOrder.normal(), False
        )
        assert solve_lp(problem).revenue == pytest.approx(0.0, abs=1e-9)

    def test_single_cargo_volume_binding(self):
        vessel = Vessel(200.0, 25.0, 45000.0, 20000.0, 15000.0, 2.0)
        problem = assemble_problem(
            vessel,
            Environment(),
            StabilityPolicy(0.0),
            (CargoType("one", 0.5, 1.0),),
            LoadingOrder.normal(),
            False,
        )
        solution = solve_lp(problem)
        assert solution.x[0] == pytest.approx(10000.0, rel=1e-9)


def _linprog_reference(problem):
    """The relaxation through HiGHS: loads, deadweight and volume duals, reduced costs."""
    from scipy.optimize import linprog

    result = linprog(
        -problem.objective,
        A_ub=np.vstack([np.ones(problem.n), problem.volume_coeffs]),
        b_ub=[problem.deadweight_cap, problem.volume_cap],
        bounds=[(0.0, None)] * problem.n,
        method="highs",
    )
    assert result.success, result.message
    lam_dw, lam_vol = np.maximum(-result.ineqlin.marginals, 0.0)
    return np.maximum(result.x, 0.0), lam_dw, lam_vol, np.maximum(result.lower.marginals, 0.0)


def _unique_optimum(problem, x, lam_dw, lam_vol, nu, tol=1e-7):
    """Whether loads and duals are both unique: a nondegenerate, strictly complementary vertex."""
    cap, room = problem.deadweight_cap, problem.volume_cap
    rate = max(1.0, float(problem.objective.max()))
    slack_dw = cap - x.sum()
    slack_vol = room - problem.volume_coeffs @ x
    positive = (x > tol * cap).sum() + (slack_dw > tol * cap) + (slack_vol > tol * room)
    strict = (
        (x > tol * cap) | (nu > tol * rate)
    ).all() and (slack_dw > tol * cap or lam_dw > tol * rate) and (
        slack_vol > tol * room or lam_vol > tol * rate
    )
    return positive == 2 and strict


def _assert_lp_certificate(problem, solution):
    """Feasible loads and feasible duals whose objective equals the revenue: an LP optimum."""
    p, v = problem.objective, problem.volume_coeffs
    cap, room = problem.deadweight_cap, problem.volume_cap
    x = solution.x
    lam_dw, lam_vol = solution.multiplier_deadweight, solution.multiplier_volume
    nu = solution.multipliers_nonneg
    assert x.min() >= 0.0
    assert x.sum() <= cap * (1 + 1e-9) and v @ x <= room * (1 + 1e-9)
    assert min(lam_dw, lam_vol, nu.min()) >= 0.0
    assert solution.multiplier_stability == 0.0
    np.testing.assert_allclose(lam_dw + lam_vol * v - nu, p, rtol=0, atol=1e-9 * max(1.0, p.max()))
    assert cap * lam_dw + room * lam_vol == pytest.approx(solution.revenue, rel=1e-9, abs=1e-9)


def _lp_problem(cargoes, deadweight=45000.0, volume=120000.0, ballast=False):
    vessel = Vessel(200.0, 25.0, deadweight, volume, 15000.0, 2.0)
    return assemble_problem(
        vessel, Environment(), StabilityPolicy(0.0), cargoes, LoadingOrder.normal(), ballast
    )


class TestLpAgainstHighs:
    """Vertex enumeration against SciPy's HiGHS LP solver."""

    def test_random_instances(self):
        rng = np.random.default_rng(8)
        unique = 0
        for _ in range(300):
            problem = draw_random_problem(rng)
            solution = solve_lp(problem)
            x, lam_dw, lam_vol, nu = _linprog_reference(problem)
            reference = float(problem.objective @ x)
            assert solution.revenue == pytest.approx(reference, rel=1e-9, abs=1e-9)
            _assert_lp_certificate(problem, solution)
            if _unique_optimum(problem, x, lam_dw, lam_vol, nu):
                unique += 1
                rate = max(1.0, float(problem.objective.max()))
                np.testing.assert_allclose(
                    solution.x, x, rtol=0, atol=1e-9 * problem.deadweight_cap
                )
                assert solution.multiplier_deadweight == pytest.approx(lam_dw, abs=1e-9 * rate)
                assert solution.multiplier_volume == pytest.approx(lam_vol, abs=1e-9 * rate)
                np.testing.assert_allclose(
                    solution.multipliers_nonneg, nu, rtol=0, atol=1e-9 * rate
                )
        assert unique >= 250

    @pytest.mark.parametrize(
        "cargoes, volume, ballast, loads, duals",
        [
            pytest.param(
                (CargoType("a", 0.6, 5.0), CargoType("b", 0.6, 5.0)),
                120000.0, False, {"a": 45000.0, "b": 0.0}, (5.0, 0.0),
                id="equal-densities-equal-rates",
            ),
            pytest.param(
                (CargoType("a", 0.6, 4.0), CargoType("b", 0.6, 5.0)),
                60000.0, False, {"a": 0.0, "b": 36000.0}, (0.0, 3.0),
                id="equal-densities-volume-bound",
            ),
            pytest.param(
                (CargoType("a", 0.8, 0.0), CargoType("b", 0.5, 0.0)),
                120000.0, True, {"a": 0.0, "b": 0.0, "ballast": 0.0}, (0.0, 0.0),
                id="zero-rates",
            ),
            pytest.param(
                (CargoType("one", 0.5, 2.0),), 120000.0, False, {"one": 45000.0}, (2.0, 0.0),
                id="n1-deadweight-bound",
            ),
            pytest.param(
                (CargoType("one", 0.5, 2.0),), 20000.0, False, {"one": 10000.0}, (0.0, 1.0),
                id="n1-volume-bound",
            ),
            pytest.param(
                # HiGHS returns the duals of the pair (a, b), (45/14, 36/35),
                # equally optimal; the tie rule tries the deadweight basis first.
                (CargoType("a", 0.8, 4.5), CargoType("b", 0.45, 5.5)),
                100000.0, False, {"a": 0.0, "b": 45000.0}, (5.5, 0.0),
                id="both-caps-at-one-load",
            ),
            pytest.param(
                (CargoType("one", 0.5, 2.0),), 90000.0, False, {"one": 45000.0}, (2.0, 0.0),
                id="n1-both-caps",
            ),
            pytest.param(
                # Both caps bind at b = 45 000 t, but a pays more per tonne,
                # so only the volume price is a feasible dual there.
                (CargoType("a", 0.4, 6.0), CargoType("b", 0.5, 5.0)),
                90000.0, False, {"a": 0.0, "b": 45000.0}, (0.0, 2.5),
                id="both-caps-volume-dual",
            ),
            pytest.param(
                # Cargo "w" has the density of water, like the zero-rate ballast.
                (CargoType("w", 1.0, 3.0), CargoType("b", 0.45, 5.5)),
                80000.0, True, {"w": 180000 / 11, "ballast": 0.0, "b": 315000 / 11},
                (21 / 22, 45 / 22),
                id="ballast-at-water-density",
            ),
        ],
    )
    def test_degenerate_cases(self, cargoes, volume, ballast, loads, duals):
        problem = _lp_problem(cargoes, volume=volume, ballast=ballast)
        solution = solve_lp(problem)
        x, *_ = _linprog_reference(problem)
        assert solution.revenue == pytest.approx(
            float(problem.objective @ x), rel=1e-9, abs=1e-9
        )
        _assert_lp_certificate(problem, solution)
        assert dict(zip(problem.labels, solution.x)) == pytest.approx(loads, rel=1e-12)
        assert (solution.multiplier_deadweight, solution.multiplier_volume) == pytest.approx(
            duals, rel=1e-12, abs=1e-12
        )


class TestSolveCaseStudy:
    def test_normal_mu4(self, assemble_case):
        solution = solve(assemble_case(4.0), SolverOptions())
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.revenue == pytest.approx(234461.89, rel=1e-6)
        assert solution.x.sum() == pytest.approx(45000.0, rel=1e-8)
        assert solution.kkt.satisfied

    def test_normal_mu6(self, assemble_case):
        solution = solve(assemble_case(6.0), SolverOptions())
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.revenue == pytest.approx(185541.64, rel=1e-6)
        assert solution.x.sum() == pytest.approx(39936.0, rel=1e-4)
        assert solution.multiplier_deadweight == pytest.approx(0.0, abs=1e-9)

    def test_reverse_mu4(self, assemble_case):
        solution = solve(assemble_case(4.0, order=LoadingOrder.reverse()), SolverOptions())
        assert solution.status is SolverStatus.LOCAL_ONLY
        assert solution.revenue == pytest.approx(226330.97, rel=1e-6)
        # The enumerated optimum is start 0, and it verifies.
        assert (solution.starts_used, solution.best_start_index) == (1, 0)

    def test_reverse_mu6(self, assemble_case):
        problem = assemble_case(6.0, order=LoadingOrder.reverse())
        solution = solve(problem, SolverOptions())
        assert solution.status is SolverStatus.LOCAL_ONLY
        assert solution.revenue == pytest.approx(182617.4, rel=1e-6)
        nonzero = np.flatnonzero(solution.x > 1.0)
        assert len(nonzero) == 1
        assert problem.densities[nonzero[0]] == 0.8

    def test_solution_arrays_read_only(self, assemble_case):
        solution = solve(assemble_case(4.0), SolverOptions())
        with pytest.raises(ValueError):
            solution.x[0] = 1.0


class TestStatuses:
    def test_infeasible_when_rhs_negative(self, assemble_case):
        problem = assemble_case(40.0)
        assert problem.rhs < 0
        solution = solve(problem, SolverOptions())
        assert solution.status is SolverStatus.INFEASIBLE
        assert solution.revenue == 0.0
        assert np.array_equal(solution.x, np.zeros(5))

    def test_iteration_limit(self, twin, without_enumeration):
        # Without the enumeration every start is a random one, cut off
        # after a single iteration.
        solution = solve(twin, SolverOptions(max_iterations=1))
        assert solution.starts_used == 32
        assert solution.status is SolverStatus.ITERATION_LIMIT
        assert not solution.kkt.satisfied


class TestDeterminism:
    def test_same_seed_same_solution(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        a = solve(problem, SolverOptions(rng_seed=3))
        b = solve(problem, SolverOptions(rng_seed=3))
        assert np.array_equal(a.x, b.x)
        assert a.revenue == b.revenue
        assert a.best_start_index == b.best_start_index

    def test_convex_dispatch_seed_independent(self, assemble_case):
        problem = assemble_case(4.0)
        a = solve(problem, SolverOptions(rng_seed=0))
        b = solve(problem, SolverOptions(rng_seed=12345))
        assert a.revenue == pytest.approx(b.revenue, rel=1e-6)
        assert a.starts_used == 1


class TestKktVerify:
    def test_case1_multipliers(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem, SolverOptions())
        report = kkt_verify(problem, solution, 1e-6)
        assert report.satisfied
        assert solution.multiplier_stability == pytest.approx(0.164, rel=0.1)
        assert solution.multiplier_deadweight == pytest.approx(3.968, rel=0.1)
        assert solution.multiplier_volume == pytest.approx(0.0, abs=1e-9)

    def test_origin_is_not_a_kkt_point(self, assemble_case):
        problem = assemble_case(4.0)
        report = kkt_verify(problem, np.zeros(5), 1e-6)
        assert not report.satisfied
        assert report.stationarity_residual > 0.1

    def test_raw_vector_recovers_multipliers(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem, SolverOptions())
        report = kkt_verify(problem, np.asarray(solution.x), 1e-6)
        assert report.satisfied

    def test_lp_vertex_fails_when_stability_violated(self, assemble_case):
        problem = assemble_case(4.0)
        lp = solve_lp(problem)
        report = kkt_verify(problem, lp, 1e-6)
        assert not report.satisfied

    def test_lp_vertex_passes_when_stability_slack(self, carrier, market):
        # With no margin requirement the LP vertex satisfies the full problem.
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(0.0), market, LoadingOrder.normal(), True
        )
        lp = solve_lp(problem)
        assert kkt_verify(problem, lp, 1e-6).satisfied


class TestMuSensitivity:
    def test_case1_prediction(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem, SolverOptions())
        per_meter = mu_sensitivity(problem, solution)
        assert per_meter == pytest.approx(solution.multiplier_stability * 60000.0, rel=1e-12)
        assert 0.1 * per_meter == pytest.approx(984.0, rel=0.01)

    def test_zero_when_stability_slack(self, assemble_case):
        problem = assemble_case(0.0)
        solution = solve(problem, SolverOptions())
        assert mu_sensitivity(problem, solution) == 0.0


class TestProperties:
    def test_quadratic_constraint_never_helps(self):
        rng = np.random.default_rng(23)
        options = SolverOptions(multistart_count=8)
        for _ in range(20):
            problem = draw_random_problem(rng)
            full = solve(problem, options)
            lp = solve_lp(problem)
            assert full.revenue <= lp.revenue + 1e-6 * max(1.0, abs(lp.revenue))

    def test_revenue_non_increasing_in_margin(self, assemble_case):
        revenues = [
            solve(assemble_case(mu), SolverOptions()).revenue for mu in (3.0, 4.0, 5.0, 6.0)
        ]
        for earlier, later in zip(revenues, revenues[1:]):
            assert earlier >= later - 1e-6 * max(1.0, abs(earlier))

    def test_stability_gradient_matches_finite_differences(self, assemble_case):
        problem = assemble_case(4.0)
        rng = np.random.default_rng(29)

        def constraint_value(v):
            return problem.quad_scale * v @ problem.quad_matrix @ v + problem.linear_coeff * v.sum()

        for _ in range(20):
            x = rng.uniform(0.0, 5000.0, problem.n)
            grad = stability_gradient(problem, x)
            for i in range(problem.n):
                h = 1e-3 * max(1.0, x[i])
                step = np.zeros(problem.n)
                step[i] = h
                numeric = (constraint_value(x + step) - constraint_value(x - step)) / (2.0 * h)
                assert numeric == pytest.approx(grad[i], rel=1e-6, abs=1e-9)

    def test_solutions_satisfy_reported_invariants(self):
        rng = np.random.default_rng(31)
        options = SolverOptions(multistart_count=8)
        for _ in range(10):
            problem = draw_random_problem(rng)
            solution = solve(problem, options)
            if solution.status is SolverStatus.INFEASIBLE:
                continue
            tol = options.feasibility_tolerance
            assert solution.x.min() >= -tol * max(1.0, problem.deadweight_cap)
            assert solution.x.sum() <= problem.deadweight_cap * (1 + tol) + tol
            assert solution.revenue == pytest.approx(
                float(problem.objective @ solution.x), rel=1e-12, abs=1e-9
            )


class TestAdversarialSeed:
    def test_single_start_lands_on_local_trap(self, assemble_case, without_enumeration):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        trap = local_trap(problem)
        assert kkt_verify(problem, trap.x).satisfied
        assert trap.revenue == pytest.approx(197165.94, rel=1e-6)
        # The same lone seeded start, run by solve, stops there too.
        single = solve(problem, SolverOptions(multistart_count=1, rng_seed=17))
        assert single.status is SolverStatus.LOCAL_ONLY
        assert np.array_equal(single.x, trap.x)
        # The full multistart escapes the trap.
        best = solve(problem, SolverOptions())
        assert best.revenue == pytest.approx(226330.97, rel=1e-6)

    def test_enumerated_start_escapes_the_trap(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        solution = solve(problem, SolverOptions(multistart_count=1, rng_seed=17))
        assert solution.revenue == pytest.approx(226330.97, rel=1e-6)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)


CASE_ROWS = [
    pytest.param(order, mu, id=f"{order.kind}-mu{mu:g}")
    for order in (LoadingOrder.normal(), LoadingOrder.reverse())
    for mu in (4.0, 6.0)
]


class TestScaledLocalSolve:
    def test_convex_instances_need_one_start(self):
        rng = np.random.default_rng(37)
        convex = 0
        while convex < 200:
            problem = draw_random_problem(rng)
            kind = classify_constraint_matrix(
                problem.densities, problem.environment.water_density
            ).kind
            if kind is not Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            convex += 1
            solution = solve(problem, SolverOptions())
            assert solution.status is SolverStatus.OPTIMAL
            assert solution.starts_used == 1

    @pytest.mark.parametrize("order, mu", CASE_ROWS)
    def test_every_case_study_start_is_feasible(
        self, assemble_case, monkeypatch, without_closed_form, order, mu
    ):
        problem = assemble_case(mu, order=order)
        options = SolverOptions()
        returned = []
        local_solve = solver._local_solve

        def recording(*args):
            result = local_solve(*args)
            returned.append(result[0])
            return result

        monkeypatch.setattr(solver, "_local_solve", recording)
        solution = solve(problem, options)
        assert len(returned) == solution.starts_used == 1
        if order.kind == "reverse":
            # The random starts that a fallback would run land feasibly too.
            scaled = solver._ScaledProblem(problem, options.max_iterations)
            for x0 in _solve_starts(problem, options)[1]:
                solver._local_solve(problem, scaled, x0)
            assert len(returned) == 33
        for x in returned:
            assert solver._feasible(problem, x, options.feasibility_tolerance)

    def test_pull_back_lands_on_the_stability_boundary(self, assemble_case):
        problem = assemble_case(4.0)
        x = solve(problem, SolverOptions()).x * (1.0 + 1e-6)
        assert constraint_slack(problem, x) < 0.0
        pulled = solver._scale_into_stability(problem, x, safety=1.0)
        t = pulled.sum() / x.sum()
        assert 1.0 - 1e-5 < t < 1.0
        np.testing.assert_allclose(pulled, x * t, rtol=1e-14)
        assert abs(constraint_slack(problem, pulled)) <= 1e-12 * problem.rhs


def _solve_starts(problem, options):
    """The interior start and the seeded random starts, drawn as ``solve`` draws them."""
    rng = np.random.default_rng(options.rng_seed)
    randoms = [solver._random_start(problem, rng) for _ in range(options.multistart_count)]
    return solver._interior_start(problem), randoms


def _minimize_reference(problem, x0, max_iterations):
    """One local solve through ``scipy.optimize.minimize``, built as the solver once built it."""
    from scipy.optimize import minimize

    cap = problem.deadweight_cap
    scales = np.array(solver._constraint_scales(problem))
    rate = float(np.abs(problem.objective).max(initial=0.0)) or 1.0
    cost = -problem.objective / rate
    ones = np.ones(problem.n)
    linear = np.vstack([ones, problem.volume_coeffs, problem.linear_coeff * ones])
    linear *= (cap / scales)[:, None]
    quad = problem.quad_matrix * (problem.quad_scale * cap * cap / scales[2])
    limits = np.array([cap, problem.volume_cap, problem.rhs]) / scales

    def slacks(z):
        g = limits - linear @ z
        g[2] -= z @ quad @ z
        return g

    def slacks_jac(z):
        jac = -linear
        jac[2] -= 2.0 * (quad @ z)
        return jac

    result = minimize(
        lambda z: float(cost @ z),
        x0 / cap,
        jac=lambda z: cost,
        method="SLSQP",
        bounds=[(0.0, None)] * problem.n,
        constraints={"type": "ineq", "fun": slacks, "jac": slacks_jac},
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )
    x = solver._scale_into_stability(problem, np.maximum(result.x, 0.0) * cap, safety=1.0)
    return x, result.status, result.nit


def _kernel_instances(assemble_case):
    """200 random instances of every class, with and without ballast, and the four case rows."""
    rng = np.random.default_rng(53)
    problems = [draw_random_problem(rng) for _ in range(200)]
    kinds = {
        classify_constraint_matrix(p.densities, p.environment.water_density).kind
        for p in problems
    }
    assert kinds == set(Definiteness)
    assert {"ballast" in p.labels for p in problems} == {True, False}
    rows = [
        assemble_case(mu, order=order)
        for order in (LoadingOrder.normal(), LoadingOrder.reverse())
        for mu in (4.0, 6.0)
    ]
    return problems + rows


class TestSlsqpKernel:
    """The compiled kernel driven directly against ``scipy.optimize.minimize``."""

    def test_same_iterates_as_minimize(self, assemble_case):
        options = SolverOptions()
        for problem in _kernel_instances(assemble_case):
            scaled = solver._ScaledProblem(problem, options.max_iterations)
            interior, randoms = _solve_starts(problem, options)
            for x0 in [interior, *randoms]:
                x, mode, iterations = solver._local_solve(problem, scaled, x0)
                ref_x, ref_mode, ref_iterations = _minimize_reference(
                    problem, x0, options.max_iterations
                )
                assert np.array_equal(x, ref_x)
                assert (mode, iterations) == (ref_mode, ref_iterations)

    def test_pick_matches_verifying_every_start(self, assemble_case, without_closed_form):
        options = SolverOptions()
        for problem in _kernel_instances(assemble_case):
            interior, randoms = _solve_starts(problem, options)
            convex = classify_constraint_matrix(
                problem.densities, problem.environment.water_density
            ).kind is Definiteness.POSITIVE_SEMIDEFINITE
            # Start 0 and the ceiling, as solve sets them.
            if convex:
                starts, ceiling = [interior, *randoms], -math.inf
            else:
                value, seed, complete, _ = solver._kkt_optimum(problem)
                if complete:
                    starts, ceiling = [seed, *randoms], value - 1e-9 * max(1.0, abs(value))
                else:
                    starts, ceiling = randoms, math.inf
            found, used = _verify_starts(problem, options, starts, ceiling)
            best = _pick(problem, found)

            solution = solve(problem, options)
            assert np.array_equal(solution.x, best[0])
            assert solution.best_start_index == best[2]
            assert solution.starts_used == used

    def test_kkt_rejected_start_does_not_raise_the_bar(
        self, assemble_case, monkeypatch, without_enumeration
    ):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        rng = np.random.default_rng(0)
        drawn = [solver._random_start(problem, rng) for _ in range(167)]
        # Seeded starts 1 and 74 reach KKT points of revenue 197 166 and
        # 199 950; start 166 reaches a feasible point of revenue 214 048 that
        # fails the KKT check, so it must not make start 74 skip verification.
        scripted = iter([drawn[1], drawn[166], drawn[74]])
        monkeypatch.setattr(solver, "_random_start", lambda problem, rng: next(scripted))
        solution = solve(problem, SolverOptions(multistart_count=3))
        assert solution.best_start_index == 2
        assert solution.revenue == pytest.approx(199950.4, rel=1e-6)
        assert solution.kkt.satisfied


def _verify_starts(problem, options, starts, ceiling):
    """Every start of ``starts`` verified, stopping after one that verifies and earns ``ceiling``.

    Returns the feasible returns as (x, KKT satisfied, start index) and the
    number of starts run.
    """
    tol = options.feasibility_tolerance
    scaled = solver._ScaledProblem(problem, options.max_iterations)
    found = []
    for k, x0 in enumerate(starts):
        x, _, _ = solver._local_solve(problem, scaled, x0)
        if not solver._feasible(problem, x, tol):
            continue
        multipliers = solver._recover_multipliers(problem, x, tol)
        report = solver._kkt_report(problem, x, *multipliers, options.kkt_tolerance)
        found.append((x, report.satisfied, k))
        if report.satisfied and problem.objective @ x >= ceiling:
            return found, k + 1
    return found, len(starts)


def _pick(problem, found):
    """``solve``'s choice among feasible returns: the best verified one, else the best of all."""
    pool = [c for c in found if c[1]] or found
    best = pool[0]
    for candidate in pool[1:]:
        if solver._preferred(problem, candidate[0], best[0]):
            best = candidate
    return best


class TestKktSeed:
    """The enumerated KKT optimum as start 0 of the nonconvex search."""

    def test_never_below_the_random_multistart(self):
        rng = np.random.default_rng(59)
        options = SolverOptions()
        reverse = (LoadingOrder.reverse(),)
        checked = large = 0
        while checked < 300:
            # Every fourth draw is a reverse stack of 6 to 12 cargoes, and
            # every fourth a hold small enough for volume to bind.
            if checked % 4 == 3:
                problem = draw_random_problem(rng, sizes=(6, 13), orders=reverse)
            elif checked % 4 == 1:
                problem = draw_random_problem(rng, room=(0.3, 0.8))
            else:
                problem = draw_random_problem(rng)
            if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            checked += 1
            large += problem.n >= 6
            randoms = _solve_starts(problem, options)[1]
            found, _ = _verify_starts(problem, options, randoms, math.inf)
            multistart = float(problem.objective @ _pick(problem, found)[0])
            floor = multistart - 1e-9 * max(1.0, abs(multistart))
            assert solve(problem, options).revenue >= floor
            value, _, complete, _ = solver._kkt_optimum(problem)
            assert complete and value >= floor
        assert large >= 75

    @pytest.mark.parametrize(
        "twin_of, rate", [(3, 5.4), (3, 5.6), (1, 5.0)], ids=["lower", "higher", "tie"]
    )
    def test_equal_densities_are_enumerated(self, carrier, market, twin_of, rate, monkeypatch):
        # type5 sits next to a cargo of its density in the stack: the
        # enumeration keeps the better rate of the two, on a tie the lower
        # cargo.  A copy of type2 leaves the relaxation's vertex unique.
        density = market[twin_of].density
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0),
            market + (CargoType("type5", density, rate),), LoadingOrder.reverse(), True,
        )
        below = problem.labels.index(market[twin_of].label)
        assert problem.labels[below + 1] == "type5"
        self.assert_enumerated(problem, monkeypatch)

    @pytest.mark.parametrize("n", [21, 41])
    def test_large_reverse_stacks_are_enumerated(self, n, monkeypatch):
        forced = self.assert_enumerated(large_reverse_stack(n), monkeypatch)
        assert forced.starts_used == 32

    def test_over_budget_reverse_stack_keeps_the_random_search(self, monkeypatch, caplog):
        # The smallest reverse stack over the budget: 30 452 systems.
        problem = large_reverse_stack(44)
        caplog.set_level(logging.DEBUG, logger="shipload.solver")
        assert solver._kkt_optimum(problem) == (-math.inf, None, False, None)
        assert "KKT enumeration incomplete: over budget, 30452 systems" in caplog.text
        solution = solve(problem, SolverOptions())
        assert solution.starts_used == 32
        monkeypatch.setattr(solver, "_kkt_optimum", lambda problem: (-math.inf, None, False, None))
        self.assert_identical(solution, solve(problem, SolverOptions()))

    def test_large_reverse_stacks_leave_numpy_random_unloaded(self):
        # Importing numpy.random costs some 5 MB of resident memory; only
        # the fallback multistart draws random starts.  The child builds
        # the same stacks from their cargo lists.
        stacks = [large_reverse_stack(n).cargoes for n in (21, 41)]
        code = (
            "import sys\n"
            "from shipload import *\n"
            f"for cargoes in {stacks!r}:\n"
            "    problem = assemble_problem(\n"
            "        Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, 2.0), Environment(),\n"
            "        StabilityPolicy(4.0), cargoes, LoadingOrder.reverse(), False,\n"
            "    )\n"
            "    assert solve(problem).starts_used == 1\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=package_env(),
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "order, dense", [("explicit", False), ("reverse", False), ("reverse", True)],
        ids=["ballast-at-the-bottom", "ballast-on-top", "ballast-in-the-middle"],
    )
    def test_ballast_at_water_density(self, carrier, market, order, dense):
        cargoes = market + ((CargoType("heavy", 1.6, 3.0),) if dense else ())
        explicit = order == "explicit"
        stack = LoadingOrder.explicit([3, 2, 1, 0]) if explicit else LoadingOrder.reverse()
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), cargoes, stack, True
        )
        ballast = problem.ballast_index
        assert problem.densities[ballast] == 1.0
        assert ballast == {"explicit": 0, "reverse": problem.n - 1 - dense}[order]
        self.assert_seed_is_the_optimum(problem)

    def test_ballast_under_a_full_hold(self):
        # Water-density ballast at the bottom steadies a hold that is full
        # by volume while mass is to spare: the step D_1 is 0, the
        # deadweight cap is slack, and the volume row sets the ballast.
        problem = assemble_problem(
            Vessel(75.8, 12.1, 15650.0, 31080.0, 5570.0, 2.96), Environment(),
            StabilityPolicy(0.02), (CargoType("c0", 0.411, 5.45), CargoType("c1", 0.306, 2.39)),
            LoadingOrder.explicit([1, 0]), True,
        )
        assert problem.classification.evidence.diagonal[0] == 0.0
        self.assert_seed_is_the_optimum(problem)
        _, x, _, _ = solver._kkt_optimum(problem)
        deadweight, volume, _ = solver._slacks(problem, x)
        assert x[problem.ballast_index] > 3000.0
        assert deadweight > 800.0 and abs(volume) <= 1e-9 * problem.volume_cap

    def test_zero_rates(self, carrier, market):
        zero = tuple(CargoType(c.label, c.density, 0.0) for c in market)
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), zero, LoadingOrder.reverse(), True
        )
        value, x, complete, _ = solver._kkt_optimum(problem)
        assert (value, complete) == (0.0, True) and not x.any()
        solution = solve(problem, SolverOptions())
        assert (solution.revenue, solution.starts_used, solution.best_start_index) == (0.0, 1, 0)

    @pytest.mark.parametrize("volume", [20000.0, 30000.0, 40000.0], ids=["volume", "both", "mass"])
    def test_single_cargo(self, volume):
        # Denser than water, so the lone cargo's matrix is negative; at
        # V = 30 000 m3 it fills both caps at once, C * v = V.
        vessel = Vessel(200.0, 25.0, 45000.0, volume, 15000.0, 2.0)
        problem = assemble_problem(
            vessel, Environment(), StabilityPolicy(4.0), (CargoType("ore", 1.5, 3.0),),
            LoadingOrder.normal(), False,
        )
        assert problem.classification.kind is Definiteness.NEGATIVE_SEMIDEFINITE
        self.assert_seed_is_the_optimum(problem)

    @staticmethod
    def assert_seed_is_the_optimum(problem):
        """A complete enumeration whose optimum is also the best of the 32 random starts."""
        options = SolverOptions()
        value, x, complete, _ = solver._kkt_optimum(problem)
        assert complete
        assert solver._feasible(problem, x, 1e-9)
        found, _ = _verify_starts(problem, options, _solve_starts(problem, options)[1], math.inf)
        multistart = float(problem.objective @ _pick(problem, found)[0])
        assert value == pytest.approx(multistart, rel=1e-9, abs=1e-9)
        solution = solve(problem, options)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.revenue == pytest.approx(value, rel=1e-9, abs=1e-9)

    @staticmethod
    def assert_enumerated(problem, monkeypatch):
        """A complete enumeration and one start, no worse than the random search alone.

        Returns the random search's solution.
        """
        value, _, complete, _ = solver._kkt_optimum(problem)
        solution = solve(problem, SolverOptions())
        monkeypatch.setattr(solver, "_kkt_optimum", lambda problem: (-math.inf, None, False, None))
        forced = solve(problem, SolverOptions())
        floor = forced.revenue - 1e-9 * abs(forced.revenue)
        assert complete and value >= floor
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.revenue >= floor
        return forced

    @staticmethod
    def assert_identical(solution, reference):
        assert np.array_equal(solution.x, reference.x)
        assert solution.revenue == reference.revenue
        assert solution.starts_used == reference.starts_used
        assert solution.best_start_index == reference.best_start_index


def _draw(seed, index, sizes=(2, 13)):
    """Draw ``index`` (from 0) of ``draw_random_problem``, every order, generator ``seed``."""
    rng = np.random.default_rng(seed)
    orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
    for _ in range(index + 1):
        problem = draw_random_problem(rng, sizes=sizes, orders=orders)
    return problem


def _count_local_solves(monkeypatch):
    """A list that grows by one entry per local solve."""
    calls = []
    local_solve = solver._local_solve
    monkeypatch.setattr(solver, "_local_solve", lambda *args: calls.append(1) or local_solve(*args))
    return calls


def _no_local_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("a local solve ran")

    monkeypatch.setattr(solver, "_local_solve", refuse)


class TestClosedForm:
    """Start 0 in closed form: returned without a local solve when it verifies."""

    @pytest.mark.parametrize("order, mu", CASE_ROWS)
    def test_case_rows_need_no_local_solve(self, assemble_case, monkeypatch, order, mu):
        problem = assemble_case(mu, order=order)
        _no_local_solve(monkeypatch)
        solution = solve(problem)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied
        convex = order.kind == "normal"
        assert solution.status is (SolverStatus.OPTIMAL if convex else SolverStatus.LOCAL_ONLY)

    def test_enumerated_point_is_kept(self):
        # Three cargoes, light at the bottom.  One SLSQP iteration from the
        # enumerated point reached a point of 134 197.36 that failed the KKT
        # check, and the random starts then returned 91 369.92.
        problem = _draw(19, 82)
        assert problem.n == 3
        solution = solve(problem)
        assert solution.revenue >= 135321.396 * (1.0 - 1e-9)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied

    def test_enumerated_point_verifies_in_one_start(self):
        # Twelve cargoes; the local solve from the enumerated point failed
        # the KKT check, and 18 random starts followed.
        problem = _draw(20, 294)
        assert problem.n == 12
        assert solve(problem).starts_used == 1

    def test_neighbouring_twins_are_enumerated(self, twin, assemble_case, monkeypatch):
        _no_local_solve(monkeypatch)
        solution = solve(twin)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        reference = solve(assemble_case(4.0, order=LoadingOrder.reverse()))
        assert solution.revenue == pytest.approx(reference.revenue, rel=1e-12)

    def test_stalled_exchange_hands_over_to_the_local_solve(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0)
        closed = solve(problem)
        assert solver._convex_exchange(problem, 1e-8, 1e-6) is not None
        # One step: the vertex's support {type4} alone does not price out.
        monkeypatch.setattr(solver, "_EXCHANGE_EXTRA_STEPS", 1 - 2 * problem.n)
        assert solver._convex_exchange(problem, 1e-8, 1e-6) is None
        calls = _count_local_solves(monkeypatch)
        solution = solve(problem)
        assert calls == [1]
        assert (solution.status, solution.starts_used) == (SolverStatus.OPTIMAL, 1)
        assert solution.revenue == pytest.approx(closed.revenue, rel=1e-9)

    def test_exchange_without_a_valid_point_hands_over(self, assemble_case, monkeypatch):
        from shipload import kkt_enumeration

        problem = assemble_case(4.0)
        monkeypatch.setattr(kkt_enumeration, "support_points", lambda units, support: [])
        assert solver._convex_exchange(problem, 1e-8, 1e-6) is None
        solution = solve(problem)
        assert solution.status is SolverStatus.OPTIMAL and solution.kkt.satisfied

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.sampled_from([(1, 6), (2, 13), (6, 13)]),
        order=st.sampled_from(["normal", "reverse", "explicit"]),
        room=st.sampled_from([(0.3, 0.8), (0.5, 2.0)]),
    )
    def test_never_below_the_local_solve(self, seed, sizes, order, room):
        """Never below a local solve from start 0, and verified whenever no local solve ran."""
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        problem = draw_random_problem(
            np.random.default_rng(seed), sizes=sizes, orders=(orders.get(order, order),), room=room
        )
        with pytest.MonkeyPatch.context() as patch:
            calls = _count_local_solves(patch)
            solution = solve(problem)
        with pytest.MonkeyPatch.context() as patch:
            _force_local_solve(patch)
            forced = solve(problem)
        assert solution.revenue >= forced.revenue - 1e-9 * max(1.0, abs(forced.revenue))
        if not calls:
            assert (solution.starts_used, solution.best_start_index) == (1, 0)
            assert solution.kkt.satisfied


class TestRejectedStarts:
    """Every start that fails the feasibility filter leaves a DEBUG record."""

    @staticmethod
    def rejections(caplog):
        return [
            r.args for r in caplog.records
            if r.name == "shipload.solver" and r.msg.startswith("start ")
        ]

    def test_diverging_start_is_logged(self, caplog, without_enumeration):
        rng = np.random.default_rng(1)
        for _ in range(25):
            problem = draw_random_problem(rng)
        caplog.set_level(logging.DEBUG, logger="shipload.solver")
        solution = solve(problem, SolverOptions(multistart_count=5))
        assert solution.status is SolverStatus.LOCAL_ONLY
        ((index, mode, iterations, violation),) = self.rejections(caplog)
        # SLSQP's "positive directional derivative in line search" exit,
        # with loads some 1e15 times the deadweight cap.
        assert (index, mode, iterations) == (4, 8, 65)
        assert violation > 1e12

    def test_nan_start_is_logged(self, twin, monkeypatch, caplog, without_enumeration):
        random_start = solver._random_start
        drawn = []

        def one_nan_start(problem, rng):
            x0 = random_start(problem, rng)
            drawn.append(x0)
            return np.full(problem.n, np.nan) if len(drawn) == 2 else x0

        monkeypatch.setattr(solver, "_random_start", one_nan_start)
        caplog.set_level(logging.DEBUG, logger="shipload.solver")
        solution = solve(twin, SolverOptions(multistart_count=3))
        assert solution.kkt.satisfied
        ((index, mode, iterations, violation),) = self.rejections(caplog)
        assert (index, mode, iterations) == (1, 4, 1)
        assert np.isnan(violation)
        assert "start 1 rejected: exit mode 4 after 1 iterations" in caplog.text


def _problem_pair(vessel, environment, mu, cargoes, order, include_ballast):
    """The same instance with freight rates as given and multiplied by 1e3."""
    return tuple(
        assemble_problem(
            vessel,
            environment,
            StabilityPolicy(mu),
            tuple(CargoType(c.label, c.density, c.freight_rate * f) for c in cargoes),
            order,
            include_ballast,
        )
        for f in (1.0, 1e3)
    )


class TestRateUnits:
    """Quoting every freight rate in another currency unit moves nothing but revenue."""

    @pytest.mark.parametrize("order, mu", CASE_ROWS)
    def test_case_study_rows(self, carrier, market, order, mu):
        self.check(*_problem_pair(carrier, Environment(), mu, market, order, True))

    def test_coastal_feeder(self):
        s = load_bundled_scenario("coastal_feeder.json")
        self.check(
            *_problem_pair(
                s.vessel, Environment(s.water_density), s.mu, s.cargoes, s.order,
                s.include_ballast,
            )
        )

    @staticmethod
    def check(problem, thousandfold):
        base = solve(problem, SolverOptions())
        scaled = solve(thousandfold, SolverOptions())
        assert scaled.status is base.status
        assert np.abs(scaled.x - base.x).max() <= 1e-7 * np.abs(base.x).max()
        assert scaled.revenue == pytest.approx(1e3 * base.revenue, rel=1e-9)


class TestKernelLoader:
    """SciPy's compiled SLSQP/NNLS extension, loaded without ``scipy.optimize``."""

    def test_nnls_matches_public_wrapper(self, assemble_case, monkeypatch, without_closed_form):
        from scipy.optimize import nnls

        kernel = solver._slsqplib()
        systems = []

        class Recording:
            slsqp = kernel.slsqp

            @staticmethod
            def nnls(columns, rates, iterations):
                systems.append((columns.copy(), rates.copy(), iterations))
                return kernel.nnls(columns, rates, iterations)

        monkeypatch.setattr(solver, "_slsqplib", lambda: Recording)
        for order in (LoadingOrder.normal(), LoadingOrder.reverse()):
            for mu in (4.0, 6.0):
                problem = assemble_case(mu, order=order)
                kkt_verify(problem, np.array(solve(problem).x))
        assert len(systems) >= 8  # each row: its solve and the kkt_verify of its loads
        for columns, rates, iterations in systems:
            assert iterations == 3 * columns.shape[1]
            coef, rnorm, info = kernel.nnls(columns, rates, iterations)
            public_coef, public_rnorm = nnls(columns, rates)
            assert info != 3
            assert np.array_equal(coef, public_coef)
            assert rnorm == public_rnorm

    def test_scipy_optimize_reuses_the_loaded_kernel(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from shipload import solver\n"
            "kernel = solver._slsqplib()\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "import scipy.optimize\n"
            "import scipy.optimize._slsqplib as imported\n"
            "assert imported is kernel\n"
            "result = scipy.optimize.minimize(\n"
            "    lambda z: (z[0] - 1.0) ** 2 + (z[1] - 2.0) ** 2, [0.0, 0.0], method='SLSQP',\n"
            "    constraints={'type': 'ineq', 'fun': lambda z: 1.0 - z[0] - z[1]},\n"
            ")\n"
            "assert result.success, result.message\n"
            "assert np.allclose(result.x, [0.0, 1.0], atol=1e-6), result.x\n"
            "assert solver._slsqplib() is kernel\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=package_env(),
        )
        assert result.returncode == 0, result.stderr

    def test_missing_extension_names_the_scipy_floor(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._slsqplib", raising=False)
        monkeypatch.setattr(solver.importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"SciPy >= 1\.16"):
            solver._slsqplib()

    def test_raises_when_nnls_runs_out_of_iterations(self, assemble_case, monkeypatch):
        class Exhausted:
            @staticmethod
            def nnls(columns, rates, iterations):
                return np.zeros(columns.shape[1]), 0.0, 3

        problem = assemble_case(4.0)
        x = np.array(solve(problem).x)
        monkeypatch.setattr(solver, "_slsqplib", lambda: Exhausted)
        with pytest.raises(RuntimeError, match="Maximum number of iterations"):
            kkt_verify(problem, x)
