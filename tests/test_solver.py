"""LP baseline, closed-form quadratically constrained solves, and KKT checks."""

import dataclasses
import logging
import subprocess
import sys
import time

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LoadingOrder,
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
from shipload import LatticeSpec, grid_search, kkt_enumeration, solver
from shipload.cli import load_bundled_scenario
from shipload.solver import stability_gradient

from conftest import (
    closed_form_optimum,
    draw_random_problem,
    large_reverse_stack,
    local_trap,
    package_env,
    pinned_stack_inputs,
    pinned_stacks,
    scipy_nnls,
    support_loads,
)


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
        solution = solve(assemble_case(4.0))
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.revenue == pytest.approx(234461.89, rel=1e-6)
        assert solution.x.sum() == pytest.approx(45000.0, rel=1e-8)
        assert solution.kkt.satisfied

    def test_normal_mu6(self, assemble_case):
        solution = solve(assemble_case(6.0))
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.revenue == pytest.approx(185541.64, rel=1e-6)
        assert solution.x.sum() == pytest.approx(39936.0, rel=1e-4)
        assert solution.multiplier_deadweight == pytest.approx(0.0, abs=1e-9)

    def test_reverse_mu4(self, assemble_case):
        solution = solve(assemble_case(4.0, order=LoadingOrder.reverse()))
        assert solution.status is SolverStatus.LOCAL_ONLY
        assert solution.revenue == pytest.approx(226330.97, rel=1e-6)
        # The enumerated optimum is start 0, and it verifies.
        assert (solution.starts_used, solution.best_start_index) == (1, 0)

    def test_reverse_mu6(self, assemble_case):
        problem = assemble_case(6.0, order=LoadingOrder.reverse())
        solution = solve(problem)
        assert solution.status is SolverStatus.LOCAL_ONLY
        assert solution.revenue == pytest.approx(182617.4, rel=1e-6)
        nonzero = np.flatnonzero(solution.x > 1.0)
        assert len(nonzero) == 1
        assert problem.densities[nonzero[0]] == 0.8

    def test_solution_arrays_read_only(self, assemble_case):
        solution = solve(assemble_case(4.0))
        with pytest.raises(ValueError):
            solution.x[0] = 1.0


class TestStatuses:
    def test_infeasible_when_rhs_negative(self, assemble_case):
        problem = assemble_case(40.0)
        assert problem.rhs < 0
        solution = solve(problem)
        assert solution.status is SolverStatus.INFEASIBLE
        assert solution.revenue == 0.0
        assert np.array_equal(solution.x, np.zeros(5))

    def test_iteration_limit(self, twin, assemble_case, monkeypatch):
        # No rounded residual meets a KKT tolerance of 1e-300, so no
        # candidate verifies: the best feasible one is returned.
        problems = (assemble_case(4.0), twin)
        references = [solve(problem) for problem in problems]
        monkeypatch.setattr(solver, "KKT_TOLERANCE", 1e-300)
        for problem, reference in zip(problems, references):
            solution = solve(problem)
            assert solution.status is SolverStatus.ITERATION_LIMIT
            assert not solution.kkt.satisfied
            assert (solution.starts_used, solution.best_start_index) == (1, 0)
            assert solution.revenue == pytest.approx(reference.revenue, rel=1e-9)
            assert solver._Loading(problem, solution.x).violation <= solver.FEASIBILITY_TOLERANCE

    def test_empty_vessel_when_no_candidate_is_feasible(self, twin, monkeypatch):
        # Every candidate sits on the stability boundary to rounding, which
        # a feasibility tolerance of 1e-300 does not forgive.
        monkeypatch.setattr(solver, "FEASIBILITY_TOLERANCE", 1e-300)
        monkeypatch.setattr(solver, "KKT_TOLERANCE", 1e-300)
        solution = solve(twin)
        assert solution.status is SolverStatus.ITERATION_LIMIT
        assert (solution.starts_used, solution.best_start_index) == (0, -1)
        assert solution.revenue == 0.0 and not solution.x.any()


class TestKktVerify:
    def test_case1_multipliers(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem)
        report = kkt_verify(problem, solution)
        assert report.satisfied
        assert solution.multiplier_stability == pytest.approx(0.164, rel=0.1)
        assert solution.multiplier_deadweight == pytest.approx(3.968, rel=0.1)
        assert solution.multiplier_volume == pytest.approx(0.0, abs=1e-9)

    def test_origin_is_not_a_kkt_point(self, assemble_case):
        problem = assemble_case(4.0)
        report = kkt_verify(problem, np.zeros(5))
        assert not report.satisfied
        assert report.stationarity_residual > 0.1

    def test_raw_vector_recovers_multipliers(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem)
        report = kkt_verify(problem, np.asarray(solution.x))
        assert report.satisfied

    def test_least_squares_fit_matches_nnls(self):
        """Where the plain fit is taken it is the NNLS minimum: same multipliers, same verdict."""
        rng = np.random.default_rng(71)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        fitted, refused, verdicts = 0, 0, set()
        for draw in range(300):
            problem = draw_random_problem(rng, sizes=(1, 13), orders=orders, room=(0.3, 2.0))
            answer = np.array(solve(problem).x)
            # Loads on the deadweight cap over a random half of the cargoes:
            # where an empty one pays more than the fit's price, NNLS runs.
            spread = rng.dirichlet(np.ones(problem.n)) * (rng.random(problem.n) < 0.5)
            spread *= problem.deadweight_cap / max(spread.sum(), 1e-300)
            # A KKT point, the LP vertex, those loads and a KKT point moved
            # within the active-set threshold.
            loads = [answer, np.array(solve_lp(problem).x), spread]
            loads.append(answer * (1.0 + 1e-9 * rng.standard_normal(problem.n)))
            # Two cargoes at both caps, whose fit can price volume below 0.
            i, j = rng.choice(problem.n, size=2) if problem.n > 1 else (0, 0)
            v, cap = problem.volume_coeffs, problem.deadweight_cap
            if v[i] != v[j]:
                pair = np.zeros(problem.n)
                pair[i] = (problem.volume_cap - v[j] * cap) / (v[i] - v[j])
                pair[j] = cap - pair[i]
                loads += [pair] if pair.min() >= 0.0 else []
            # One cargo where stationarity meets the stability boundary.
            units = kkt_enumeration.scaled_units(problem)
            loads += [point[0] for point in support_loads(units, [i])]
            for x in loads:
                taken = self._fitted(problem, x)
                point = solver._Loading(problem, x)
                recovered = solver._recover_multipliers(problem, point)
                binding, gradients, at_zero = _nnls_system(problem, point)
                fit = scipy_nnls(gradients, problem.objective, at_zero)[:2]
                reference = _full_multipliers(binding, *fit, at_zero)
                rate = problem.objective.max()
                assert recovered[:3] == pytest.approx(reference[:3], rel=1e-8, abs=1e-10 * rate)
                assert recovered[3] == pytest.approx(reference[3], rel=1e-8, abs=1e-10 * rate)
                report = solver._kkt_report(problem, point, *recovered)
                assert report.satisfied == solver._kkt_report(problem, point, *reference).satisfied
                fitted += taken
                refused += not taken
                verdicts.add(report.satisfied)
        assert fitted >= 600 and refused >= 100, (fitted, refused)
        assert verdicts == {True, False}

    def test_fit_is_the_least_squares_solution(self):
        # One loaded cargo and two active gradients: every lam on a line fits
        # exactly, so the fit, though nonnegative, does not decide among them.
        gradients = np.array([[1.0, 2.0], [1.0, 0.5], [1.0, 3.0]])
        rates = np.array([3.0, 1.0, 4.0])
        assert solver._sign_feasible_fit(gradients, rates, np.array([False, True, True])) is None
        # A second loaded cargo decides them: lam = (1, 1), nu = 0.5.
        lam, nu = solver._sign_feasible_fit(gradients, rates, np.array([False, True, False]))
        assert lam == pytest.approx([1.0, 1.0], rel=1e-12) and nu == pytest.approx([0.5])
        # Against LAPACK on random systems of 1 to 3 gradients, all cargoes loaded.
        rng = np.random.default_rng(5)
        checked = {True: 0, False: 0}
        for _ in range(200):
            columns = int(rng.integers(1, 4))
            gradients = rng.uniform(0.1, 3.0, size=(int(rng.integers(columns, 9)), columns))
            gradients[:, 0] = 1.0
            rates = rng.uniform(0.0, 10.0, size=gradients.shape[0])
            reference = np.linalg.lstsq(gradients, rates, rcond=None)[0]
            fit = solver._sign_feasible_fit(gradients, rates, np.zeros(rates.size, dtype=bool))
            positive = bool(reference.min() > 0.0)
            if positive:
                assert fit[0] == pytest.approx(reference, rel=1e-9, abs=1e-12 * rates.max())
            else:
                assert fit is None
            checked[positive] += 1
        assert min(checked.values()) >= 50, checked

    @staticmethod
    def _fitted(problem, x):
        """Whether ``_recover_multipliers`` takes the plain least-squares fit at ``x``."""
        *binding, at_zero = solver.active_set(problem, x)
        gradients = (np.ones(problem.n), problem.volume_coeffs, stability_gradient(problem, x))
        columns = [g for g, on in zip(gradients, binding) if on]
        if not columns:
            return False
        fit = solver._sign_feasible_fit(np.column_stack(columns), problem.objective, at_zero)
        return fit is not None

    def test_lp_vertex_fails_when_stability_violated(self, assemble_case):
        problem = assemble_case(4.0)
        lp = solve_lp(problem)
        report = kkt_verify(problem, lp)
        assert not report.satisfied

    def test_lp_vertex_passes_when_stability_slack(self, carrier, market):
        # With no margin requirement the LP vertex satisfies the full problem.
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(0.0), market, LoadingOrder.normal(), True
        )
        lp = solve_lp(problem)
        assert kkt_verify(problem, lp).satisfied


class TestMuSensitivity:
    def test_case1_prediction(self, assemble_case):
        problem = assemble_case(4.0)
        solution = solve(problem)
        per_meter = mu_sensitivity(problem, solution)
        assert per_meter == pytest.approx(solution.multiplier_stability * 60000.0, rel=1e-12)
        assert 0.1 * per_meter == pytest.approx(984.0, rel=0.01)

    def test_zero_when_stability_slack(self, assemble_case):
        problem = assemble_case(0.0)
        solution = solve(problem)
        assert mu_sensitivity(problem, solution) == 0.0


class TestProperties:
    def test_quadratic_constraint_never_helps(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem = draw_random_problem(rng)
            full = solve(problem)
            lp = solve_lp(problem)
            assert full.revenue <= lp.revenue + 1e-6 * max(1.0, abs(lp.revenue))

    def test_revenue_non_increasing_in_margin(self, assemble_case):
        revenues = [
            solve(assemble_case(mu)).revenue for mu in (3.0, 4.0, 5.0, 6.0)
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
        for _ in range(10):
            problem = draw_random_problem(rng)
            solution = solve(problem)
            if solution.status is SolverStatus.INFEASIBLE:
                continue
            tol = solver.FEASIBILITY_TOLERANCE
            assert solution.x.min() >= -tol * max(1.0, problem.deadweight_cap)
            assert solution.x.sum() <= problem.deadweight_cap * (1 + tol) + tol
            assert solution.revenue == pytest.approx(
                float(problem.objective @ solution.x), rel=1e-12, abs=1e-9
            )


class TestAdversarialSeed:
    def test_single_start_lands_on_local_trap(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        trap = local_trap(problem)
        assert kkt_verify(problem, trap.x).satisfied
        assert trap.revenue == pytest.approx(197165.94, rel=1e-6)
        assert trap.x.tolist() == pytest.approx([35848.352646, 0.0, 0.0, 0.0], rel=1e-9)
        # An exchange started on the trap's support stays there: it prices out.
        (point,) = solver._exchange(problem, [0])
        assert np.array_equal(point[0].x, trap.x)

    def test_enumerated_start_escapes_the_trap(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        solution = solve(problem)
        assert solution.revenue == pytest.approx(226330.97, rel=1e-6)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)


CASE_ROWS = [
    pytest.param(order, mu, id=f"{order.kind}-mu{mu:g}")
    for order in (LoadingOrder.normal(), LoadingOrder.reverse())
    for mu in (4.0, 6.0)
]


class TestScaledLocalSolve:
    """The one closed-form start that took the place of the scaled local solves."""

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
            solution = solve(problem)
            assert solution.status is SolverStatus.OPTIMAL
            assert solution.starts_used == 1

    @pytest.mark.parametrize("order, mu", CASE_ROWS)
    def test_every_case_study_start_is_feasible(self, assemble_case, order, mu):
        # Every point of the exchange, from the relaxation's vertex on a
        # convex row and from the enumerated optimum on a reverse one.
        problem = assemble_case(mu, order=order)
        face, _, _ = solver._lp_optimum(problem)
        assert solver._stable_point(problem, face) is None
        if order.kind == "normal":
            points = solver._exchange(problem, np.flatnonzero(face[0]).tolist())
        else:
            _, x, complete, lams = solver._kkt_optimum(problem, len(face) <= 2)
            assert complete
            start = solver._Loading(problem, x), lams
            points = solver._exchange(problem, np.flatnonzero(x).tolist(), start)
        assert points
        for point, _ in points:
            assert point.violation <= solver.FEASIBILITY_TOLERANCE
        assert solve(problem).starts_used == 1


# The revenues that the seeded 32-start SLSQP multistart reached on draws of
# draw_random_problem(np.random.default_rng(5), sizes=(10, 43), orders=(normal,
# reverse, "explicit"), room=(0.3, 2.0)), by draw index from 0, and on reverse
# stacks, by size; the KKT enumeration was over budget on each.
DRAW_FLOORS = {3: 101133.825016, 4: 314047.410683, 10: 40722.479167, 14: 94560.761681}
REVERSE_FLOORS = {44: 331589.941704, 60: 330486.821403, 80: 331328.922357}


class TestKktSeed:
    """The enumerated KKT optimum as the start of the nonconvex path."""

    def test_never_below_the_random_multistart(self):
        rng = np.random.default_rng(5)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        draws = [
            draw_random_problem(rng, sizes=(10, 43), orders=orders, room=(0.3, 2.0))
            for _ in range(max(DRAW_FLOORS) + 1)
        ]
        cases = [(draws[i], floor) for i, floor in DRAW_FLOORS.items()]
        cases += [(large_reverse_stack(n), floor) for n, floor in REVERSE_FLOORS.items()]
        cases += [(problem, floor) for problem, floor in pinned_stacks().values()]
        for problem, floor in cases:
            solution = solve(problem)
            assert solution.status is SolverStatus.LOCAL_ONLY and solution.kkt.satisfied
            assert solution.revenue >= floor * (1.0 - 1e-9), (problem.n, floor)

    @pytest.mark.parametrize("n", sorted(REVERSE_FLOORS))
    def test_large_reverse_stack_solves_fast(self, n):
        # The seeded multistart took 0.9 to 2 s on these stacks.
        problem = large_reverse_stack(n)
        seconds = []
        for _ in range(2):
            started = time.perf_counter()
            solve(problem)
            seconds.append(time.perf_counter() - started)
        assert min(seconds) < 0.1

    @pytest.mark.parametrize(
        "twin_of, rate", [(3, 5.4), (3, 5.6), (1, 5.0)], ids=["lower", "higher", "tie"]
    )
    def test_equal_densities_are_enumerated(self, carrier, market, twin_of, rate):
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
        self.assert_enumerated(problem)

    @pytest.mark.parametrize("n", [21, 41])
    def test_large_reverse_stacks_are_enumerated(self, n):
        self.assert_enumerated(large_reverse_stack(n))

    def test_over_budget_reverse_stack_is_truncated(self, caplog):
        # The smallest reverse stack over the budget: 30 452 systems.  The
        # supports of up to two cargoes count 3 964 in all four patterns,
        # and their winner is a KKT point.
        problem = large_reverse_stack(44)
        caplog.set_level(logging.DEBUG, logger="shipload.solver")
        value, x, complete, lams = closed_form_optimum(problem)
        assert not complete and lams is not None
        assert (
            "KKT enumeration incomplete: over budget, 30452 systems for supports of up to 3 "
            "of 44 cargoes; supports of up to 2 solved"
        ) in caplog.text
        solution = solve(problem)
        assert np.array_equal(solution.x, x) and solution.kkt.satisfied
        assert solution.revenue == pytest.approx(REVERSE_FLOORS[44], rel=1e-9)

    def test_exchange_grows_the_truncated_winner(self):
        # Draw 50 of generator 5: 39 cargoes, over budget.  The best support
        # of two cargoes does not price out, and the exchange grows it to
        # three, where the seeded multistart also ended.
        rng = np.random.default_rng(5)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        for _ in range(51):
            problem = draw_random_problem(rng, sizes=(10, 43), orders=orders, room=(0.3, 2.0))
        value, x, complete, _ = closed_form_optimum(problem)
        assert not complete and np.count_nonzero(x) == 2
        assert value == pytest.approx(448702.875180, rel=1e-9)
        solution = solve(problem)
        assert np.count_nonzero(solution.x) == 3 and solution.kkt.satisfied
        assert solution.revenue == pytest.approx(449277.143373, rel=1e-9)

    def test_large_reverse_stacks_leave_numpy_random_unloaded(self):
        # Importing numpy.random costs some 5 MB of resident memory, and no
        # solve here needs it, nor SciPy.  The child builds the same
        # problems from their inputs.
        inputs = [arguments for arguments, _ in pinned_stack_inputs().values()]
        for n in (21, 41, 60):
            problem = large_reverse_stack(n)
            inputs.append((
                problem.vessel, problem.environment, problem.policy, problem.cargoes,
                LoadingOrder.explicit(range(n)), False,
            ))
        code = (
            "import sys\n"
            "from shipload import *\n"
            f"for arguments in {inputs!r}:\n"
            "    solution = solve(assemble_problem(*arguments))\n"
            "    assert solution.kkt.satisfied and solution.starts_used == 1\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
            "assert not [name for name in sys.modules if name.partition('.')[0] == 'scipy'], "
            "'scipy was imported'\n"
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
        _, x, _, _ = closed_form_optimum(problem)
        deadweight, volume, _ = solver._Loading(problem, x).slacks
        assert x[problem.ballast_index] > 3000.0
        assert deadweight > 800.0 and abs(volume) <= 1e-9 * problem.volume_cap

    def test_zero_rates(self, carrier, market):
        zero = tuple(CargoType(c.label, c.density, 0.0) for c in market)
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), zero, LoadingOrder.reverse(), True
        )
        value, x, complete, _ = closed_form_optimum(problem)
        assert (value, complete) == (0.0, True) and not x.any()
        solution = solve(problem)
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
        """A complete closed form that no lattice point beats, returned in one start."""
        value, x, complete, _ = closed_form_optimum(problem)
        assert complete
        assert solver._Loading(problem, x).violation <= 1e-9
        levels = {1: 40, 2: 30, 3: 16, 4: 10, 5: 7}.get(problem.n, 5)
        lattice = grid_search(problem, LatticeSpec(problem.deadweight_cap / levels))[1]
        assert value >= lattice - 1e-9 * max(1.0, abs(lattice))
        solution = solve(problem)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.revenue == pytest.approx(value, rel=1e-9, abs=1e-9)

    @staticmethod
    def assert_enumerated(problem):
        """A complete enumeration, and a verified answer in one start that earns its revenue."""
        value, _, complete, _ = closed_form_optimum(problem)
        solution = solve(problem)
        assert complete
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied
        assert solution.revenue >= value - 1e-9 * abs(value)


def _draw(seed, index, sizes=(2, 13)):
    """Draw ``index`` (from 0) of ``draw_random_problem``, every order, generator ``seed``."""
    rng = np.random.default_rng(seed)
    orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
    for _ in range(index + 1):
        problem = draw_random_problem(rng, sizes=sizes, orders=orders)
    return problem


class TestClosedForm:
    """Every answer in closed form, verified with its own multipliers."""

    @pytest.mark.parametrize("order, mu", CASE_ROWS)
    def test_case_rows_need_no_local_solve(self, assemble_case, order, mu):
        problem = assemble_case(mu, order=order)
        solution = solve(problem)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied
        convex = order.kind == "normal"
        assert solution.status is (SolverStatus.OPTIMAL if convex else SolverStatus.LOCAL_ONLY)

    def test_enumerated_point_is_kept(self):
        # Three cargoes, light at the bottom.  One SLSQP iteration from the
        # enumerated point once reached a point of 134 197.36 that failed
        # the KKT check, and random starts then returned 91 369.92.
        problem = _draw(19, 82)
        assert problem.n == 3
        solution = solve(problem)
        assert solution.revenue >= 135321.396 * (1.0 - 1e-9)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied

    def test_enumerated_point_verifies_in_one_start(self):
        # Twelve cargoes; a local solve from the enumerated point once
        # failed the KKT check, and 18 random starts followed.
        problem = _draw(20, 294)
        assert problem.n == 12
        assert solve(problem).starts_used == 1

    def test_neighbouring_twins_are_enumerated(self, twin, assemble_case):
        solution = solve(twin)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        reference = solve(assemble_case(4.0, order=LoadingOrder.reverse()))
        assert solution.revenue == pytest.approx(reference.revenue, rel=1e-12)

    def test_stalled_exchange_hands_over_to_the_enumeration(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0)
        closed = solve(problem)
        support = np.flatnonzero(solver._lp_optimum(problem)[0][0]).tolist()
        assert solver._best_verified(problem, solver._exchange(problem, support))
        # One step: the vertex's support {type4} alone does not price out.
        monkeypatch.setattr(solver, "_EXCHANGE_EXTRA_STEPS", 1 - 2 * problem.n)
        stalled = solver._exchange(problem, support)
        assert len(stalled) == 1 and solver._best_verified(problem, stalled) is None
        calls = _count_enumerations(monkeypatch)
        solution = solve(problem)
        assert calls == [1]
        assert (solution.status, solution.starts_used) == (SolverStatus.OPTIMAL, 1)
        assert solution.revenue == pytest.approx(closed.revenue, rel=1e-9)

    def test_exchange_without_a_valid_point_hands_over(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0)
        monkeypatch.setattr(kkt_enumeration, "support_points", lambda units, support: [])
        support = np.flatnonzero(solver._lp_optimum(problem)[0][0]).tolist()
        assert solver._exchange(problem, support) == []
        solution = solve(problem)
        assert solution.status is SolverStatus.OPTIMAL and solution.kkt.satisfied

    def test_tied_face_answers_at_its_stable_vertex(self, monkeypatch):
        # Two copies of one cargo, apart in the stack, tie the relaxation at
        # two vertices; the picked one is unstable and the other is stable,
        # so it is a global optimum with lam_S = 0.
        problem, floor = pinned_stacks()["tied-face"]
        face, _, _ = solver._lp_optimum(problem)
        assert len(face) == 2
        assert solver._Loading(problem, face[0]).violation > 1e-9
        calls = _count_enumerations(monkeypatch)
        solution = solve(problem)
        assert calls == []
        assert np.array_equal(solution.x, face[1])
        assert solution.multiplier_stability == 0.0 and solution.kkt.satisfied
        assert solution.revenue == pytest.approx(floor, rel=1e-9)
        assert solution.revenue == pytest.approx(solve_lp(problem).revenue, rel=1e-12)

    def test_segment_of_the_face_is_searched(self, monkeypatch):
        # c1 and c0 earn the same per cubic metre, so the relaxation is tied
        # along the volume cap between loading either alone.  Both vertices
        # are unstable; the point of the segment where stability's left side
        # is least is stable, and so globally optimal: no enumeration runs.
        cargoes = (
            CargoType("c0", 0.6005926258873489, 7.841066300805846),
            CargoType("c1", 0.9909579215338178, 4.752256878948692),
            CargoType("c2", 0.9681759054378345, 1.9542210482916118),
        )
        problem = assemble_problem(
            Vessel(85.4017349970342, 36.63959363236414, 42063.260935480255,
                   36571.020818748395, 18019.851873806783, 8.777650199500108),
            Environment(1.0066886784148972), StabilityPolicy(8.345645072232651), cargoes,
            LoadingOrder.explicit([2, 1, 0]), False,
        )
        assert problem.classification.kind is Definiteness.INDEFINITE
        face, _, _ = solver._lp_optimum(problem)
        assert len(face) == 2
        for vertex in face:
            assert constraint_slack(problem, vertex) < 0.0
        calls = _count_enumerations(monkeypatch)
        solution = solve(problem)
        assert calls == []
        assert np.count_nonzero(solution.x) == 2 and solution.x[0] == 0.0
        assert constraint_slack(problem, solution.x) > 0.0
        assert solution.multiplier_stability == 0.0 and solution.kkt.satisfied
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.revenue == pytest.approx(solve_lp(problem).revenue, rel=1e-12)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.sampled_from([(1, 6), (2, 13), (6, 13)]),
        order=st.sampled_from(["normal", "reverse", "explicit"]),
        room=st.sampled_from([(0.3, 0.8), (0.5, 2.0)]),
    )
    def test_never_below_the_enumeration(self, seed, sizes, order, room):
        """Verified in one start, and never below the closed form's global candidate."""
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        problem = draw_random_problem(
            np.random.default_rng(seed), sizes=sizes, orders=(orders.get(order, order),), room=room
        )
        solution = solve(problem)
        assert (solution.starts_used, solution.best_start_index) == (1, 0)
        assert solution.kkt.satisfied
        value = closed_form_optimum(problem)[0]
        assert solution.revenue >= value - 1e-9 * max(1.0, abs(value))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.sampled_from([(1, 6), (2, 13), (6, 13)]),
        order=st.sampled_from(["normal", "reverse", "explicit"]),
    )
    def test_never_below_the_local_solve(self, seed, sizes, order):
        """No feasible point that SciPy's SLSQP reaches from a random start earns more.

        The answer is a global optimum on a convex instance, and on any
        other whose closed form is complete.
        """
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        rng = np.random.default_rng(seed)
        problem = draw_random_problem(rng, sizes=sizes, orders=(orders.get(order, order),))
        convex = problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE
        hypothesis.assume(convex or closed_form_optimum(problem)[2])
        solution = solve(problem)
        x = _slsqp_reference(problem, rng.dirichlet(np.full(problem.n, 0.4)) * rng.uniform())
        if solver._Loading(problem, x).violation <= solver.FEASIBILITY_TOLERANCE:
            reached = float(problem.objective @ x)
            assert reached <= solution.revenue + 1e-6 * max(1.0, abs(solution.revenue))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from(["normal", "reverse", "explicit"]),
    )
    def test_never_below_the_lattice_on_degenerate_inputs(self, seed, order):
        """Equal densities or a cargo at water density: verified, and no lattice point beats it."""
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        problem = draw_random_problem(
            np.random.default_rng(seed), sizes=(1, 6), orders=(orders.get(order, order),),
            degenerate=True,
        )
        solution = solve(problem)
        assert solution.kkt.satisfied
        levels = {1: 40, 2: 30, 3: 16, 4: 10, 5: 7}.get(problem.n, 5)
        lattice = grid_search(problem, LatticeSpec(problem.deadweight_cap / levels))[1]
        assert lattice <= solution.revenue + 1e-6 * max(1.0, abs(solution.revenue))


def _slsqp_reference(problem, z0):
    """One run of ``scipy.optimize.minimize(method="SLSQP")`` from loads ``z0`` times the cap.

    It works in z = x / C, with the objective and each constraint divided
    by the scale that the feasibility test uses, and returns the loads.
    """
    from scipy.optimize import minimize

    cap = problem.deadweight_cap
    scales = np.array([cap, problem.volume_cap, max(1.0, abs(problem.rhs))])
    rate = float(problem.objective.max()) or 1.0
    linear = np.vstack([np.ones(problem.n), problem.volume_coeffs])
    quad = problem.quad_matrix * problem.quad_scale * cap

    def slacks(z):
        x = z * cap
        rows = [cap - x.sum(), problem.volume_cap - problem.volume_coeffs @ x]
        rows.append(problem.rhs - x @ quad @ z - problem.linear_coeff * x.sum())
        return np.array(rows) / scales

    def jacobian(z):
        rows = np.vstack([-linear, -(2.0 * quad @ z + problem.linear_coeff)[None, :]])
        return rows * (cap / scales)[:, None]

    result = minimize(
        lambda z: -float(problem.objective @ z) / rate, z0,
        jac=lambda z: -problem.objective / rate, method="SLSQP",
        bounds=[(0.0, None)] * problem.n,
        constraints={"type": "ineq", "fun": slacks, "jac": jacobian},
        options={"maxiter": 500, "ftol": 1e-12},
    )
    return np.maximum(result.x, 0.0) * cap


def _count_enumerations(monkeypatch):
    """A list that grows by one entry per KKT enumeration."""
    calls = []
    enumerate_ = kkt_enumeration.binding_optimum
    monkeypatch.setattr(
        kkt_enumeration, "binding_optimum", lambda problem: calls.append(1) or enumerate_(problem)
    )
    return calls


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
        base = solve(problem)
        scaled = solve(thousandfold)
        assert scaled.status is base.status
        assert np.abs(scaled.x - base.x).max() <= 1e-7 * np.abs(base.x).max()
        assert scaled.revenue == pytest.approx(1e3 * base.revenue, rel=1e-9)


def _nnls_system(problem, point):
    """The binding flags, the active gradients and the empty cargoes of the multiplier fit."""
    *binding, at_zero = solver._active(problem, point)
    every = (np.ones(problem.n), problem.volume_coeffs, point.gradient)
    return binding, [g for g, on in zip(every, binding) if on], at_zero


def _full_multipliers(binding, lam, nu, at_zero):
    """(lam_C, lam_V, lam_S, nu) from a fit's coefficients on the active columns."""
    lam = iter(lam)
    full = np.zeros(at_zero.size)
    full[at_zero] = nu
    return (*(float(next(lam)) if on else 0.0 for on in binding), full)


class TestNnls:
    """The Lawson-Hanson NNLS of multiplier recovery, against ``scipy.optimize.nnls``."""

    def test_matches_scipy_nnls(self):
        rng = np.random.default_rng(83)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        counts = dict.fromkeys(("loadings", "nonzero", "dependent", "no_gradient"), 0)
        verdicts = set()
        for draw in range(240):
            drawn = draw_random_problem(
                rng, sizes=(1, 13), orders=orders, room=(0.3, 2.0), degenerate=draw % 3 == 0
            )
            for problem, x in self._loadings(drawn, rng):
                point = solver._Loading(problem, x)
                binding, gradients, at_zero = _nnls_system(problem, point)
                if not gradients and not at_zero.any():
                    continue
                p = problem.objective
                lam, nu = solver._nnls(gradients, p, at_zero)
                ref_lam, ref_nu, rnorm = scipy_nnls(gradients, p, at_zero)
                columns = np.column_stack([*gradients, -np.eye(problem.n)[:, at_zero]])
                coef, reference = np.array([*lam, *nu]), np.concatenate([ref_lam, ref_nu])
                scale = max(1.0, float(p.max()))
                residual = np.linalg.norm(columns @ coef - p)
                assert residual == pytest.approx(rnorm, rel=1e-10, abs=1e-10 * scale)
                # The minimum is unique where the columns are independent.
                dependent = np.linalg.matrix_rank(columns) < columns.shape[1]
                if not dependent:
                    assert np.abs(coef - reference).max() <= 1e-10 * scale, (draw, x)
                reports = [
                    solver._kkt_report(problem, point, *_full_multipliers(binding, *fit, at_zero))
                    for fit in ((lam, nu), (ref_lam, ref_nu))
                ]
                assert reports[0].satisfied == reports[1].satisfied, (draw, x)
                verdicts.add(reports[0].satisfied)
                counts["loadings"] += 1
                counts["nonzero"] += bool(reference.any())
                counts["dependent"] += bool(dependent)
                counts["no_gradient"] += not gradients
        assert counts["loadings"] >= 1500 and counts["nonzero"] >= 400, counts
        assert counts["dependent"] >= 100 and counts["no_gradient"] >= 100, counts
        assert verdicts == {True, False}

    @staticmethod
    def _loadings(problem, rng):
        """(problem, loads) pairs: answers, vertices, spreads, the empty vessel, one stacked cargo.

        The last pair loads one cargo, and every cargo of its density, to
        both caps of a copy of the problem whose hold those loads fill:
        the deadweight and volume gradients are then dependent on the
        loaded rows.
        """
        n, cap, v = problem.n, problem.deadweight_cap, problem.volume_coeffs
        answer = np.array(solve(problem).x)
        spread = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
        spread *= cap / max(spread.sum(), 1e-300)
        loads = [answer, np.array(solve_lp(problem).x), spread, 0.5 * spread, np.zeros(n)]
        loads.append(answer * (1.0 + 1e-9 * rng.standard_normal(n)))
        i = int(rng.integers(n))
        units = kkt_enumeration.scaled_units(problem)
        loads += [point[0] for point in support_loads(units, [i])]
        # A density that two cargoes share, where there is one.
        values, counts = np.unique(v, return_counts=True)
        i = int(np.flatnonzero(v == values[counts.argmax()])[0])
        vessel = dataclasses.replace(problem.vessel, volume_capacity=cap * v[i])
        filled = assemble_problem(
            vessel, problem.environment, problem.policy, problem.cargoes,
            LoadingOrder.explicit(range(n)), False,
        )
        twins = (v == v[i]).astype(float)
        return [(problem, x) for x in loads] + [(filled, twins * cap / twins.sum())]

    def test_raises_when_nnls_runs_out_of_iterations(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0)
        # The cheapest cargo alone at the deadweight cap: the least-squares
        # fit prices a dearer cargo below its rate, so NNLS must run.
        x = np.zeros(problem.n)
        x[np.argmin(np.where(problem.objective > 0.0, problem.objective, np.inf))] = (
            problem.deadweight_cap
        )
        assert not kkt_verify(problem, x).satisfied
        monkeypatch.setattr(solver, "_NNLS_STEPS_PER_COLUMN", 0)
        with pytest.raises(RuntimeError, match="Maximum number of iterations"):
            kkt_verify(problem, x)


class TestStableMassRoom:
    """``stable_mass_room``: the largest mass T <= room with quad T^2 + lin T + const <= 0."""

    def test_room_root_or_none(self):
        # Per case (quad, lin, const) on [0, 1], and T before the widening,
        # or None where no T is left.
        cases = [
            ((1.0, 0.0, -0.25), 0.5),  # convex, holds up to 0.5
            ((1.0, 0.0, -4.0), 1.0),  # convex, holds at the room
            ((-1.0, 2.0, -0.5), 1.0 - 0.5**0.5),  # concave, holds below its first root
            ((-1.0, 0.0, 0.25), 1.0),  # concave, holds from 0.5 on
            ((0.0, 1.0, -0.5), 0.5),  # linear, rising
            ((0.0, -1.0, 2.0), None),  # linear, falling, positive on [0, 1]
            ((1.0, 0.0, 0.5), None),  # convex, no real root
            ((1.0, -4.0, 3.5), None),  # convex, both roots above the room
        ]
        quad, lin, const = (np.array(column) for column in zip(*(case for case, _ in cases)))
        room, lost = solver.stable_mass_room(quad, lin, const, 1.0, 1.0)
        for (case, expected), t, none in zip(cases, room, lost):
            assert none == (expected is None), case
            if expected is not None:
                widening = solver.MARGIN * (expected + 1.0)
                assert expected <= t <= min(expected + widening * (1.0 + 1e-9), 1.0), case

    def test_the_lattice_bound_and_the_enumeration_call_it(self, monkeypatch):
        from shipload import oracle

        calls = {"oracle": 0, "enumeration": 0}

        def counted(caller):
            def room(*args):
                calls[caller] += 1
                return solver.stable_mass_room(*args)

            return room

        monkeypatch.setattr(oracle, "stable_mass_room", counted("oracle"))
        monkeypatch.setattr(kkt_enumeration, "stable_mass_room", counted("enumeration"))
        grid_search(large_reverse_stack(3), LatticeSpec(2000.0))
        # 21 + 210 + 1330 supports: more than one batch, so they are bounded.
        kkt_enumeration.binding_optimum(large_reverse_stack(21))
        assert calls["oracle"] > 0 and calls["enumeration"] == 1, calls
