"""Acceptance gate: the ten published checks for the case-study artifact.

Each test class pins one acceptance criterion with explicit tolerances.
The expensive solves and lattice enumerations are shared via module-scoped
fixtures so the whole gate stays fast enough to run on every change.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LatticeSpec,
    LoadingOrder,
    SolverStatus,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    certify,
    classify_constraint_matrix,
    congruence_diagonal,
    constraint_slack,
    eigen_sign_check,
    grid_search,
    keel_to_metacenter,
    kkt_verify,
    metacentric_height,
    mu_sensitivity,
    solve,
    solve_lp,
)

from conftest import draw_nonneg_loading, draw_random_problem, local_trap

VESSEL = Vessel(
    length=200.0,
    beam=25.0,
    deadweight=45000.0,
    volume_capacity=120000.0,
    light_mass=15000.0,
    light_kg=2.0,
)
MARKET = (
    CargoType("type1", 0.80, 4.5),
    CargoType("type2", 0.60, 5.0),
    CargoType("type3", 0.50, 5.1),
    CargoType("type4", 0.45, 5.5),
)


def build(mu, order, include_ballast=True):
    return assemble_problem(
        VESSEL, Environment(1.0), StabilityPolicy(mu), MARKET, order, include_ballast
    )


@pytest.fixture(scope="module")
def cases():
    normal, reverse = LoadingOrder.normal(), LoadingOrder.reverse()
    problem1 = build(4.0, normal)
    started = time.perf_counter()
    case1 = solve(problem1)
    case1_seconds = time.perf_counter() - started

    problem2 = build(6.0, normal)
    problem1a = build(4.0, reverse)
    problem2a = build(6.0, reverse)
    problem1a_nb = build(4.0, reverse, include_ballast=False)
    problem2a_nb = build(6.0, reverse, include_ballast=False)

    return SimpleNamespace(
        problem1=problem1,
        problem2=problem2,
        problem1a=problem1a,
        problem2a=problem2a,
        problem1a_nb=problem1a_nb,
        problem2a_nb=problem2a_nb,
        case1=case1,
        case1_seconds=case1_seconds,
        case2=solve(problem2),
        case1a=solve(problem1a),
        case2a=solve(problem2a),
        case1a_nb=solve(problem1a_nb),
        case2a_nb=solve(problem2a_nb),
        lattice1a=grid_search(problem1a_nb, LatticeSpec(250.0)),
        lattice2a=grid_search(problem2a_nb, LatticeSpec(250.0)),
    )


class TestCriterion1NormalMu4:
    def test_revenue(self, cases):
        assert cases.case1.revenue == pytest.approx(234500.0, rel=5e-3)

    def test_total_load(self, cases):
        assert cases.case1.x.sum() == pytest.approx(45000.0, rel=2e-3)

    def test_volume_used(self, cases):
        volume = float(cases.problem1.volume_coeffs @ cases.case1.x)
        assert volume == pytest.approx(86700.0, rel=1e-2)

    def test_binding_pattern(self, cases):
        x = np.asarray(cases.case1.x)
        deadweight_slack = 45000.0 - x.sum()
        volume_slack = 120000.0 - float(cases.problem1.volume_coeffs @ x)
        stability_slack = constraint_slack(cases.problem1, x)
        assert abs(deadweight_slack) <= 1e-4 * 45000.0
        assert abs(stability_slack) <= 1e-4 * abs(cases.problem1.rhs)
        assert volume_slack >= 0.01 * 120000.0

    def test_multipliers(self, cases):
        assert cases.case1.multiplier_stability == pytest.approx(0.164, rel=0.10)
        assert cases.case1.multiplier_deadweight == pytest.approx(3.968, rel=0.10)

    def test_runtime_under_five_seconds(self, cases):
        assert cases.case1_seconds < 5.0


class TestCriterion2NormalMu6:
    def test_revenue(self, cases):
        assert cases.case2.revenue == pytest.approx(185500.0, rel=5e-3)

    def test_deadweight_multiplier_zero_and_slack(self, cases):
        assert abs(cases.case2.multiplier_deadweight) <= 1e-6
        assert cases.case2.x.sum() < 45000.0 * 0.99

    def test_total_load(self, cases):
        assert cases.case2.x.sum() == pytest.approx(39900.0, rel=1e-2)

    def test_stability_multiplier(self, cases):
        assert cases.case2.multiplier_stability == pytest.approx(0.901, rel=0.10)


class TestCriterion3ReverseRows:
    def test_revenues(self, cases):
        assert cases.case1a.revenue == pytest.approx(226300.0, rel=5e-3)
        assert cases.case2a.revenue == pytest.approx(182600.0, rel=5e-3)

    def test_multistart_width(self, cases):
        # The enumerated KKT optimum is start 0 and verifies at once.
        for solution in (cases.case1a, cases.case2a):
            assert (solution.starts_used, solution.best_start_index) == (1, 0)
        # A cargo of type4's density and a lower rate is merged into type4,
        # and the enumeration still settles the row with one start.
        twin = assemble_problem(
            VESSEL, Environment(1.0), StabilityPolicy(4.0),
            MARKET + (CargoType("type5", 0.45, 5.4),), LoadingOrder.reverse(),
        )
        merged = solve(twin)
        assert (merged.starts_used, merged.best_start_index) == (1, 0)
        assert merged.revenue == pytest.approx(cases.case1a.revenue, rel=1e-9)
        # An exact copy of type4 ties the relaxation at two vertices that
        # hold the same mass of that density, so the enumeration settles
        # this row with one start too.
        copy = assemble_problem(
            VESSEL, Environment(1.0), StabilityPolicy(4.0),
            MARKET + (CargoType("type5", 0.45, 5.5),), LoadingOrder.reverse(),
        )
        widened = solve(copy)
        assert (widened.starts_used, widened.best_start_index) == (1, 0)
        assert widened.revenue == pytest.approx(cases.case1a.revenue, rel=1e-9)

    def test_ballast_free_equivalence(self, cases):
        # Ballast is never loaded at these optima, so the 4-type assembly
        # reaches the same revenue and is small enough to enumerate.
        assert cases.case1a_nb.revenue == pytest.approx(cases.case1a.revenue, rel=1e-6)
        assert cases.case2a_nb.revenue == pytest.approx(cases.case2a.revenue, rel=1e-6)

    def test_certified_within_lipschitz_gap(self, cases):
        gap = 5.5 * 4 * 250.0
        for solution, lattice in (
            (cases.case1a_nb, cases.lattice1a),
            (cases.case2a_nb, cases.lattice2a),
        ):
            _, lattice_revenue, points = lattice
            assert points > 0
            assert lattice_revenue <= solution.revenue + 1e-6 * solution.revenue
            assert solution.revenue - lattice_revenue <= gap

    def test_row_2a_uses_only_the_densest_type(self, cases):
        x = np.asarray(cases.case2a.x)
        nonzero = np.flatnonzero(x > 1.0)
        assert len(nonzero) == 1
        assert cases.problem2a.densities[nonzero[0]] == 0.8
        assert cases.problem2a.labels[nonzero[0]] == "type1"


class TestCriterion4MetacenterColumn:
    TOTALS = (45000.0, 39900.0, 45000.0, 40600.0)
    DERIVED = (10.3403, 10.2335, 10.3403, 10.2438)
    PRINTED = (10.340, 10.234, 10.340, 10.243)

    def test_km_formula_to_four_decimals(self):
        for total, expected in zip(self.TOTALS, self.DERIVED):
            draft_value = (total + 15000.0) / 5000.0
            km = keel_to_metacenter(VESSEL, draft_value)
            assert abs(km - expected) <= 5.1e-5

    def test_km_against_printed_column(self):
        for total, printed in zip(self.TOTALS, self.PRINTED):
            draft_value = (total + 15000.0) / 5000.0
            km = keel_to_metacenter(VESSEL, draft_value)
            assert abs(km - printed) <= 1e-3


class TestCriterion5Sensitivity:
    def test_prediction_against_resolve(self, cases):
        per_meter = mu_sensitivity(cases.problem1, cases.case1)
        predicted = per_meter * 0.1
        perturbed = solve(build(4.1, LoadingOrder.normal()))
        actual = cases.case1.revenue - perturbed.revenue
        assert actual == pytest.approx(predicted, rel=5e-2)
        assert actual == pytest.approx(1001.0, rel=2e-2)
        assert predicted == pytest.approx(984.0, rel=1e-2)


class TestCriterion6EquivalenceBridge:
    @pytest.mark.filterwarnings("ignore:draft")
    def test_thousand_random_loadings(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(100):
            problem = draw_random_problem(rng)
            mu = problem.policy.min_metacentric_height
            for _ in range(10):
                x = draw_nonneg_loading(problem, rng)
                slack = constraint_slack(problem, x)
                gm = metacentric_height(problem, x)
                bridge = (gm - mu) * (x.sum() + problem.vessel.light_mass)
                denom = max(1.0, abs(slack), abs(bridge))
                assert abs(slack - bridge) <= 1e-9 * denom
                checked += 1
        assert checked == 1000


class TestCriterion7CongruenceLemma:
    def test_thousand_random_vectors(self):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(1, 13))
            m = rng.uniform(-10.0, 10.0, size=n)
            if np.any(np.abs(np.diff(m, prepend=0.0)) < 1e-3):
                continue  # keep the exact inertia clear of the zero tolerance
            result = congruence_diagonal(m)
            idx = np.arange(n)
            q = m[np.minimum.outer(idx, idx)]
            b = np.tril(np.ones((n, n)))
            recon = b @ np.diag(result.diagonal) @ b.T
            assert np.max(np.abs(q - recon)) <= 1e-12
            signs = (
                int(np.sum(result.diagonal < 0)),
                int(np.sum(result.diagonal == 0)),
                int(np.sum(result.diagonal > 0)),
            )
            assert eigen_sign_check(q) == signs
            checked += 1


class TestCriterion8Proposition:
    def test_case1_any_inversion_is_indefinite(self):
        rng = np.random.default_rng(107)
        for _ in range(334):
            rho = float(rng.uniform(0.8, 1.2))
            n = int(rng.integers(2, 7))
            densities = np.sort(rng.uniform(0.2 * rho, 0.98 * rho, size=n))[::-1]
            while np.min(-np.diff(densities)) < 1e-3:
                densities = np.sort(rng.uniform(0.2 * rho, 0.98 * rho, size=n))[::-1]
            k = int(rng.integers(0, n - 1))
            densities[k], densities[k + 1] = densities[k + 1], densities[k]
            result = classify_constraint_matrix(densities, rho)
            assert result.kind is Definiteness.INDEFINITE

    def test_case2_decreasing_light_densities_are_psd(self):
        rng = np.random.default_rng(109)
        for _ in range(333):
            rho = float(rng.uniform(0.8, 1.2))
            n = int(rng.integers(1, 7))
            densities = np.sort(rng.uniform(0.2 * rho, rho, size=n))[::-1]
            result = classify_constraint_matrix(densities, rho)
            assert result.kind is Definiteness.POSITIVE_SEMIDEFINITE

    def test_case3_increasing_heavy_densities_are_nsd(self):
        rng = np.random.default_rng(113)
        for _ in range(333):
            rho = float(rng.uniform(0.8, 1.2))
            n = int(rng.integers(1, 7))
            densities = np.sort(rng.uniform(1.0001 * rho, 3.0 * rho, size=n))
            result = classify_constraint_matrix(densities, rho)
            assert result.kind is Definiteness.NEGATIVE_SEMIDEFINITE


class TestCriterion9LpBaseline:
    def lp_vertices(self, problem):
        n = problem.n
        caps = (
            (np.ones(n), problem.deadweight_cap),
            (problem.volume_coeffs, problem.volume_cap),
        )
        vertices = [np.zeros(n)]
        for i in range(n):
            for row, cap in caps:
                x = np.zeros(n)
                x[i] = cap / row[i]
                vertices.append(x)
        for i in range(n):
            for j in range(i + 1, n):
                matrix = np.array(
                    [[1.0, 1.0], [problem.volume_coeffs[i], problem.volume_coeffs[j]]]
                )
                if abs(np.linalg.det(matrix)) < 1e-12:
                    continue
                pair = np.linalg.solve(
                    matrix, np.array([problem.deadweight_cap, problem.volume_cap])
                )
                if pair.min() >= 0.0:
                    x = np.zeros(n)
                    x[i], x[j] = pair
                    vertices.append(x)
        feasible = [
            v
            for v in vertices
            if v.sum() <= problem.deadweight_cap * (1 + 1e-12)
            and problem.volume_coeffs @ v <= problem.volume_cap * (1 + 1e-12)
        ]
        return feasible

    def test_lp_matches_vertex_enumeration(self):
        problem = build(4.0, LoadingOrder.normal())
        solution = solve_lp(problem)
        assert solution.revenue == pytest.approx(247500.0, rel=1e-9)
        nonzero = np.flatnonzero(solution.x > 1e-6)
        assert len(nonzero) == 1
        assert problem.labels[nonzero[0]] == "type4"
        best_vertex = max(
            float(problem.objective @ v) for v in self.lp_vertices(problem)
        )
        assert solution.revenue == pytest.approx(best_vertex, rel=1e-9)


class TestCriterion10KktCertification:
    def test_all_case_solutions_pass_kkt(self, cases):
        pairs = (
            (cases.problem1, cases.case1),
            (cases.problem2, cases.case2),
            (cases.problem1a, cases.case1a),
            (cases.problem2a, cases.case2a),
        )
        for problem, solution in pairs:
            assert solution.status in (SolverStatus.OPTIMAL, SolverStatus.LOCAL_ONLY)
            assert kkt_verify(problem, solution).satisfied

    def test_adversarial_single_start_is_rejected_by_the_oracle(self, cases):
        trapped = local_trap(cases.problem1a_nb)
        assert trapped.kkt.satisfied
        assert trapped.revenue == pytest.approx(197165.94, rel=1e-6)
        assert certify(cases.problem1a_nb, trapped, LatticeSpec(250.0)) is False
        _, lattice_revenue, _ = cases.lattice1a
        assert lattice_revenue > trapped.revenue + 1000.0
