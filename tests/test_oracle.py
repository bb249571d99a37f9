"""Lattice enumeration and certification of solver results."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import draw_random_problem

from shipload import (
    CargoType,
    Environment,
    LatticeSpec,
    LoadingOrder,
    SolverOptions,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    certify,
    classify_constraint_matrix,
    constraint_slack,
    grid_search,
    solve,
    solve_lp,
)
from shipload import oracle
from shipload.oracle import certifies
from shipload.solver import _slacks, _violation


class TestLatticeSpec:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            LatticeSpec(0.0)

    def test_max_points_must_be_positive(self):
        with pytest.raises(ValueError, match="max_points"):
            LatticeSpec(100.0, max_points=0)


def brute_force(problem, step, levels):
    """Lattice best by scoring every point of {0..levels}^n in turn.

    Each point is scored with the expressions ``grid_search`` evaluates, in
    the same floating-point order: running sums over the coordinates before
    the last two, then one expression for the last pair (u, v), where n = 1
    has no u.  A point is covered when every prefix passes the mass,
    volume and, when it is sound, stability prunes and u + v fits the
    remaining deadweight.  Returns the first best point in lexicographic
    order, its revenue, the number of covered points and the level vectors
    of all feasible points that tie on the best revenue.
    """
    n = problem.n
    pad = max(0, 2 - n)
    p = [0.0] * pad + problem.objective.tolist()
    vol = [0.0] * pad + problem.volume_coeffs.tolist()
    a = np.pad(problem.quad_matrix, ((pad, 0), (pad, 0))).tolist()
    m = len(p)
    cap, vol_cap = problem.deadweight_cap, problem.volume_cap
    s, b, r = problem.quad_scale, problem.linear_coeff, problem.rhs
    prunable = problem.quad_matrix.min() >= 0.0 and b >= 0.0
    best_x, best_revenue, covered, ties = None, -math.inf, 0, []
    for point in itertools.product(range(levels + 1), repeat=n):
        x = [0.0] * (m - n) + [step * k for k in point]
        mass = volume = quad = gain = 0.0
        y = [0.0] * m
        pruned = False
        for j in range(m - 2):
            t = x[j]
            mass = mass + t
            volume = volume + vol[j] * t
            quad = quad + 2.0 * t * y[j] + a[j][j] * t * t
            gain = gain + p[j] * t
            y = [y[i] + t * a[i][j] for i in range(m)]
            if mass > cap or volume > vol_cap or (prunable and s * quad + b * mass > r):
                pruned = True
                break
        if pruned:
            continue
        u, v = x[-2], x[-1]
        if not u + v <= cap - mass:
            continue
        covered += 1
        full_quad = (
            quad
            + 2.0 * y[-2] * u
            + 2.0 * y[-1] * v
            + a[-2][-2] * u * u
            + 2.0 * a[-2][-1] * u * v
            + a[-1][-1] * v * v
        )
        feasible = (
            volume + vol[-2] * u + vol[-1] * v <= vol_cap
            and s * full_quad + b * (mass + u + v) <= r
        )
        value = gain + p[-2] * u + p[-1] * v
        if feasible and value > best_revenue:
            best_x, best_revenue, ties = np.array(x[m - n :]), value, []
        if feasible and value == best_revenue:
            ties.append(point)
    return best_x, best_revenue, covered, ties


def _tiny_lattices():
    """Random scenarios with n <= 4 on lattices of 3-9 levels, steps off the grid."""
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 48:
        problem = draw_random_problem(rng)
        if problem.n > 4:
            continue
        levels = int(rng.integers(3, 10))
        step = problem.deadweight_cap / (levels + float(rng.uniform(0.0, 0.99)))
        cases.append((problem, step, levels))
    return cases


def assert_bounded_matches(problem, step, levels):
    """``grid_search(above=t)`` against brute force at thresholds around the best.

    Each bounded search returns the brute-force first best point and its
    revenue when that earns more than t, and (None, -inf) otherwise; at
    t = -inf it also covers exactly the brute-force points.
    """
    want_x, want_revenue, want_points, _ = brute_force(problem, step, levels)
    below = np.nextafter(want_revenue, -math.inf)
    for above in (-math.inf, below, want_revenue, 0.5 * want_revenue):
        best_x, best_revenue, points = grid_search(problem, LatticeSpec(step), above=above)
        if want_revenue > above:
            assert best_revenue == want_revenue
            assert np.array_equal(best_x, want_x)
        else:
            assert (best_x, best_revenue) == (None, -math.inf)
        if above == -math.inf:
            assert points == want_points


def zero_rate_problem():
    """Water-density ballast on top and a zero-rate cargo at the bottom."""
    cargoes = (
        CargoType("light", 0.5, 4.0),
        CargoType("free", 0.7, 0.0),
        CargoType("water", 1.0, 0.0),
    )
    return assemble_problem(
        Vessel(60.0, 12.0, 3000.0, 2150.0, 1500.0, 2.5),
        Environment(1.0),
        StabilityPolicy(0.5),
        cargoes,
        LoadingOrder.explicit([1, 0, 2]),
        False,
    )


TINY_LATTICES = _tiny_lattices()


class TestDifferential:
    @pytest.mark.parametrize("row_budget", [oracle._ROW_BUDGET, 5])
    @pytest.mark.parametrize("index", range(len(TINY_LATTICES)))
    def test_matches_brute_force(self, index, row_budget, monkeypatch):
        # The small row budget splits these lattices into many chunks.
        monkeypatch.setattr(oracle, "_ROW_BUDGET", row_budget)
        problem, step, levels = TINY_LATTICES[index]
        best_x, best_revenue, points = grid_search(problem, LatticeSpec(step))
        want_x, want_revenue, want_points, _ = brute_force(problem, step, levels)
        assert points == want_points
        assert best_revenue == want_revenue
        if want_x is None:
            assert best_x is None
        else:
            assert np.array_equal(best_x, want_x)

    @pytest.mark.parametrize("row_budget", [oracle._ROW_BUDGET, 5])
    @pytest.mark.parametrize("index", range(len(TINY_LATTICES)))
    def test_bounded_search_matches_brute_force(self, index, row_budget, monkeypatch):
        monkeypatch.setattr(oracle, "_ROW_BUDGET", row_budget)
        problem, step, levels = TINY_LATTICES[index]
        assert_bounded_matches(problem, step, levels)

    def test_bounded_single_cargo(self):
        vessel = Vessel(100.0, 20.0, 1000.0, 1e9, 5000.0, 2.0)
        problem = assemble_problem(
            vessel,
            Environment(),
            StabilityPolicy(0.0),
            (CargoType("one", 0.5, 1.0),),
            LoadingOrder.normal(),
            False,
        )
        assert_bounded_matches(problem, 100.0, 10)

    def test_bounded_zero_rates(self):
        # The three-way tie of test_zero_rates_keep_the_first_best_point.
        problem = zero_rate_problem()
        assert_bounded_matches(problem, 100.0, 30)
        best_x, best_revenue, _ = grid_search(problem, LatticeSpec(100.0), above=3999.0)
        assert np.array_equal(best_x, [0.0, 1000.0, 0.0]) and best_revenue == 4000.0

    def test_bounded_ballast_at_water_density(self, carrier, market):
        # An explicit order puts the ballast at the bottom: D_1 = 0.
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), market[:3],
            LoadingOrder.explicit([2, 0, 1]), True,
        )
        assert problem.labels[0] == "ballast" and problem.quad_matrix[0, 0] == 0.0
        assert_bounded_matches(problem, 45000.0 / 8.5, 8)

    def test_bounded_equal_densities(self, carrier):
        cargoes = (
            CargoType("a", 0.6, 4.0),
            CargoType("b", 0.6, 5.0),
            CargoType("c", 0.9, 4.5),
        )
        for order in (LoadingOrder.normal(), LoadingOrder.reverse()):
            problem = assemble_problem(
                carrier, Environment(), StabilityPolicy(2.0), cargoes, order, False
            )
            assert_bounded_matches(problem, 45000.0 / 12.5, 12)

    def test_above_must_be_a_number(self, assemble_case):
        with pytest.raises(ValueError, match="NaN"):
            grid_search(assemble_case(4.0), LatticeSpec(5000.0), above=math.nan)

    def test_cases_cover_the_hard_classes(self):
        kinds, sizes, dense, ballast = set(), set(), 0, 0
        for problem, _, _ in TINY_LATTICES:
            rho = problem.environment.water_density
            kinds.add(classify_constraint_matrix(problem.densities, rho).kind.value)
            sizes.add(problem.n)
            dense += bool((problem.densities > rho).any())
            ballast += problem.ballast_index is not None
        assert kinds == {"PositiveSemidefinite", "NegativeSemidefinite", "Indefinite"}
        assert sizes == {1, 2, 3, 4}
        assert dense >= 5 and ballast >= 5

    def test_no_feasible_point(self, carrier):
        # A cargo denser than water keeps the stability prune off, so every
        # mass-feasible point is covered, and the margin rejects them all.
        market = (CargoType("dense", 2.0, 4.5), CargoType("light", 0.6, 5.0))
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(20.0), market, LoadingOrder.reverse(), True
        )
        covered = brute_force(problem, 5000.0, 9)[2]
        assert covered > 0
        assert grid_search(problem, LatticeSpec(5000.0)) == (None, -math.inf, covered)

    @pytest.mark.parametrize("row_budget", [oracle._ROW_BUDGET, 1, 5])
    def test_zero_rates_keep_the_first_best_point(self, row_budget, monkeypatch):
        # Water-density ballast on top and a zero-rate cargo at the bottom.
        # The hold volume stops the paying cargo at 1000 t and leaves room
        # for one rung of either zero-rate cargo, so three points tie on
        # revenue, two of them under another first coordinate.  The search
        # returns the first in lexicographic order, also when every prefix
        # is searched as a chunk of its own.
        monkeypatch.setattr(oracle, "_ROW_BUDGET", row_budget)
        problem = zero_rate_problem()
        assert problem.labels == ("free", "light", "water")
        best_x, best_revenue, points = grid_search(problem, LatticeSpec(100.0))
        want_x, want_revenue, want_points, ties = brute_force(problem, 100.0, 30)
        assert ties == [(0, 10, 0), (0, 10, 1), (1, 10, 0)]
        assert np.array_equal(best_x, [0.0, 1000.0, 0.0])
        assert np.array_equal(best_x, want_x)
        assert (best_revenue, points) == (want_revenue, want_points) == (4000.0, 4776)


def test_settle_finds_the_last_fitting_level_of_the_run():
    fits_below = np.array([3, 3, 3, 3, 0, 5])
    guesses = np.array([0, 3, 7, -1, 2, 9])

    def fits(rows, k):
        return k <= fits_below[rows]

    assert oracle._settle(guesses, 6, fits).tolist() == [3, 3, 3, 3, 0, 5]
    # A run of fitting levels with a gap below the top: a guess in the gap
    # drops to the run below it, a guess inside the upper run climbs to the top.
    gap = np.array([True, True, False, False, True, True, True])
    levels = oracle._settle(np.array([2, 5, -1]), 6, lambda rows, k: gap[k])
    assert levels.tolist() == [1, 6, 1]


class TestGridSearch:
    def test_single_type_hits_the_cap(self):
        vessel = Vessel(100.0, 20.0, 1000.0, 1e9, 5000.0, 2.0)
        problem = assemble_problem(
            vessel,
            Environment(),
            StabilityPolicy(0.0),
            (CargoType("one", 0.5, 1.0),),
            LoadingOrder.normal(),
            False,
        )
        best_x, best_revenue, points = grid_search(problem, LatticeSpec(100.0))
        assert np.array_equal(best_x, [1000.0])
        assert best_revenue == 1000.0
        assert points == 11

    def test_tight_margin_leaves_only_origin(self, assemble_case):
        # rhs is still positive, but the first lattice rung already violates
        # the margin, so the origin is the only feasible lattice point.
        problem = assemble_case(16.8)
        assert problem.rhs > 0
        best_x, best_revenue, points = grid_search(problem, LatticeSpec(500.0))
        assert np.array_equal(best_x, np.zeros(5))
        assert best_revenue == 0.0

    def test_refuses_oversized_lattice(self, assemble_case):
        problem = assemble_case(4.0)
        with pytest.raises(ValueError, match="lattice holds about"):
            grid_search(problem, LatticeSpec(50.0))

    def test_respects_custom_max_points(self, assemble_case):
        problem = assemble_case(4.0)
        with pytest.raises(ValueError, match="max_points"):
            grid_search(problem, LatticeSpec(500.0, max_points=1000))

    def test_normal_mu4_within_lipschitz_gap(self, assemble_case):
        problem = assemble_case(4.0)
        solver = solve(problem, SolverOptions())
        best_x, best_revenue, _ = grid_search(problem, LatticeSpec(500.0))
        assert best_revenue <= solver.revenue + 1e-6 * solver.revenue
        assert best_revenue >= 234450.0 - 5.5 * 4 * 500.0

    def test_best_point_is_exactly_feasible(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        best_x, _, _ = grid_search(problem, LatticeSpec(500.0))
        assert best_x.min() >= 0.0
        assert best_x.sum() <= problem.deadweight_cap
        assert problem.volume_coeffs @ best_x <= problem.volume_cap
        assert constraint_slack(problem, best_x) >= 0.0

    def test_refinement_is_monotone(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        revenues = [
            grid_search(problem, LatticeSpec(step))[1] for step in (1000.0, 500.0, 250.0)
        ]
        assert revenues[0] <= revenues[1] <= revenues[2]

    def test_solver_dominates_lattice_on_all_cases(self, assemble_case):
        for mu in (4.0, 6.0):
            for order in (LoadingOrder.normal(), LoadingOrder.reverse()):
                problem = assemble_case(mu, order=order, include_ballast=False)
                solver = solve(problem, SolverOptions())
                _, lattice_revenue, _ = grid_search(problem, LatticeSpec(500.0))
                assert solver.revenue >= lattice_revenue - 1e-6 * max(1.0, lattice_revenue)

    def test_memory_stays_within_the_row_budget(self, assemble_case):
        # 3e6 lattice points; building all 1.3e5 (prefix, u) rows at once
        # would allocate about 25 MB of temporaries.
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        tracemalloc.start()
        try:
            _, _, points = grid_search(problem, LatticeSpec(500.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points == 2973992
        assert peak < 8 * 2**20

    def test_deterministic(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        a = grid_search(problem, LatticeSpec(500.0))
        b = grid_search(problem, LatticeSpec(500.0))
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]


class TestCertify:
    def test_reverse_mu4_solution_certified(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        solution = solve(problem, SolverOptions())
        assert certify(problem, solution, LatticeSpec(500.0)) is True

    def test_oracle_best_certifies_itself(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        best_x, _, _ = grid_search(problem, LatticeSpec(500.0))
        assert certify(problem, best_x, LatticeSpec(500.0)) is True

    def test_local_trap_rejected(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        trapped = solve(problem, SolverOptions(multistart_count=1, rng_seed=17))
        assert trapped.kkt.satisfied
        assert certify(problem, trapped, LatticeSpec(250.0)) is False

    def test_verdict_matches_the_exhaustive_search(self):
        # certify asks a bounded question; its verdict must be the rule's
        # verdict on the exhaustive lattice best, for optimal plans and for
        # plans the lattice beats.
        rng = np.random.default_rng(99)
        verdicts = set()
        for _ in range(200):
            problem = draw_random_problem(rng)
            levels = {1: 40, 2: 30, 3: 16, 4: 10, 5: 7}.get(problem.n, 5)
            spec = LatticeSpec(problem.deadweight_cap / levels)
            best_revenue = grid_search(problem, spec)[1]
            solution = solve(problem, SolverOptions())
            worse = 0.9 * solution.x
            assert _violation(problem, worse, _slacks(problem, worse)) <= 1e-6
            for plan, value in ((solution, solution.revenue), (worse, problem.objective @ worse)):
                verdict = certify(problem, plan, spec)
                assert verdict == certifies(value, best_revenue)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_bounded_search_covers_a_sliver_of_the_lattice(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        solution = solve(problem, SolverOptions())
        spec = LatticeSpec(500.0)
        full = grid_search(problem, spec)[2]
        assert full == 2973992
        assert grid_search(problem, spec, above=solution.revenue)[2] <= 0.01 * full

    def test_infeasible_plans_are_not_certified(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        vertex = solve_lp(problem).x
        assert constraint_slack(problem, vertex) < 0.0
        assert certify(problem, vertex, LatticeSpec(500.0)) is False
        overloaded = np.full(problem.n, 1e6)
        assert certify(problem, overloaded, LatticeSpec(500.0)) is False
        # The rule on its own still certifies against an empty lattice.
        assert certifies(0.0, -math.inf) is True
