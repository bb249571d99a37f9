"""Lattice enumeration and certification of solver results."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import closed_form_optimum, draw_nonneg_loading, draw_random_problem, local_trap

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LatticeSpec,
    LoadingOrder,
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
from shipload.cli import load_bundled_scenario
from shipload.oracle import certifies
from shipload.solver import _Loading


class TestLatticeSpec:
    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            LatticeSpec(0.0)

    def test_max_points_must_be_positive(self):
        with pytest.raises(ValueError, match="max_points"):
            LatticeSpec(100.0, max_points=0)

    @pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan])
    def test_step_must_be_finite(self, step):
        # An infinite step made every lattice value inf * 0 = NaN, so every
        # lattice was empty and certified any plan.
        with pytest.raises(ValueError, match="step"):
            LatticeSpec(step)

    def test_max_points_must_be_finite(self):
        with pytest.raises(ValueError, match="max_points"):
            LatticeSpec(100.0, max_points=math.inf)


def brute_force(problem, step, levels):
    """Lattice best by scoring every point of {0..levels}^n in turn.

    Each point is scored with the expressions ``grid_search`` evaluates, in
    the same floating-point order: running sums over the coordinates before
    the last two, then one expression for the last pair (u, v), where n = 1
    has no u.  A point is covered when every prefix passes the mass and
    volume prunes and u + v fits the remaining deadweight, which is what
    the search covers when its revenue bound keeps every row.  Returns the
    first best point in lexicographic order, its revenue, the number of
    covered points and the level vectors of all feasible points that tie
    on the best revenue.
    """
    n = problem.n
    pad = max(0, 2 - n)
    p = [0.0] * pad + problem.objective.tolist()
    vol = [0.0] * pad + problem.volume_coeffs.tolist()
    a = np.pad(problem.quad_matrix, ((pad, 0), (pad, 0))).tolist()
    m = len(p)
    cap, vol_cap = problem.deadweight_cap, problem.volume_cap
    s, b, r = problem.quad_scale, problem.linear_coeff, problem.rhs
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
            if mass > cap or volume > vol_cap:
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


def never_prune(problem, p, vol, a):
    """Stand-in for ``oracle._revenue_bound`` whose bound keeps every row."""
    return lambda j, mass, *sums: np.full(mass.shape, math.inf)


def search(problem, spec, *, above=-math.inf, prune=True):
    """``grid_search``; with ``prune=False`` its revenue bound keeps every row."""
    with pytest.MonkeyPatch.context() as patch:
        if not prune:
            patch.setattr(oracle, "_revenue_bound", never_prune)
        return grid_search(problem, spec, above=above)


def assert_bounded_matches(problem, step, levels, thresholds=None):
    """``grid_search(above=t)`` against brute force, with and without pruning.

    The default thresholds are -inf and three around the best.  Each search
    returns the brute-force first best point and its revenue when that
    earns more than t, and (None, -inf) otherwise.  With a bound that keeps
    every row it covers exactly the brute-force points; with the real bound
    it covers no more.
    """
    want_x, want_revenue, want_points, _ = brute_force(problem, step, levels)
    if thresholds is None:
        below = np.nextafter(want_revenue, -math.inf)
        thresholds = (-math.inf, below, want_revenue, 0.5 * want_revenue)
    for above in thresholds:
        for prune in (False, True):
            best_x, best_revenue, points = search(
                problem, LatticeSpec(step), above=above, prune=prune
            )
            if want_revenue > above:
                assert best_revenue == want_revenue
                assert np.array_equal(best_x, want_x)
            else:
                assert (best_x, best_revenue) == (None, -math.inf)
            if prune:
                assert points <= want_points
            else:
                assert points == want_points


def count_rows(monkeypatch):
    """A list that collects the size of every chunk of rows the search builds."""
    built = []
    expand = oracle._expand
    monkeypatch.setattr(
        oracle, "_expand", lambda counts: built.append(int(counts.sum())) or expand(counts)
    )
    return built


def refuse_search(*args, **kwargs):
    raise AssertionError("certify searched the lattice")


def count_searches(monkeypatch):
    """A list that collects the ``above`` of every search ``certify`` runs."""
    calls = []
    search = oracle.grid_search

    def counted(*args, **kwargs):
        calls.append(kwargs["above"])
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "grid_search", counted)
    return calls


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
        assert_bounded_matches(problem, step, levels, thresholds=(-math.inf,))

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

    def test_kkt_optimum_bounds_the_lattice(self):
        # A complete enumeration holds the global optimum, which no
        # feasible lattice point can beat.
        complete = 0
        for problem, step, _ in TINY_LATTICES:
            if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
                continue
            value, x, done, _ = closed_form_optimum(problem)
            if not done:
                continue
            complete += 1
            assert _Loading(problem, x).violation <= 1e-9
            assert value == pytest.approx(float(problem.objective @ x), rel=1e-12)
            lattice = grid_search(problem, LatticeSpec(step))[1]
            assert value >= lattice - 1e-9 * max(1.0, abs(lattice))
        assert complete >= 30

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
        # The margin rejects every lattice point.  With every row kept, each
        # mass-feasible point is covered; the bound's stability test finds
        # that no row has a stable completion and covers none of them.
        market = (CargoType("dense", 2.0, 4.5), CargoType("light", 0.6, 5.0))
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(20.0), market, LoadingOrder.reverse(), True
        )
        spec = LatticeSpec(5000.0)
        covered = brute_force(problem, 5000.0, 9)[2]
        assert covered > 0
        assert search(problem, spec, prune=False) == (None, -math.inf, covered)
        assert grid_search(problem, spec) == (None, -math.inf, 0)

    @pytest.mark.parametrize("row_budget", [oracle._ROW_BUDGET, 1, 5])
    def test_zero_rates_keep_the_first_best_point(self, row_budget, monkeypatch):
        # Water-density ballast on top and a zero-rate cargo at the bottom.
        # The hold volume stops the paying cargo at 1000 t and leaves room
        # for one rung of either zero-rate cargo, so three points tie on
        # revenue, two of them under another first coordinate.  The search
        # returns the first in lexicographic order, also when every prefix
        # is searched as a chunk of its own.  Once a chunk has found the best,
        # the bound skips the rows of later chunks that cannot beat it.
        monkeypatch.setattr(oracle, "_ROW_BUDGET", row_budget)
        problem = zero_rate_problem()
        assert problem.labels == ("free", "light", "water")
        want_x, want_revenue, want_points, ties = brute_force(problem, 100.0, 30)
        assert ties == [(0, 10, 0), (0, 10, 1), (1, 10, 0)]
        assert (want_revenue, want_points) == (4000.0, 4776)
        # The default budget covers the lattice in one chunk, before the
        # incumbent exists; smaller chunks let the bound skip later rows.
        pruned = 2001 if row_budget in (1, 5) else 4776
        for prune, covered in ((False, 4776), (True, pruned)):
            best_x, best_revenue, points = search(problem, LatticeSpec(100.0), prune=prune)
            assert np.array_equal(best_x, [0.0, 1000.0, 0.0])
            assert np.array_equal(best_x, want_x)
            assert (best_revenue, points) == (4000.0, covered)


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

    def test_refuses_oversized_lattice(self, assemble_case, monkeypatch):
        # The cap counts every lattice row the search builds: a cap of
        # exactly that many lets it finish, one less stops it.
        problem = assemble_case(4.0)
        built = count_rows(monkeypatch)
        answer = grid_search(problem, LatticeSpec(500.0))
        rows = sum(built)
        again = grid_search(problem, LatticeSpec(500.0, max_points=rows))
        assert np.array_equal(again[0], answer[0]) and again[1:] == answer[1:]
        with pytest.raises(ValueError, match=f"built more than {rows - 1} lattice rows"):
            grid_search(problem, LatticeSpec(500.0, max_points=rows - 1))

    def test_cap_counts_rows_not_covered_points(self, assemble_case, monkeypatch):
        # Above the plan's revenue the search covers almost no points but
        # builds many rows to rule the lattice out; the cap stops it all the
        # same.
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        plan = solve(problem).revenue
        built = count_rows(monkeypatch)
        points = grid_search(problem, LatticeSpec(500.0), above=plan)[2]
        cap = max(points, 1)
        assert cap < sum(built)
        with pytest.raises(ValueError, match="lattice rows"):
            grid_search(problem, LatticeSpec(500.0, max_points=cap), above=plan)

    def test_respects_custom_max_points(self, assemble_case):
        problem = assemble_case(4.0)
        with pytest.raises(ValueError, match="max_points"):
            grid_search(problem, LatticeSpec(500.0, max_points=1000))

    def test_normal_mu4_within_lipschitz_gap(self, assemble_case):
        problem = assemble_case(4.0)
        solver = solve(problem)
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
                solver = solve(problem)
                _, lattice_revenue, _ = grid_search(problem, LatticeSpec(500.0))
                assert solver.revenue >= lattice_revenue - 1e-6 * max(1.0, lattice_revenue)

    def test_memory_stays_within_the_row_budget(self, assemble_case):
        # 3e6 lattice points, all covered when the bound keeps every row;
        # building all 1.3e5 (prefix, u) rows at once would allocate about
        # 25 MB of temporaries.
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        tracemalloc.start()
        try:
            _, _, points = search(problem, LatticeSpec(500.0), prune=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points == 3049501
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
        solution = solve(problem)
        assert certify(problem, solution, LatticeSpec(500.0)) is True

    def test_oracle_best_certifies_itself(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        best_x, _, _ = grid_search(problem, LatticeSpec(500.0))
        assert certify(problem, best_x, LatticeSpec(500.0)) is True

    def test_local_trap_rejected(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        trapped = local_trap(problem)
        assert trapped.kkt.satisfied
        # The root bound cannot settle a trap; the search above it decides.
        searches = count_searches(monkeypatch)
        assert certify(problem, trapped, LatticeSpec(250.0)) is False
        assert searches == [trapped.revenue]

    def test_verdict_matches_the_exhaustive_search(self):
        # certify asks a bounded question; its verdict must be the rule's
        # verdict on the lattice best, for optimal plans and for plans the
        # lattice beats.
        rng = np.random.default_rng(99)
        verdicts = set()
        for _ in range(200):
            problem = draw_random_problem(rng)
            levels = {1: 40, 2: 30, 3: 16, 4: 10, 5: 7}.get(problem.n, 5)
            spec = LatticeSpec(problem.deadweight_cap / levels)
            best_revenue = grid_search(problem, spec)[1]
            solution = solve(problem)
            worse = 0.9 * solution.x
            assert _Loading(problem, worse).violation <= 1e-6
            for plan, value in ((solution, solution.revenue), (worse, problem.objective @ worse)):
                verdict = certify(problem, plan, spec)
                assert verdict == certifies(value, best_revenue)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_bounded_search_covers_a_sliver_of_the_lattice(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse(), include_ballast=False)
        solution = solve(problem)
        spec = LatticeSpec(500.0)
        full = search(problem, spec, prune=False)[2]
        assert full == 3049501
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


def root_bound_problems(carrier, market):
    """Seeded random problems plus the shapes the random draw misses."""
    rng = np.random.default_rng(2024)
    problems = [draw_random_problem(rng) for _ in range(400)]
    equal = (CargoType("a", 0.6, 4.0), CargoType("b", 0.6, 5.0), CargoType("c", 0.9, 4.5))
    for order in (LoadingOrder.normal(), LoadingOrder.reverse()):
        problems.append(
            assemble_problem(carrier, Environment(), StabilityPolicy(2.0), equal, order, False)
        )
    # An explicit order puts the ballast at the bottom: D_1 = 0.
    problems.append(
        assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), market[:3],
            LoadingOrder.explicit([2, 0, 1]), True,
        )
    )
    return problems


class TestRootBound:
    def test_bound_dominates_the_lattice(self, carrier, market):
        # Weak duality holds for every lambda >= 0 and every reference point
        # of the tangents, so each bound must reach the lattice best: the
        # solver's multipliers at its plan, random lambda and random
        # references.
        rng = np.random.default_rng(7)
        kinds, cargo_counts, water_at_keel, equal_neighbours, bounds = set(), set(), 0, 0, 0
        for problem in root_bound_problems(carrier, market):
            levels = {1: 40, 2: 30, 3: 16, 4: 10, 5: 7}.get(problem.n, 5)
            best_x, best_revenue, _ = grid_search(
                problem, LatticeSpec(problem.deadweight_cap / levels)
            )
            if best_x is None:
                continue
            diagonal = problem.classification.evidence.diagonal
            kinds.add(problem.classification.kind.value)
            cargo_counts.add(problem.n)
            water_at_keel += diagonal[0] == 0.0
            equal_neighbours += bool((diagonal[1:] == 0.0).any())
            solution = solve(problem)
            own = (
                solution.multiplier_deadweight,
                solution.multiplier_volume,
                solution.multiplier_stability,
            )
            # Multiplier sizes that price each constraint near the rates.
            rate = problem.objective.max()
            gradient = abs(problem.linear_coeff) + 2.0 * problem.quad_scale * (
                np.abs(problem.quad_matrix).max() * problem.deadweight_cap
            )
            sizes_of_lambda = np.array([rate, rate / problem.volume_coeffs.max(), rate / gradient])
            trials = [(solution.x, own)]
            for _ in range(11):
                lam = sizes_of_lambda * rng.uniform(0.0, 2.0, 3) * (rng.uniform(size=3) < 0.7)
                reference = (solution.x, best_x, draw_nonneg_loading(problem, rng))[
                    int(rng.integers(3))
                ]
                trials.append((reference, lam if rng.uniform() < 0.7 else own))
            for reference, lam in trials:
                assert oracle._lagrangian_bound(problem, reference, lam) >= best_revenue
                bounds += 1
        assert kinds == {"PositiveSemidefinite", "NegativeSemidefinite", "Indefinite"}
        assert 1 in cargo_counts and water_at_keel and equal_neighbours
        assert bounds > 4000

    @pytest.mark.parametrize("include_ballast", [True, False])
    @pytest.mark.parametrize("mu", [4.0, 6.0])
    def test_convex_case_rows_certify_at_the_root(
        self, assemble_case, monkeypatch, mu, include_ballast
    ):
        problem = assemble_case(mu, include_ballast=include_ballast)
        assert problem.classification.kind.value == "PositiveSemidefinite"
        solution = solve(problem)
        monkeypatch.setattr(oracle, "grid_search", refuse_search)
        assert certify(problem, solution, LatticeSpec(500.0)) is True

    def test_coastal_feeder_certifies_at_the_root(self, monkeypatch):
        scenario = load_bundled_scenario("coastal_feeder.json")
        problem = assemble_problem(
            scenario.vessel, Environment(scenario.water_density),
            StabilityPolicy(scenario.mu), scenario.cargoes, scenario.order,
            scenario.include_ballast,
        )
        solution = solve(problem)
        monkeypatch.setattr(oracle, "grid_search", refuse_search)
        assert certify(problem, solution, LatticeSpec(15.0)) is True

    @pytest.mark.parametrize("include_ballast", [True, False])
    @pytest.mark.parametrize("mu", [4.0, 6.0])
    def test_reverse_rows_reach_the_search(self, assemble_case, monkeypatch, mu, include_ballast):
        # The secant on the convex terms leaves these bounds 5-80% above the
        # plan, so the lattice decides.
        problem = assemble_case(mu, order=LoadingOrder.reverse(), include_ballast=include_ballast)
        solution = solve(problem)
        searches = count_searches(monkeypatch)
        assert certify(problem, solution, LatticeSpec(1000.0)) is True
        assert searches == [solution.revenue]
