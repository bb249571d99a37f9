"""The solver's one evaluation of a loading and its relaxation, bit for bit against references.

The references are the earlier implementations, which computed the slacks
and the stability gradient once per use and the loads and duals of every
basis of the relaxation.  Same formulas in the same order of operations
give the same bits, so these comparisons are exact: a float must have
the same value and sign, an array the same bytes, and NaN stays NaN.
The scalar solve of one support, whose three sums add its terms in
another order, is held to its slot-by-slot reference within a tolerance.
"""

import math

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# reference: the scalar solve of one support, slot by slot


def _reference_support_points(units, support):
    """The scalar solve of one support before the three sums: every pattern's
    coefficients summed slot by slot, and loads as a vector of every cargo."""
    g = units.generator[support]
    steps = g.copy()
    steps[1:] -= g[:-1]
    positions, merged = kkt_enumeration._merge_twins(steps, units.p[support])
    cargoes = [support[i] for i in positions]
    d = merged.tolist()
    v = units.v[cargoes].tolist()
    p = units.p[cargoes].tolist()
    k = len(cargoes)
    dv = [v[0]] + [v[i] - v[i - 1] for i in range(1, k)]
    dp = [p[0]] + [p[i] - p[i - 1] for i in range(1, k)]
    slack_dw, room, qa, qb, r = units.slack_dw, units.room, units.qa, units.qb, units.r
    flat_tol = kkt_enumeration.ZERO_TOLERANCE * max(1.0, abs(r))

    points = []
    patterns = kkt_enumeration._DEADWEIGHT_ON.tolist(), kkt_enumeration._VOLUME_ON.tolist()
    for dw, vol in zip(*patterns):
        bottom = not dw and abs(d[0]) <= kkt_enumeration.ZERO_TOLERANCE
        if bottom and not vol:
            continue
        # y = base + t u - w f on the rows that give y_i.
        base, u, f = [0.0] * k, [0.0] * k, [0.0] * k
        for i in range(1, k):
            u[i], f[i] = dp[i] / d[i], dv[i] / d[i]
        if dw:
            base[0] = 1.0
        elif not bottom:
            base[0], u[0], f[0] = -slack_dw / d[0], dp[0] / d[0], dv[0] / d[0]
        # w = w0 + t w1.
        if bottom:
            # Row 1 gives w, and the volume row gives y_1 below.
            w0, w1 = -slack_dw / dv[0], dp[0] / dv[0]
        elif vol:
            den = sum(a * b for a, b in zip(dv, f))
            if abs(den) <= kkt_enumeration.ZERO_TOLERANCE:
                continue
            w0 = (sum(a * b for a, b in zip(dv, base)) - room) / den
            w1 = sum(a * b for a, b in zip(dv, u)) / den
        else:
            w0 = w1 = 0.0
        y0 = [b - w0 * c for b, c in zip(base, f)]
        y1 = [b - w1 * c for b, c in zip(u, f)]
        if bottom:
            y0[0] = (room - sum(a * b for a, b in zip(dv[1:], y0[1:]))) / dv[0]
            y1[0] = -sum(a * b for a, b in zip(dv[1:], y1[1:])) / dv[0]
        a2 = qa * sum(di * b * b for di, b in zip(d, y1))
        a1 = 2.0 * qa * sum(di * b * c for di, b, c in zip(d, y0, y1)) + qb * y1[0]
        a0 = qa * sum(di * b * b for di, b in zip(d, y0)) + qb * y0[0] - r
        if max(abs(a2), abs(a1)) <= flat_tol:
            # Stability does not depend on t: no root, or all of them.
            continue
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            if disc < -1e-12 * (a1 * a1 + abs(4.0 * a2 * a0)):
                continue
            disc = 0.0
        half = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
        roots = {half / a2} if a2 != 0.0 else set()
        if half != 0.0:
            roots.add(a0 / half)
        for t in sorted(roots):
            if not (t > 0.0 and math.isfinite(t)):
                continue
            y = [b + t * c for b, c in zip(y0, y1)] + [0.0]
            w = w0 + t * w1
            c = t * dp[0] - d[0] - w * dv[0] if dw else slack_dw
            x = np.zeros(units.n)
            x[cargoes] = [units.cap * (y[i] - y[i + 1]) for i in range(k)]
            points.append((x, *kkt_enumeration._multipliers(units, t, c, w)))
    return points


def _reference_in_scaled_loads(units, support):
    """:func:`_reference_support_points` in the form of ``support_points``: loads over C."""
    return [
        ((x[support] / units.cap).tolist(), *lams)
        for x, *lams in _reference_support_points(units, support)
    ]


def _random_support(problem, rng):
    """A support of 1 to 9 cargoes in stacking order, about one in three holding the ballast."""
    size = int(rng.integers(1, min(problem.n, 9) + 1))
    support = rng.choice(problem.n, size=size, replace=False).tolist()
    ballast = problem.ballast_index
    if ballast is not None and ballast not in support and rng.random() < 1.0 / 3.0:
        support[0] = ballast
    return sorted(support)


class TestSupportPointsReference:
    """``support_points``' three sums against the slot-by-slot reference.

    Not bit for bit: the sums add the same terms in another order.  Loads
    and multipliers agree to 1e-10 relative, and a point that binds both
    caps may lose as much again as its volume row cancels.  There w solves
    Svv w = c, and Svv, a sum over the steps i >= 2 of dv_i^2 / D_i, whose
    ratio dv_i / D_i is one constant, is that constant times v_k - v_1,
    the difference between the top and bottom cargo of the support, out of
    terms as large as sum |dv_i|.  On supports whose top and bottom
    densities nearly coincide both solves stray from a 60-digit solve by
    up to about 3e-10.
    """

    def test_matches_the_reference_on_random_supports(self):
        rng = np.random.default_rng(24)
        supports = water = twins = points = 0
        for draw in range(700):
            problem = draw_random_problem(
                rng, sizes=(1, 12), orders=ORDERS, room=(0.3, 2.0), degenerate=draw % 2 == 0
            )
            units = kkt_enumeration.scaled_units(problem)
            for _ in range(3):
                support = _random_support(problem, rng)
                new = kkt_enumeration.support_points(units, support)
                reference = _reference_in_scaled_loads(units, support)
                assert len(new) == len(reference), (draw, support)
                v = units.v[support].tolist()
                spread, steps = abs(v[-1] - v[0]), sum(abs(b - a) for a, b in zip(v, v[1:]))
                cancel = max(1.0, steps / spread) if spread else 1.0
                for (z, *lams), (z_ref, *lams_ref) in zip(new, reference):
                    both_caps = lams_ref[0] != 0.0 and lams_ref[1] != 0.0
                    tol = 1e-10 * (cancel if both_caps else 1.0)
                    scale = max(map(abs, z_ref))
                    assert max(abs(a - b) for a, b in zip(z, z_ref)) <= tol * scale, (draw, support)
                    assert lams == pytest.approx(lams_ref, rel=tol, abs=0.0), (draw, support)
                    points += 1
                supports += 1
                water += bool(units.generator[support[0]] == 0.0)
                steps = np.diff(units.generator[support], prepend=0.0)
                kept, _ = kkt_enumeration._merge_twins(steps, units.p[support])
                twins += len(kept) < len(support)
        assert supports >= 2000 and points >= 2000, (supports, points)
        assert water >= 200 and twins >= 100, (water, twins)

    @pytest.mark.parametrize(
        "draw, least_calls",
        [
            # The first 1 200 rng-5 draws of ROADMAP.md: mostly nonconvex, so
            # the exchange grows the enumerated winner, which seldom needs a step.
            (dict(sizes=(2, 42), orders=ORDERS, room=(0.3, 2.0)), 30),
            # Small stacks of the default draw, where about one in eight
            # reaches the exchange from the relaxation's vertex.
            ({}, 150),
        ],
        ids=["rng-5-draws", "small-draws"],
    )
    def test_solve_with_the_reference_gives_the_same_answers(self, monkeypatch, draw, least_calls):
        rng = np.random.default_rng(5)
        draws = [draw_random_problem(rng, **draw) for _ in range(1200)]
        answers = [solve(problem) for problem in draws]
        calls = []
        monkeypatch.setattr(
            kkt_enumeration, "support_points",
            lambda units, support: calls.append(1) or _reference_in_scaled_loads(units, support),
        )
        for k, (problem, answer) in enumerate(zip(draws, answers)):
            reference = solve(problem)
            assert reference.status is answer.status, k
            assert reference.kkt.satisfied == answer.kkt.satisfied, k
            assert answer.revenue == pytest.approx(reference.revenue, rel=1e-12, abs=0.0), k
        assert len(calls) >= least_calls, len(calls)
