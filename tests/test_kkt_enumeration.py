"""The closed-form KKT enumeration: its support rule against the inertia bound it replaced,
and its scalar per-support solve against its batch rows."""

import math

import numpy as np
import pytest

from shipload import (
    CargoType,
    Definiteness,
    Environment,
    LoadingOrder,
    StabilityPolicy,
    Vessel,
    assemble_problem,
)
from shipload import kkt_enumeration, solver
from shipload.quadratic_analysis import SIGN_TOLERANCE

from conftest import closed_form_optimum, draw_random_problem, large_reverse_stack


def _inertia_rule(diagonal):
    """The bound before the edge argument: 3 + #{k : D_k >= 0} cargoes, every pattern."""
    return min(diagonal.size, 3 + int(np.count_nonzero(diagonal >= -SIGN_TOLERANCE))), False


def _enumerates(problem):
    """Whether ``solve`` enumerates ``problem``: its relaxation has one, unstable, vertex."""
    if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
        return False
    face, _, _ = solver._lp_optimum(problem)
    return len(face) == 1 and solver._stable_point(problem, face) is None


def _both_rules(problem):
    """``binding_optimum``'s revenue under the edge rule, then under the inertia rule."""
    value, _, _, reason = kkt_enumeration.binding_optimum(problem)
    assert reason is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_support_rule", _inertia_rule)
        patch.setattr(kkt_enumeration, "SYSTEM_BUDGET", math.inf)
        reference, _, _, reason = kkt_enumeration.binding_optimum(problem)
    assert reason is None
    return value, reference


class TestSupportRule:
    def test_reverse_order_drops_one_size(self):
        # Distinct densities rising up the stack: only D_1 is positive.
        diagonal = np.array([0.5, -0.1, -0.2, -0.3, -0.1])
        assert kkt_enumeration._support_rule(diagonal) == (3, True)
        assert kkt_enumeration._support_rule(-diagonal) == (5, False)
        assert kkt_enumeration._support_rule(diagonal[:3]) == (3, True)
        assert kkt_enumeration._support_rule(diagonal[:2]) == (2, False)
        assert kkt_enumeration._support_rule(diagonal[:1]) == (1, False)

    def test_merged_twins_keep_the_best_rate(self):
        steps = np.array([0.3, -0.2, 0.0, 0.0, 0.1, 0.0])
        rates = np.array([1.0, 2.0, 3.0, 3.0, 1.0, 1.0])
        # Cargoes 1-3 share a density, as do 4 and 5; ties keep the lower.
        kept, diagonal = kkt_enumeration._merge_twins(steps, rates)
        assert kept == [0, 2, 4]
        assert diagonal.tolist() == [0.3, -0.2, 0.1]

    def test_edge_rule_matches_the_inertia_rule(self):
        rng = np.random.default_rng(83)
        orders = {"normal": LoadingOrder.normal(), "reverse": LoadingOrder.reverse()}
        orders["explicit"] = "explicit"
        checked = {kind: 0 for kind in orders}
        water_bottom, clamped = 0, set()
        draws = 0
        while sum(checked.values()) < 300 or len(clamped) < 2:
            draws += 1
            kind = ("normal", "reverse", "explicit")[draws % 3]
            if draws % 10 == 0:
                # One or two cargoes in reverse order: K is clamped to n.
                kind, sizes = "reverse", (1, 3)
            else:
                # 2 to 11 cargoes, and the ballast on half of the draws.
                sizes = (2, 12)
            # Every fourth draw has a hold small enough for volume to bind.
            room = (0.3, 0.8) if draws % 4 == 1 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=sizes, orders=(orders[kind],), room=room)
            if not _enumerates(problem):
                continue
            value, reference = _both_rules(problem)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)
            checked[kind] += 1
            # Ballast at water density at the bottom: D_1 = 0.
            water_bottom += bool(problem.classification.evidence.diagonal[0] == 0.0)
            if sizes == (1, 3) and problem.n <= 2:
                clamped.add(problem.n)
        assert checked["reverse"] >= 100 and checked["explicit"] >= 50, checked
        assert water_bottom >= 10
        assert clamped == {1, 2}

    def test_edge_rule_matches_on_a_reverse_stack_of_21(self):
        value, reference = _both_rules(large_reverse_stack(21))
        assert value == pytest.approx(reference, rel=1e-9)


def _batch_roots(problem, support):
    """The batch rows of one support: (pattern, loads, scaled t) of its roots t > 0.

    Every root of a system along which t moves, feasible or not, as
    :func:`~shipload.kkt_enumeration.support_points` solves them.
    """
    units = kkt_enumeration.scaled_units(problem)
    diagonal = problem.classification.evidence.diagonal / units.a
    _, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
    largest, full_needs_volume = kkt_enumeration._support_rule(merged)
    chunk = np.full((1, largest), problem.n, dtype=np.intp)
    chunk[0, : len(support)] = support
    real = (chunk < problem.n).astype(float)
    rows = kkt_enumeration._batch_rows(units, chunk, real, largest, full_needs_volume)
    roots = []
    for root in (1, 2):
        moving = rows.rooted & ~rows.fixed
        for k in np.flatnonzero(moving & (rows.t[root] > 0.0) & np.isfinite(rows.t[root])):
            x = np.zeros(problem.n + 1)
            x[rows.support[k]] = units.cap * rows.z[root, k]
            roots.append((int(rows.pattern[k]), x[: problem.n], float(rows.t[root, k])))
    return roots


def _check_support(problem, support):
    """The scalar solve against the batch rows on one support of distinct-density neighbours.

    Every root of the batch rows is a scalar point, with the same loads and
    t; where the batch rows solve every pattern, on supports of fewer than
    K cargoes or when K is the number of cargoes, the converse holds too.  Every scalar point meets stationarity on its loaded
    cargoes with its multipliers.  Returns the patterns of the batch roots
    and the scalar points that are feasible.
    """
    units = kkt_enumeration.scaled_units(problem)
    points = kkt_enumeration.support_points(units, support)
    roots = _batch_roots(problem, support)
    cap, rate = problem.deadweight_cap, float(problem.objective.max()) or 1.0
    # lam_S = 1 / (2 s t) unscaled, so t * lam_S is this constant in scaled t.
    product = units.rate / (2.0 * units.quad_scale * units.cap * units.a)

    def same(x, t, other_x, other_t):
        scale = max(1.0, np.abs(x).max())
        return np.abs(other_x - x).max() <= 1e-7 * scale and other_t == pytest.approx(t, rel=1e-7)

    for _, x, t in roots:
        assert any(same(x, t, point[0], product / point[3]) for point in points), (support, x, t)
    diagonal = problem.classification.evidence.diagonal / units.a
    largest, full_needs_volume = kkt_enumeration._support_rule(
        kkt_enumeration._merge_twins(diagonal, problem.objective)[1]
    )
    if len(support) < largest or not full_needs_volume:
        for point in points:
            t = product / point[3]
            assert any(same(point[0], t, x, root_t) for _, x, root_t in roots), (support, point)
    feasible = []
    on = list(support)
    for point in points:
        x, lam_c, lam_v, lam_s = point
        gradient = solver.stability_gradient(problem, x)
        residual = (
            problem.objective[on] - lam_c - lam_v * problem.volume_coeffs[on] - lam_s * gradient[on]
        )
        # The size of the terms, the gradient's before it cancels.
        size = np.abs(problem.quad_matrix) @ np.abs(x) * 2.0 * problem.quad_scale
        scale = np.maximum.reduce([
            problem.objective[on],
            np.full(len(on), abs(lam_c)),
            abs(lam_v) * problem.volume_coeffs[on],
            abs(lam_s) * (size[on] + abs(problem.linear_coeff)),
        ])
        # A twin merged away carries no load, and its row need not hold.
        loaded = x[on] != 0.0
        assert (np.abs(residual) <= 1e-9 * scale)[loaded].all(), (support, point)
        loads = np.maximum(x, 0.0)
        violation = solver._violation(problem, loads, solver._slacks(problem, loads))
        if x.min() >= -1e-10 * cap and violation <= 1e-10:
            feasible.append(point)
    return [pattern for pattern, _, _ in roots], feasible


class TestSupportPoints:
    """``support_points``, the scalar solve of one support, against the batch rows."""

    def test_matches_the_batch_rows_on_random_supports(self):
        rng = np.random.default_rng(97)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        convex = water_bottom = 0
        patterns = np.zeros(4, dtype=int)
        for draw in range(300):
            room = (0.3, 0.8) if draw % 3 == 0 else (0.5, 2.0)
            problem = draw_random_problem(rng, sizes=(1, 9), orders=orders, room=room)
            convex += problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE
            units = kkt_enumeration.scaled_units(problem)
            diagonal = problem.classification.evidence.diagonal / units.a
            kept, merged = kkt_enumeration._merge_twins(diagonal, problem.objective)
            largest, _ = kkt_enumeration._support_rule(merged)
            for _ in range(3):
                size = int(rng.integers(1, min(largest, 4) + 1))
                support = sorted(rng.choice(kept, size=size, replace=False).tolist())
                # Ballast at water density at the bottom of the support: D_1 = 0.
                water_bottom += bool(units.generator[support[0]] == 0.0)
                rooted, _ = _check_support(problem, support)
                patterns += np.bincount(rooted, minlength=4)
        # Pattern 3 binds both caps, pattern 1 only the deadweight.
        assert convex >= 60 and water_bottom >= 50, (convex, water_bottom)
        assert patterns.min() >= 100, patterns

    def test_keeps_the_deadweight_root_of_a_large_hull(self):
        # A reverse stack on a 303 m hull whose optimum binds deadweight and
        # stability, at a scaled t of 9.6 and an unscaled t of 7e5: a test
        # for a flat stability quadratic must read the scaled numbers.
        cargoes = (
            ("c1", 0.48463844316024324, 5.933527047871038),
            ("c2", 0.6147304434427722, 6.824330592281782),
            ("c3", 0.4094628088426699, 4.343555431924531),
            ("c4", 0.3840520140242057, 3.704760414633863),
            ("c5", 0.8632379262342758, 6.628569660825745),
            ("c6", 0.424916456327257, 3.0884585288557855),
        )
        problem = assemble_problem(
            Vessel(
                303.01119254938925, 52.64018590475631, 310254.26727112464,
                382425.05598741694, 148237.24869017873, 15.252877521271179,
            ),
            Environment(1.0046587928323274), StabilityPolicy(9.467928771117942),
            tuple(CargoType(*c) for c in cargoes), LoadingOrder.reverse(), True,
        )
        value, x, complete, multipliers = closed_form_optimum(problem)
        assert complete and multipliers is not None
        support = np.flatnonzero(x).tolist()
        assert [problem.labels[i] for i in support] == ["c2", "c5"]
        _, feasible = _check_support(problem, support)
        best = max(feasible, key=lambda point: problem.objective @ point[0])
        assert problem.objective @ best[0] == pytest.approx(value, rel=1e-12)
        assert best[1:] == pytest.approx(multipliers, rel=1e-9)
        assert best[1] > 0.0 and best[2] == 0.0  # deadweight binds, volume does not
