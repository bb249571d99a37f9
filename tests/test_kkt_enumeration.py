"""The support rule of the closed-form KKT enumeration, against the inertia bound it replaced."""

import math

import numpy as np
import pytest

from shipload import Definiteness, LoadingOrder
from shipload import kkt_enumeration, solver
from shipload.quadratic_analysis import SIGN_TOLERANCE

from conftest import draw_random_problem, large_reverse_stack


def _inertia_rule(diagonal):
    """The bound before the edge argument: 3 + #{k : D_k >= 0} cargoes, every pattern."""
    return min(diagonal.size, 3 + int(np.count_nonzero(diagonal >= -SIGN_TOLERANCE))), False


def _enumerates(problem):
    """Whether ``_kkt_optimum`` enumerates ``problem``: its relaxation has one, unstable, vertex."""
    if problem.classification.kind is Definiteness.POSITIVE_SEMIDEFINITE:
        return False
    x, _, _, unique = solver._lp_optimum(problem)
    return unique and solver._violation(problem, x, solver._slacks(problem, x)) > solver._LP_TOLERANCE


def _both_rules(problem):
    """``binding_optimum``'s revenue under the edge rule, then under the inertia rule."""
    value, _, reason = kkt_enumeration.binding_optimum(problem)
    assert reason is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kkt_enumeration, "_support_rule", _inertia_rule)
        patch.setattr(kkt_enumeration, "SYSTEM_BUDGET", math.inf)
        reference, _, reason = kkt_enumeration.binding_optimum(problem)
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
