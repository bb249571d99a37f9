"""Draft, metacenter, center of mass, and the algebraic-slack bridge."""

import numpy as np
import pytest
from conftest import draw_nonneg_loading, draw_random_problem

from shipload import (
    Environment,
    LoadingOrder,
    center_of_mass,
    constraint_slack,
    draft,
    hydro_state,
    keel_to_metacenter,
    metacentric_height,
    solver,
)

CASE1_LOADS = np.array([0.0, 8500.0, 9100.0, 0.0, 27400.0])


class TestDraft:
    def test_full_load(self, carrier):
        assert draft(carrier, Environment(), 45000.0) == pytest.approx(12.0, rel=1e-12)

    def test_lightship(self, carrier):
        assert draft(carrier, Environment(), 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_case2_load(self, carrier):
        assert draft(carrier, Environment(), 39900.0) == pytest.approx(10.98, rel=1e-12)

    def test_negative_cargo_rejected(self, carrier):
        with pytest.raises(ValueError, match="cargo mass"):
            draft(carrier, Environment(), -1.0)

    def test_draft_above_beam_warns(self, carrier):
        with pytest.warns(UserWarning, match="beam"):
            draft(carrier, Environment(), 500000.0)

    def test_linear_in_total_mass(self, carrier):
        env = Environment()
        t0 = draft(carrier, env, 1000.0)
        t1 = draft(carrier, env, 2000.0)
        t2 = draft(carrier, env, 3000.0)
        assert t2 - t1 == pytest.approx(t1 - t0, rel=1e-12)


class TestKeelToMetacenter:
    def test_case1(self, carrier):
        assert keel_to_metacenter(carrier, 12.0) == pytest.approx(625.0 / 144.0 + 6.0, rel=1e-14)

    def test_case2(self, carrier):
        assert abs(keel_to_metacenter(carrier, 10.98) - 10.2335) < 5e-5

    def test_case2a(self, carrier):
        assert abs(keel_to_metacenter(carrier, 11.12) - 10.2438) < 5.1e-5

    def test_nonpositive_draft_rejected(self, carrier):
        with pytest.raises(ValueError, match="draft"):
            keel_to_metacenter(carrier, 0.0)


class TestCenterOfMass:
    def test_case1_loading(self, assemble_case):
        problem = assemble_case(4.0)
        assert abs(center_of_mass(problem, CASE1_LOADS) - 6.339) < 5e-4

    def test_lightship(self, assemble_case):
        problem = assemble_case(4.0)
        assert center_of_mass(problem, np.zeros(5)) == pytest.approx(2.0, rel=1e-14)

    def test_case2a_single_dense_type(self, assemble_case):
        problem = assemble_case(6.0, order=LoadingOrder.reverse())
        x = np.zeros(5)
        x[3] = 40600.0  # the densest cargo sits fourth from the bottom
        assert abs(center_of_mass(problem, x) - 4.245) < 5e-4

    def test_negative_entry_rejected(self, assemble_case):
        with pytest.raises(ValueError, match="negative"):
            center_of_mass(assemble_case(4.0), np.array([-1.0, 0, 0, 0, 0]))

    def test_dimension_mismatch(self, assemble_case):
        with pytest.raises(ValueError, match="shape"):
            center_of_mass(assemble_case(4.0), np.zeros(3))


class TestMetacentricHeight:
    def test_case1_loading(self, assemble_case):
        problem = assemble_case(4.0)
        assert abs(metacentric_height(problem, CASE1_LOADS) - 4.001) < 1e-3

    def test_lightship(self, assemble_case):
        problem = assemble_case(4.0)
        assert metacentric_height(problem, np.zeros(5)) == pytest.approx(
            625.0 / 36.0 + 1.5 - 2.0, rel=1e-12
        )

    def test_case1a_loading(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        x = np.array([2700.0, 0.0, 42300.0, 0.0, 0.0])
        assert abs(metacentric_height(problem, x) - 4.0) < 5e-3


class TestHydroState:
    def test_identities(self, assemble_case):
        problem = assemble_case(4.0)
        state = hydro_state(problem, CASE1_LOADS)
        assert state.keel_to_metacenter == state.keel_to_buoyancy + state.buoyancy_to_metacenter
        assert state.metacentric_height == state.keel_to_metacenter - state.keel_to_mass
        assert state.keel_to_buoyancy == state.draft / 2.0
        assert state.displacement_mass == pytest.approx(CASE1_LOADS.sum() + 15000.0, rel=1e-14)

    def test_km_depends_only_on_total(self, assemble_case):
        problem = assemble_case(4.0)
        a = hydro_state(problem, np.array([0.0, 20000.0, 0.0, 0.0, 0.0]))
        b = hydro_state(problem, np.array([0.0, 0.0, 0.0, 0.0, 20000.0]))
        assert a.keel_to_metacenter == pytest.approx(b.keel_to_metacenter, rel=1e-14)
        assert a.keel_to_mass != b.keel_to_mass

    def test_validates_the_loads_once(self, assemble_case, monkeypatch):
        problem = assemble_case(4.0)
        calls = []
        check = type(problem).check_vector
        monkeypatch.setattr(
            type(problem), "check_vector", lambda self, x: calls.append(x) or check(self, x)
        )
        state = hydro_state(problem, CASE1_LOADS)
        assert len(calls) == 1
        assert state.keel_to_mass == center_of_mass(problem, CASE1_LOADS)
        # A negative load is refused even where the total is not negative.
        with pytest.raises(ValueError, match="negative entry"):
            hydro_state(problem, np.array([-1.0, 2.0, 0.0, 0.0, 0.0]))


class TestConstraintSlack:
    def test_case1_binding_after_rounding(self, assemble_case):
        # Table loads are printed to 0.1 kt, so the algebraic slack of the
        # re-rounded loading lands near, not at, zero.
        problem = assemble_case(4.0)
        displacement = CASE1_LOADS.sum() + 15000.0
        assert abs(constraint_slack(problem, CASE1_LOADS)) <= 2e-3 * displacement

    def test_origin_slack_equals_rhs(self, assemble_case):
        problem = assemble_case(4.0)
        assert constraint_slack(problem, np.zeros(5)) == pytest.approx(
            192916.666667, rel=1e-9
        )

    def test_negative_when_margin_violated(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        x = np.zeros(5)
        x[0] = 45000.0  # full deadweight of the lightest, bulkiest type
        assert metacentric_height(problem, x) < 4.0
        assert constraint_slack(problem, x) < 0.0

    def test_sign_matches_margin_check(self, assemble_case):
        problem = assemble_case(4.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.dirichlet(np.full(5, 0.6)) * 45000.0 * rng.uniform()
            gm = metacentric_height(problem, x)
            slack = constraint_slack(problem, x)
            assert (slack >= 0.0) == (gm >= 4.0)

    def test_bridge_identity_on_case_problems(self, assemble_case):
        rng = np.random.default_rng(9)
        for mu in (4.0, 6.0):
            for order in (LoadingOrder.normal(), LoadingOrder.reverse()):
                problem = assemble_case(mu, order=order)
                for _ in range(75):
                    x = rng.dirichlet(np.full(5, 0.6)) * 45000.0 * rng.uniform()
                    slack = constraint_slack(problem, x)
                    gm = metacentric_height(problem, x)
                    bridge = (gm - mu) * (x.sum() + 15000.0)
                    denom = max(1.0, abs(slack), abs(bridge))
                    assert abs(slack - bridge) <= 1e-9 * denom

    def test_is_the_solver_slack_without_an_evaluation(self, monkeypatch):
        # The solver's own stability slack, read without forming the gradient
        # and violation of a whole loading evaluation.
        rng = np.random.default_rng(27)
        orders = (LoadingOrder.normal(), LoadingOrder.reverse(), "explicit")
        cases = []
        for n in range(1, 42):
            problem = draw_random_problem(rng, sizes=(n, n + 1), orders=orders)
            for _ in range(5):
                x = draw_nonneg_loading(problem, rng) * rng.uniform(0.0, 1.5)
                cases.append((problem, x, solver._Loading(problem, x).slacks[2]))

        def refuse(*args):
            raise AssertionError("constraint_slack built a whole loading evaluation")

        monkeypatch.setattr(solver, "_Loading", refuse)
        for problem, x, want in cases:
            assert constraint_slack(problem, x) == want
