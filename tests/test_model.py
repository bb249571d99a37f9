"""Vessel/cargo data validation, problem assembly, and the stacking matrix."""

import math
import re

import numpy as np
import pytest

from shipload import (
    BALLAST_LABEL,
    CargoType,
    Environment,
    LoadingOrder,
    StabilityPolicy,
    Vessel,
    assemble_problem,
    revenue,
    stacking_matrix,
)


class TestVessel:
    def test_waterplane_area(self, carrier):
        assert carrier.waterplane_area == 5000.0

    @pytest.mark.parametrize(
        "field", ["length", "beam", "deadweight", "volume_capacity", "light_mass"]
    )
    def test_positive_fields(self, field):
        values = dict(
            length=200.0,
            beam=25.0,
            deadweight=45000.0,
            volume_capacity=120000.0,
            light_mass=15000.0,
            light_kg=2.0,
        )
        values[field] = 0.0
        with pytest.raises(ValueError, match=field):
            Vessel(**values)

    def test_negative_light_kg_rejected(self):
        with pytest.raises(ValueError, match="light_kg"):
            Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, -0.1)

    def test_light_kg_above_beam_warns(self):
        with pytest.warns(UserWarning, match="beam"):
            Vessel(200.0, 25.0, 45000.0, 120000.0, 15000.0, 30.0)


class TestCargoType:
    def test_density_must_be_positive(self):
        with pytest.raises(ValueError, match="density must be positive"):
            CargoType("x", 0.0, 1.0)

    @pytest.mark.parametrize("density", [1e-320, 5e-324, 5.5e-309])
    def test_density_needs_a_finite_reciprocal(self, density):
        message = f"must be positive with a finite reciprocal, got {density!r}"
        with pytest.raises(ValueError, match=f"^density {re.escape(message)}$"):
            CargoType("x", density, 1.0)
        with pytest.raises(ValueError, match=f"^water_density {re.escape(message)}$"):
            Environment(density)
        message = f"density at index 1 has no finite reciprocal, got {density!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stacking_matrix(np.array([0.5, density, 1e-320]))

    def test_smallest_density_with_a_finite_reciprocal_accepted(self):
        density = 5.6e-309
        assert math.isfinite(1.0 / density)
        assert CargoType("x", density, 1.0).density == density
        assert Environment(density).water_density == density
        assert stacking_matrix(np.array([density]))[0, 0] == 1.0 / density

    def test_rate_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="freight_rate"):
            CargoType("x", 0.5, -1.0)

    def test_ballast_rate_zero_allowed(self):
        CargoType("water", 1.0, 0.0)


class TestEnvironmentAndPolicy:
    def test_default_water_density(self):
        assert Environment().water_density == 1.0

    def test_water_density_positive(self):
        with pytest.raises(ValueError, match="water_density"):
            Environment(0.0)

    def test_margin_nonnegative(self):
        with pytest.raises(ValueError, match="min_metacentric_height"):
            StabilityPolicy(-1.0)


class TestStackingMatrix:
    def test_market_densities(self):
        w = stacking_matrix(np.array([0.80, 0.60, 0.50, 0.45]))
        assert np.allclose(w[0], [1.25, 1.25, 1.25, 1.25])
        assert np.allclose(w[1], [1.25, 1.6667, 1.6667, 1.6667], atol=5e-5)
        assert np.allclose(np.diag(w), [1.25, 1.6667, 2.0, 2.2222], atol=5e-5)
        assert np.array_equal(w, w.T)

    def test_single_type(self):
        assert np.array_equal(stacking_matrix(np.array([1.0])), [[1.0]])

    def test_two_types(self):
        w = stacking_matrix(np.array([2.0, 1.0]))
        assert np.array_equal(w, [[0.5, 0.5], [0.5, 1.0]])

    def test_nonpositive_density_names_index(self):
        with pytest.raises(ValueError, match="index 1"):
            stacking_matrix(np.array([0.5, -1.0]))

    @pytest.mark.parametrize(
        "densities, message",
        [
            ([0.5, math.nan, -1.0], "density at index 1 must be positive, got nan"),
            ([0.5, 0.7, math.inf, 0.0], "density at index 2 must be positive, got inf"),
            ([-0.0, -math.inf], "density at index 0 must be positive, got -0.0"),
        ],
    )
    def test_first_bad_density_is_named(self, densities, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stacking_matrix(np.array(densities))


class TestLoadingOrder:
    def test_normal_sorts_decreasing(self):
        order = LoadingOrder.normal()
        d = np.array([0.45, 0.80, 0.60])
        assert tuple(order.arrangement(d)) == (1, 2, 0)

    def test_reverse_sorts_increasing(self):
        order = LoadingOrder.reverse()
        d = np.array([0.45, 0.80, 0.60])
        assert tuple(order.arrangement(d)) == (0, 2, 1)

    def test_ties_keep_input_order(self):
        order = LoadingOrder.normal()
        d = np.array([0.5, 0.5, 0.7])
        assert tuple(order.arrangement(d)) == (2, 0, 1)

    def test_explicit_is_validated(self):
        with pytest.raises(ValueError, match="permutation"):
            LoadingOrder.explicit([0, 0, 1])

    def test_explicit_arrangement(self):
        order = LoadingOrder.explicit([2, 0, 1])
        assert tuple(order.arrangement(np.array([0.5, 0.6, 0.7]))) == (2, 0, 1)


class TestAssembleProblem:
    def test_stability_coefficients_mu4(self, assemble_case):
        problem = assemble_case(4.0)
        assert problem.linear_coeff == pytest.approx(1.0, rel=1e-12)
        assert problem.rhs == pytest.approx(192916.666667, rel=1e-9)
        assert problem.quad_scale == pytest.approx(1.0 / 10000.0, rel=1e-12)

    def test_stability_coefficients_mu6(self, assemble_case):
        problem = assemble_case(6.0)
        assert problem.linear_coeff == pytest.approx(3.0, rel=1e-12)
        assert problem.rhs == pytest.approx(162916.666667, rel=1e-9)

    def test_quad_matrix_entries_exhaustive(self, assemble_case):
        problem = assemble_case(4.0)
        d = problem.densities
        for i in range(problem.n):
            for j in range(problem.n):
                expected = 1.0 / d[min(i, j)] - 1.0
                assert problem.quad_matrix[i][j] == pytest.approx(expected, rel=1e-14)

    def test_normal_order_with_ballast(self, assemble_case):
        problem = assemble_case(4.0)
        assert problem.labels == ("ballast", "type1", "type2", "type3", "type4")
        assert problem.ballast_index == 0
        assert np.all(np.diff(problem.densities) <= 0)

    def test_reverse_order_with_ballast(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        assert problem.labels == ("type4", "type3", "type2", "type1", "ballast")
        assert problem.ballast_index == 4
        assert np.all(np.diff(problem.densities) >= 0)

    def test_explicit_order_puts_ballast_at_bottom(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.explicit([2, 0, 3, 1]))
        assert problem.labels == ("ballast", "type3", "type1", "type4", "type2")
        assert problem.ballast_index == 0

    def test_no_ballast(self, assemble_case):
        problem = assemble_case(4.0, include_ballast=False)
        assert problem.n == 4
        assert problem.ballast_index is None

    def test_ballast_density_follows_water(self, assemble_case):
        problem = assemble_case(4.0, water_density=1.025)
        assert problem.cargoes[problem.ballast_index].density == 1.025

    def test_volume_coeffs_are_inverse_densities(self, assemble_case):
        problem = assemble_case(4.0)
        assert np.allclose(problem.volume_coeffs, 1.0 / problem.densities, rtol=1e-15)

    def test_objective_zero_for_ballast(self, assemble_case):
        problem = assemble_case(4.0)
        assert problem.objective[problem.ballast_index] == 0.0
        assert problem.labels[problem.ballast_index] == BALLAST_LABEL

    def test_ballast_only_assembly(self, carrier):
        problem = assemble_problem(
            carrier, Environment(), StabilityPolicy(4.0), (), LoadingOrder.normal(), True
        )
        assert problem.n == 1
        assert problem.labels == ("ballast",)
        assert np.array_equal(problem.objective, [0.0])

    def test_empty_without_ballast_rejected(self, carrier):
        with pytest.raises(ValueError, match="at least one cargo"):
            assemble_problem(
                carrier, Environment(), StabilityPolicy(4.0), (), LoadingOrder.normal(), False
            )

    def test_duplicate_labels_rejected(self, carrier):
        cargoes = (CargoType("x", 0.5, 1.0), CargoType("x", 0.6, 1.0))
        with pytest.raises(ValueError, match="duplicate cargo label 'x'"):
            assemble_problem(
                carrier, Environment(), StabilityPolicy(4.0), cargoes, LoadingOrder.normal(), False
            )

    def test_reserved_label_rejected(self, carrier):
        cargoes = (CargoType("ballast", 0.5, 1.0),)
        with pytest.raises(ValueError, match="reserved"):
            assemble_problem(
                carrier, Environment(), StabilityPolicy(4.0), cargoes, LoadingOrder.normal(), True
            )

    def test_assembly_is_deterministic(self, assemble_case):
        a = assemble_case(4.0)
        b = assemble_case(4.0)
        assert np.array_equal(a.quad_matrix, b.quad_matrix)
        assert np.array_equal(a.objective, b.objective)
        assert np.array_equal(a.volume_coeffs, b.volume_coeffs)
        assert a.rhs == b.rhs and a.linear_coeff == b.linear_coeff

    def test_arrays_are_read_only(self, assemble_case):
        problem = assemble_case(4.0)
        with pytest.raises(ValueError):
            problem.objective[0] = 1.0

    def test_monotone_density_property(self):
        rng = np.random.default_rng(7)
        vessel = Vessel(100.0, 20.0, 10000.0, 30000.0, 5000.0, 2.0)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            cargoes = tuple(
                CargoType(f"c{i}", float(rng.uniform(0.3, 1.5)), 1.0) for i in range(n)
            )
            normal = assemble_problem(
                vessel, Environment(), StabilityPolicy(0.0), cargoes, LoadingOrder.normal(), True
            )
            reverse = assemble_problem(
                vessel, Environment(), StabilityPolicy(0.0), cargoes, LoadingOrder.reverse(), True
            )
            assert np.all(np.diff(normal.densities) <= 0)
            assert np.all(np.diff(reverse.densities) >= 0)


class TestRevenue:
    def test_case1_rounded_loads(self, assemble_case):
        problem = assemble_case(4.0)
        x = np.array([0.0, 8500.0, 9100.0, 0.0, 27400.0])
        assert revenue(problem, x) == pytest.approx(234450.0, rel=1e-12)

    def test_zero_loading(self, assemble_case):
        assert revenue(assemble_case(4.0), np.zeros(5)) == 0.0

    def test_case1a_rounded_loads(self, assemble_case):
        problem = assemble_case(4.0, order=LoadingOrder.reverse())
        x = np.array([2700.0, 0.0, 42300.0, 0.0, 0.0])
        assert revenue(problem, x) == pytest.approx(226350.0, rel=1e-12)

    def test_dimension_mismatch(self, assemble_case):
        with pytest.raises(ValueError, match="shape"):
            revenue(assemble_case(4.0), np.ones(3))

    def test_permutation_invariance(self, assemble_case):
        problem = assemble_case(4.0)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 9000.0, problem.n)
        base = float(problem.objective @ x)
        for _ in range(10):
            perm = rng.permutation(problem.n)
            assert problem.objective[perm] @ x[perm] == pytest.approx(base, rel=1e-14)
