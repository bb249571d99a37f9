"""Congruence diagonalization and definiteness classification."""

import numpy as np
import pytest

from shipload import (
    Definiteness,
    classify_constraint_matrix,
    congruence_diagonal,
    eigen_sign_check,
)


def min_index_matrix(values):
    idx = np.arange(len(values))
    return np.asarray(values, dtype=float)[np.minimum.outer(idx, idx)]


class TestCongruenceDiagonal:
    def test_inverse_densities_normal_order(self):
        result = congruence_diagonal(np.array([1.25, 1.6667, 2.0, 2.2222]))
        assert np.allclose(result.diagonal, [1.25, 0.4167, 0.3333, 0.2222], atol=5e-5)
        assert result.factor_check_residual <= 1e-12

    def test_constant_vector(self):
        result = congruence_diagonal(np.array([3.0, 3.0, 3.0]))
        assert np.array_equal(result.diagonal, [3.0, 0.0, 0.0])

    def test_single_entry(self):
        assert np.array_equal(congruence_diagonal(np.array([3.0])).diagonal, [3.0])

    def test_residual_computed_on_first_read(self):
        result = congruence_diagonal(np.array([1.25, 1.6667, 2.0, 2.2222]))
        assert "factor_check_residual" not in vars(result)
        residual = result.factor_check_residual
        assert vars(result)["factor_check_residual"] == residual
        assert result.factor_check_residual is residual

    def test_classification_skips_the_residual(self):
        densities = np.linspace(0.9, 0.4, 2000)
        result = classify_constraint_matrix(densities, 1.0)
        assert result.kind is Definiteness.POSITIVE_SEMIDEFINITE
        assert "factor_check_residual" not in vars(result.evidence)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            m = rng.uniform(-10.0, 10.0, size=n)
            result = congruence_diagonal(m)
            q = min_index_matrix(m)
            b = np.tril(np.ones((n, n)))
            recon = b @ np.diag(result.diagonal) @ b.T
            assert np.max(np.abs(q - recon)) <= 1e-12
            assert result.factor_check_residual <= 1e-12


class TestClassifyConstraintMatrix:
    def test_normal_order_is_positive_semidefinite(self):
        result = classify_constraint_matrix(np.array([0.80, 0.60, 0.50, 0.45]), 1.0)
        assert result.kind is Definiteness.POSITIVE_SEMIDEFINITE
        assert np.allclose(
            result.evidence.diagonal, [0.25, 0.4167, 0.3333, 0.2222], atol=5e-5
        )

    def test_reverse_order_is_indefinite(self):
        result = classify_constraint_matrix(np.array([0.45, 0.50, 0.60, 0.80]), 1.0)
        assert result.kind is Definiteness.INDEFINITE
        assert np.allclose(
            result.evidence.diagonal, [1.2222, -0.2222, -0.3333, -0.4167], atol=5e-5
        )

    def test_increasing_heavier_than_water_is_negative_semidefinite(self):
        result = classify_constraint_matrix(np.array([1.25, 1.6, 2.0]), 1.0)
        assert result.kind is Definiteness.NEGATIVE_SEMIDEFINITE
        assert np.allclose(result.evidence.diagonal, [-0.2, -0.175, -0.125], rtol=1e-12)

    def test_boundary_density_equal_to_water_stays_psd(self):
        result = classify_constraint_matrix(np.array([1.0, 0.6, 0.5]), 1.0)
        assert result.evidence.diagonal[0] == 0.0
        assert result.kind is Definiteness.POSITIVE_SEMIDEFINITE

    def test_single_negative_entry_is_surfaced(self):
        # Decreasing densities led by one heavier than water: exactly one
        # negative diagonal entry, and the class is Indefinite.
        result = classify_constraint_matrix(np.array([1.2, 0.6, 0.5]), 1.0)
        assert result.kind is Definiteness.INDEFINITE
        assert int(np.sum(result.evidence.diagonal < 0)) == 1

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError, match="density"):
            classify_constraint_matrix(np.array([0.5, 0.0]), 1.0)

    def test_nonpositive_water_density_rejected(self):
        with pytest.raises(ValueError, match="water density"):
            classify_constraint_matrix(np.array([0.5]), 0.0)

    def test_kind_values_are_stable_strings(self):
        assert Definiteness.POSITIVE_SEMIDEFINITE.value == "PositiveSemidefinite"
        assert Definiteness.NEGATIVE_SEMIDEFINITE.value == "NegativeSemidefinite"
        assert Definiteness.INDEFINITE.value == "Indefinite"


class TestEigenSignCheck:
    def test_normal_order_signature(self):
        a = min_index_matrix([1.25, 1.6667, 2.0, 2.2222]) - 1.0
        assert eigen_sign_check(a) == (0, 0, 4)

    def test_reverse_order_signature(self):
        a = min_index_matrix([1 / 0.45, 2.0, 1 / 0.6, 1.25]) - 1.0
        assert eigen_sign_check(a) == (3, 0, 1)

    def test_zero_matrix(self):
        assert eigen_sign_check(np.zeros((4, 4))) == (0, 4, 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_sign_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_inertia_matches_congruent_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            m = rng.uniform(-10.0, 10.0, size=n)
            if np.any(np.abs(np.diff(m, prepend=0.0)) < 1e-3):
                continue  # keep eigenvalues bounded away from the zero tolerance
            diagonal = congruence_diagonal(m).diagonal
            negatives = int(np.sum(diagonal < 0))
            zeros = int(np.sum(diagonal == 0))
            positives = int(np.sum(diagonal > 0))
            assert eigen_sign_check(min_index_matrix(m)) == (negatives, zeros, positives)
