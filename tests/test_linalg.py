"""Matrix-core tests: adjoint, eigen, powers, norms, and the radius engine."""

import numpy as np
import pytest

import numrad.linalg as linalg
from numrad import (
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    abs_value,
    adjoint,
    hermitian_eigen,
    matrix_power_psd,
    numerical_radius,
    numerical_radius_oracle,
    operator_norm,
)
from numrad.linalg import abs_power, abs_powers, as_matrix, as_vector, inner

J = np.array([[0, 1], [0, 0]], dtype=complex)


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


class TestValidation:
    def test_as_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 0]])

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_inner_is_linear_in_first_slot(self):
        x = np.array([1 + 2j, 3j])
        y = np.array([2 - 1j, 1 + 1j])
        assert inner(2j * x, y) == pytest.approx(2j * inner(x, y))
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_real_matrix_transposes(self):
        assert np.array_equal(adjoint(J), np.array([[0, 0], [1, 0]], dtype=complex))

    def test_diagonal_conjugates(self):
        m = np.diag([1j, 0])
        assert np.array_equal(adjoint(m), np.diag([-1j, 0]))


class TestHermitianEigen:
    def test_diagonal(self):
        dec = hermitian_eigen(np.diag([3.0, 1.0]))
        assert dec.eigenvalues == pytest.approx([1.0, 3.0])

    def test_pauli_x(self):
        dec = hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0])

    def test_gue_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        g = ginibre(rng, 5)
        h = (g + g.conj().T) / 2
        dec = hermitian_eigen(h)
        assert np.linalg.norm(dec.reconstruct() - h) <= 1e-10 * max(1, np.linalg.norm(h))
        v = dec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(5)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(J)


class TestAbsValue:
    def test_jordan_block(self):
        assert abs_value(J) == pytest.approx(np.diag([0.0, 1.0]))

    def test_jordan_adjoint(self):
        assert abs_value(adjoint(J)) == pytest.approx(np.diag([1.0, 0.0]))

    def test_unitary_gives_identity(self):
        u = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        assert abs_value(u) == pytest.approx(np.eye(2))

    def test_square_recovers_gram(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            m = ginibre(rng, n)
            r = abs_value(m)
            gram = m.conj().T @ m
            assert np.linalg.norm(r @ r - gram) <= 1e-9 * max(1, np.linalg.norm(gram))
            assert np.min(np.linalg.eigvalsh(r)) >= -1e-12

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_adjoint_powers_from_one_svd(self, p):
        rng = np.random.default_rng(15)
        for n in (2, 3, 5):
            m = ginibre(rng, n)
            _, abs_adj = abs_powers(m)
            assert abs_adj.power(p) == pytest.approx(abs_power(m.conj().T, p), abs=1e-12)


class TestMatrixPowerPsd:
    def test_diagonal_square_root(self):
        assert matrix_power_psd(np.diag([4.0, 9.0]), 0.5) == pytest.approx(np.diag([2.0, 3.0]))

    def test_unit_exponent_returns_input(self):
        rng = np.random.default_rng(4)
        g = ginibre(rng, 4)
        a = g.conj().T @ g
        assert matrix_power_psd(a, 1.0) == pytest.approx(a, abs=1e-10 * np.linalg.norm(a))

    def test_projection_square_root(self):
        p = np.diag([0.0, 1.0])
        assert matrix_power_psd(p, 0.5) == pytest.approx(p)

    def test_zero_exponent_gives_full_identity(self):
        assert matrix_power_psd(np.diag([0.0, 2.0]), 0.0) == pytest.approx(np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            matrix_power_psd(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            matrix_power_psd(J, 2.0)

    def test_abs_power_matches_power_of_abs(self):
        rng = np.random.default_rng(9)
        m = ginibre(rng, 4)
        assert abs_power(m, 1.5) == pytest.approx(matrix_power_psd(abs_value(m), 1.5))


class TestOperatorNorm:
    def test_jordan(self):
        assert operator_norm(J) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_past_gram_range(self):
        # M*M would hold 1e320, past the double range
        assert operator_norm([[0, 1e160], [0, 0]]) == 1e160


class TestNumericalRadius:
    def test_jordan_block_analytic(self):
        # numerical range of the 2x2 shift is the disk of radius 1/2
        w = numerical_radius(J)
        assert w == pytest.approx(0.5, abs=1e-8)
        assert numerical_radius_oracle(J, 200, 1) <= w + 1e-8

    def test_hermitian_diagonal(self):
        assert numerical_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0, abs=1e-8)

    def test_identity(self):
        for n in (1, 3, 6):
            assert numerical_radius(np.eye(n)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert numerical_radius(np.zeros((4, 4))) == 0.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_radius(J, tol=0.0)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(7)
        for k in range(20):
            n = 2 + k % 6
            m = ginibre(rng, n)
            w = numerical_radius(m)
            nrm = operator_norm(m)
            eps = 1e-8 * max(1.0, nrm)
            assert nrm / 2 - eps <= w <= nrm + eps

    def test_hermitian_matches_spectral_radius(self):
        rng = np.random.default_rng(8)
        for k in range(12):
            n = 2 + k % 6
            g = ginibre(rng, n)
            h = (g + g.conj().T) / 2
            w = numerical_radius(h)
            target = np.max(np.abs(np.linalg.eigvalsh(h)))
            assert abs(w - target) <= 1e-8 * max(1.0, operator_norm(h))

    def test_homogeneity_and_rotation_invariance(self):
        rng = np.random.default_rng(12)
        m = ginibre(rng, 4)
        w = numerical_radius(m)
        for c in (2.0, -0.3, 1.7 - 2.2j):
            assert numerical_radius(c * m) == pytest.approx(abs(c) * w, rel=1e-9)
        for phi in (0.4, 1.9, 5.1):
            assert numerical_radius(np.exp(1j * phi) * m) == pytest.approx(w, rel=1e-9)

    @pytest.mark.parametrize("c", [1e-200, 1e150, 1e200])
    def test_homogeneity_at_extreme_scale(self, c):
        m = ginibre(np.random.default_rng(12), 4)
        assert numerical_radius(c * m) == pytest.approx(c * numerical_radius(m), rel=1e-12)

    def test_dominates_spectral_radius_normal(self):
        # normal matrix with known spectrum: w >= spectral radius
        rng = np.random.default_rng(13)
        eigs = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / np.sqrt(2)
        q, _ = np.linalg.qr(ginibre(rng, 5))
        m = (q * eigs) @ q.conj().T
        rho = np.max(np.abs(eigs))
        w = numerical_radius(m)
        assert w >= rho - 1e-6 * max(1.0, operator_norm(m))
        # for normal matrices w equals the spectral radius
        assert w == pytest.approx(rho, abs=1e-8 * max(1.0, rho))

    def test_dominates_spectral_radius_triangular(self):
        rng = np.random.default_rng(14)
        m = np.triu(ginibre(rng, 5))
        rho = np.max(np.abs(np.diagonal(m)))
        assert numerical_radius(m) >= rho - 1e-6 * max(1.0, operator_norm(m))


class TestOracle:
    def test_identity_single_sample(self):
        assert numerical_radius_oracle(np.eye(3), 1, 123) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert numerical_radius_oracle(np.zeros((2, 2)), 10, 7) == 0.0

    def test_jordan_converges(self):
        val = numerical_radius_oracle(J, 1000, 42)
        assert 0.5 - 1e-4 <= val <= 0.5 + 1e-8

    def test_never_exceeds_engine(self):
        rng = np.random.default_rng(21)
        for k in range(10):
            n = 2 + k % 5
            m = ginibre(rng, n)
            w = numerical_radius(m)
            for seed in (0, 1, 99):
                assert numerical_radius_oracle(m, 4, seed) <= w + 1e-8 * max(1, operator_norm(m))

    def test_deterministic_per_seed(self, monkeypatch):
        rng = np.random.default_rng(22)
        m = ginibre(rng, 4)
        unit = linalg._unit

        def run(seed):
            # The first vector a call normalises is its first random start.
            seen = []
            monkeypatch.setattr(linalg, "_unit", lambda v: seen.append(v.copy()) or unit(v))
            return numerical_radius_oracle(m, 16, seed), seen[0]

        a, start_a = run(5)
        b, start_b = run(5)
        _, start_c = run(6)
        assert a == b
        assert np.array_equal(start_a, start_b)
        # Distinct seeds may reach the same maximiser, so only their starts
        # are compared.
        assert not np.array_equal(start_a, start_c)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            numerical_radius_oracle(J, 0, 1)


class TestEigenFailureMapping:
    def test_noconvergence_is_runtime_error(self):
        assert issubclass(NoConvergenceError, RuntimeError)
