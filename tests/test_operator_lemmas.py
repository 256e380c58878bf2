"""Operator-lemma predicates: frozen values, equality cases, seeded fuzz."""

import warnings

import numpy as np
import pytest

from numrad import (
    NotHermitianError,
    NotPSDError,
    NotUnitVectorError,
    UnknownFunctionError,
    convex_norm_check,
    jensen_operator_check,
    mccarthy_check,
    mixed_schwarz_check,
)
from numrad.linalg import (
    abs_power,
    abs_value,
    hermitian_eigen,
    inner,
    matrix_power_psd,
    operator_norm,
)
from numrad.operator_lemmas import CONVEX_FUNCTIONS

J = np.array([[0, 1], [0, 0]], dtype=complex)
HALF = np.array([1.0, 1.0]) / np.sqrt(2)


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def psd(rng, n):
    g = ginibre(rng, n)
    return g.conj().T @ g


def unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestMcCarthy:
    def test_identity_saturates(self):
        rec = mccarthy_check(np.eye(2), HALF, 3.0)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_diagonal_strict_gap(self):
        # <Tx,x> = 2, <T^2 x,x> = 8
        rec = mccarthy_check(np.diag([0.0, 4.0]), HALF, 2.0)
        assert rec.lhs == pytest.approx(4.0)
        assert rec.rhs == pytest.approx(8.0)

    def test_r_one_is_equality(self):
        rng = np.random.default_rng(1)
        rec = mccarthy_check(psd(rng, 3), unit(rng, 3), 1.0)
        assert abs(rec.slack) <= 1e-12 * max(1.0, rec.rhs)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            mccarthy_check(np.diag([1.0, -1.0]), HALF, 2.0)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitVectorError):
            mccarthy_check(np.eye(2), np.array([1.0, 1.0]), 2.0)


class TestConvexNorm:
    def test_equal_operands_saturate(self):
        rng = np.random.default_rng(2)
        a = psd(rng, 3)
        rec = convex_norm_check(a, a, 2.5)
        assert abs(rec.slack) <= 1e-9 * max(1.0, rec.rhs)

    def test_complementary_projections(self):
        rec = convex_norm_check(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 2.0)
        assert rec.lhs == pytest.approx(0.25)
        assert rec.rhs == pytest.approx(0.5)

    def test_r_one_is_equality(self):
        rng = np.random.default_rng(3)
        rec = convex_norm_check(psd(rng, 4), psd(rng, 4), 1.0)
        assert abs(rec.slack) <= 1e-12 * max(1.0, rec.rhs)


class TestMixedSchwarz:
    def test_identity_equality(self):
        rec = mixed_schwarz_check(np.eye(2), HALF, HALF, 0.3)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_alpha_rule_is_the_bound_params_rule(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\), got 1\.5$"):
            mixed_schwarz_check(np.eye(2), HALF, HALF, 1.5)

    def test_jordan_equality_case(self):
        rec = mixed_schwarz_check(J, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_squared_form_on_diagonal_vector(self):
        # alpha = 1/2 with y = x gives |<Tx,x>|^2 <= <|T|x,x><|T*|x,x>
        rng = np.random.default_rng(4)
        t = ginibre(rng, 4)
        x = unit(rng, 4)
        rec = mixed_schwarz_check(t, x, x, 0.5)
        prod = np.real(inner(abs_value(t) @ x, x)) * np.real(inner(abs_value(t.conj().T) @ x, x))
        assert rec.rhs**2 == pytest.approx(prod, rel=1e-9)
        assert rec.lhs**2 <= prod + 1e-10 * max(1.0, prod)


class TestJensen:
    def test_square_on_balanced_vector(self):
        rec = jensen_operator_check(np.diag([1.0, -1.0]), HALF, "square")
        assert rec.lhs == pytest.approx(0.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_abs_on_balanced_vector(self):
        rec = jensen_operator_check(np.diag([2.0, -2.0]), HALF, "abs")
        assert rec.lhs == pytest.approx(0.0)
        assert rec.rhs == pytest.approx(2.0)

    def test_eigenvector_saturates_every_h(self):
        t = np.diag([0.5, -1.5])
        x = np.array([0.0, 1.0])
        for h_id in CONVEX_FUNCTIONS:
            rec = jensen_operator_check(t, x, h_id)
            assert abs(rec.slack) <= 1e-12 * max(1.0, abs(rec.rhs))

    def test_rejects_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            jensen_operator_check(np.eye(2), HALF, "cube")

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            jensen_operator_check(J, HALF, "square")


@pytest.mark.parametrize("name,call", [
    ("mccarthy", lambda: mccarthy_check(1e200 * np.eye(2), np.array([1.0, 0.0]), 2.0)),
    ("convex_norm", lambda: convex_norm_check(1e200 * np.eye(2), 1e200 * np.eye(2), 2.0)),
    ("mixed_schwarz", lambda: mixed_schwarz_check(np.eye(2), 1e200 * HALF, 1e200 * HALF, 0.5)),
    ("jensen_exp", lambda: jensen_operator_check(800.0 * np.eye(2), np.array([1.0, 0.0]), "exp")),
    ("jensen_quartic", lambda: jensen_operator_check(1e100 * np.eye(2), HALF, "quartic")),
])
def test_side_past_double_range_names_the_predicate(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(OverflowError, match=f"^{name}: a side leaves the double range"):
            call()


def test_convex_norm_mean_near_the_top_of_the_double_range():
    a = 1.5e308 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = convex_norm_check(a, a, 1.0)
    assert (rec.lhs, rec.rhs) == (1.5e308, 1.5e308)


def test_convex_norm_eigenvalue_past_double_range_names_the_predicate():
    a = np.full((2, 2), 1.5e308)  # PSD, entries finite, eigenvalue 3e308
    with pytest.raises(OverflowError, match="^convex_norm: an eigenvalue leaves the double range"):
        convex_norm_check(a, a, 1.0)


def test_norm_past_double_range_names_its_cause():
    with pytest.raises(OverflowError, match="operator norm leaves the double range"):
        mixed_schwarz_check(np.full((2, 2), 1.5e308), HALF, HALF, 0.5)


def test_seeded_fuzz_all_predicates():
    rng = np.random.default_rng(99)
    for k in range(200):
        n = 2 + k % 5
        x = unit(rng, n)
        r = 1.0 + 3.0 * rng.random()
        alpha = 0.05 + 0.9 * rng.random()
        assert mccarthy_check(psd(rng, n), x, r).holds
        assert convex_norm_check(psd(rng, n), psd(rng, n), r).holds
        assert mixed_schwarz_check(ginibre(rng, n), x, unit(rng, n), alpha).holds
        g = ginibre(rng, n)
        h = (g + g.conj().T) / 2
        for h_id in CONVEX_FUNCTIONS:
            assert jensen_operator_check(h, x, h_id).holds


def test_each_spectral_side_is_its_matrix_form():
    """Each side read from the spectrum matches the matrix function formed by
    the public helpers within 1e-12 relative, on seeded n = 2..6 inputs of
    which every other is rank-deficient. The rank-deficient T of the mixed
    Schwarz check is a block [[G, 0], [0, 0]], whose SVD and its adjoint's give
    exact zero singular values: roundoff-sized ones, raised to a small power,
    would differ between the two SVDs the matrix form takes."""
    rng = np.random.default_rng(2025)
    for k in range(200):
        n = 2 + k % 5
        rank = n if k % 2 else 1 + (k // 10) % (n - 1)
        g, g2, g3 = rng.standard_normal((3, rank, n)) + 1j * rng.standard_normal((3, rank, n))
        a, b = g.conj().T @ g, g2.conj().T @ g2
        x, y = unit(rng, n), unit(rng, n)
        r, alpha = 1.0 + 3.0 * rng.random(), 0.05 + 0.9 * rng.random()
        t = np.zeros((n, n), dtype=complex)
        t[:rank, :rank] = g3[:, :rank]
        herm = a - b
        e = hermitian_eigen(herm)
        pairs = [
            (mccarthy_check(a, x, r).rhs, np.real(inner(matrix_power_psd(a, r) @ x, x))),
            (convex_norm_check(a, b, r).lhs, operator_norm(matrix_power_psd(a / 2 + b / 2, r))),
            (mixed_schwarz_check(t, x, y, alpha).rhs,
             np.linalg.norm(abs_power(t, alpha) @ x)
             * np.linalg.norm(abs_power(t.conj().T, 1.0 - alpha) @ y)),
        ] + [(jensen_operator_check(herm, x, h_id).rhs,
              np.real(inner((e.eigenvectors * h(e.eigenvalues)) @ e.eigenvectors.conj().T @ x, x)))
             for h_id, h in CONVEX_FUNCTIONS.items()]
        for spectral, formed in pairs:
            assert spectral == pytest.approx(formed, rel=1e-12, abs=0.0)
