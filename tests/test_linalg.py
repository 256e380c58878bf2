"""Matrix-core tests: adjoint, eigen, powers, norms, and the radius engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    numerical_radius_enclosure,
    numerical_radius_oracle,
    operator_norm,
)
from numrad.bounds import matrix_terms, pair_terms
from numrad.ensembles import ENSEMBLES, EnsembleConfig, generate_ensemble
from numrad.linalg import abs_power, as_matrix, as_vector, inner

J = np.array([[0, 1], [0, 0]], dtype=complex)


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(ginibre(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def overlap(a, b, rel=1e-12):
    """Whether the enclosures a = (lo, hi) and b share a point, up to
    roundoff of ``rel`` relative."""
    return a[0] <= b[1] * (1 + rel) and b[0] <= a[1] * (1 + rel)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=1, max_value=6)


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

    def test_extreme_scale(self):
        dec = hermitian_eigen(1e160 * np.eye(2))
        assert np.array_equal(dec.eigenvalues, [1e160, 1e160])
        assert np.array_equal(dec.reconstruct(), 1e160 * np.eye(2))
        with pytest.raises(NotHermitianError):
            hermitian_eigen(1e160 * J)


class TestLapackFailures:
    # LAPACK's own failures and a decomposition that misses its checks, each
    # named as NoConvergenceError
    @staticmethod
    def _eigh(monkeypatch, change):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: change(*eigh(h)))

    def test_eigensolver_failure(self, monkeypatch):
        def fail(vals, vecs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        self._eigh(monkeypatch, fail)
        with pytest.raises(NoConvergenceError,
                           match="^eigensolver failed: Eigenvalues did not converge$"):
            hermitian_eigen(np.diag([3.0, 1.0]))

    def test_eigenvectors_off_unitary(self, monkeypatch):
        self._eigh(monkeypatch, lambda vals, vecs: (vals, 2.0 * vecs))  # residual still 0
        with pytest.raises(NoConvergenceError, match="^eigendecomposition unitarity error "):
            matrix_power_psd(np.diag([3.0, 1.0]), 0.5)

    def test_eigenvalues_off_the_residual(self, monkeypatch):
        self._eigh(monkeypatch, lambda vals, vecs: (vals + 1.0, vecs))
        with pytest.raises(NoConvergenceError, match="^eigendecomposition residual "):
            hermitian_eigen(np.diag([3.0, 1.0]))

    def test_svd_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergenceError, match="^SVD failed: SVD did not converge$"):
            abs_value(J)


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
            abs_adj = matrix_terms(m)._b(p)[0]  # the term tables' |M*|^p
            assert abs_adj == pytest.approx(abs_power(m.conj().T, p), abs=1e-12)


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

    def test_zero_exponent_is_exactly_the_identity(self):
        # a roundoff singular value included; V diag(s^0) V* = V V* misses I in its last bits
        rng = np.random.default_rng(5)
        g = ginibre(rng, 3)
        singular = np.array([[1, 2, 0], [2j, 4j, 0], [3, 6, 1]]) @ g  # rank 2
        eye = np.eye(3, dtype=complex)
        assert np.array_equal(abs_power(singular, 0.0), eye)
        assert np.array_equal(abs_power(np.array([g, singular]), 0.0), np.array([eye, eye]))
        assert np.array_equal(matrix_power_psd(np.diag([0.0, 2.0]), 0.0), np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            matrix_power_psd(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            matrix_power_psd(J, 2.0)

    def test_extreme_scale(self):
        assert matrix_power_psd(1e160 * np.eye(2), 0.5) == pytest.approx(1e80 * np.eye(2))
        # near the top of the double range A^1 = A must not overflow
        assert np.array_equal(matrix_power_psd(1.5e308 * np.eye(2), 1.0), 1.5e308 * np.eye(2))
        with pytest.raises(NotHermitianError):
            matrix_power_psd(1e160 * J, 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_exponent(self, p):
        # the spectral power would be all NaN, or the identity for nan
        with pytest.raises(ValueError, match="^exponent must be finite and >= 0, got "):
            matrix_power_psd(np.eye(2), p)
        with pytest.raises(ValueError, match="^exponent must be finite and >= 0, got "):
            abs_power(2.0 * np.eye(2), p)

    def test_abs_power_matches_power_of_abs(self):
        rng = np.random.default_rng(9)
        m = ginibre(rng, 4)
        assert abs_power(m, 1.5) == pytest.approx(matrix_power_psd(abs_value(m), 1.5))

    @pytest.mark.parametrize("fn,m,p", [
        (abs_power, np.diag([2.0, 3.0]), 700.0),
        (abs_power, np.diag([2.0, 0.0]), 2000.0),
        (matrix_power_psd, np.diag([2.0, 3.0]), 2000.0),
    ])
    def test_power_past_double_range_names_the_function(self, fn, m, p):
        # the spectral power would be an all-NaN matrix
        with pytest.raises(OverflowError,
                           match=f"^{fn.__name__}: the power leaves the double range$"):
            fn(m, p)

    def test_power_near_the_top_of_the_double_range(self):
        assert abs_power(np.diag([2.0, 0.0]), 1023.0) == pytest.approx(np.diag([2.0**1023, 0.0]))


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

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        # tol = inf would return a loose enclosure: (1.707..., 1.732...) here
        with pytest.raises(ValueError, match="^tol must be finite and > 0, got "):
            numerical_radius_enclosure([[1, 2], [0, 1j]], tol)

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

    def test_largest_double_entry(self):
        assert numerical_radius([[1.5e308, 0], [0, 0]]) == 1.5e308


class TestEnclosure:
    """numerical_radius_enclosure: lo <= w(M) <= hi."""

    def test_gap_within_tol(self):
        rng = np.random.default_rng(31)
        for k in range(30):
            m = ginibre(rng, 2 + k % 7)
            for tol in (1e-10, 1e-4):
                lo, hi = numerical_radius_enclosure(m, tol)
                assert 0 < lo <= hi <= lo + tol * hi
                assert numerical_radius(m, tol) == lo

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_shift_contains_cosine(self, n):
        lo, hi = numerical_radius_enclosure(np.eye(n, k=1))
        w = math.cos(math.pi / (n + 1))
        assert lo <= w * (1 + 1e-15) and w <= hi * (1 + 1e-15)
        assert hi - lo <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_weighted_shift_contains_spin(self, n):
        # Weights sqrt(k (n - k)) make S the spin raising operator J_+ of
        # spin j = (n - 1)/2, so Re S = J_x has spectrum -j..j and w(S) = j.
        # A unitary copy of S has the same disc W(S) but no zero pattern.
        s = np.diag(np.sqrt([k * (n - k) for k in range(1, n)]), k=1)
        u = haar_unitary(np.random.default_rng(n), n)
        j = (n - 1) / 2
        for m in (s, 1j * s, u @ s @ u.conj().T):
            lo, hi = numerical_radius_enclosure(m)
            assert lo <= j * (1 + 1e-13) and j <= hi * (1 + 1e-13)

    @pytest.mark.parametrize("c", [0.1, 1.0, 3.0])
    def test_ellipse_contains_semi_major_axis(self, c):
        # W of [[1, c], [0, -1]] is the elliptical disc with foci +-1 and
        # minor axis c, centred at 0, so w = sqrt(4 + c^2) / 2; rotations
        # put its maximum between the starting angles.
        w = math.sqrt(4 + c * c) / 2
        for phi in (0.1, 1.0, 2.5):
            m = np.exp(1j * phi) * np.array([[1, c], [0, -1]])
            lo, hi = numerical_radius_enclosure(m)
            assert lo <= w * (1 + 1e-15) and w <= hi * (1 + 1e-15)
            assert hi - lo <= 1e-10 * hi

    def test_near_disc_contains_w(self):
        # J_16 + 1e-15 G is not exactly circular, so the polygon cannot
        # localize its maximum; it stops at MAX_LIVE_CELLS live cells.
        g = ginibre(np.random.default_rng(16), 16)
        m = np.eye(16, k=1) + 1e-15 * g
        lo, hi = numerical_radius_enclosure(m)
        dist = 1e-15 * operator_norm(g)  # |w(A) - w(B)| <= ||A - B||
        w = math.cos(math.pi / 17)
        assert lo - dist <= w <= hi + dist
        assert hi - lo <= 1e-6 * hi

    def test_tiny_tol_terminates(self):
        m = ginibre(np.random.default_rng(17), 8)
        lo, hi = numerical_radius_enclosure(m, 1e-300)
        assert overlap((lo, hi), numerical_radius_enclosure(m))
        assert hi - lo <= 1e-14 * hi

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_unitary_similarity(self, seed, n):
        rng = np.random.default_rng(seed)
        m, u = ginibre(rng, n), haar_unitary(rng, n)
        assert overlap(numerical_radius_enclosure(m),
                       numerical_radius_enclosure(u @ m @ u.conj().T))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_adjoint(self, seed, n):
        m = ginibre(np.random.default_rng(seed), n)
        assert overlap(numerical_radius_enclosure(m), numerical_radius_enclosure(m.conj().T))

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, k=sizes)
    def test_direct_sum(self, seed, n, k):
        rng = np.random.default_rng(seed)
        m, other = ginibre(rng, n), 2 * ginibre(rng, k)
        both = np.zeros((n + k, n + k), dtype=complex)
        both[:n, :n], both[n:, n:] = m, other
        parts = [numerical_radius_enclosure(x) for x in (m, other)]
        joint = (max(p[0] for p in parts), max(p[1] for p in parts))
        assert overlap(numerical_radius_enclosure(both), joint)


class TestStack:
    """A (k, n, n) stack runs in lockstep; each matrix gets its own cap and
    power-of-two scale, so its enclosure is bitwise the one it gets alone."""

    @staticmethod
    def padded(m, n=16):
        out = np.zeros((n, n), dtype=complex)
        out[:len(m), :len(m)] = m  # w(M + 0) = w(M)
        return out

    def test_mixed_stack_matches_single_calls(self):
        rng = np.random.default_rng(20)
        h = ginibre(rng, 16)
        g8, g16 = ginibre(rng, 8), ginibre(np.random.default_rng(16), 16)
        s = 1e-13j * (g16 + g16.conj().T)
        stack = np.array([
            np.zeros((16, 16)),
            self.padded(np.eye(5, k=1)),  # exact disc
            h + h.conj().T,
            self.padded(1e-200 * g8),
            self.padded(1e200 * g8),
            np.eye(16, k=1) + 1e-15 * g16,  # near-disc: stops at the cell cap
            h + h.conj().T + s,  # near-Hermitian: angles 0 and pi
            h + h.conj().T,  # a repeat of row 2
            -np.zeros((16, 16)),  # entries -0.0
        ])
        lo, hi = numerical_radius_enclosure(stack)
        for k, m in enumerate(stack):
            assert (lo[k], hi[k]) == numerical_radius_enclosure(m), k
        for k in 0, 8:
            assert lo[k] == hi[k] == 0.0 and not np.signbit([lo[k], hi[k]]).any()
        assert (lo[7], hi[7]) == (lo[2], hi[2])
        assert lo[1] == hi[1] == pytest.approx(math.cos(math.pi / 6), rel=1e-14)
        skew = np.linalg.norm(stack[6] - stack[6].conj().T) / 2
        assert lo[6] == lo[2] and hi[6] == pytest.approx(lo[6] + skew, rel=1e-15)
        assert np.array_equal(numerical_radius(stack), lo)

    def test_overflow_is_inf_in_a_stack(self):
        big = np.array([[1.5e308, 1.5e308], [1.5e308, 1.5e308]])
        lo, hi = numerical_radius_enclosure(np.array([big, J]))
        assert lo[0] == hi[0] == np.inf and lo[1] == 0.5
        with pytest.raises(OverflowError, match="numerical radius"):
            numerical_radius(big)

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="finite"):
            numerical_radius(np.array([J, np.nan * J]))
        with pytest.raises(ValueError, match="square"):
            numerical_radius(np.zeros((2, 2, 3)))
        empty = np.zeros((0, 2, 2))
        for call in (numerical_radius, lambda a: abs_power(a, 0.5), matrix_terms,
                     lambda a: pair_terms(a, a)):
            with pytest.raises(ValueError, match=r"^expected a square matrix stack, "
                                                 r"got shape \(0, 2, 2\)$"):
                call(empty)


class TestEngineBatches:
    """Deterministic cost guards: eigvalsh batches per engine call."""

    def batches(self, monkeypatch, m):
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(len(h)) or eigvalsh(h))
        numerical_radius(m)
        return sizes

    def test_ginibre(self, monkeypatch):
        assert len(self.batches(monkeypatch, ginibre(np.random.default_rng(0), 8))) <= 12

    def test_stack_takes_the_batches_of_its_slowest_matrix(self, monkeypatch):
        # alone these take 9 to 12 batches; other seeds have matrices taking 14
        rng = np.random.default_rng(0)
        stack = np.array([ginibre(rng, 8) for _ in range(10)])
        alone = max(len(self.batches(monkeypatch, m)) for m in stack)
        assert len(self.batches(monkeypatch, stack)) == alone <= 12

    def test_hermitian_single_batch(self, monkeypatch):
        g = ginibre(np.random.default_rng(0), 8)
        assert self.batches(monkeypatch, g + g.conj().T) == [2]

    def test_jordan_single_solve(self, monkeypatch):
        assert self.batches(monkeypatch, np.eye(8, k=1)) == [1]


class TestNearHermitian:
    """M = R + iS with ||S||_F <= tol ||R||_F / sqrt(n) takes the angles 0 and
    pi alone: rho(R) <= w <= rho(R) + ||S||_F encloses w within tol."""

    TOL = 1e-10

    @staticmethod
    def angles(monkeypatch, m):
        counts = []
        sweep = linalg._sweep

        def counted(re, im, owner, thetas):
            counts.append(len(thetas))
            return sweep(re, im, owner, thetas)

        monkeypatch.setattr(linalg, "_sweep", counted)
        return numerical_radius_enclosure(m, TestNearHermitian.TOL), counts

    @staticmethod
    def split(seed, n, c):
        """(R, R + iS) with ||S||_F = c tol ||R||_F / sqrt(n): c < 1 is below
        the threshold, c > 1 above it."""
        rng = np.random.default_rng(seed)
        g, x = ginibre(rng, n), ginibre(rng, n)
        r, s = g + g.conj().T, x + x.conj().T
        s *= c * TestNearHermitian.TOL * np.linalg.norm(r) / math.sqrt(n) / np.linalg.norm(s)
        return r, r + 1j * s

    @staticmethod
    def dense_scan(m, k=4096):
        """max f over k equispaced angles: a lower estimate of w(M)."""
        t = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)[:, None, None]
        re, im = (m + m.conj().T) / 2, (m - m.conj().T) / 2j
        return np.linalg.eigvalsh(np.cos(t) * re - np.sin(t) * im).max()

    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 5), (2, 8), (3, 16)])
    @pytest.mark.parametrize("c", [0.0, 1 - 1e-6])
    def test_two_angles_enclose_w(self, monkeypatch, seed, n, c):
        r, m = self.split(seed, n, c)
        (lo, hi), counts = self.angles(monkeypatch, m)
        assert counts == [2]
        rho = np.abs(np.linalg.eigvalsh(r)).max()
        assert lo == pytest.approx(rho, rel=1e-14)
        assert hi == pytest.approx(lo + np.linalg.norm(m - m.conj().T) / 2, rel=1e-15, abs=0.0)
        scan = self.dense_scan(m)
        assert lo <= scan * (1 + 1e-14) and scan <= hi
        assert hi - lo <= self.TOL * hi

    @pytest.mark.parametrize("seed,n", [(0, 2), (1, 5), (2, 8)])
    def test_just_above_the_threshold_refines(self, monkeypatch, seed, n):
        r, m = self.split(seed, n, 1 + 1e-6)
        (lo, hi), counts = self.angles(monkeypatch, m)
        assert counts[0] == linalg._START_CELLS
        rho = np.abs(np.linalg.eigvalsh(r)).max()
        # lo samples angles 0 and pi too; w <= rho + ||S||_F
        assert rho * (1 - 1e-14) <= lo <= rho + np.linalg.norm(m - m.conj().T) / 2
        assert hi - lo <= self.TOL * hi

    def test_skew_hermitian_is_not_near_hermitian(self, monkeypatch):
        g = ginibre(np.random.default_rng(4), 4)
        (lo, hi), counts = self.angles(monkeypatch, 1j * (g + g.conj().T))
        assert counts[0] == linalg._START_CELLS
        assert lo == pytest.approx(np.abs(np.linalg.eigvalsh(g + g.conj().T)).max(), rel=1e-12)


def oracle_corpus_matrix(rng, kind, n):
    """One matrix of the oracle's pinned corpus."""
    g = ginibre(rng, n)
    if kind == "ginibre":
        return g
    if kind == "gue":
        return (g + g.conj().T) / 2
    if kind == "normal":
        u = haar_unitary(rng, n)
        return (u * g[0]) @ u.conj().T
    if kind == "rank_one":
        return np.outer(g[0], g[1].conj())
    if kind == "nilpotent":
        return np.triu(g, 1)
    return rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()) * np.eye(n, k=1)


def sequential_oracle(m, samples, seed):
    """The sampling oracle as one ascent per sample, one after another: the
    Barzilai-Borwein loop that numerical_radius_oracle runs in lockstep,
    kept as its reference. Returns the value and whether any ascent ran to
    the step cap instead of stopping on its tangent."""

    def unit(v):
        return v / np.linalg.norm(v)

    a, e = linalg._pow2_scaled(as_matrix(m))
    n = a.shape[0]
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return 0.0, False
    rng = np.random.default_rng(seed)
    best, capped = 0.0, False
    for _ in range(samples):
        x = unit(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        x_prev = t_prev = None
        for step in range(101):
            q = np.vdot(x, a @ x)
            best = max(best, abs(q))
            if step == 100:
                capped = True
                break
            ph = np.exp(-1j * np.angle(q))
            grad = 0.5 * (ph * (a @ x) + np.conj(ph) * (a.conj().T @ x))
            tangent = grad - np.real(np.vdot(x, grad)) * x
            if np.linalg.norm(tangent) <= 1e-8 * fro:
                break
            eta = 1.0 / fro
            if x_prev is not None:
                s = x - x_prev
                ss, st = np.vdot(s, s).real, np.vdot(s, t_prev - tangent).real
                # the length ss / st within [1, 100] / fro; st <= 0 (no
                # positive curvature along s) takes the longest
                eta = 100.0 / fro if 100.0 * st <= fro * ss else max(ss / st, 1.0 / fro)
            x_prev, t_prev = x, tangent
            x = unit(x + eta * tangent)
    return math.ldexp(best, e), capped


class TestOracle:
    def test_identity_single_sample(self):
        assert numerical_radius_oracle(np.eye(3), 1, 123) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert numerical_radius_oracle(np.zeros((2, 2)), 10, 7) == 0.0

    def test_jordan_converges(self):
        assert numerical_radius_oracle(J, 1000, 42) == pytest.approx(0.5, rel=1e-12)

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
        starts = linalg._oracle_starts

        def run(seed):
            seen = []
            monkeypatch.setattr(linalg, "_oracle_starts",
                                lambda *args: seen.append(starts(*args)) or seen[-1])
            return numerical_radius_oracle(m, 16, seed), seen[0]

        a, start_a = run(5)
        b, start_b = run(5)
        _, start_c = run(6)
        assert a == b
        assert np.array_equal(start_a, start_b)
        # Distinct seeds may reach the same maximiser, so only their starts
        # are compared.
        assert not np.array_equal(start_a, start_c)

    def test_matches_sequential_ascent(self):
        """The lockstep block runs each sample's ascent as the one-vector
        loop of sequential_oracle does, from the same starts. Where every
        ascent stops on its tangent, roundoff is damped out and the two agree
        within 1e-12 relative; an ascent cut at the step cap keeps its
        trajectory's roundoff, so there they agree at the stop scale, 1e-8."""
        rng = np.random.default_rng(23)
        kinds = ("ginibre", "gue", "normal", "rank_one", "nilpotent", "jordan")
        sizes = (2, 3, 5, 8, 16, 32)
        capped_cases = 0
        for k in range(54):
            kind, n = kinds[k % 6], sizes[k // 9]
            m = oracle_corpus_matrix(rng, kind, n)
            hi = numerical_radius_enclosure(m)[1]
            for samples in (1, 4, 16):
                seed = int(rng.integers(2**32))
                got = numerical_radius_oracle(m, samples, seed)
                want, capped = sequential_oracle(m, samples, seed)
                capped_cases += capped
                rel = 1e-8 if capped else 1e-12
                assert got == pytest.approx(want, rel=rel, abs=0), (kind, n, samples)
                assert got <= hi + 1e-8 * max(1.0, operator_norm(m)), (kind, n, samples)
        # measured: 13 of the 162, at n = 16 and 32; a new one must be seen
        assert capped_cases == 13

    def test_converges_on_ensembles(self):
        """6 seeded matrices per ensemble at n = 8, 16 and 32, 4 samples: the
        ascents end at the maximum, to roundoff and the enclosure's own gap,
        except for the starts that end on a local maximum, counted apart."""
        shortfalls = []
        for kind in ENSEMBLES:
            for n in (8, 16, 32):
                for m in generate_ensemble(EnsembleConfig(kind, n, 6, 1)):
                    hi = numerical_radius_enclosure(m)[1]
                    oracle = numerical_radius_oracle(m, 4, 1)
                    assert oracle <= hi + 1e-8 * max(1.0, operator_norm(m)), (kind, n)
                    shortfalls.append((hi - oracle) / hi)
        assert np.median(shortfalls) <= 1e-10
        assert np.count_nonzero(np.array(shortfalls) > 1e-6) <= 10  # local maxima; 4 measured

    def test_extreme_scale(self):
        assert numerical_radius_oracle([[0, 1e160], [0, 0]], 4, 1) == pytest.approx(5e159,
                                                                                   rel=1e-12)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            numerical_radius_oracle(J, 0, 1)

    def test_rejects_fractional_samples(self):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            numerical_radius_oracle(J, 2.5, 1)

    def test_rejects_bool_samples(self):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            numerical_radius_oracle(J, True, 1)

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1, "1"])
    def test_rejects_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            numerical_radius_oracle(J, 4, seed)

    def test_numpy_integer_arguments(self):
        m = ginibre(np.random.default_rng(24), 4)
        assert (numerical_radius_oracle(m, np.int64(4), np.uint32(7))
                == numerical_radius_oracle(m, 4, 7))


class TestEigenFailureMapping:
    def test_noconvergence_is_runtime_error(self):
        assert issubclass(NoConvergenceError, RuntimeError)

    def test_svd_residual_is_checked_per_matrix(self, monkeypatch):
        # a wrong factor of a small matrix is not hidden by a large one in its stack
        svd = np.linalg.svd

        def wrong_second_u(a):
            u, s, vh = svd(a)
            u[1] += 1e-6
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", wrong_second_u)
        with pytest.raises(NoConvergenceError, match="SVD residual"):
            linalg._svd(np.array([1e6 * np.eye(2), np.eye(2)], dtype=complex))
