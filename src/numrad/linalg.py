"""Dense complex matrix algebra and the numerical-radius engine.

Everything works on square complex matrices held as ``numpy`` arrays of
``complex128``. The numerical radius w(M) = sup_{|x|=1} |<Mx, x>| is
computed by sweeping the rotated Hermitian part

    H(theta) = (e^{i theta} M + e^{-i theta} M*) / 2,

whose largest eigenvalue, maximized over theta in [0, 2pi), equals w(M).
A sampling oracle (random unit vectors plus projected-gradient ascent)
provides an independent lower bound for cross-checking the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

GRID_ANGLES = 720
DEFAULT_RADIUS_TOL = 1e-10
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex128 vector with finite entries."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("vector entries must be finite")
    return a


def same_dim(*arrays: np.ndarray) -> int:
    """Common leading dimension of matrices/vectors, or DimensionMismatchError."""
    dims = {a.shape[0] for a in arrays}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimensions differ: {sorted(dims)}")
    return dims.pop()


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product <x, y> = sum_i x_i * conj(y_i), linear in the first slot."""
    return complex(np.vdot(y, x))


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal columns, so V diag(L) V* reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eigen(m) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    The input must be Hermitian within 1e-12 relative Frobenius error. Raises
    NoConvergenceError if the LAPACK solver fails or the reconstruction
    residual exceeds 1e-10 relative.
    """
    a = as_matrix(m)
    fro = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > 1e-12 * max(1.0, fro):
        raise NotHermitianError("matrix is not Hermitian within 1e-12 relative")
    h = (a + a.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    dec = EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)
    scale = max(1.0, np.linalg.norm(h))
    if np.linalg.norm(dec.reconstruct() - h) > 1e-10 * scale:
        raise NoConvergenceError("eigendecomposition residual above 1e-10 relative")
    if np.linalg.norm(vecs.conj().T @ vecs - np.eye(a.shape[0])) > 1e-10 * scale:
        raise NoConvergenceError("eigenvector basis not unitary within 1e-10")
    return dec


class PSDPower:
    """Spectral powers V diag(s^q) V*, q >= 0, of the PSD matrix V diag(s) V*
    given by orthonormal columns V and values s >= 0, cached per q. The power
    of 0 is the full identity, zero values included."""

    def __init__(self, vectors: np.ndarray, values: np.ndarray):
        self.vectors = vectors
        self.values = values
        self._pows: dict[float, np.ndarray] = {}

    def power(self, q: float) -> np.ndarray:
        """The q-th power; entries past the double range come out inf or NaN."""
        if q < 0:
            raise ValueError("exponent must be >= 0")
        if q not in self._pows:
            v = self.vectors
            if q == 0:
                self._pows[q] = np.eye(v.shape[0], dtype=np.complex128)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    r = (v * self.values ** q) @ v.conj().T
                    self._pows[q] = (r + r.conj().T) / 2.0
        return self._pows[q]


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked SVD a = U diag(s) Vh, s descending.

    Raises NoConvergenceError if the LAPACK solver fails or the reconstruction
    residual exceeds 1e-10 relative to max(1, s_1); the residual is scaled
    before its norm is taken, so inputs near the double range do not overflow.
    """
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    if not np.isfinite(s[0]):
        raise OverflowError("operator norm leaves the double range")
    scale = max(1.0, float(s[0]))
    if not np.linalg.norm((u * (s / scale)) @ vh - a / scale) <= 1e-10:
        raise NoConvergenceError("SVD residual above 1e-10 relative")
    return u, s, vh


def abs_powers(m) -> tuple[PSDPower, PSDPower]:
    """Powers of |M| and of |M*| from one SVD M = U S V*:
    |M|^p = V S^p V* and |M*|^p = U S^p U*."""
    u, s, vh = _svd(as_matrix(m))
    return PSDPower(vh.conj().T, s), PSDPower(u, s)


def abs_value(m) -> np.ndarray:
    """Positive-semidefinite square root of M*M (the matrix absolute value)."""
    return abs_power(m, 1.0)


def abs_power(m, p: float) -> np.ndarray:
    """|M|^p = (M*M)^(p/2) for p >= 0."""
    return abs_powers(m)[0].power(p)


def matrix_power_psd(a, p: float) -> np.ndarray:
    """Spectral power A^p of a PSD Hermitian matrix, p >= 0.

    A must be Hermitian within 1e-10 relative. Negative-roundoff eigenvalues
    are clamped to 0 before powering; one below -1e-8 * ||A|| signals genuine
    indefiniteness and raises NotPSDError.
    """
    a = as_matrix(a)
    if np.linalg.norm(a - a.conj().T) > 1e-10 * max(1.0, np.linalg.norm(a)):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    dec = hermitian_eigen((a + a.conj().T) / 2.0)
    vals = dec.eigenvalues
    norm = float(np.max(np.abs(vals)))
    if vals[0] < -1e-8 * norm:
        raise NotPSDError(f"eigenvalue {vals[0]} below -1e-8 * norm {norm}")
    return PSDPower(dec.eigenvectors, np.maximum(vals, 0.0)).power(p)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(_svd(as_matrix(m))[1][0])


def _theta_sweep_values(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max((e^{i theta} M + e^{-i theta} M*)/2) for a batch of angles."""
    ph = np.exp(1j * thetas)
    h = 0.5 * (ph[:, None, None] * m + np.conj(ph)[:, None, None] * m.conj().T)
    return np.linalg.eigvalsh(h)[:, -1]


def numerical_radius(m, tol: float = DEFAULT_RADIUS_TOL) -> float:
    """Numerical radius by theta-sweep: grid of GRID_ANGLES angles, then
    golden-section refinement of every grid cell that could hold the maximum.

    ``tol`` is the terminal theta-interval width of the refinement. Cells are
    pruned with the Lipschitz bound |d/dtheta lambda_max(H(theta))| <= ||M||,
    which keeps pruning sound.
    """
    a = as_matrix(m)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.any(a):
        return 0.0
    lip = operator_norm(a)  # |d/dtheta lambda_max(H(theta))| <= ||M||

    step = 2.0 * np.pi / GRID_ANGLES
    thetas = np.arange(GRID_ANGLES) * step
    g = _theta_sweep_values(a, thetas)
    best = float(np.max(g))
    eps = 1e-15 * max(1.0, abs(best))

    # Tent upper bound per cell [theta_k, theta_{k+1}]; refine only cells that
    # could still beat the best grid value.
    cell_ub = 0.5 * (g + np.roll(g, -1)) + 0.5 * lip * step
    idx = np.nonzero(cell_ub >= best - eps)[0]

    # Lockstep golden-section maximization over all candidate cells at once:
    # every cell starts with the same width, so the iteration count is shared
    # and each step needs a single batched eigvalsh. Cells whose remaining
    # interval cannot top the running best are dropped as it rises.
    lo = thetas[idx]
    hi = lo + step
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc = _theta_sweep_values(a, c)
    fd = _theta_sweep_values(a, d)
    width = step
    while width > tol and len(lo):
        best = max(best, float(np.max(fc)), float(np.max(fd)))
        keep = np.maximum(fc, fd) + 0.5 * lip * width >= best - eps
        if not np.all(keep):
            lo, hi, c, d, fc, fd = lo[keep], hi[keep], c[keep], d[keep], fc[keep], fd[keep]
            if not len(lo):
                break
        take_left = fc > fd
        lo = np.where(take_left, lo, c)
        hi = np.where(take_left, d, hi)
        c = hi - (hi - lo) * _INVPHI
        d = lo + (hi - lo) * _INVPHI
        probe = np.where(take_left, c, d)
        fp = _theta_sweep_values(a, probe)
        fc, fd = np.where(take_left, fp, fd), np.where(take_left, fc, fp)
        width *= _INVPHI
    if len(lo):
        best = max(best, float(np.max(fc)), float(np.max(fd)))
    return best


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def numerical_radius_oracle(m, samples: int, seed: int) -> float:
    """Sampling lower bound for the numerical radius.

    Takes the best of ``samples`` random unit vectors, each improved by
    projected-gradient ascent of |<Mx, x>| on the unit sphere (100-step cap,
    backtracking step size). Never exceeds the sweep engine beyond roundoff.

    A given seed fixes the start vectors and so the result. Different seeds
    draw different start vectors, but their results may coincide once the
    ascent reaches the maximiser.
    """
    a = as_matrix(m)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = a.shape[0]
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        x = _unit(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        q = np.vdot(x, a @ x)
        val = abs(q)
        best = max(best, val)
        eta0 = 1.0 / fro
        for _ in range(100):
            psi = np.angle(q) if q != 0 else 0.0
            ph = np.exp(-1j * psi)
            grad = 0.5 * (ph * (a @ x) + np.conj(ph) * (a.conj().T @ x))
            tangent = grad - np.real(np.vdot(x, grad)) * x
            if np.linalg.norm(tangent) <= 1e-13 * fro:
                break
            eta = eta0
            improved = False
            for _ in range(5):
                x_try = _unit(x + eta * tangent)
                q_try = np.vdot(x_try, a @ x_try)
                if abs(q_try) >= val:
                    x, q, val = x_try, q_try, abs(q_try)
                    improved = True
                    break
                eta /= 2.0
            if not improved:
                break
            best = max(best, val)
    return best
