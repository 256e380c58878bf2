"""Dense complex matrix algebra and the numerical-radius engine.

Everything works on square complex matrices held as ``numpy`` arrays of
``complex128``. The numerical radius w(M) = sup_{|x|=1} |<Mx, x>| is
enclosed through the rotated Hermitian part

    H(theta) = (e^{i theta} M + e^{-i theta} M*) / 2,

whose largest eigenvalue, maximized over theta in [0, 2pi), equals w(M):
each angle gives a support line of the numerical range W(M), and the
polygon they cut out bounds w(M) from above (C. R. Johnson, SIAM J. Numer.
Anal. 1978; F. Uhlig, Numer. Algorithms 2009). A sampling oracle (random
unit vectors plus projected-gradient ascent) provides an independent lower
bound for cross-checking the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
)

DEFAULT_RADIUS_TOL = 1e-10  # relative gap (hi - lo) / hi of the enclosure
MAX_LIVE_CELLS = 4096  # a near-disc guard: generic input keeps a few dozen
_START_CELLS = 16
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


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a / 2^e, e) with 2^e the power of two just above the largest real or
    imaginary part of a (e = 0 for zero). The scaling is exact, so norms of
    the scaled matrix neither overflow nor lose digits."""
    parts = np.ascontiguousarray(a).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return np.ldexp(parts, -e).view(np.complex128), e


def _pow2_unscaled(x: float, e: int, what: str = "numerical radius") -> float:
    """x * 2^e, or OverflowError naming ``what`` when that leaves the double
    range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise OverflowError(f"{what} leaves the double range") from None


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
    residual exceeds 1e-10 relative, and OverflowError if an eigenvalue
    leaves the double range.
    """
    b, e = _pow2_scaled(as_matrix(m))  # exact, so the checks are scale-free
    if np.linalg.norm(b - b.conj().T) > 1e-12 * max(1.0, np.linalg.norm(b)):
        raise NotHermitianError("matrix is not Hermitian within 1e-12 relative")
    vals, vecs = _checked_eigh((b + b.conj().T) / 2.0)
    return EigenDecomposition(eigenvalues=_pow2_unscaled_values(vals, e), eigenvectors=vecs)


def _checked_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the exactly Hermitian h.

    Raises NoConvergenceError if the LAPACK solver fails, or if the
    reconstruction residual or the departure of the eigenvectors from
    unitarity exceeds 1e-10 relative to max(1, ||h||).
    """
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    scale = max(1.0, np.linalg.norm(h))
    if np.linalg.norm(EigenDecomposition(vals, vecs).reconstruct() - h) > 1e-10 * scale:
        raise NoConvergenceError("eigendecomposition residual above 1e-10 relative")
    if np.linalg.norm(vecs.conj().T @ vecs - np.eye(h.shape[0])) > 1e-10 * scale:
        raise NoConvergenceError("eigenvector basis not unitary within 1e-10")
    return vals, vecs


def _pow2_unscaled_values(vals: np.ndarray, e: int) -> np.ndarray:
    """Ascending eigenvalues vals times 2^e, or OverflowError past the double
    range."""
    _pow2_unscaled(max(-vals[0], vals[-1]), e, "an eigenvalue")
    return np.ldexp(vals, e)


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
    b, e = _pow2_scaled(as_matrix(a))  # exact, so the checks are scale-free
    if np.linalg.norm(b - b.conj().T) > 1e-10 * max(1.0, np.linalg.norm(b)):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs = _checked_eigh((b + b.conj().T) / 2.0)
    vals = _pow2_unscaled_values(vals, e)
    norm = float(np.max(np.abs(vals)))
    if vals[0] < -1e-8 * norm:
        raise NotPSDError(f"eigenvalue {vals[0]} below -1e-8 * norm {norm}")
    return PSDPower(vecs, np.maximum(vals, 0.0)).power(p)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(_svd(as_matrix(m))[1][0])


def _theta_sweep_values(re: np.ndarray, im: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(H(theta)) for a batch of angles, where M = re + i im with re
    and im Hermitian, so H(theta) = cos(theta) re - sin(theta) im."""
    h = np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im
    return np.linalg.eigvalsh(h)[:, -1]


def _rotation_invariant(a: np.ndarray) -> bool:
    """Whether levels k exist with k_i - k_j = 1 wherever a_ij != 0 (so the
    diagonal is zero). Then D a D* = e^{i phi} a for D = diag(e^{i phi k}),
    so W(a) is a disc about 0: Jordan blocks, weighted shifts."""
    level: dict[int, int] = {}
    for root in range(a.shape[0]):
        if root in level:
            continue
        level[root], todo = 0, [root]
        while todo:
            i = todo.pop()
            for j, k in ([(j, level[i] - 1) for j in np.flatnonzero(a[i]).tolist()]
                         + [(j, level[i] + 1) for j in np.flatnonzero(a[:, i]).tolist()]):
                if j not in level:
                    level[j] = k
                    todo.append(j)
                elif level[j] != k:
                    return False
    return True


def numerical_radius_enclosure(m, tol: float = DEFAULT_RADIUS_TOL) -> tuple[float, float]:
    """Enclosure lo <= w(M) <= hi from the support-line polygon of W(M).

    f(theta) = lambda_max(H(theta)) supports W(M) in the direction
    e^{-i theta} and w(M) = max f, so lo is the largest f seen. On a cell
    [t0, t1], W(M) lies in the wedge of the support lines at t0 and t1, so
    f <= |v| there for their corner v if -arg v lies in the cell, else
    f <= max(f0, f1). Cells bounded by lo (1 + tol) are dropped, the others
    split at -arg v (clipped to their middle 80%), one batched eigvalsh per
    round, until none is left: hi - lo <= tol hi. Past MAX_LIVE_CELLS live
    cells (W(M) near a disc) the bounds reached are returned.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    b, e = _pow2_scaled(as_matrix(m))  # exact, so w(2^k M) = 2^k w(M)
    if not np.any(b):
        return 0.0, 0.0
    re, im = (b + b.conj().T) / 2.0, (b - b.conj().T) / 2j
    if not np.any(np.diagonal(b)) and _rotation_invariant(b):  # f is constant
        w = _pow2_unscaled(float(_theta_sweep_values(re, im, np.zeros(1))[0]), e)
        return w, w
    t0 = np.arange(_START_CELLS) * (2.0 * np.pi / _START_CELLS)
    t1 = t0 + 2.0 * np.pi / _START_CELLS
    f0 = _theta_sweep_values(re, im, t0)
    f1 = np.append(f0[1:], f0[0])
    lo, hi = float(f0.max()), 0.0
    while True:
        d = t1 - t0
        # e^{i t0} v = f0 + i (f0 cos d - f1) / sin d, so -arg v = t0 + peak;
        # |v| = top / cos(min(peak, d - peak)) <= top / cos(d/2) if peak is in
        # [0, d], which falls to top, ending the split, once cos rounds to 1.
        peak = np.arctan2(f1 - f0 * np.cos(d), f0 * np.sin(d))
        top = np.maximum(f0, f1)
        bound = top / np.cos(np.maximum(np.minimum(peak, d - peak), 0.0))
        live = bound > lo * (1.0 + tol)
        hi = max(hi, float(bound.max(initial=0.0, where=~live)))
        n_live = np.count_nonzero(live)
        if n_live == 0 or n_live > MAX_LIVE_CELLS:
            break
        t0, t1, f0, f1, d, peak = (x[live] for x in (t0, t1, f0, f1, d, peak))
        mid = t0 + np.clip(peak, 0.1 * d, 0.9 * d)
        fm = _theta_sweep_values(re, im, mid)
        lo = max(lo, float(fm.max()))
        t0, t1 = np.concatenate((t0, mid)), np.concatenate((mid, t1))
        f0, f1 = np.concatenate((f0, fm)), np.concatenate((fm, f1))
    hi = max(hi, lo, float(bound.max(initial=0.0, where=live)))
    return _pow2_unscaled(lo, e), _pow2_unscaled(hi, e)


def numerical_radius(m, tol: float = DEFAULT_RADIUS_TOL) -> float:
    """w(M): the lower end of ``numerical_radius_enclosure(m, tol)``."""
    return numerical_radius_enclosure(m, tol)[0]


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def numerical_radius_oracle(m, samples: int, seed: int) -> float:
    """Sampling lower bound for the numerical radius.

    Takes the best of ``samples`` random unit vectors, each improved by
    projected-gradient ascent of |<Mx, x>| on the unit sphere (100-step cap,
    backtracking step size). Never exceeds the upper end of the engine's
    enclosure beyond roundoff.

    A given seed fixes the start vectors and so the result. Different seeds
    draw different start vectors, but their results may coincide once the
    ascent reaches the maximiser.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    a, e = _pow2_scaled(as_matrix(m))  # exact, so the ascent is scale-free
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
    return _pow2_unscaled(best, e)
