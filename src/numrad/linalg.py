"""Dense complex matrix algebra and the numerical-radius engine.

Everything works on square complex matrices held as ``numpy`` arrays of
``complex128``. The numerical radius w(M) = sup_{|x|=1} |<Mx, x>| is
enclosed through the rotated Hermitian part

    H(theta) = (e^{i theta} M + e^{-i theta} M*) / 2,

whose largest eigenvalue, maximized over theta in [0, 2pi), equals w(M):
each angle gives a support line of the numerical range W(M), and the
polygon they cut out bounds w(M) from above (C. R. Johnson, SIAM J. Numer.
Anal. 1978; F. Uhlig, Numer. Algorithms 2009).

A sampling oracle, numerical_radius_oracle, gives an independent lower
bound for cross-checking the engine, with matrix-vector products only.

Public functions check each input once (as_matrix, _vectors); the private
helpers take checked arrays and check nothing twice.
"""

from __future__ import annotations

import math
import numbers
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
_ORACLE_STEPS = 100  # the sampling oracle's step cap


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries; with
    ``stack``, to a (k, n, n) stack of them, where one matrix gives k = 1
    and k = 0 is refused."""
    a = np.asarray(m, dtype=np.complex128)
    if stack and a.ndim == 2:
        a = a[None]
    if a.ndim != 2 + stack or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a square matrix{' stack' * stack}, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:  # cheaper than .all() on small arrays
        raise ValueError("matrix entries must be finite")
    return a


def _vectors(*vs) -> np.ndarray:
    """The 1-d vectors vs, of one length (DimensionMismatchError otherwise), as
    the rows of a (k, n) complex128 array with finite entries."""
    try:
        a = np.array(vs, dtype=np.complex128)
    except ValueError:  # ragged
        a = np.empty(0)
    if a.ndim != 2 or a.shape[1] < 1:
        shapes = {np.shape(v) for v in vs}
        lengths_differ = all(len(shape) == 1 and shape[0] > 0 for shape in shapes)
        raise (DimensionMismatchError if lengths_differ else ValueError)(
            f"expected 1-d vectors of one length, got shapes {sorted(shapes)}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("vector entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex128 vector with finite entries."""
    return _vectors(v)[0]


def _fro(a: np.ndarray) -> np.floating:
    """np.linalg.norm(a) of a complex array, by its formula: same bits, less overhead."""
    x = a.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _integer(x) -> bool:
    """Whether x is a Python or numpy integer (a bool or a float is not)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _require_number(name: str, v):
    """v, or ValueError unless v, the scalar ``name``, is a real number (a
    bool or a string is not) that converts to a float (an int past the double
    range does not)."""
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{name} must be a number, not a {type(v).__name__}")
        try:
            float(v)
        except OverflowError:
            raise ValueError(f"{name} leaves the double range") from None
    return v


def _require_min(name: str, v, low, strict: bool = False):
    """v, or ValueError unless v, the scalar ``name``, is a number
    (_require_number) that is finite and >= low (> low with ``strict``)."""
    if type(v) is not float:
        _require_number(name, v)
    if not (math.isfinite(v) and (v > low if strict else v >= low)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {low}, got {v}")
    return v


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """(a / 2^e, e) with 2^e the power of two just above the largest real or
    imaginary part of a (e = 0 for zero), per matrix of a stack. The scaling
    is exact, so norms of the scaled matrix neither overflow nor lose digits."""
    parts = np.ascontiguousarray(a).view(np.float64)
    if parts.ndim == 2:  # one matrix: scalar steps, cheaper than the stacked ones
        mags = np.abs(parts).ravel()
        top = float(mags[mags.argmax()])  # argmax: cheaper than .max(), and NaN-propagating
        if not math.isfinite(top):  # input is validated: an intermediate overflowed
            raise OverflowError("matrix entries leave the double range")
        e = math.frexp(top)[1]
        return np.ldexp(parts, -e).view(np.complex128), e
    e = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
    return np.ldexp(parts, -e[:, None, None]).view(np.complex128), e


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


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


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
    NoConvergenceError if the LAPACK solver fails or the residual or the
    unitarity error exceeds 1e-10 relative, and OverflowError if an eigenvalue
    leaves the double range.
    """
    return EigenDecomposition(*_eigen(as_matrix(m)))


def _eigen(a: np.ndarray, psd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eigen of the validated a; with ``psd``, matrix_power_psd's checks."""
    b, e = _pow2_scaled(a)  # exact, so the checks are scale-free
    bh, htol = b.conj().T, 1e-10 if psd else 1e-12
    gap = _fro(b - bh)  # the relative bound is at least htol: ||b|| only past it
    if gap > htol and gap > htol * max(1.0, _fro(b)):
        raise NotHermitianError(f"matrix is not Hermitian within {htol:g} relative")
    vals, vecs = _checked_eigh((b + bh) / 2.0)
    norm = _pow2_unscaled(max(-vals[0], vals[-1]), e, "an eigenvalue")  # they ascend
    vals = np.ldexp(vals, e)
    if psd and vals[0] < -1e-8 * norm:
        raise NotPSDError(f"eigenvalue {vals[0]} below -1e-8 * norm {norm}")
    return (np.maximum(vals, 0.0) if psd else vals), vecs


def _lapack(name: str, a: np.ndarray):
    """np.linalg.<name>(a), looked up at each call (so a replaced np.linalg
    function is the one called); a LAPACK failure raises NoConvergenceError
    "SVD failed: ..." for svd and "eigensolver failed: ..." for the others."""
    try:
        return getattr(np.linalg, name)(a)
    except np.linalg.LinAlgError as exc:
        what = "SVD" if name == "svd" else "eigensolver"
        raise NoConvergenceError(f"{what} failed: {exc}") from exc


def _checked_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the exactly Hermitian h;
    NoConvergenceError if LAPACK fails or the residual ||hV - V diag(vals)|| or
    the unitarity error ||V*V - I|| exceeds 1e-10 relative to max(1, ||h||)."""
    vals, vecs = _lapack("eigh", h)
    gram = vecs.conj().T @ vecs
    gram.ravel()[:: len(gram) + 1] -= 1.0  # V*V - I, in place
    for err, what in ((_fro(h @ vecs - vecs * vals), "residual"), (_fro(gram), "unitarity error")):
        if err > 1e-10 and err > 1e-10 * max(1.0, _fro(h)):  # ||h|| only past the smallest bound
            raise NoConvergenceError(f"eigendecomposition {what} above 1e-10 relative")
    return vals, vecs


def _spectral_power(values: np.ndarray, vectors: np.ndarray, q: float) -> np.ndarray:
    """V diag(s^q) V*, q >= 0, of the PSD matrix V diag(s) V* (or a stack of
    them) given by values s >= 0 and orthonormal columns V. The power of 0 is
    the full identity, zero values included; past the double range, inf or
    NaN entries (numpy warns)."""
    if q == 0:
        return np.eye(vectors.shape[-1], dtype=np.complex128) + np.zeros_like(vectors)
    # halves first: no overflow near the top of the double range
    r = (vectors * (values ** q)[..., None, :]) @ _h(vectors) / 2.0
    return r + _h(r)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked SVD a = U diag(s) Vh, s descending, of a matrix or a stack.

    Raises NoConvergenceError if the LAPACK solver fails or the reconstruction
    residual, each matrix's relative to max(1, its s_1), exceeds 1e-10 (for a
    stack, in the norm of them all); the residual is scaled before its norm is
    taken, so inputs near the double range do not overflow.
    """
    u, s, vh = _lapack("svd", a)
    top = float(s.flat[s.argmax()])  # s descends: the largest s_1
    if not math.isfinite(top):
        raise OverflowError("operator norm leaves the double range")
    scale = max(1.0, top) if s.ndim == 1 else np.maximum(s[:, :1, None], 1.0)  # per matrix
    if not _fro((u * (s[..., None, :] / scale)) @ vh - a / scale) <= 1e-10:
        raise NoConvergenceError("SVD residual above 1e-10 relative")
    return u, s, vh


def abs_value(m) -> np.ndarray:
    """Positive-semidefinite square root of M*M (the matrix absolute value)."""
    return abs_power(m, 1.0)


def abs_power(m, p: float) -> np.ndarray:
    """|M|^p = (M*M)^(p/2) = V S^p V* for finite p >= 0, from the SVD M = U S V*."""
    _, s, vh = _svd(as_matrix(m, stack=np.ndim(m) == 3))
    return _power(s, _h(vh), p, "abs_power")


def _power(values: np.ndarray, vectors: np.ndarray, p: float, what: str) -> np.ndarray:
    """_spectral_power(values, vectors, p), or ValueError unless p, the
    exponent, is a finite number >= 0, and OverflowError naming ``what`` when
    the power leaves the double range."""
    _require_min("exponent", p, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _spectral_power(values, vectors, p)
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise OverflowError(f"{what}: the power leaves the double range")
    return out


def matrix_power_psd(a, p: float) -> np.ndarray:
    """Spectral power A^p of a PSD Hermitian matrix, for finite p >= 0.

    A must be Hermitian within 1e-10 relative. Negative-roundoff eigenvalues
    are clamped to 0 before powering; one below -1e-8 * ||A|| signals genuine
    indefiniteness and raises NotPSDError.
    """
    return _power(*_eigen(as_matrix(a), psd=True), p, "matrix_power_psd")


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(_svd(as_matrix(m))[1][0])


def _sweep(re: np.ndarray, im: np.ndarray, owner: np.ndarray, thetas: np.ndarray):
    """(lambda_min, lambda_max) of H(theta) per cell, of the matrix M = re + i im
    of the stack that ``owner`` names: re and im are Hermitian, H = cos(theta) re
    - sin(theta) im. H(theta + pi) = -H(theta), so the one solve gives f(theta) =
    lambda_max and f(theta + pi) = -lambda_min."""
    h, x = re[owner], im[owner]  # in place from here: a stack holds many cells
    h *= np.cos(thetas)[:, None, None]
    x *= np.sin(thetas)[:, None, None]
    h -= x
    vals = _lapack("eigvalsh", h)
    return vals[:, 0], vals[:, -1]


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


def _start_rule(b: np.ndarray, re: np.ndarray, im: np.ndarray, tol: float):
    """Per matrix M = re + i im of the stack b: which of the first
    _START_CELLS // 2 grid angles j 2pi / _START_CELLS it solves at (a
    (k, _START_CELLS // 2) mask; each solve gives f at j 2pi / _START_CELLS and
    at that plus pi), whether its cells are refined, and hi - lo for a matrix
    whose are not. In order:

    * W(M) a disc about 0 (zero diagonal, _rotation_invariant; M = 0 too):
      one solve, at angle 0; lo = hi.
    * ||im||_F <= tol ||re||_F / sqrt(n): one solve, at angle 0 (f(0) and
      f(pi)); hi = lo + ||im||_F.
    * Any other M: every half-grid angle, so all _START_CELLS cells, refined.
    """
    k, n = b.shape[:2]
    parts = (a.reshape(k, -1).view(np.float64) for a in (re, im))
    rfro, sfro = (np.sqrt(np.vecdot(x, x)) for x in parts)
    disc = ~b.diagonal(axis1=1, axis2=2).any(axis=1)
    for i in np.flatnonzero(disc):
        disc[i] = _rotation_invariant(b[i])
    herm = ~disc & (sfro <= tol / math.sqrt(n) * rfro)
    refine = ~(disc | herm)
    grid = (np.arange(_START_CELLS // 2) == 0) | refine[:, None]
    return grid, refine, np.where(herm, sfro, 0.0)


def numerical_radius_enclosure(m, tol: float = DEFAULT_RADIUS_TOL):
    """Enclosure lo <= w(M) <= hi from the support-line polygon of W(M).

    f(theta) = lambda_max(H(theta)) supports W(M) in the direction
    e^{-i theta} and w(M) = max f, so lo is the largest f seen. f is sampled
    at the _START_CELLS equispaced grid angles to start, whose cells are then
    refined. H(theta + pi) = -H(theta), so one eigvalsh solve at theta gives
    f(theta) = lambda_max and f(theta + pi) = -lambda_min: the start solves
    at the first _START_CELLS // 2 grid angles only. On a cell [t0, t1], W(M)
    lies in the wedge of the support lines at t0 and t1, so f <= |v| there
    for their corner v if -arg v lies in the cell, else f <= max(f0, f1).
    Cells bounded by lo (1 + tol) are dropped, the others split at -arg v
    (clipped to their middle 80%) until none is left: hi - lo <= tol hi. Past
    MAX_LIVE_CELLS live cells (W(M) near a disc) the bounds reached are
    returned.

    Two kinds of M skip the refinement (_start_rule) and take one solve, at
    angle 0. If W(M) is a disc about 0 (M = 0 among them), f is constant and
    lo = hi. A near-Hermitian M = R + iS (R, S Hermitian) with ||S||_F <= tol
    ||R||_F / sqrt(n), so ||S||_F <= tol rho(R): w is a norm, so rho(R) <= w
    <= rho(R) + ||S||_F, and lo = max(f(0), f(pi)) = rho(R), the ends of the
    spectrum of H(0) = R, hi = lo + ||S||_F.

    One matrix gives floats (OverflowError if w leaves the double range), a
    (k, n, n) stack arrays (inf there), run in lockstep: one eigvalsh per round
    for all cells, each result bitwise the one its matrix gives alone. tol
    must be a finite number > 0, or ValueError; NoConvergenceError if the
    eigensolver fails.
    """
    _require_min("tol", tol, 0, strict=True)
    b, e = _pow2_scaled(as_matrix(m, stack=True))  # exact, so w(2^k M) = 2^k w(M)
    re, im = (b + _h(b)) / 2.0, (b - _h(b)) / 2j
    grid, refine, gap = _start_rule(b, re, im, tol)
    owner, j = np.nonzero(grid)  # by matrix, then angle
    cell = 2.0 * np.pi / _START_CELLS
    low, top = _sweep(re, im, owner, j * cell)
    back = 0.0 - low  # f(theta_j + pi); +0.0, not -0.0, where low is 0
    lo = np.zeros(len(b))
    np.maximum.at(lo, owner, np.maximum(top, back))
    hi = lo + gap  # final where nothing is refined; the split raises the rest
    # a refined matrix's f at the grid angles in order: f(theta_j), then f(theta_j + pi)
    keep, half = refine[owner], _START_CELLS // 2
    f0 = np.concatenate((top[keep].reshape(-1, half), back[keep].reshape(-1, half)), axis=1)
    owner = np.repeat(np.flatnonzero(refine), _START_CELLS)
    t0 = np.tile(np.arange(_START_CELLS) * cell, len(f0))
    t1 = t0 + cell
    f0, f1 = f0.ravel(), np.roll(f0, -1, axis=1).ravel()
    ended = [(owner[:0], f0[:0])]  # (owner, bound) of the cells each round drops
    while len(owner):
        d = t1 - t0
        # e^{i t0} v = f0 + i (f0 cos d - f1) / sin d, so -arg v = t0 + peak;
        # |v| = top / cos(min(peak, d - peak)) <= top / cos(d/2) if peak is in
        # [0, d], which falls to top, ending the split, once cos rounds to 1.
        peak = np.arctan2(f1 - f0 * np.cos(d), f0 * np.sin(d))
        top = np.maximum(f0, f1)
        bound = top / np.cos(np.maximum(np.minimum(peak, d - peak), 0.0))
        live = bound > lo[owner] * (1.0 + tol)
        if np.count_nonzero(live) > MAX_LIVE_CELLS:  # else no matrix can pass the cap
            live &= (np.bincount(owner[live], minlength=len(b)) <= MAX_LIVE_CELLS)[owner]
        ended.append((owner[~live], bound[~live]))
        owner, t0, t1, f0, f1, d, peak = (x[live] for x in (owner, t0, t1, f0, f1, d, peak))
        if not len(owner):
            break
        mid = t0 + np.clip(peak, 0.1 * d, 0.9 * d)
        fm = _sweep(re, im, owner, mid)[1]
        np.maximum.at(lo, owner, fm)
        owner = np.concatenate((owner, owner))
        t0, t1 = np.concatenate((t0, mid)), np.concatenate((mid, t1))
        f0, f1 = np.concatenate((f0, fm)), np.concatenate((fm, f1))
    np.maximum.at(hi, *map(np.concatenate, zip(*ended)))  # hi is read only from here
    if np.ndim(m) == 2:
        return _pow2_unscaled(lo[0], int(e[0])), _pow2_unscaled(max(hi[0], lo[0]), int(e[0]))
    with np.errstate(over="ignore"):
        return np.ldexp(lo, e), np.ldexp(np.maximum(hi, lo), e)


def numerical_radius(m, tol: float = DEFAULT_RADIUS_TOL):
    """w(M): the lower end of ``numerical_radius_enclosure(m, tol)``."""
    return numerical_radius_enclosure(m, tol)[0]


def _oracle_starts(rng: np.random.Generator, n: int, samples: int) -> np.ndarray:
    """The oracle's unit start vectors as the columns of an (n, samples)
    block: sample j draws n standard normal real parts, then n imaginary
    parts, from rng."""
    z = rng.standard_normal((samples, 2, n))
    x = (z[:, 0] + 1j * z[:, 1]).T
    return x / np.linalg.norm(x, axis=0)


def numerical_radius_oracle(m, samples: int, seed: int) -> float:
    """Sampling lower bound for the numerical radius.

    Takes the best |<Mx, x>| seen over ``samples`` projected-gradient ascents
    on the unit sphere, each from a random unit vector. Uses matrix-vector
    products only, no eigensolver, so it checks the engine independently.
    Every value taken is that of a unit vector, so the result never exceeds
    the upper end of the engine's enclosure beyond roundoff.

    The ascents run in lockstep as the columns of one (n, samples) block:
    a step costs one [A; A*] X product for all of them. The starts (drawn
    sample after sample), the step rule and the stops are those of one
    ascent per sample, so the result matches that loop within 1e-12
    relative. Each column steps along its tangent t with the Barzilai-Borwein
    length <s, s> / Re <s, t_prev - t>, s = x - x_prev (J. Barzilai & J. M.
    Borwein, IMA J. Numer. Anal. 1988), clipped to [1, 100] / ||A||_F (the
    first step is 1 / ||A||_F; with no positive curvature behind it, a step
    is the longest), and is normalised after each step. The steps are not
    monotone, so the best value is taken at every step. A column stops when
    |t| <= 1e-8 ||A||_F (near a maximum the value's gap falls like |t|^2, so
    past that only roundoff is left); the block stops after 100 steps.

    samples is an integer >= 1 and seed a non-negative integer (Python or
    numpy, not a bool), or ValueError. A given seed fixes the start vectors
    and so the result. Different seeds draw different start vectors, but
    their results may coincide once the ascent reaches the maximiser.
    """
    if not _integer(samples) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not _integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    a, e = _pow2_scaled(as_matrix(m))  # exact, so the ascent is scale-free
    fro = float(_fro(a))
    if fro == 0.0:
        return 0.0
    n = a.shape[0]
    both = np.concatenate((a, _h(a)))  # [A; A*]: one product gives A X and A* X
    stop2, curv_lo, curv_hi = (1e-8 * fro) ** 2, fro / 100.0, fro
    x = _oracle_starts(np.random.default_rng(seed), n, samples)
    eta, vals = 1.0 / fro, []
    for step in range(_ORACLE_STEPS + 1):
        y = both @ x
        ax, ahx = y[:n], y[n:]
        q = np.vecdot(x, ax, axis=0)
        val = np.abs(q)
        vals.append(val)  # every step's values: the steps are not monotone
        if step == _ORACLE_STEPS:
            break
        ph = np.exp(-1j * np.angle(q))  # angle(0) = 0: the phase 1 at q = 0
        # t = g - Re <g, x> x for the gradient g of Re(ph <Ax, x>), whose
        # radial part is Re <g, x> = Re(ph q) = |q|
        t = 0.5 * (ph * ax + ph.conj() * ahx)
        t -= val * x
        moving = np.vecdot(t, t, axis=0).real > stop2
        if np.count_nonzero(moving) < moving.size:
            if not np.count_nonzero(moving):
                break
            x, t = x[:, moving], t[:, moving]
            if step:
                x_prev, t_prev = x_prev[:, moving], t_prev[:, moving]
        if step:
            # 1 / eta is a curvature: clipped (by hand: np.clip costs twice
            # as much), it is finite, and a non-positive one takes the longest step
            s = x - x_prev
            curv = np.vecdot(s, t_prev - t, axis=0).real / np.vecdot(s, s, axis=0).real
            eta = 1.0 / np.minimum(np.maximum(curv, curv_lo), curv_hi)
        x_prev, t_prev = x, t
        x = x + eta * t
        x /= np.sqrt(np.vecdot(x, x, axis=0).real)
    return _pow2_unscaled(float(np.concatenate(vals).max()), e)
