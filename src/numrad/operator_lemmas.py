"""Operator-level inequality predicates.

Four lemma checks, independent of the bound catalog (which reads none of
them) and fuzzed by acceptance criterion 3 and the lemma-fuzz benchmark: the
McCarthy power inequality for positive operators, the norm inequality for
convex functions of positive operators, the mixed Schwarz inequality with
the power pair (s^alpha, s^(1-alpha)), and the operator Jensen inequality
for a small closed registry of convex functions.

By the spectral theorem, each side that holds a matrix function is read
from the checked eigen- or singular data of its argument; only
convex_norm_check forms powers (A^r and B^r). The left sides of mccarthy_check
and jensen_operator_check come from T itself, so each still compares two routes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnknownFunctionError
from .linalg import _eigen, _fro, _spectral_power, _svd, _vectors, as_matrix, inner, same_dim
from .scalar_ineq import InequalityRecord, require_alpha, require_exponent, require_unit

CONVEX_FUNCTIONS = {
    "square": np.square,
    "abs": np.abs,
    "quartic": lambda s: s**4,
    "exp": np.exp,
}


def _spectral_form(f: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.floating:
    """<V diag(f) V* x, x> = sum_i f_i |<x, v_i>|^2 for orthonormal columns v_i:
    no cancellation for f >= 0; an inf f_i gives inf, or nan at weight 0."""
    c = v.conj().T @ x
    return f @ (c.real * c.real + c.imag * c.imag)


def mccarthy_check(t, x, r: float) -> InequalityRecord:
    """<Tx,x>^r <= <T^r x, x> for PSD T, unit x, r >= 1;
    <T^r x, x> = sum_i l_i^r |<x, v_i>|^2 over T's eigenpairs (l_i, v_i)."""
    require_exponent(r)
    t = as_matrix(t)
    x = require_unit(_vectors(x)[0])
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, v = _eigen(t, psd=True)  # validates PSD Hermitian
        q = np.float64(max(0.0, np.real(inner(t @ x, x))))  # numpy's **: inf, not a raise
        return InequalityRecord.from_sides("mccarthy", q**r, _spectral_form(vals**r, v, x))


def convex_norm_check(a, b, r: float) -> InequalityRecord:
    """||((A+B)/2)^r|| <= ||(A^r + B^r)/2|| for PSD A, B and r >= 1;
    ||((A+B)/2)^r|| = l_max((A+B)/2)^r, the right side is the formed mean's s_1."""
    require_exponent(r)
    a, b = as_matrix(a), as_matrix(b)
    same_dim(a, b)
    try:  # means halve first: the mean of two doubles is a double
        with np.errstate(over="ignore", invalid="ignore"):
            top = _eigen(a / 2.0 + b / 2.0, psd=True)[0][-1]  # eigenvalues ascend
            pa, pb = (_spectral_power(*_eigen(x, psd=True), r) for x in (a, b))
            p = pa / 2.0 + pb / 2.0
            rhs = _svd(p)[1][0] if np.isfinite(p).all() else math.inf  # inf: past the range
            lhs = top**r
    except OverflowError as exc:  # an eigenvalue or a norm past the double range
        raise OverflowError(f"convex_norm: {exc}") from None
    return InequalityRecord.from_sides("convex_norm", lhs, rhs)


def mixed_schwarz_check(t, x, y, alpha: float) -> InequalityRecord:
    """|<Tx,y>| <= || |T|^alpha x || * || |T*|^(1-alpha) y || for alpha in (0,1);
    with T = U S V*, these are ||S^alpha V*x|| and ||S^(1-alpha) U*y||."""
    require_alpha(alpha)
    t = as_matrix(t)
    x, y = _vectors(x, y)
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = abs(inner(t @ x, y))
        u, s, vh = _svd(t)
        gx, hy = s**alpha * (vh @ x), s ** (1.0 - alpha) * (u.conj().T @ y)
        return InequalityRecord.from_sides("mixed_schwarz", lhs, _fro(gx) * _fro(hy))


def jensen_operator_check(t, x, h_id: str) -> InequalityRecord:
    """h(<Tx,x>) <= <h(T)x, x> for Hermitian T, unit x and convex h, which h_id
    picks from the fixed registry: square, abs, quartic, exp;
    <h(T)x, x> = sum_i h(l_i) |<x, v_i>|^2 over T's eigenpairs (l_i, v_i)."""
    if h_id not in CONVEX_FUNCTIONS:
        raise UnknownFunctionError(f"unknown function {h_id!r}; choose from {sorted(CONVEX_FUNCTIONS)}")
    h = CONVEX_FUNCTIONS[h_id]
    t = as_matrix(t)
    x = require_unit(_vectors(x)[0])
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, v = _eigen(t)  # raises NotHermitianError on bad input
        lhs = h(np.float64(np.real(inner(t @ x, x))))  # numpy's **: inf, not a raise
        return InequalityRecord.from_sides(f"jensen_{h_id}", lhs, _spectral_form(h(vals), v, x))
