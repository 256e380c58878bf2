"""Operator-level inequality predicates.

Four checks used as building blocks by the bound catalog: the McCarthy
power inequality for positive operators, the norm inequality for convex
functions of positive operators, the mixed Schwarz inequality with the
power pair (s^alpha, s^(1-alpha)), and the operator Jensen inequality for
a small closed registry of convex functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UnknownFunctionError
from .linalg import (
    _abs_powers,
    _eigen,
    _fro,
    _psd_powers,
    _svd,
    _vectors,
    as_matrix,
    inner,
    same_dim,
)
from .scalar_ineq import InequalityRecord, require_alpha, require_exponent, require_unit

CONVEX_FUNCTIONS = {
    "square": np.square,
    "abs": np.abs,
    "quartic": lambda s: s**4,
    "exp": np.exp,
}


def mccarthy_check(t, x, r: float) -> InequalityRecord:
    """<Tx,x>^r <= <T^r x, x> for PSD T, unit x, r >= 1."""
    require_exponent(r)
    t = as_matrix(t)
    x = require_unit(_vectors(x)[0])
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        t_pow = _psd_powers(t).power(r)  # validates PSD Hermitian
        q = np.float64(max(0.0, np.real(inner(t @ x, x))))  # numpy's **: inf, not a raise
        return InequalityRecord.from_sides("mccarthy", q**r, np.real(inner(t_pow @ x, x)))


def convex_norm_check(a, b, r: float) -> InequalityRecord:
    """||((A+B)/2)^r|| <= ||(A^r + B^r)/2|| for PSD A, B and r >= 1."""
    require_exponent(r)
    a, b = as_matrix(a), as_matrix(b)
    same_dim(a, b)
    try:  # means halve first: the mean of two doubles is a double
        with np.errstate(over="ignore", invalid="ignore"):
            pm, pa, pb = (_psd_powers(m).power(r) for m in (a / 2.0 + b / 2.0, a, b))
            sides = [_svd(p)[1][0] if np.isfinite(p).all() else math.inf  # inf: past the range
                     for p in (pm, pa / 2.0 + pb / 2.0)]
    except OverflowError as exc:  # an eigenvalue or a norm past the double range
        raise OverflowError(f"convex_norm: {exc}") from None
    return InequalityRecord.from_sides("convex_norm", *sides)


def mixed_schwarz_check(t, x, y, alpha: float) -> InequalityRecord:
    """|<Tx,y>| <= || |T|^alpha x || * || |T*|^(1-alpha) y || for alpha in (0,1)."""
    require_alpha(alpha)
    t = as_matrix(t)
    x, y = _vectors(x, y)
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = abs(inner(t @ x, y))
        abs_t, abs_t_star = _abs_powers(t)  # |T| and |T*| from one SVD
        gx = abs_t.power(alpha) @ x
        hy = abs_t_star.power(1.0 - alpha) @ y
        return InequalityRecord.from_sides("mixed_schwarz", lhs, _fro(gx) * _fro(hy))


def jensen_operator_check(t, x, h_id: str) -> InequalityRecord:
    """h(<Tx,x>) <= <h(T)x, x> for Hermitian T, unit x and convex h.

    h_id picks from the fixed registry: square, abs, quartic, exp.
    """
    if h_id not in CONVEX_FUNCTIONS:
        raise UnknownFunctionError(f"unknown function {h_id!r}; choose from {sorted(CONVEX_FUNCTIONS)}")
    h = CONVEX_FUNCTIONS[h_id]
    t = as_matrix(t)
    x = require_unit(_vectors(x)[0])
    same_dim(t, x)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, v = _eigen(t)  # raises NotHermitianError on bad input
        lhs = h(np.float64(np.real(inner(t @ x, x))))  # numpy's **: inf, not a raise
        h_t = (v * h(vals)) @ v.conj().T
        return InequalityRecord.from_sides(f"jensen_{h_id}", lhs, np.real(inner(h_t @ x, x)))
