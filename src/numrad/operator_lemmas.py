"""Operator-level inequality predicates.

Four checks used as building blocks by the bound catalog: the McCarthy
power inequality for positive operators, the norm inequality for convex
functions of positive operators, the mixed Schwarz inequality with the
power pair (s^alpha, s^(1-alpha)), and the operator Jensen inequality for
a small closed registry of convex functions.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownFunctionError
from .linalg import (
    abs_powers,
    as_matrix,
    as_vector,
    hermitian_eigen,
    inner,
    matrix_power_psd,
    operator_norm,
    same_dim,
)
from .scalar_ineq import InequalityRecord, require_unit

CONVEX_FUNCTIONS = {
    "square": np.square,
    "abs": np.abs,
    "quartic": lambda s: s**4,
    "exp": np.exp,
}


def mccarthy_check(t, x, r: float) -> InequalityRecord:
    """<Tx,x>^r <= <T^r x, x> for PSD T, unit x, r >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    t = as_matrix(t)
    x = require_unit(as_vector(x))
    same_dim(t, x)
    t_pow = matrix_power_psd(t, r)  # validates PSD Hermitian
    q = max(0.0, np.real(inner(t @ x, x)))
    lhs = q**r
    rhs = np.real(inner(t_pow @ x, x))
    return InequalityRecord.from_sides("mccarthy", float(lhs), float(rhs))


def convex_norm_check(a, b, r: float) -> InequalityRecord:
    """||((A+B)/2)^r|| <= ||(A^r + B^r)/2|| for PSD A, B and r >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    a, b = as_matrix(a), as_matrix(b)
    same_dim(a, b)
    lhs = operator_norm(matrix_power_psd((a + b) / 2.0, r))
    rhs = operator_norm((matrix_power_psd(a, r) + matrix_power_psd(b, r)) / 2.0)
    return InequalityRecord.from_sides("convex_norm", lhs, rhs)


def mixed_schwarz_check(t, x, y, alpha: float) -> InequalityRecord:
    """|<Tx,y>| <= || |T|^alpha x || * || |T*|^(1-alpha) y || for alpha in (0,1)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    t = as_matrix(t)
    x, y = as_vector(x), as_vector(y)
    same_dim(t, x, y)
    lhs = abs(inner(t @ x, y))
    abs_t, abs_t_adj = abs_powers(t)
    gx = abs_t.power(alpha) @ x
    hy = abs_t_adj.power(1.0 - alpha) @ y
    rhs = float(np.linalg.norm(gx) * np.linalg.norm(hy))
    return InequalityRecord.from_sides("mixed_schwarz", lhs, rhs)


def jensen_operator_check(t, x, h_id: str) -> InequalityRecord:
    """h(<Tx,x>) <= <h(T)x, x> for Hermitian T, unit x and convex h.

    h_id picks from the fixed registry: square, abs, quartic, exp.
    """
    if h_id not in CONVEX_FUNCTIONS:
        raise UnknownFunctionError(f"unknown function {h_id!r}; choose from {sorted(CONVEX_FUNCTIONS)}")
    h = CONVEX_FUNCTIONS[h_id]
    t = as_matrix(t)
    x = require_unit(as_vector(x))
    same_dim(t, x)
    dec = hermitian_eigen(t)  # raises NotHermitianError on bad input
    lhs = float(h(np.real(inner(t @ x, x))))
    v = dec.eigenvectors
    h_t = (v * h(dec.eigenvalues)) @ v.conj().T
    rhs = float(np.real(inner(h_t @ x, x)))
    return InequalityRecord.from_sides(f"jensen_{h_id}", lhs, rhs)
