"""Vector-level inequality evaluators.

Each operation computes the left side, right side and slack of one
inequality and returns an InequalityRecord, so random fuzzing and
equality-case regression can treat them uniformly. All inequalities are
parameterized (where applicable) by a free scalar lam > 0; the refinement
family interpolates between a Cauchy-Schwarz-type term and the plain
product of norms as lam runs over (0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitVectorError
from .linalg import _vectors, inner

HOLDS_RTOL = 1e-10


@dataclass(frozen=True, slots=True)
class InequalityRecord:
    """Evaluated lhs <= rhs instance. ``outer`` carries the loose end of a
    two-step chain when the statement provides one (rhs <= outer)."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    outer: float | None = None

    @classmethod
    def from_sides(cls, name: str, lhs: float, rhs: float, outer: float | None = None):
        lhs, rhs, outer = float(lhs), float(rhs), None if outer is None else float(outer)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):  # from finite input: overflow
            raise OverflowError(f"{name}: a side leaves the double range (lhs={lhs}, rhs={rhs})")
        slack = rhs - lhs
        holds = slack >= -HOLDS_RTOL * max(1.0, abs(lhs), abs(rhs))
        return cls(name, lhs, rhs, slack, holds, outer)


@dataclass(frozen=True)
class BoundParams:
    """Free scalars of the bound family.

    ``lam`` is the positive value the interpolation function takes; ``r`` the
    power-extension exponent, ``n`` the binomial order and ``alpha`` the
    exponent of the power pair (s^alpha, s^(1-alpha)). lam == 0 is admitted
    only because one catalog bound (al_dolat) allows it; every
    lam-parameterized operation here requires lam > 0.
    """

    lam: float
    r: float = 1.0
    n: int = 1
    alpha: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        require_exponent(self.r)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _require_positive(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    return lam


def require_exponent(r: float) -> float:
    """r, or ValueError unless it is finite and >= 1."""
    if not (math.isfinite(r) and r >= 1):
        raise ValueError(f"r must be finite and >= 1, got {r}")
    return r


def binomial_order(n: int) -> int:
    """n as an int, for the binomial-order forms; n > 15 is refused."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if n > 15:
        raise OverflowError("n > 15 not supported (binomial exactness cap)")
    return int(n)


def _norm(v: np.ndarray) -> float:
    """|v| of a validated vector as a Python float. math.hypot scales its
    arguments, so it overflows only where the norm does, and never warns."""
    return math.hypot(*v.view(np.float64).tolist())


def _overflow(name: str) -> OverflowError:
    return OverflowError(f"{name}: a side leaves the double range")


def require_unit(v: np.ndarray) -> np.ndarray:
    """v, or NotUnitVectorError when its norm is not 1 within 1e-12."""
    if abs(_norm(v) - 1.0) > 1e-12:
        raise NotUnitVectorError(f"vector norm {_norm(v)} is not 1 within 1e-12")
    return v


# The evaluators compute their sides in Python floats, where a product past
# the double range is inf and a power or a complex abs raises OverflowError;
# either way the caller gets one OverflowError naming the evaluator.


def cs_refinement_gen(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(1+lam) |x|^2|y|^2 + 1/(1+lam) |<x,y>| |x||y|.

    The right side never exceeds |x|^2 |y|^2, reported as ``outer``.
    """
    lam = _require_positive(lam)
    x, y = _vectors(x, y)
    try:
        nx, ny = _norm(x), _norm(y)
        ip = abs(inner(x, y))
        lhs = ip**2
        outer = (nx * ny) ** 2
        rhs = (lam * outer + ip * nx * ny) / (1.0 + lam)
    except OverflowError:
        raise _overflow("cs_refinement_gen") from None
    return InequalityRecord.from_sides("cs_refinement_gen", lhs, rhs, outer=outer)


def cs_refinement_two(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(2(1+lam)) |x|^2|y|^2 + (2+lam)/(2(1+lam)) |<x,y>| |x||y|."""
    lam = _require_positive(lam)
    x, y = _vectors(x, y)
    try:
        nx, ny = _norm(x), _norm(y)
        ip = abs(inner(x, y))
        lhs = ip**2
        outer = (nx * ny) ** 2
        rhs = (lam * outer + (2.0 + lam) * ip * nx * ny) / (2.0 * (1.0 + lam))
    except OverflowError:
        raise _overflow("cs_refinement_two") from None
    return InequalityRecord.from_sides("cs_refinement_two", lhs, rhs, outer=outer)


def buzano(x, y, e) -> InequalityRecord:
    """|<x,e><e,y>| <= (|x||y| + |<x,y>|) / 2 for a unit vector e."""
    x, y, e = _vectors(x, y, e)
    require_unit(e)
    try:
        lhs = abs(inner(x, e) * inner(e, y))
        rhs = 0.5 * (_norm(x) * _norm(y) + abs(inner(x, y)))
    except OverflowError:
        raise _overflow("buzano") from None
    return InequalityRecord.from_sides("buzano", lhs, rhs)


def buzano_refined(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= (2+3lam)/(8(1+lam)) |x|^2|y|^2
    + (6+5lam)/(8(1+lam)) |x||y| |<x,y>|."""
    lam = _require_positive(lam)
    x, y, e = _vectors(x, y, e)
    require_unit(e)
    try:
        nx, ny = _norm(x), _norm(y)
        ip = abs(inner(x, y))
        lhs = abs(inner(x, e) * inner(e, y)) ** 2
        rhs = ((2.0 + 3.0 * lam) * (nx * ny) ** 2 + (6.0 + 5.0 * lam) * nx * ny * ip) / (
            8.0 * (1.0 + lam)
        )
    except OverflowError:
        raise _overflow("buzano_refined") from None
    return InequalityRecord.from_sides("buzano_refined", lhs, rhs)


def buzano_refined_two(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= lam/(4(1+lam)) (|x||y| + |<x,y>|)^2
    + 1/(2(1+lam)) |<x,e><e,y>| (|x||y| + |<x,y>|).

    The first term is the expanded square of |x||y| + |<x,y>|.
    """
    lam = _require_positive(lam)
    x, y, e = _vectors(x, y, e)
    require_unit(e)
    try:
        s = _norm(x) * _norm(y) + abs(inner(x, y))
        b = abs(inner(x, e) * inner(e, y))
        lhs = b**2
        rhs = lam * s**2 / (4.0 * (1.0 + lam)) + b * s / (2.0 * (1.0 + lam))
    except OverflowError:
        raise _overflow("buzano_refined_two") from None
    return InequalityRecord.from_sides("buzano_refined_two", lhs, rhs)


def buzano_power(x, y, e, lam: float, n: int) -> InequalityRecord:
    """Binomial-order power form of the refined Buzano inequality:

    |<x,e><e,y>|^(2n) <= 4^-n (1+2lam)/(1+lam) |x|^(2n)|y|^(2n)
        + 4^-n/(1+lam) |x|^n|y|^n |<x,y>|^n
        + 4^-n sum_{j=1}^{2n-1} C(2n,j) |x|^j|y|^j |<x,y>|^(2n-j)

    Binomial coefficients are exact integers; n > 15 is refused.
    """
    lam = _require_positive(lam)
    n = binomial_order(n)
    x, y, e = _vectors(x, y, e)
    require_unit(e)
    try:
        nxny = _norm(x) * _norm(y)
        ip = abs(inner(x, y))
        lhs = abs(inner(x, e) * inner(e, y)) ** (2 * n)
        inv4n = 0.25**n
        rhs = inv4n * (1.0 + 2.0 * lam) / (1.0 + lam) * nxny ** (2 * n)
        rhs += inv4n / (1.0 + lam) * nxny**n * ip**n
        rhs += inv4n * sum(
            math.comb(2 * n, j) * nxny**j * ip ** (2 * n - j) for j in range(1, 2 * n)
        )
    except OverflowError:
        raise _overflow("buzano_power") from None
    return InequalityRecord.from_sides("buzano_power", lhs, rhs)


def young_amgm(a: float, b: float, t: float) -> InequalityRecord:
    """Weighted AM-GM: a^t b^(1-t) <= t a + (1-t) b for a, b >= 0, t in [0,1].

    0^0 counts as 1 (so a^0 b = b), while a = b = 0 gives lhs 0.
    """
    a, b, t = float(a), float(b), float(t)
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise ValueError("a and b must be finite and non-negative")
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    lhs = a**t * b ** (1.0 - t)  # Python: 0.0**0.0 == 1.0, 0.0**positive == 0.0
    rhs = t * a + (1.0 - t) * b
    return InequalityRecord.from_sides("young_amgm", lhs, rhs)
