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
from .linalg import as_vector, inner, same_dim

HOLDS_RTOL = 1e-10


@dataclass(frozen=True)
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
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"{name}: non-finite sides lhs={lhs} rhs={rhs}")
        slack = rhs - lhs
        holds = slack >= -HOLDS_RTOL * max(1.0, abs(lhs), abs(rhs))
        return cls(name=name, lhs=lhs, rhs=rhs, slack=slack, holds=holds, outer=outer)


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
        if not (math.isfinite(self.r) and self.r >= 1):
            raise ValueError(f"r must be >= 1, got {self.r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


def _require_positive(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    return lam


def binomial_order(n: int) -> int:
    """n as an int, for the binomial-order forms; n > 15 is refused."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if n > 15:
        raise OverflowError("n > 15 not supported (binomial exactness cap)")
    return int(n)


def require_unit(v: np.ndarray) -> np.ndarray:
    """v, or NotUnitVectorError when its norm is not 1 within 1e-12."""
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise NotUnitVectorError(f"vector norm {np.linalg.norm(v)} is not 1 within 1e-12")
    return v


def cs_refinement_gen(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(1+lam) |x|^2|y|^2 + 1/(1+lam) |<x,y>| |x||y|.

    The right side never exceeds |x|^2 |y|^2, reported as ``outer``.
    """
    lam = _require_positive(lam)
    x, y = as_vector(x), as_vector(y)
    same_dim(x, y)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    ip = abs(inner(x, y))
    lhs = ip**2
    outer = (nx * ny) ** 2
    rhs = (lam * outer + ip * nx * ny) / (1.0 + lam)
    return InequalityRecord.from_sides("cs_refinement_gen", lhs, rhs, outer=outer)


def cs_refinement_two(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(2(1+lam)) |x|^2|y|^2 + (2+lam)/(2(1+lam)) |<x,y>| |x||y|."""
    lam = _require_positive(lam)
    x, y = as_vector(x), as_vector(y)
    same_dim(x, y)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    ip = abs(inner(x, y))
    lhs = ip**2
    outer = (nx * ny) ** 2
    rhs = (lam * outer + (2.0 + lam) * ip * nx * ny) / (2.0 * (1.0 + lam))
    return InequalityRecord.from_sides("cs_refinement_two", lhs, rhs, outer=outer)


def buzano(x, y, e) -> InequalityRecord:
    """|<x,e><e,y>| <= (|x||y| + |<x,y>|) / 2 for a unit vector e."""
    x, y, e = as_vector(x), as_vector(y), as_vector(e)
    same_dim(x, y, e)
    require_unit(e)
    lhs = abs(inner(x, e) * inner(e, y))
    rhs = 0.5 * (np.linalg.norm(x) * np.linalg.norm(y) + abs(inner(x, y)))
    return InequalityRecord.from_sides("buzano", lhs, float(rhs))


def buzano_refined(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= (2+3lam)/(8(1+lam)) |x|^2|y|^2
    + (6+5lam)/(8(1+lam)) |x||y| |<x,y>|."""
    lam = _require_positive(lam)
    x, y, e = as_vector(x), as_vector(y), as_vector(e)
    same_dim(x, y, e)
    require_unit(e)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    ip = abs(inner(x, y))
    lhs = abs(inner(x, e) * inner(e, y)) ** 2
    rhs = ((2.0 + 3.0 * lam) * (nx * ny) ** 2 + (6.0 + 5.0 * lam) * nx * ny * ip) / (
        8.0 * (1.0 + lam)
    )
    return InequalityRecord.from_sides("buzano_refined", lhs, rhs)


def buzano_refined_two(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= lam/(4(1+lam)) (|x||y| + |<x,y>|)^2
    + 1/(2(1+lam)) |<x,e><e,y>| (|x||y| + |<x,y>|).

    The first term is the expanded square of |x||y| + |<x,y>|.
    """
    lam = _require_positive(lam)
    x, y, e = as_vector(x), as_vector(y), as_vector(e)
    same_dim(x, y, e)
    require_unit(e)
    s = np.linalg.norm(x) * np.linalg.norm(y) + abs(inner(x, y))
    b = abs(inner(x, e) * inner(e, y))
    lhs = b**2
    rhs = lam * s**2 / (4.0 * (1.0 + lam)) + b * s / (2.0 * (1.0 + lam))
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
    x, y, e = as_vector(x), as_vector(y), as_vector(e)
    same_dim(x, y, e)
    require_unit(e)
    nxny = float(np.linalg.norm(x) * np.linalg.norm(y))
    ip = abs(inner(x, y))
    lhs = abs(inner(x, e) * inner(e, y)) ** (2 * n)
    inv4n = 0.25**n
    rhs = inv4n * (1.0 + 2.0 * lam) / (1.0 + lam) * nxny ** (2 * n)
    rhs += inv4n / (1.0 + lam) * nxny**n * ip**n
    rhs += inv4n * sum(
        math.comb(2 * n, j) * nxny**j * ip ** (2 * n - j) for j in range(1, 2 * n)
    )
    return InequalityRecord.from_sides("buzano_power", lhs, rhs)


def young_amgm(a: float, b: float, t: float) -> InequalityRecord:
    """Weighted AM-GM: a^t b^(1-t) <= t a + (1-t) b for a, b >= 0, t in [0,1].

    0^0 counts as 1 (so a^0 b = b), while a = b = 0 gives lhs 0.
    """
    a, b, t = float(a), float(b), float(t)
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    lhs = a**t * b ** (1.0 - t)  # Python: 0.0**0.0 == 1.0, 0.0**positive == 0.0
    rhs = t * a + (1.0 - t) * b
    return InequalityRecord.from_sides("young_amgm", lhs, rhs)
