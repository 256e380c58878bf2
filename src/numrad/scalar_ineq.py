"""Vector-level inequality evaluators.

Each operation computes the left side, right side and slack of one
inequality and returns an InequalityRecord, so random fuzzing and
equality-case regression can treat them uniformly. The families in a free
scalar lam > 0 are each fixed by their two end limits: the right side at lam
is interpolate(c(0), c(inf), lam) = (c(0) + c(inf) lam)/(1 + lam), where,
with xy = |x||y|, ip = |<x,y>|, b = |<x,e><e,y>| and s = xy + ip,

* cs_refinement_gen (the paper's refinement, lam = f(t)): c(0) = ip xy, the
  Cauchy-Schwarz-type term, and c(inf) = xy^2, the plain product of norms;
* cs_refinement_two: c(0) = ip xy, c(inf) = (xy^2 + ip xy)/2;
* buzano_refined: c(0) = (2 xy^2 + 6 xy ip)/8, c(inf) = (3 xy^2 + 5 xy ip)/8;
* buzano_refined_two: c(0) = b s/2, c(inf) = s^2/4;
* buzano_power: c(0) = P + 4^-n xy^n ip^n + B, c(inf) = 2P + B, where
  P = 4^-n xy^2n and B is the binomial sum.

buzano's right side, s/2, takes no lam. One private body validates the
vectors, computes the sides and builds the record for all six. Each
evaluator checks lam, then n, then the vectors, then e.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitVectorError
from .linalg import _pow2_scaled, _vectors, inner

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
        for name in ("lam", "r", "n", "alpha"):
            _require_number(name, getattr(self, name))
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        require_exponent(self.r)
        if not (1 <= self.n < math.inf and int(self.n) == self.n):  # inf and nan fail first
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        require_alpha(self.alpha)
        fields = (self.lam, self.r, self.n, self.alpha)  # hashed once: reads hash params often
        # lam -0.0 is not 0.0, so a report keeps each lam's sign
        object.__setattr__(self, "_key", (fields, math.copysign(1.0, self.lam), hash(fields)))

    def __eq__(self, other):
        return self._key == other._key if type(other) is BoundParams else NotImplemented

    def __hash__(self):
        return self._key[2]


def _require_number(name: str, v):
    """v, or ValueError unless v, the scalar ``name``, is a real number and not a bool."""
    if type(v) not in (float, int) and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise ValueError(f"{name} must be a number, not a {type(v).__name__}")
    return v


def _require_positive(lam: float) -> float:
    lam = float(_require_number("lam", lam))
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    return lam


def require_exponent(r: float) -> float:
    """r, or ValueError unless it is a finite number >= 1 (not a bool)."""
    _require_number("r", r)
    if not (math.isfinite(r) and r >= 1):
        raise ValueError(f"r must be finite and >= 1, got {r}")
    return r


def require_alpha(alpha: float) -> None:
    """ValueError unless alpha is a number (not a bool) in (0, 1)."""
    _require_number("alpha", alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def binomial_order(n: int) -> int:
    """n as an int by BoundParams' rule, for the binomial-order forms; n > 15 is refused."""
    n = int(BoundParams(lam=1.0, n=n).n)
    if n > 15:
        raise OverflowError("n > 15 not supported (binomial exactness cap)")
    return n


def _norm(v: np.ndarray) -> float:
    """|v| of a validated vector as a Python float. math.hypot scales its
    arguments, so it overflows only where the norm does, and never warns."""
    return math.hypot(*v.view(np.float64).tolist())


def require_unit(v: np.ndarray) -> np.ndarray:
    """v, or NotUnitVectorError when its norm is not 1 within 1e-12."""
    if abs(_norm(v) - 1.0) > 1e-12:
        raise NotUnitVectorError(f"vector norm {_norm(v)} is not 1 within 1e-12")
    return v


def interpolate(c0, cinf, lam):
    """(c0 + cinf lam)/(1 + lam): the member at lam of the family whose end
    limits are c0 (lam -> 0) and cinf (lam -> inf); floats or arrays."""
    return (c0 + cinf * lam) / (1.0 + lam)


def _record(name: str, sides, vectors: tuple, lam: float | None = None,
            degree: int = 2) -> InequalityRecord:
    """The record of evaluator ``name`` on x, y (and a unit vector e).

    sides(xy, ip, b) of xy = |x||y|, ip = |<x,y>| and b = |<x,e><e,y>| (None
    without e) gives (lhs, rhs) or (lhs, rhs, outer); with lam given, rhs is
    the end pair (c(0), c(inf)), interpolated at lam. When a value leaves the
    double range, the sides, homogeneous of ``degree`` in x and in y, are taken
    at x 2^-i and y 2^-j (exact) times 2^(degree (i + j)); a side still past it
    raises one OverflowError naming the evaluator, an ``outer`` past it is inf.
    """
    vs = _vectors(*vectors)  # rows by index: cheaper than unpacking the array
    x, y, e = vs[0], vs[1], require_unit(vs[2]) if len(vs) == 3 else None
    try:
        try:  # from_sides raises when lhs or rhs (so when an end) is not finite
            return InequalityRecord.from_sides(name, *_sides(sides, x, y, e, lam))
        except OverflowError:
            (x, i), (y, j) = _pow2_scaled(vs[:1]), _pow2_scaled(vs[1:2])
            k, (lhs, rhs, *outer) = degree * (i + j), _sides(sides, x[0], y[0], e, lam)
            outer = [math.ldexp(c, k) if math.frexp(c)[1] + k <= 1024 else math.inf for c in outer]
            return InequalityRecord.from_sides(name, math.ldexp(lhs, k), math.ldexp(rhs, k), *outer)
    except OverflowError:
        raise OverflowError(f"{name}: a side leaves the double range") from None


def _sides(sides, x: np.ndarray, y: np.ndarray, e: np.ndarray | None, lam) -> tuple:
    """_record's sides at x, y and e, rhs interpolated at lam."""
    b = None if e is None else abs(inner(x, e) * inner(e, y))
    lhs, rhs, *outer = sides(_norm(x) * _norm(y), abs(inner(x, y)), b)
    if lam is not None:
        ends, rhs = rhs, interpolate(*rhs, lam)
        if not math.isfinite(rhs):  # c(inf) lam past the range, maybe not rhs: scale the ends
            k = math.frexp(max(ends))[1]
            rhs = math.ldexp(interpolate(*(math.ldexp(c, -k) for c in ends), lam), k)
    return lhs, rhs, *outer


def cs_refinement_gen(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(1+lam) |x|^2|y|^2 + 1/(1+lam) |<x,y>| |x||y|.

    The right side never exceeds |x|^2 |y|^2, reported as ``outer``.
    """
    return _record("cs_refinement_gen", lambda xy, ip, _: (ip**2, (ip * xy, xy**2), xy**2),
                   (x, y), _require_positive(lam))


def cs_refinement_two(x, y, lam: float) -> InequalityRecord:
    """|<x,y>|^2 <= lam/(2(1+lam)) |x|^2|y|^2 + (2+lam)/(2(1+lam)) |<x,y>| |x||y|."""
    # The ends weight each term, here and in the two refined Buzano forms, not
    # divide a sum by 2^k: no intermediate leaves the double range before the end.
    return _record("cs_refinement_two",
                   lambda xy, ip, _: (ip**2, (ip * xy, xy**2 / 2.0 + ip * xy / 2.0), xy**2),
                   (x, y), _require_positive(lam))


def buzano(x, y, e) -> InequalityRecord:
    """|<x,e><e,y>| <= (|x||y| + |<x,y>|) / 2 for a unit vector e."""
    return _record("buzano", lambda xy, ip, b: (b, 0.5 * (xy + ip)), (x, y, e), degree=1)


def buzano_refined(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= (2+3lam)/(8(1+lam)) |x|^2|y|^2
    + (6+5lam)/(8(1+lam)) |x||y| |<x,y>|."""
    return _record("buzano_refined", lambda xy, ip, b: (b**2, (
        0.25 * xy**2 + 0.75 * xy * ip, 0.375 * xy**2 + 0.625 * xy * ip)),
        (x, y, e), _require_positive(lam))


def buzano_refined_two(x, y, e, lam: float) -> InequalityRecord:
    """|<x,e><e,y>|^2 <= lam/(4(1+lam)) (|x||y| + |<x,y>|)^2
    + 1/(2(1+lam)) |<x,e><e,y>| (|x||y| + |<x,y>|).

    The first term is the expanded square of |x||y| + |<x,y>|.
    """
    return _record("buzano_refined_two",
                   lambda xy, ip, b: (b**2, (b * ((xy + ip) / 2.0), ((xy + ip) / 2.0) ** 2)),
                   (x, y, e), _require_positive(lam))


def buzano_power(x, y, e, lam: float, n: int) -> InequalityRecord:
    """Binomial-order power form of the refined Buzano inequality:

    |<x,e><e,y>|^(2n) <= 4^-n (1+2lam)/(1+lam) |x|^(2n)|y|^(2n)
        + 4^-n/(1+lam) |x|^n|y|^n |<x,y>|^n
        + 4^-n sum_{j=1}^{2n-1} C(2n,j) |x|^j|y|^j |<x,y>|^(2n-j)

    Binomial coefficients are exact integers; n > 15 is refused. Each term
    is formed from the halved factors, 4^-n xy^j ip^(2n-j) = (xy/2)^j (ip/2)^(2n-j)
    (halving is exact), so none leaves the double range before the sum does.
    """
    lam, n = _require_positive(lam), binomial_order(n)

    def sides(xy, ip, b):
        hx, hp = xy / 2.0, ip / 2.0
        top = hx ** (2 * n)
        binom = sum(math.comb(2 * n, j) * hx**j * hp ** (2 * n - j) for j in range(1, 2 * n))
        return b ** (2 * n), (top + hx**n * hp**n + binom, 2.0 * top + binom)

    return _record("buzano_power", sides, (x, y, e), lam, 2 * n)


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
