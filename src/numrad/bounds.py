"""Numerical-radius upper-bound catalog.

Every bound is one CATALOG entry, evaluated into a BoundResult holding the
engine's w-power for the same input, the bound's right side, slack and a
holds flag. A right side sums products of engine terms (w(T), w(T^2), norms
of |T|-power sums, ...) with coefficients in the free parameter lam. Bounds
whose right side contains u, a power of the bounded quantity itself
("implicit" bounds), come in two modes:

* ``inequality-check``   - the literal statement, with the engine value
  substituted for u on the right side;
* ``explicit-certificate`` - the implicit inequality u^2 <= a u + b resolved
  to u <= (a + sqrt(a^2 + 4b))/2, a bound usable without knowing u.

Right sides are homographic in lam: rhs(lam) = (P + Q lam)/(1 + lam), so
their infimum over lam is min(P, Q) attained at a boundary; resolved
certificates lose that structure and are minimized numerically. All engine
terms are computed once per matrix and shared across bounds, modes and lam
values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeCoefficientError,
    UnknownBoundError,
    UnknownChainError,
)
from .linalg import _INVPHI, PSDPower, abs_powers, adjoint, as_matrix, numerical_radius
from .scalar_ineq import BoundParams, binomial_order

HOLDS_RTOL = 1e-8
CHAIN_RTOL = 1e-9

MODE_INEQUALITY = "inequality-check"
MODE_CERTIFICATE = "explicit-certificate"


@dataclass(frozen=True)
class BoundResult:
    bound_name: str
    params: BoundParams
    rhs_value: float
    exponent_p: float
    w_power_value: float
    slack: float
    holds: bool
    mode: str


@dataclass(frozen=True)
class ChainResult:
    chain_name: str
    links: tuple[tuple[str, float], ...]
    holds: bool


@dataclass(frozen=True)
class LambdaOptimum:
    bound_name: str
    mode: str
    infimum: float
    lambda_star: float | None
    boundary: str  # "lambda->0" | "lambda->inf" | "flat" | "interior"


def resolve_implicit_quadratic(a: float, b: float) -> float:
    """Positive root of u^2 = a u + b: every u with u^2 <= a u + b satisfies
    u <= (a + sqrt(a^2 + 4b))/2. Monotone in both coefficients."""
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0 or b < 0:
        raise NegativeCoefficientError(f"coefficients must be finite and >= 0, got a={a} b={b}")
    return 0.5 * (a + math.sqrt(a * a + 4.0 * b))


# --------------------------------------------------------------------------
# Coefficient families (pure arithmetic, exposed for specialization checks)

def th2_coefficients(lam: float) -> tuple[float, float, float]:
    """Multipliers of (w^r(T*S) ||T^2r+S^2r||, ||T^4r+S^4r||, w(|S|^2r |T|^2r))."""
    d = 1.0 + lam
    return 1.0 / (2.0 * d), lam / (4.0 * d), lam / (2.0 * d)


def th3_coefficients(lam: float) -> tuple[float, float, float]:
    """Multipliers of (||g^4+h^4||, w(h^2 g^2), w(T) ||g^2+h^2||)."""
    d = 1.0 + lam
    return lam / (4.0 * d), lam / (2.0 * d), 1.0 / (2.0 * d)


def th4_coefficients(lam: float) -> tuple[float, float, float]:
    d = 1.0 + lam
    return (2.0 + 3.0 * lam) / (32.0 * d), (2.0 + 3.0 * lam) / (16.0 * d), \
        (6.0 + 5.0 * lam) / (16.0 * d)


def th5_coefficients(lam: float) -> tuple[float, ...]:
    d = 1.0 + lam
    return (lam / (16.0 * d), lam / (8.0 * d), lam / (4.0 * d),
            lam / (4.0 * d), 1.0 / (4.0 * d), 1.0 / (2.0 * d))


def th6_coefficients(lam: float, n: int) -> tuple[float, float, float, float]:
    """Multipliers of (||T^4n+T*^4n||, w(|T*|^2n |T|^2n),
    ||T^2n+T*^2n|| w^n(T^2), binomial sum)."""
    d = 1.0 + lam
    lead = (1.0 + 2.0 * lam) / d
    return (lead / 2.0 ** (2 * n + 2), lead / 2.0 ** (2 * n + 1),
            1.0 / (d * 2.0 ** (2 * n + 1)), 1.0 / 2.0 ** (2 * n + 1))


def cor_bomi_coefficients(lam: float) -> tuple[float, float]:
    d = 1.0 + lam
    return (1.0 + 2.0 * lam) / (8.0 * d), (3.0 + 2.0 * lam) / (8.0 * d)


def al_dolat_coefficients(lam: float) -> tuple[float, float]:
    d = 1.0 + lam
    return 1.0 / (2.0 * d), lam / (2.0 * d)


# --------------------------------------------------------------------------
# Cached engine terms

def _herm_norm(x: np.ndarray) -> float:
    ev = np.linalg.eigvalsh((x + x.conj().T) / 2.0)
    return float(max(-ev[0], ev[-1]))


def _where_finite(f, build) -> float:
    """f(build()), or inf when the built matrix holds a value past the double
    range."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = build()
    return f(x) if np.isfinite(x).all() else math.inf


class _Terms:
    """Engine quantities built from two power families A^p and B^p of PSD
    matrices, computed lazily and cached."""

    def __init__(self, a: PSDPower, b: PSDPower):
        self._a, self._b = a, b
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def norm_sum(self, p_a: float, p_b: float | None = None) -> float:
        """|| A^p_a + B^p_b ||, with p_b = p_a by default."""
        p_b = p_a if p_b is None else p_b
        return self._memo(("ns", p_a, p_b), lambda: _where_finite(
            _herm_norm, lambda: self._a.power(p_a) + self._b.power(p_b)))

    def w_cross(self, p_b: float, p_a: float | None = None) -> float:
        """w(B^p_b A^p_a), with p_a = p_b by default."""
        p_a = p_b if p_a is None else p_a
        return self._memo(("wc", p_b, p_a), lambda: _where_finite(
            numerical_radius, lambda: self._b.power(p_b) @ self._a.power(p_a)))


class MatrixTerms(_Terms):
    """Engine quantities for one matrix T, with A = |T| and B = |T*| from one
    SVD of T."""

    def __init__(self, t: np.ndarray):
        super().__init__(*abs_powers(t))
        self.t = t

    @property
    def w(self) -> float:
        return self._memo("w", lambda: numerical_radius(self.t))

    @property
    def op_norm(self) -> float:
        return float(self._a.values[0])  # sigma_1: SVD values descend

    @property
    def w_square(self) -> float:
        """w(T^2)."""
        return self._memo("w_sq", lambda: numerical_radius(self.t @ self.t))


class PairTerms(_Terms):
    """Engine quantities for the pair (T, S) of a product bound: A = |T|, B = |S|."""

    def __init__(self, t: np.ndarray, s: np.ndarray):
        super().__init__(abs_powers(t)[0], abs_powers(s)[0])
        self.t, self.s = t, s

    @property
    def w_prod(self) -> float:
        """w(T*S); equal to w(S*T) since w is adjoint-invariant."""
        return self._memo("wp", lambda: numerical_radius(adjoint(self.t) @ self.s))


@lru_cache(maxsize=128)
def _terms_cached(cls, dim: int, *keys: bytes):
    """A MatrixTerms or PairTerms object per distinct input, by its bytes."""
    return cls(*(np.frombuffer(k, dtype=np.complex128).reshape(dim, dim).copy() for k in keys))


def matrix_terms(t) -> MatrixTerms:
    a = as_matrix(t)
    return _terms_cached(MatrixTerms, a.shape[0], a.tobytes())


def pair_terms(t, s) -> PairTerms:
    a, b = as_matrix(t), as_matrix(s)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return _terms_cached(PairTerms, a.shape[0], a.tobytes(), b.tobytes())


# --------------------------------------------------------------------------
# The catalog

LAM_POSITIVE = ">0"
LAM_NONNEGATIVE = ">=0"

# Marks u = base^(p/2) in a right side, base being w(T), or w(T*S) for a
# product bound. A bound whose right side holds U is implicit.
U = "u"


@dataclass(frozen=True)
class BoundSpec:
    """One catalog bound: base^p(params) <= rhs, where the right side is
    sum_i c_i(lam) * (product of the engine terms in rhs[i]).

    Each term is U or a function of (MatrixTerms or PairTerms, params) that
    must not read lam, so its value is cached per matrix. Products and the sum
    are evaluated left to right, which fixes the rounding of every value.
    """

    exponent: Callable[[BoundParams], float]
    coefficients: Callable[[float, BoundParams], tuple[float, ...]]
    rhs: tuple[tuple, ...]
    lam: str | None = None  # None, LAM_POSITIVE or LAM_NONNEGATIVE
    product: bool = False

    @cached_property
    def implicit(self) -> bool:
        return any(U in prod for prod in self.rhs)

    @cached_property
    def modes(self) -> tuple[str, ...]:
        return (MODE_INEQUALITY, MODE_CERTIFICATE) if self.implicit else (MODE_CERTIFICATE,)


def _fixed(*c: float):
    return lambda lam, params: c


def _of_lam(coefficients):
    return lambda lam, params: coefficients(lam)


def _ns(p: float):
    return lambda m, params: m.norm_sum(p, p)


def _wc(p: float):
    return lambda m, params: m.w_cross(p, p)


def _w2(m, params):
    return m.w_square


def _binomial_sum(m, params):
    n = int(params.n)
    return sum(math.comb(2 * n, j) * m.norm_sum(2.0 * j, 2.0 * j) * m.w_square ** (2 * n - j)
               for j in range(1, 2 * n))


CATALOG: dict[str, BoundSpec] = {
    "op_norm": BoundSpec(lambda p: 1.0, _fixed(1.0), ((lambda m, p: m.op_norm,),)),
    "kittaneh": BoundSpec(lambda p: 1.0, _fixed(0.5), ((_ns(1.0),),)),
    "el_haddad": BoundSpec(lambda p: 2.0 * p.r, _fixed(0.5),
                           ((lambda m, p: m.norm_sum(2.0 * p.r, 2.0 * p.r),),)),
    # The second absolute-value term enters squared, matching bhunia below;
    # some statements drop that square.
    "abu_omar": BoundSpec(lambda p: 2.0, _fixed(0.25, 0.5), ((_ns(2.0),), (_w2,))),
    "bhunia": BoundSpec(lambda p: 2.0, _fixed(0.25, 0.5), ((_ns(2.0),), (_wc(1.0),))),
    "th3": BoundSpec(lambda p: 2.0, _of_lam(th3_coefficients), (
        (lambda m, p: m.norm_sum(4.0 * p.alpha, 4.0 * (1.0 - p.alpha)),),
        (lambda m, p: m.w_cross(2.0 * (1.0 - p.alpha), 2.0 * p.alpha),),
        (U, lambda m, p: m.norm_sum(2.0 * p.alpha, 2.0 * (1.0 - p.alpha))),
    ), LAM_POSITIVE),
    "th4": BoundSpec(lambda p: 4.0, _of_lam(th4_coefficients),
                     ((_ns(4.0),), (_wc(2.0),), (_w2, _ns(2.0))), LAM_POSITIVE),
    # u = w^2: u^2 <= a u + b
    "th5": BoundSpec(lambda p: 4.0, _of_lam(th5_coefficients), (
        (_ns(4.0),), (_wc(2.0),), (lambda m, p: m.w_square**2,), (_ns(2.0), _w2),
        (U, _ns(2.0)), (U, _w2),
    ), LAM_POSITIVE),
    "th6": BoundSpec(lambda p: 4.0 * binomial_order(p.n),
                     lambda lam, p: th6_coefficients(lam, p.n), (
        (lambda m, p: m.norm_sum(4.0 * p.n, 4.0 * p.n),),
        (lambda m, p: m.w_cross(2.0 * p.n, 2.0 * p.n),),
        (lambda m, p: m.norm_sum(2.0 * p.n, 2.0 * p.n), lambda m, p: m.w_square ** p.n),
        (_binomial_sum,),
    ), LAM_POSITIVE),
    "cor_bomi": BoundSpec(lambda p: 4.0, _of_lam(cor_bomi_coefficients),
                          ((_ns(4.0),), (_ns(2.0), _w2)), LAM_POSITIVE),
    "dragomir": BoundSpec(lambda p: float(p.r), _fixed(0.5),
                          ((lambda m, p: m.norm_sum(2.0 * p.r),),), product=True),
    "al_dolat": BoundSpec(lambda p: 2.0, _of_lam(al_dolat_coefficients),
                          ((_ns(2.0), U), (_ns(4.0),)), LAM_NONNEGATIVE, product=True),
    # u = w^r(T*S): u^2 <= a u + b
    "th2": BoundSpec(lambda p: 2.0 * p.r, _of_lam(th2_coefficients), (
        (U, lambda m, p: m.norm_sum(2.0 * p.r)),
        (lambda m, p: m.norm_sum(4.0 * p.r),),
        (lambda m, p: m.w_cross(2.0 * p.r),),
    ), LAM_POSITIVE, product=True),
}

ALL_BOUNDS = tuple(CATALOG)
PRODUCT_BOUNDS = tuple(name for name, b in CATALOG.items() if b.product)
# The paper refines the bounds that take no lam > 0.
CLASSICAL_BOUNDS = tuple(name for name, b in CATALOG.items() if b.lam != LAM_POSITIVE)


def _spec(name: str) -> BoundSpec:
    if name not in CATALOG:
        raise UnknownBoundError(f"unknown bound {name!r}; catalog: {ALL_BOUNDS}")
    return CATALOG[name]


def bound_modes(name: str) -> tuple[str, ...]:
    """Modes a catalog bound supports, inequality-check first."""
    return _spec(name).modes


def uses_lambda(name: str) -> bool:
    return name in CATALOG and CATALOG[name].lam is not None


# --------------------------------------------------------------------------
# Mode evaluations

# rhs: lam -> right side; homographic: rhs(lam) = (P + Q lam)/(1 + lam)
_ModeEval = namedtuple("_ModeEval", "rhs w_power exponent homographic")


def _combine(coefficients, prods, u: float | None, linear: bool | None = None) -> float:
    """sum_i c_i * prod_i, left to right, with U read as u; if ``linear`` is
    given, only over the products that hold U (True) or do not (False)."""
    total = None
    for c, prod in zip(coefficients, prods):
        if linear is None or (U in prod) == linear:
            for f in prod:
                c = c * (u if f is U else f)
            total = c if total is None else total + c
    return total


def _mode_eval(bound: BoundSpec, terms, params: BoundParams, mode: str, p: float) -> _ModeEval:
    """One mode of a bound, with its engine terms evaluated."""
    base = terms.w_prod if bound.product else terms.w
    prods = terms._memo((id(bound), params.r, params.n, params.alpha), lambda: [
        [f if f is U else f(terms, params) for f in prod] for prod in bound.rhs])
    if mode == MODE_INEQUALITY or not bound.implicit:
        u = base ** (p / 2.0) if bound.implicit else None
        return _ModeEval(lambda lam: _combine(bound.coefficients(lam, params), prods, u),
                         base**p, p, True)

    def rhs_cert(lam: float) -> float:
        # u^2 <= a u + b: a sums the products holding U, read at u = 1; b the rest
        c = bound.coefficients(lam, params)
        a = _combine(c, prods, 1.0, linear=True)
        b = _combine(c, prods, None, linear=False)
        # a, b >= 0, so a + b is finite exactly when both are; otherwise the
        # right side is reported as the non-finite a + b.
        return resolve_implicit_quadratic(a, b) if math.isfinite(a + b) else a + b

    return _ModeEval(rhs_cert, base ** (p / 2.0), p / 2.0, False)


def _terms_for(bound: BoundSpec, t, s):
    return pair_terms(t, t if s is None else s) if bound.product else matrix_terms(t)


def _result(name: str, bound: BoundSpec, terms, params: BoundParams, mode: str,
            p: float) -> BoundResult:
    try:
        ev = _mode_eval(bound, terms, params, mode, p)
        rhs = float(ev.rhs(params.lam))
        finite = math.isfinite(rhs) and math.isfinite(ev.w_power)
    except OverflowError:
        finite = False
    if not finite:
        raise OverflowError(f"bound {name!r} with n={params.n}: the right side or the "
                            "w-power leaves the double range")
    slack = rhs - ev.w_power
    holds = slack >= -HOLDS_RTOL * max(1.0, rhs, ev.w_power)
    return BoundResult(bound_name=name, params=params, rhs_value=rhs,
                       exponent_p=ev.exponent, w_power_value=ev.w_power,
                       slack=slack, holds=holds, mode=mode)


def evaluate_bound(name: str, t, s=None, params: BoundParams | None = None,
                   mode: str | None = None) -> tuple[BoundResult, ...]:
    """Evaluate one catalog bound in the requested mode (or all its modes).

    ``params.lam`` must be > 0 for the bounds declared LAM_POSITIVE; al_dolat
    admits lam = 0. Product bounds read ``s``; with s omitted the matrix is
    paired with itself.
    """
    params = params if params is not None else BoundParams(lam=1.0)
    return _evaluate(name, _terms_for(_spec(name), t, s), params, mode)


def _evaluate(name: str, terms, params: BoundParams,
              mode: str | None = None) -> tuple[BoundResult, ...]:
    """evaluate_bound on the terms of validated input, of the bound's kind."""
    bound = CATALOG[name]
    if bound.lam == LAM_POSITIVE and not params.lam > 0:
        raise ValueError(f"lam must be finite and > 0, got {float(params.lam)}")
    p = bound.exponent(params)
    if mode is not None and mode not in bound.modes:
        raise ValueError(f"bound {name!r} has no mode {mode!r}")
    modes = (mode,) if mode is not None else bound.modes
    return tuple(_result(name, bound, terms, params, m, p) for m in modes)


# --------------------------------------------------------------------------
# Spec'd operation surface

def bound_classical(t, name: str, r: float = 1.0) -> BoundResult:
    """Classical single-matrix bounds: op_norm, kittaneh, el_haddad (uses r),
    abu_omar, bhunia."""
    if name not in CLASSICAL_BOUNDS or name in PRODUCT_BOUNDS:
        raise UnknownBoundError(f"unknown classical bound {name!r}")
    return evaluate_bound(name, t, params=BoundParams(lam=1.0, r=r))[0]


def bound_product_classical(t, s, name: str, r: float = 1.0, lam: float = 0.0) -> BoundResult:
    """Classical product bounds: dragomir (uses r), al_dolat (uses lam >= 0),
    in their first mode."""
    if name not in CLASSICAL_BOUNDS or name not in PRODUCT_BOUNDS:
        raise UnknownBoundError(f"unknown classical product bound {name!r}")
    return evaluate_bound(name, t, s, params=BoundParams(lam=lam, r=r))[0]


def bound_th2(t, s, r: float, lam: float, mode: str = MODE_INEQUALITY) -> BoundResult:
    return evaluate_bound("th2", t, s, BoundParams(lam=lam, r=r), mode=mode)[0]


def bound_th3(t, alpha: float, lam: float, mode: str = MODE_INEQUALITY) -> BoundResult:
    return evaluate_bound("th3", t, params=BoundParams(lam=lam, alpha=alpha), mode=mode)[0]


def bound_th4(t, lam: float) -> BoundResult:
    return evaluate_bound("th4", t, params=BoundParams(lam=lam))[0]


def bound_th5(t, lam: float, mode: str = MODE_INEQUALITY) -> BoundResult:
    return evaluate_bound("th5", t, params=BoundParams(lam=lam), mode=mode)[0]


def bound_th6(t, n: int, lam: float) -> BoundResult:
    return evaluate_bound("th6", t, params=BoundParams(lam=lam, n=n))[0]


def bound_cor_bomi(t, lam: float) -> BoundResult:
    return evaluate_bound("cor_bomi", t, params=BoundParams(lam=lam))[0]


# --------------------------------------------------------------------------
# Lambda optimization

def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float):
    c = hi - (hi - lo) * _INVPHI
    d = lo + (hi - lo) * _INVPHI
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INVPHI
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INVPHI
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def optimize_lambda(name: str, t, s=None, *, r: float = 1.0, n: int = 1,
                    alpha: float = 0.5, mode: str | None = None,
                    method: str = "auto") -> LambdaOptimum:
    """Infimum of a bound's right side over lam in (0, inf), engine terms fixed.

    Homographic right sides get the closed form min(P, Q) with a boundary
    flag (P = lam->0 limit, Q = lam->inf limit); resolved certificates are
    minimized by golden-section search over lam = exp(sigma), sigma in
    [-20, 20], tolerance 1e-9 in sigma. ``method`` can force either path.
    """
    bound = _spec(name)
    if method not in ("auto", "closed-form", "golden-section"):
        raise ValueError(f"unknown method {method!r}")
    params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)
    terms = _terms_for(bound, t, s)
    p = bound.exponent(params)
    mode = bound.modes[0] if mode is None else mode
    if mode not in bound.modes:
        raise ValueError(f"bound {name!r} has no mode {mode!r}")
    ev = _mode_eval(bound, terms, params, mode, p)

    use_closed = ev.homographic if method == "auto" else (method == "closed-form")
    if use_closed:
        if not ev.homographic:
            raise ValueError(f"bound {name!r} mode {mode!r} rhs is not homographic")
        p_lim = float(ev.rhs(0.0))
        q_lim = 2.0 * float(ev.rhs(1.0)) - p_lim  # rhs(1)*(1+1) = P + Q
        scale = max(1.0, abs(p_lim), abs(q_lim))
        if abs(p_lim - q_lim) <= 1e-12 * scale:
            return LambdaOptimum(name, mode, p_lim, 1.0, "flat")
        if p_lim < q_lim:
            return LambdaOptimum(name, mode, p_lim, None, "lambda->0")
        return LambdaOptimum(name, mode, q_lim, None, "lambda->inf")

    f = lambda sigma: float(ev.rhs(math.exp(sigma)))
    lo, hi = -20.0, 20.0
    s_star, f_star = _golden_min(f, lo, hi, 1e-9)
    for edge in (lo, hi):
        fe = f(edge)
        if fe < f_star:
            s_star, f_star = edge, fe
    scale = max(1.0, abs(f(lo)), abs(f(hi)))
    if abs(f(lo) - f(hi)) <= 1e-12 * scale and abs(f(0.0) - f_star) <= 1e-12 * scale:
        return LambdaOptimum(name, mode, f_star, 1.0, "flat")
    if s_star <= lo + 1e-6:
        return LambdaOptimum(name, mode, f_star, None, "lambda->0")
    if s_star >= hi - 1e-6:
        return LambdaOptimum(name, mode, f_star, None, "lambda->inf")
    return LambdaOptimum(name, mode, f_star, math.exp(s_star), "interior")


# --------------------------------------------------------------------------
# Refinement chains

# A chain: w-power <= refined bound (in mode) <= classical bound (in its
# first mode), each bound read at its map of the chain's params.
ChainSpec = namedtuple("ChainSpec", "refined mode refined_params classical classical_params")


def _set(**fixed):
    return lambda params: replace(params, **fixed)


# th2_aldolat fixes r = 1 and th3_elhaddad alpha = 1/2, the values the
# corollaries are stated for.
CHAINS: dict[str, ChainSpec] = {
    "th2_dragomir": ChainSpec("th2", MODE_INEQUALITY, lambda p: p,
                              "dragomir", lambda p: replace(p, r=2.0 * p.r)),
    "th2_aldolat": ChainSpec("th2", MODE_INEQUALITY, _set(r=1.0), "al_dolat", _set(r=1.0)),
    "th3_elhaddad": ChainSpec("th3", MODE_INEQUALITY, _set(alpha=0.5), "el_haddad", _set(r=1.0)),
    "th4_elhaddad": ChainSpec("th4", MODE_CERTIFICATE, lambda p: p, "el_haddad", _set(r=2.0)),
    "th5_elhaddad": ChainSpec("th5", MODE_INEQUALITY, lambda p: p, "el_haddad", _set(r=2.0)),
    "bomi_elhaddad": ChainSpec("cor_bomi", MODE_CERTIFICATE, lambda p: p, "el_haddad", _set(r=2.0)),
}

CHAIN_IDS = tuple(CHAINS)
PRODUCT_CHAINS = tuple(c for c, ch in CHAINS.items() if CATALOG[ch.refined].product)


def refinement_chain(t, s, chain_id: str, params: BoundParams) -> ChainResult:
    """One corollary chain: (w-power, refined bound, classical bound).

    Product chains (th2_dragomir, th2_aldolat) read ``s`` and pair the matrix
    with itself when s is None.
    """
    if chain_id not in CHAINS:
        raise UnknownChainError(f"unknown chain {chain_id!r}; catalog: {CHAIN_IDS}")
    ch = CHAINS[chain_id]
    # Both bounds of a chain are of one kind, single or product: one lookup.
    terms = _terms_for(CATALOG[ch.refined], t, s)
    refined = _evaluate(ch.refined, terms, ch.refined_params(params), ch.mode)[0]
    classical = _evaluate(ch.classical, terms, ch.classical_params(params))[0]
    links = (("w_power", refined.w_power_value), ("refined", refined.rhs_value),
             ("classical", classical.rhs_value))
    holds = all(
        links[i][1] <= links[i + 1][1]
        + CHAIN_RTOL * max(1.0, abs(links[i][1]), abs(links[i + 1][1]))
        for i in range(len(links) - 1)
    )
    return ChainResult(chain_name=chain_id, links=links, holds=holds)
