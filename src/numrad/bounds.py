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

Each CATALOG entry is one form: a function of BoundParams giving, in plain
data, the bound's exponent, its right side over term keys and its
coefficients' end limits c(0), c(inf), c(lam) = (c(0) + c(inf) lam)/(1 + lam),
so a right side is monotone in lam in every mode. fill_terms computes every
term once, into one table per stack of inputs. _plan, memoized on a request's
reads (one bound at one BoundParams in one of its modes each), checks them and
gives one row per distinct read, holding its lam and its coefficients there;
evaluate, the one evaluation path, plans the reads of (terms, reads) pairs,
fills their terms and evaluates each plan in one stacked pass, per config or
at k = 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeCoefficientError,
    UnknownBoundError,
    UnknownChainError,
)
from .linalg import _h, _spectral_power, _svd, as_matrix, numerical_radius, same_dim
from .scalar_ineq import BoundParams, _require_positive, binomial_order, interpolate

HOLDS_RTOL = 1e-8
CHAIN_RTOL = 1e-9


def rel_scale(a, b):
    """max(1, |a|, |b|) elementwise: the scale of a relative tolerance or slack."""
    return np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


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
    boundary: str  # "lambda->0" | "lambda->inf" | "flat", read from the two end values;
    # "interior" only where golden-section's point lies below both


def resolve_implicit_quadratic(a, b):
    """Positive root of u^2 = a u + b: every u with u^2 <= a u + b satisfies
    u <= (a + sqrt(a^2 + 4b))/2. Monotone in both coefficients; elementwise
    on arrays."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if not ((np.minimum(a, b) >= 0.0).all() and (np.maximum(a, b) < math.inf).all()):
        raise NegativeCoefficientError(f"coefficients must be finite and >= 0, got a={a} b={b}")
    root = 0.5 * (a + np.sqrt(a * a + 4.0 * b))
    return float(root) if root.ndim == 0 else root


# --------------------------------------------------------------------------
# Engine terms, keyed

# A term key names a quantity of the families A^p, B^p of a term object (|T|
# and |T*| for one matrix T, |T| and |S| for a pair): W, W2, WP, OP are w(T),
# w(T^2), w(T*S), ||T||; ns(p_a, p_b) is ||A^p_a + B^p_b||, wc(p_b, p_a) is
# w(B^p_b A^p_a), ("pow", key, e) a term to the power e and ("binom", n) the
# sum over j < 2n of C(2n, j) ||A^2j + B^2j|| w(T^2)^(2n-j).
W, W2, WP, OP = ("w",), ("w2",), ("wp",), ("op",)


def ns(p_a, p_b=None) -> tuple:
    return ("ns", p_a, p_a if p_b is None else p_b)


def wc(p_b, p_a=None) -> tuple:
    return ("wc", p_b, p_b if p_a is None else p_a)


def _sources(key: tuple) -> list[tuple]:
    """The engine terms (ns, w and wc keys) a term is computed from."""
    if key[0] == "pow":
        return [key[1]]
    if key[0] == "binom":
        return [ns(2.0 * j) for j in range(1, 2 * int(key[1]))] + [W2]
    return [key]


def _pow(x: np.ndarray, e) -> np.ndarray:
    """x ** e per entry by libm's pow, as Python's float power takes it (numpy's
    vectorized power differs in the last bit); inf past the double range."""
    with np.errstate(over="ignore"):
        return np.array([v ** e for v in x], dtype=np.float64)


def _derive(values: dict, key: tuple) -> np.ndarray:
    """A pow or binom term, from the engine terms in values."""
    if key[0] == "pow":
        return _pow(values[key[1]], key[2])
    n = int(key[1])
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(math.comb(2 * n, j) * values[ns(2.0 * j)] * _pow(values[W2], 2 * n - j)
                   for j in range(1, 2 * n))


class _Terms:
    """Terms of a stack of k inputs from the q-th powers a(q), b(q) of families A
    and B; ``values`` holds every term fill_terms has computed, k values each."""

    def __init__(self, a: Callable, b: Callable, t: np.ndarray, s: np.ndarray | None = None):
        self._a, self._b, self.t, self.s = a, b, t, s
        self.values: dict[tuple, np.ndarray] = {}

    def _input(self, key: tuple) -> np.ndarray:
        """The k matrices whose w the term is (a norm sum's are Hermitian, so w is their norm)."""
        if key[0] == "ns":
            return self._a(key[1]) + self._b(key[2])
        if key[0] == "wc":
            return self._b(key[1]) @ self._a(key[2])
        if key == W2:
            return self.t @ self.t
        return _h(self.t) @ self.s if key == WP else self.t


class MatrixTerms(_Terms):
    """Terms of a checked stack of matrices T: A = |T| and B = |T*| from one SVD
    T = U S V*, |T|^q = V S^q V* and |T*|^q = U S^q U*, each formed once per q."""

    def __init__(self, t: np.ndarray):
        u, s, vh = _svd(t)
        v = _h(vh)
        super().__init__(cache(lambda q: _spectral_power(s, v, q)),
                         cache(lambda q: _spectral_power(s, u, q)), t)
        self.values[OP] = s[:, 0]  # sigma_1: SVD values descend


class PairTerms(_Terms):
    """Terms of a stack of pairs (T, S) of a product bound, T rows ``first`` of the stack
    of ``terms`` and S each next row (T at the last): A = |T|, B = |S| its |T|^q rows."""

    def __init__(self, terms: MatrixTerms, first):
        a, i = terms._a, np.asarray(first)
        j = np.minimum(i + 1, len(terms.t) - 1)
        super().__init__(lambda q: a(q)[i], lambda q: a(q)[j], terms.t[i], terms.t[j])


def fill_terms(requests) -> None:
    """Compute the terms [(terms, keys), ...] need into terms.values, as no other
    code does: every w and norm sum in one engine call over every finite input,
    then each pow and binom; inf past the double range. A norm sum's input is
    exactly Hermitian, so the engine's near-Hermitian rule gives its norm, hi = lo."""
    jobs = [(terms, src) for terms, keys in requests for src in dict.fromkeys(
        src for key in keys for src in _sources(key)) if src not in terms.values]
    if jobs:
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.concatenate([terms._input(key) for terms, key in jobs])
        finite = np.isfinite(x).all(axis=(1, 2))
        out = np.full(len(x), math.inf)
        if finite.any():  # the engine refuses an empty stack
            out[finite] = numerical_radius(x[finite])
        ends = np.cumsum([len(terms.t) for terms, _ in jobs])
        for (terms, key), part in zip(jobs, np.split(out, ends[:-1])):
            terms.values[key] = part
    for terms, keys in requests:  # the pow and binom keys, each once
        terms.values.update((key, _derive(terms.values, key)) for key in keys
                            if key not in terms.values)


def matrix_terms(t) -> MatrixTerms:
    """Terms of one matrix (k = 1) or of a (k, n, n) stack."""
    return MatrixTerms(as_matrix(t, stack=True))


def pair_terms(t, s) -> PairTerms:
    """Terms of one pair (T, S) (k = 1) or of two (k, n, n) stacks: one SVD, T_i before S_i."""
    a, b = as_matrix(t, stack=True), as_matrix(s, stack=True)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    pairs = np.stack((a, b), axis=1).reshape(-1, *a.shape[1:])
    return PairTerms(MatrixTerms(pairs), np.arange(0, len(pairs), 2))


# --------------------------------------------------------------------------
# The catalog

# Marks u = base^(p/2) in a right side, base being w(T), or w(T*S) for a
# product bound. A bound whose right side holds U is implicit.
U = "u"

Form = namedtuple("Form", "exponent ends rhs")


@dataclass(frozen=True)
class BoundSpec:
    """One catalog bound: form(params) is its Form, base^exponent <= sum_i
    c_i(lam) * (product of the factors in rhs[i]), each factor U or a term key,
    ends holding c(0) and c(inf) or the one vector c of a bound free of lam.
    A form has one shape at every params (the number of end vectors, where U
    stands, the kind of each key), from which whether the bound takes lam, is
    implicit and its modes are read. One that takes lam needs lam > 0 unless
    ``lam_zero``. Products and the sum are evaluated left to right, which
    fixes the rounding of every value.
    """

    form: Callable[[BoundParams], Form]
    lam_zero: bool = False
    product: bool = False

    @cached_property
    def uses_lambda(self) -> bool:  # read at one params: every params gives one shape
        return len(self.form(BoundParams(lam=1.0)).ends) == 2

    @cached_property
    def lam_positive(self) -> bool:  # whether the bound needs lam > 0
        return self.uses_lambda and not self.lam_zero

    @cached_property
    def implicit(self) -> bool:
        return any(U in prod for prod in self.form(BoundParams(lam=1.0)).rhs)

    @cached_property
    def modes(self) -> tuple[str, ...]:
        return (MODE_INEQUALITY, MODE_CERTIFICATE) if self.implicit else (MODE_CERTIFICATE,)

    def keys(self, form: Form) -> list[tuple]:
        """Every term the bound reads in form, its w-powers included."""
        base = WP if self.product else W
        return [("pow", base, form.exponent), ("pow", base, form.exponent / 2.0)] + [
            f for prod in form.rhs for f in prod if f is not U]


def _th6(n: int) -> Form:
    n = binomial_order(n)
    h = [2.0 ** -(2 * n + k) for k in range(3)]  # 2^-(2n + k)
    return Form(4.0 * n, ((h[2], h[1], h[1], h[1]), (h[1], h[0], 0.0, h[1])), (
        (ns(4.0 * n),), (wc(2.0 * n),), (ns(2.0 * n), ("pow", W2, n)), (("binom", n),)))


CATALOG: dict[str, BoundSpec] = {
    "op_norm": BoundSpec(lambda p: Form(1.0, ((1.0,),), ((OP,),))),
    "kittaneh": BoundSpec(lambda p: Form(1.0, ((0.5,),), ((ns(1.0),),))),
    "el_haddad": BoundSpec(lambda p: Form(2.0 * p.r, ((0.5,),), ((ns(2.0 * p.r),),))),
    # The second absolute-value term enters squared, matching bhunia below;
    # some statements drop that square.
    "abu_omar": BoundSpec(lambda p: Form(2.0, ((0.25, 0.5),), ((ns(2.0),), (W2,)))),
    "bhunia": BoundSpec(lambda p: Form(2.0, ((0.25, 0.5),), ((ns(2.0),), (wc(1.0),)))),
    "th3": BoundSpec(lambda p: Form(2.0, ((0.0, 0.0, 0.5), (0.25, 0.5, 0.0)), (
        (ns(4.0 * p.alpha, 4.0 * (1.0 - p.alpha)),), (wc(2.0 * (1.0 - p.alpha), 2.0 * p.alpha),),
        (U, ns(2.0 * p.alpha, 2.0 * (1.0 - p.alpha)))))),
    "th4": BoundSpec(lambda p: Form(4.0, ((0.0625, 0.125, 0.375), (0.09375, 0.1875, 0.3125)),
                                    ((ns(4.0),), (wc(2.0),), (W2, ns(2.0))))),
    # u = w^2: u^2 <= a u + b
    "th5": BoundSpec(lambda p: Form(4.0, ((0.0, 0.0, 0.0, 0.0, 0.25, 0.5),
                                          (0.0625, 0.125, 0.25, 0.25, 0.0, 0.0)), (
        (ns(4.0),), (wc(2.0),), (("pow", W2, 2),), (ns(2.0), W2), (U, ns(2.0)), (U, W2)))),
    "th6": BoundSpec(lambda p: _th6(p.n)),
    "cor_bomi": BoundSpec(lambda p: Form(4.0, ((0.125, 0.375), (0.25, 0.25)),
                                         ((ns(4.0),), (ns(2.0), W2)))),
    "dragomir": BoundSpec(lambda p: Form(float(p.r), ((0.5,),), ((ns(2.0 * p.r),),)),
                          product=True),
    "al_dolat": BoundSpec(lambda p: Form(2.0, ((0.5, 0.0), (0.0, 0.5)),
                                         ((ns(2.0), U), (ns(4.0),))), lam_zero=True, product=True),
    # u = w^r(T*S): u^2 <= a u + b
    "th2": BoundSpec(lambda p: Form(2.0 * p.r, ((0.5, 0.0, 0.0), (0.0, 0.25, 0.5)), (
        (U, ns(2.0 * p.r)), (ns(4.0 * p.r),), (wc(2.0 * p.r),))), product=True),
}

ALL_BOUNDS = tuple(CATALOG)
PRODUCT_BOUNDS = tuple(name for name, b in CATALOG.items() if b.product)
# The paper refines the bounds that take no lam > 0.
CLASSICAL_BOUNDS = tuple(name for name, b in CATALOG.items() if not b.lam_positive)


def _spec(name: str) -> BoundSpec:
    if name not in CATALOG:
        raise UnknownBoundError(f"unknown bound {name!r}; catalog: {ALL_BOUNDS}")
    return CATALOG[name]


def bound_modes(name: str) -> tuple[str, ...]:
    """Modes a catalog bound supports, inequality-check first."""
    return _spec(name).modes


def uses_lambda(name: str) -> bool:
    return _spec(name).uses_lambda


def _coefficients(name: str, lam: float, n: int = 1) -> tuple[float, ...]:
    c0, cinf = np.array(CATALOG[name].form(BoundParams(1.0, n=n)).ends)
    return tuple(interpolate(c0, cinf, lam).tolist())


def th2_coefficients(lam: float) -> tuple[float, float, float]:
    """Multipliers of (w^r(T*S) ||T^2r+S^2r||, ||T^4r+S^4r||, w(|S|^2r |T|^2r))."""
    return _coefficients("th2", lam)


def th3_coefficients(lam: float) -> tuple[float, float, float]:
    """Multipliers of (||g^4+h^4||, w(h^2 g^2), w(T) ||g^2+h^2||)."""
    return _coefficients("th3", lam)


def th4_coefficients(lam: float) -> tuple[float, float, float]:
    return _coefficients("th4", lam)


def th5_coefficients(lam: float) -> tuple[float, ...]:
    return _coefficients("th5", lam)


def th6_coefficients(lam: float, n: int) -> tuple[float, float, float, float]:
    """Multipliers of (||T^4n+T*^4n||, w(|T*|^2n |T|^2n),
    ||T^2n+T*^2n|| w^n(T^2), binomial sum)."""
    return _coefficients("th6", lam, n)


def cor_bomi_coefficients(lam: float) -> tuple[float, float]:
    return _coefficients("cor_bomi", lam)


def al_dolat_coefficients(lam: float) -> tuple[float, float]:
    return _coefficients("al_dolat", lam)


# --------------------------------------------------------------------------
# Evaluation over a stack of inputs

# A read: one bound at one BoundParams in one of its modes.
Read = namedtuple("Read", "name params mode")

# The plan of a request, ``rows`` mapping each distinct read to its row, with
# its lam (nan for a bound free of lam). A row's w-power and factors are rows of
# V: terms.values[key] for each of ``keys``, then ones. It sums its products in
# two parts, a and b, each in catalog order and padded with -0.0 (x + -0.0 ==
# x): a certificate's products with U (read as 1) and the rest; any other
# row's products (U read as u) and none. c holds each product's coefficient at
# its row's lam, c0 and cinf its end limits.
Plan = namedtuple("Plan", "keys rows name mode lam exponent cert w c c0 cinf factors")
# the catalog's most products per form and factors per product, read at one params
_SLOTS = max(len(b.form(BoundParams(1.0)).rhs) for b in CATALOG.values())
_WIDTH = max(len(prod) for b in CATALOG.values() for prod in b.form(BoundParams(1.0)).rhs)


@lru_cache(maxsize=64)
def _plan(reads: tuple) -> Plan:
    """The plan of a request's reads, a row per distinct read. ValueError for the
    first read whose bound lacks its lam (> 0 where it needs it) or its mode,
    before any form is read (th6's refuses n > 15); a refusal is not memoized."""
    reads = tuple(dict.fromkeys(reads))
    for name, params, mode in reads:
        if _spec(name).lam_positive:
            _require_positive(params.lam)
        if mode not in CATALOG[name].modes:
            raise ValueError(f"bound {name!r} has no mode {mode!r}")
    keys, rows, table, slots = {}, [], [], 1  # keys: key -> its V row
    for name, params, mode in reads:
        bound = CATALOG[name]
        form, base = bound.form(params), WP if bound.product else W
        for key in bound.keys(form):
            keys.setdefault(key, len(keys))
        cert = bound.implicit and mode == MODE_CERTIFICATE
        p = form.exponent / 2.0 if cert else form.exponent
        rows.append((name, mode, params.lam if bound.uses_lambda else math.nan, p, cert,
                     keys["pow", base, p]))
        u = -1 if cert else keys["pow", base, form.exponent / 2.0]  # V[-1] is ones
        a = [j for j, prod in enumerate(form.rhs) if not cert or U in prod]
        for part in a, [j for j in range(len(form.rhs)) if j not in a]:
            for j in part:  # per product: c0, cinf, then its factors padded with ones
                prod = [u if f is U else keys[f] for f in form.rhs[j]] + [-1] * _WIDTH
                table += [form.ends[0][j], form.ends[-1][j], *prod[:_WIDTH]]
            table += ([-0.0, -0.0] + [-1] * _WIDTH) * (_SLOTS - len(part))
            slots = max(slots, len(part))
    name, mode, lam, exponent, cert, w = zip(*rows) if rows else [()] * 6
    table = np.array(table).reshape(-1, 2, _SLOTS, 2 + _WIDTH).transpose(3, 2, 1, 0)[:, :slots]
    lam = np.array(lam, dtype=np.float64)  # nan: free of lam, so c is c0
    c = np.where(np.isnan(lam), table[0], interpolate(table[0], table[1], lam))
    return Plan(tuple(keys), {read: i for i, read in enumerate(reads)}, name, mode, lam,
                exponent, np.array(cert, dtype=bool).reshape(-1, 1), np.array(w, dtype=np.intp),
                c, *table[:2], table[2:].astype(np.intp))


def _rhs(plan: Plan, v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each plan row's right side (rows x inputs) from V at the coefficients c
    (products x 2 x rows: plan.c, c0, cinf or those at another lam); products
    and sums left to right."""
    with np.errstate(over="ignore", invalid="ignore"):
        prods = c[..., None]  # products x 2 x rows x 1
        for f in v[plan.factors]:  # per factor: products x 2 x rows x inputs
            prods = prods * f
        a, b = reduce(np.add, prods)  # (x_0 + x_1) + x_2 ...
        rhs = a + b  # a, b >= 0: finite iff both are; if not, the reported rhs
    resolve = plan.cert & np.isfinite(rhs)
    rhs[resolve] = resolve_implicit_quadratic(a[resolve], b[resolve])
    return rhs


# A request evaluated from its plan and V: w_power, rhs, slack and holds per
# plan row and input.
Evaluation = namedtuple("Evaluation", "plan v w_power rhs slack holds")


def evaluate(requests) -> list[Evaluation]:
    """One Evaluation per request of [(terms, reads), ...], over its inputs:
    each request's reads planned (_plan, memoized), every term in one
    fill_terms call, then each plan's rows in one stacked pass; OverflowError
    for the first row whose right side or w-power leaves the double range."""
    requests = [(terms, _plan(tuple(reads))) for terms, reads in requests]
    fill_terms([(terms, plan.keys) for terms, plan in requests])
    out = []
    for terms, plan in requests:
        v = np.array([terms.values[key] for key in plan.keys] + [np.ones(len(terms.t))])
        rhs, w = _rhs(plan, v, plan.c), v[plan.w]
        with np.errstate(over="ignore", invalid="ignore"):
            slack = rhs - w
        out.append(Evaluation(plan, v, w, rhs, slack, slack >= -HOLDS_RTOL * rel_scale(rhs, w)))
        bad = np.flatnonzero(~np.isfinite(slack).all(axis=1))  # rhs - w: both finite
        if len(bad):
            name, params, _ = list(plan.rows)[bad[0]]
            raise OverflowError(f"bound {name!r} with r={params.r}, n={params.n}, "
                                f"alpha={params.alpha}: the right side or the w-power "
                                "leaves the double range")
    return out


def _evaluate_one(bound: BoundSpec, t, s, reads) -> Evaluation:
    """The reads of one matrix, or one pair (T with itself for s None): each
    matrix checked once, its terms built before the reads are planned."""
    ms = [as_matrix(t)] + ([] if s is None or not bound.product else [as_matrix(s)])
    same_dim(*ms)
    terms = MatrixTerms(np.array(ms))  # one SVD
    terms = PairTerms(terms, [0]) if bound.product else terms
    return evaluate([(terms, reads)])[0]


def evaluate_bound(name: str, t, s=None, params: BoundParams | None = None,
                   mode: str | None = None) -> tuple[BoundResult, ...]:
    """Evaluate one catalog bound in the requested mode (or in each, in order).

    ``params.lam`` must be > 0 for a bound that takes lam; al_dolat admits
    lam = 0. Product bounds read ``s``; with s omitted the matrix is
    paired with itself.
    """
    bound, params = _spec(name), params if params is not None else BoundParams(lam=1.0)
    modes = bound.modes if mode is None else (mode,)
    ev = _evaluate_one(bound, t, s, [Read(name, params, m) for m in modes])
    return tuple(BoundResult(name, params, float(ev.rhs[i, 0]), ev.plan.exponent[i],
                             float(ev.w_power[i, 0]), float(ev.slack[i, 0]),
                             bool(ev.holds[i, 0]), ev.plan.mode[i]) for i in range(len(modes)))


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

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
OPTIMIZE_METHODS = ("auto", "golden-section")


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

    With t = lam/(1 + lam), each coefficient c(0) + (c(inf) - c(0)) t is
    affine in t, and so is a right side without u (inequality mode, or an
    explicit bound). A resolved certificate is the root u of u^2 = a u + b
    with a = a0 + da t, b = b0 + db t; t(u) = (u^2 - a0 u - b0)/(da u + db)
    is single-valued (or da u + db = 0 and u is the root at every t), so the
    root, continuous in t, is monotone. Both methods therefore read the two
    end values, from c(0) and c(inf) themselves: "flat" (lam* = 1) when they
    agree within 1e-12 of their scale, else the smaller end, lam* None.
    "golden-section", an independent cross-check of that monotonicity, also
    searches lam = exp(sigma), sigma in [-20, 20], to 1e-9 in sigma, and
    reports its point as "interior" only where its value lies more than
    1e-12 of that scale below both ends.
    """
    bound = _spec(name)
    if method not in OPTIMIZE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)
    mode = bound.modes[0] if mode is None else mode
    plan, v, *_ = _evaluate_one(bound, t, s, [Read(name, params, mode)])
    f0, finf = (float(_rhs(plan, v, c)[0, 0]) for c in (plan.c0, plan.cinf))
    f_end, tol = min(f0, finf), 1e-12 * rel_scale(f0, finf)
    if method == "golden-section":  # the right side at lam = e^sigma
        s_star, f_star = _golden_min(lambda sigma: float(_rhs(plan, v, interpolate(
            plan.c0, plan.cinf, math.exp(sigma)))[0, 0]), -20.0, 20.0, 1e-9)
        if f_star < f_end - tol:
            return LambdaOptimum(name, mode, f_star, math.exp(s_star), "interior")
    if abs(f0 - finf) <= tol:
        return LambdaOptimum(name, mode, f_end, 1.0, "flat")
    return LambdaOptimum(name, mode, f_end, None, "lambda->0" if f0 < finf else "lambda->inf")


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


def _chain(chain_id: str) -> ChainSpec:
    if chain_id not in CHAINS:
        raise UnknownChainError(f"unknown chain {chain_id!r}; catalog: {CHAIN_IDS}")
    return CHAINS[chain_id]


def refinement_chain(t, s, chain_id: str, params: BoundParams) -> ChainResult:
    """One corollary chain: (w-power, refined bound, classical bound).

    Product chains (th2_dragomir, th2_aldolat) read ``s`` and pair the matrix
    with itself when s is None.
    """
    ch = _chain(chain_id)
    # Both bounds of a chain are of one kind, single or product.
    reads = chain_reads(ch, params)
    ev = _evaluate_one(CATALOG[ch.refined], t, s, reads)
    links, holds = chain_links(ev, *(ev.plan.rows[read] for read in reads))
    return ChainResult(chain_name=chain_id, holds=bool(holds[0]),
                       links=tuple((name, float(v[0])) for name, v in links))


def chain_reads(ch: ChainSpec, params: BoundParams) -> tuple[Read, Read]:
    """The chain's refined bound in its mode, the classical in its first mode."""
    rp, cp = ch.refined_params(params), ch.classical_params(params)
    return Read(ch.refined, rp, ch.mode), Read(ch.classical, cp, CATALOG[ch.classical].modes[0])


def chain_links(ev: Evaluation, refined, classical):
    """The links (w-power, refined, classical) over the inputs of the chains with
    refined and classical rows (one or an array) of ev, and whether each
    input's links ascend within CHAIN_RTOL."""
    links = (("w_power", ev.w_power[refined]), ("refined", ev.rhs[refined]),
             ("classical", ev.rhs[classical]))
    return links, np.logical_and.reduce([
        a <= b + CHAIN_RTOL * rel_scale(a, b)
        for (_, a), (_, b) in zip(links, links[1:])])
