"""Bound catalog: frozen values, coefficient identities, homographic
structure, certificates, the lambda optimizer and refinement chains."""

import ast
import importlib
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from numrad import (
    ALL_BOUNDS,
    CHAIN_IDS,
    MODE_CERTIFICATE,
    MODE_INEQUALITY,
    BoundParams,
    DimensionMismatchError,
    EnsembleConfig,
    NegativeCoefficientError,
    UnknownBoundError,
    UnknownChainError,
    bound_classical,
    bound_cor_bomi,
    bound_product_classical,
    bound_th2,
    bound_th3,
    bound_th4,
    bound_th5,
    bound_th6,
    evaluate_bound,
    generate_ensemble,
    numerical_radius,
    optimize_lambda,
    refinement_chain,
    resolve_implicit_quadratic,
    run_suite,
)
from numrad import bounds
from numrad.bounds import (
    CATALOG,
    U,
    W,
    W2,
    WP,
    Read,
    al_dolat_coefficients,
    bound_modes,
    cor_bomi_coefficients,
    evaluate,
    fill_terms,
    matrix_terms,
    ns,
    pair_terms,
    th2_coefficients,
    th3_coefficients,
    th4_coefficients,
    th5_coefficients,
    th6_coefficients,
    uses_lambda,
    wc,
)

J = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
HUGE_SWAP = 1e200 * np.array([[0, 1], [1, 0]], dtype=complex)  # finite; its square is not


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


class TestResolveImplicitQuadratic:
    def test_pure_square_root(self):
        assert resolve_implicit_quadratic(0.0, 4.0) == pytest.approx(2.0)

    def test_mixed(self):
        assert resolve_implicit_quadratic(3.0, 4.0) == pytest.approx(4.0)

    def test_linear_only(self):
        assert resolve_implicit_quadratic(1.0, 0.0) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(NegativeCoefficientError):
            resolve_implicit_quadratic(-0.1, 1.0)
        with pytest.raises(NegativeCoefficientError):
            resolve_implicit_quadratic(1.0, -0.1)

    def test_monotone_in_both(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.random() * 5, rng.random() * 5
            da, db = rng.random(), rng.random()
            assert resolve_implicit_quadratic(a + da, b) >= resolve_implicit_quadratic(a, b)
            assert resolve_implicit_quadratic(a, b + db) >= resolve_implicit_quadratic(a, b)

    def test_bounds_any_solution(self):
        # if u^2 <= a u + b then u <= root
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.random() * 3, rng.random() * 3
            root = resolve_implicit_quadratic(a, b)
            u = root * rng.random()
            assert u * u <= a * u + b + 1e-12


class TestClassicalBounds:
    def test_kittaneh_jordan_tight(self):
        res = bound_classical(J, "kittaneh")
        assert res.rhs_value == pytest.approx(0.5)
        assert res.w_power_value == pytest.approx(0.5, abs=1e-8)
        assert abs(res.slack) <= 1e-8
        assert res.holds and res.mode == MODE_CERTIFICATE

    def test_abu_omar_jordan_tight(self):
        res = bound_classical(J, "abu_omar")
        assert res.rhs_value == pytest.approx(0.25)
        assert res.w_power_value == pytest.approx(0.25, abs=1e-8)

    def test_el_haddad_identity(self):
        res = bound_classical(I2, "el_haddad", r=1.0)
        assert res.rhs_value == pytest.approx(1.0)
        assert res.exponent_p == 2.0

    def test_el_haddad_exponent_scales_with_r(self):
        res = bound_classical(J, "el_haddad", r=2.0)
        assert res.exponent_p == 4.0
        assert res.rhs_value == pytest.approx(0.5)  # || |J|^4 + |J*|^4 || / 2
        assert res.w_power_value == pytest.approx(0.5**4, abs=1e-8)

    def test_op_norm(self):
        res = bound_classical(J, "op_norm")
        assert res.rhs_value == pytest.approx(1.0)

    def test_kittaneh_rank_one_closed_form(self):
        # T = xy*: |T| + |T*| = |x||y| (P_y + P_x) for the rank-one projections
        # onto y and x, so ||T| + |T*||/2 = (|x||y| + |<x,y>|)/2
        rng = np.random.default_rng(21)
        for k in range(20):
            n = 2 + k % 7
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            exact = 0.5 * (np.linalg.norm(x) * np.linalg.norm(y) + abs(np.vdot(y, x)))
            rhs = bound_classical(np.outer(x, y.conj()), "kittaneh").rhs_value
            assert rhs == pytest.approx(exact, rel=1e-12)

    def test_bhunia_jordan(self):
        # w(|J||J*|) = w(0) = 0
        res = bound_classical(J, "bhunia")
        assert res.rhs_value == pytest.approx(0.25)

    def test_single_calls_refuse_stacks(self):
        stack = np.array([J, J])
        for call in (lambda: evaluate_bound("kittaneh", stack),
                     lambda: evaluate_bound("th2", J, stack),
                     lambda: refinement_chain(stack, None, "th4_elhaddad", BoundParams(1.0)),
                     lambda: optimize_lambda("th4", stack)):
            with pytest.raises(ValueError, match="square matrix"):
                call()

    def test_unknown_name(self):
        with pytest.raises(UnknownBoundError):
            bound_classical(J, "th2")


class TestProductClassical:
    def test_dragomir_identity(self):
        res = bound_product_classical(I2, I2, "dragomir", r=1.0)
        assert res.rhs_value == pytest.approx(1.0)
        assert res.w_power_value == pytest.approx(1.0, abs=1e-8)

    def test_dragomir_jordan_tight(self):
        res = bound_product_classical(J, J, "dragomir", r=1.0)
        assert res.rhs_value == pytest.approx(1.0)
        assert res.w_power_value == pytest.approx(1.0, abs=1e-8)

    def test_al_dolat_identity(self):
        res = bound_product_classical(I2, I2, "al_dolat", lam=3.0)
        assert res.rhs_value == pytest.approx(1.0)
        assert res.w_power_value == pytest.approx(1.0, abs=1e-8)

    def test_al_dolat_lambda_zero_allowed(self):
        res = bound_product_classical(I2, I2, "al_dolat", lam=0.0)
        assert res.holds

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bound_product_classical(J, np.eye(3), "dragomir")

    @pytest.mark.parametrize("name", ["kittaneh", "th2"])
    def test_only_classical_product_bounds(self, name):
        # kittaneh is classical but single-matrix; th2 is a product bound that needs lam > 0
        with pytest.raises(UnknownBoundError, match=f"unknown classical product bound '{name}'"):
            bound_product_classical(I2, I2, name)


class TestTheoremBounds:
    def test_th2_identity_saturates_all_lambda(self):
        for lam in (0.01, 1.0, 100.0):
            res = bound_th2(I2, I2, 1.0, lam)
            assert res.rhs_value == pytest.approx(1.0, abs=1e-10)
            assert res.w_power_value == pytest.approx(1.0, abs=1e-8)

    def test_th2_jordan(self):
        res = bound_th2(J, J, 1.0, 1.0)
        assert res.rhs_value == pytest.approx(1.0)
        assert res.w_power_value == pytest.approx(1.0, abs=1e-8)

    def test_th2_rejects_lambda_zero(self):
        with pytest.raises(ValueError):
            bound_th2(J, J, 1.0, 0.0)

    @pytest.mark.parametrize("name,lams,message", [
        ("th4", (1.0, 0.0), "lam must be finite and > 0, got 0.0"),
        ("kittaneh", (-1.0,), "lam must be finite and >= 0, got -1.0"),
        ("al_dolat", (0.0, float("inf")), "lam must be finite and >= 0, got inf"),
        ("th2", (), "empty lambda grid for bound 'th2'"),
    ])
    def test_evaluate_sides_refuses_lambdas(self, name, lams, message):
        # one read per lam and mode: BoundParams refuses lam < 0, the plan lam = 0
        # where the bound needs lam > 0; an empty grid makes no read, so
        # run_suite, which makes the reads, refuses it
        terms = pair_terms(J, J) if name in ("th2", "al_dolat") else matrix_terms(J)
        with pytest.raises(ValueError) as exc:
            if not lams:
                run_suite(EnsembleConfig("gue", 2, 2, 1), bounds=[name], chains=[],
                          lambda_grid=lams)
            evaluate([(terms, [Read(name, BoundParams(lam), mode)
                               for lam in lams for mode in bound_modes(name)])])
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["lam", "r", "n", "alpha"])
    @pytest.mark.parametrize("flag", [True, np.True_, "0.5"])
    def test_params_refuse_bools(self, field, flag):
        # and strings, which math.isfinite and < would refuse with a bare TypeError
        kind = type(flag).__name__
        with pytest.raises(ValueError, match=f"^{field} must be a number, not a {kind}$"):
            BoundParams(**{"lam": 1.0, field: flag})

    def test_overflowing_power_exponent_is_named(self):
        # 2r rounds to inf: the bound layer, not the |T|-power, reports it
        with pytest.raises(OverflowError,
                           match=r"^bound 'el_haddad' with r=1e\+308, n=1, alpha=0\.5: "):
            evaluate_bound("el_haddad", 2.0 * I2, params=BoundParams(1.0, r=1e308))

    @pytest.mark.parametrize("name", ["dragomir", "al_dolat", "th2"])
    def test_a_product_bound_whose_every_engine_input_overflows_is_named(self, name):
        # T*S and every |T|-power sum of the pair leave the double range, so no
        # input reaches the engine
        with pytest.raises(OverflowError, match=rf"^bound '{name}' with r=1\.0, n=1, alpha=0\.5: "
                           "the right side or the w-power leaves the double range$"):
            evaluate_bound(name, HUGE_SWAP, HUGE_SWAP)

    def test_evaluate_refuses_an_unknown_bound(self):
        with pytest.raises(UnknownBoundError, match="unknown bound 'nope'"):
            evaluate([(matrix_terms(J), [Read("nope", BoundParams(1.0), MODE_CERTIFICATE)])])

    def test_th3_identity(self):
        res = bound_th3(I2, 0.5, 1.0)
        assert res.rhs_value == pytest.approx(1.0)

    def test_th3_jordan_kittaneh_moradi_point(self):
        res = bound_th3(J, 0.5, 0.5)
        assert res.rhs_value == pytest.approx(0.25)
        assert res.w_power_value == pytest.approx(0.25, abs=1e-8)

    def test_th4_jordan_lambda_limit(self):
        assert bound_th4(J, 1e-9).rhs_value == pytest.approx(1.0 / 16.0, abs=1e-6)
        assert bound_th4(J, 1.0).rhs_value == pytest.approx(5.0 / 64.0)

    def test_th4_identity_saturates(self):
        for lam in (0.01, 1.0, 100.0):
            assert bound_th4(I2, lam).rhs_value == pytest.approx(1.0, abs=1e-10)

    def test_th5_identity_saturates(self):
        for lam in (0.01, 1.0, 100.0):
            assert bound_th5(I2, lam).rhs_value == pytest.approx(1.0, abs=1e-10)

    def test_th5_jordan_tight_at_one(self):
        res = bound_th5(J, 1.0)
        assert res.rhs_value == pytest.approx(1.0 / 16.0)
        assert res.w_power_value == pytest.approx(1.0 / 16.0, abs=1e-8)

    def test_th6_jordan(self):
        assert bound_th6(J, 1, 1.0).rhs_value == pytest.approx(3.0 / 32.0)
        res = bound_th6(J, 2, 1.0)
        assert res.rhs_value == pytest.approx(3.0 / 128.0)
        assert res.w_power_value == pytest.approx(0.5**8, abs=1e-8)
        assert res.exponent_p == 8.0

    def test_th6_identity_saturates(self):
        assert bound_th6(I2, 1, 1.0).rhs_value == pytest.approx(1.0, abs=1e-12)

    def test_th6_overflow(self):
        with pytest.raises(OverflowError):
            bound_th6(J, 16, 1.0)

    @pytest.mark.parametrize("scale", [2e5, 1e6])
    def test_th6_non_finite_sides_raise(self, scale):
        # n = 15: || |T|^60 + |T*|^60 || leaves the double range, and at 1e6 so does w^60
        with pytest.raises(OverflowError, match="th6.*n=15"):
            bound_th6(scale * J, 15, 1.0)

    def test_th6_large_finite_terms(self):
        # The engine takes w(|T*|^30 |T|^30) of a matrix with entries near
        # 1e190, whose Gram matrix is past the double range; the bound comes
        # out finite or overflows by name.
        rng = np.random.default_rng(1)
        g = 1e3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        try:
            res = evaluate_bound("th6", g, params=BoundParams(lam=1, n=15))
        except OverflowError as exc:
            assert "th6" in str(exc)
        else:
            assert all(np.isfinite([r.rhs_value, r.w_power_value]).all() for r in res)

    def test_cor_bomi_jordan(self):
        res = bound_cor_bomi(J, 1.0)
        assert res.rhs_value == pytest.approx(3.0 / 16.0)
        assert res.w_power_value == pytest.approx(1.0 / 16.0, abs=1e-8)


class TestCoefficientSpecializations:
    def test_th3_half_half(self):
        c = th3_coefficients(0.5)
        assert abs(c[0] - 1.0 / 12.0) <= 1e-12
        assert abs(c[1] - 1.0 / 6.0) <= 1e-12
        assert abs(c[2] - 1.0 / 3.0) <= 1e-12

    def test_cor_bomi_at_one(self):
        c = cor_bomi_coefficients(1.0)
        assert abs(c[0] - 3.0 / 16.0) <= 1e-12
        assert abs(c[1] - 5.0 / 16.0) <= 1e-12

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_th2_termwise_matches_al_dolat_family(self, t):
        # at lam = t the three multipliers are 1/(2(t+1)), t/(4(t+1)), t/(2(t+1))
        c_w, c_n4, c_cross = th2_coefficients(t)
        assert abs(c_w - 1.0 / (2.0 * (t + 1.0))) <= 1e-12
        assert abs(c_n4 - t / (4.0 * (t + 1.0))) <= 1e-12
        assert abs(c_cross - t / (2.0 * (t + 1.0))) <= 1e-12

    def test_th2_kittaneh_moradi_absorption(self):
        # lam = 1/2: leading multiplier 1/3; absorbing the cross term into the
        # fourth-power norm doubles the middle multiplier to lam/(2(1+lam)) = 1/6
        c_w, c_n4, c_cross = th2_coefficients(0.5)
        assert abs(c_w - 1.0 / 3.0) <= 1e-12
        assert abs(c_n4 + c_cross / 2.0 - 1.0 / 6.0) <= 1e-12

    @pytest.mark.parametrize("n", [14, 15])
    def test_th6_at_huge_lambda_keeps_its_subnormal_coefficient(self, n):
        # (1 + lam) 2^(2n+1) overflows at lam = 1e300, but the coefficient is a subnormal
        want = 2.0 ** -(2 * n + 1) / (1.0 + 1e300)
        assert 0.0 < want < 2.3e-308
        assert th6_coefficients(1e300, n)[2] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_th4_th5_th6_limits(self):
        assert th4_coefficients(0.0) == pytest.approx((1 / 16, 1 / 8, 3 / 8))
        assert th5_coefficients(0.0)[:4] == pytest.approx((0, 0, 0, 0))
        assert th6_coefficients(0.0, 1)[0] == pytest.approx(1 / 16)
        assert al_dolat_coefficients(0.0) == pytest.approx((0.5, 0.0))


class TestHomographicStructure:
    @pytest.mark.parametrize("name", [b for b in ALL_BOUNDS if uses_lambda(b)])
    def test_numerator_linear_in_lambda(self, name):
        rng = np.random.default_rng(33)
        t = ginibre(rng, 3)
        s = ginibre(rng, 3)
        lams = (0.2, 1.7, 23.0)
        mode = bound_modes(name)[0]
        vals = [
            evaluate_bound(name, t, s, BoundParams(lam=lam), mode=mode)[0].rhs_value
            for lam in lams
        ]
        nums = [v * (1.0 + lam) for v, lam in zip(vals, lams)]
        slope_a = (nums[1] - nums[0]) / (lams[1] - lams[0])
        slope_b = (nums[2] - nums[0]) / (lams[2] - lams[0])
        assert slope_a == pytest.approx(slope_b, rel=1e-10, abs=1e-10)

    def test_lambda_degeneration_all_bounds(self):
        # lam -> inf limits written out coefficient by coefficient
        rng = np.random.default_rng(34)
        t = ginibre(rng, 4)
        s = ginibre(rng, 4)
        mt, pt = matrix_terms(t), pair_terms(t, s)
        fill_terms([(mt, [W2, ns(2.0), ns(4.0), wc(1.0), wc(2.0)]), (pt, [ns(4.0), wc(2.0)])])

        def m(key):
            return float(mt.values[key][0])

        def p(key):
            return float(pt.values[key][0])

        w2t = m(W2)
        q_limits = {
            "th2": 0.25 * p(ns(4.0)) + 0.5 * p(wc(2.0)),
            "al_dolat": 0.5 * p(ns(4.0)),
            "th3": 0.25 * m(ns(2.0)) + 0.5 * m(wc(1.0)),
            "th4": (3 / 32) * m(ns(4.0)) + (3 / 16) * m(wc(2.0))
                   + (5 / 16) * w2t * m(ns(2.0)),
            "th5": (1 / 16) * m(ns(4.0)) + (1 / 8) * m(wc(2.0))
                   + (1 / 4) * w2t**2 + (1 / 4) * m(ns(2.0)) * w2t,
            "th6": (2 / 16) * m(ns(4.0)) + (2 / 8) * m(wc(2.0))
                   + (1 / 8) * 2 * m(ns(2.0)) * w2t,
            "cor_bomi": (2 / 8) * m(ns(4.0)) + (2 / 8) * m(ns(2.0)) * w2t,
        }
        for name, q_limit in q_limits.items():
            mode = bound_modes(name)[0]
            rhs_far = evaluate_bound(name, t, s, BoundParams(lam=1e8), mode=mode)[0].rhs_value
            assert abs(rhs_far - q_limit) <= 1e-6 * max(1.0, q_limit), name


class TestForms:
    @pytest.mark.parametrize("name", ALL_BOUNDS)
    def test_one_shape_at_every_params(self, name):
        # uses_lambda, implicit and modes are read from the form at one params
        def shape(form):
            return (len(form.ends), tuple(len(c) for c in form.ends),
                    tuple(tuple(f is U for f in prod) for prod in form.rhs),
                    tuple(tuple(f[0] for f in prod if f is not U) for prod in form.rhs))

        shapes = {shape(CATALOG[name].form(BoundParams(1.0, r=r, n=n, alpha=alpha)))
                  for r in (1.0, 2.5) for n in (1, 3, 15) for alpha in (0.3, 0.5)}
        assert len(shapes) == 1, shapes
        ((ends, _, u_at, _),) = shapes
        assert uses_lambda(name) == (ends == 2)
        assert bound_modes(name) == ((MODE_INEQUALITY, MODE_CERTIFICATE) if any(map(any, u_at))
                                     else (MODE_CERTIFICATE,))

    @pytest.mark.parametrize("ask", [uses_lambda, bound_modes])
    def test_an_unknown_name_is_refused(self, ask):
        with pytest.raises(UnknownBoundError, match="^\"unknown bound 'nope'; catalog: "):
            ask("nope")

    def test_evaluate_fills_every_key_its_reads_name(self):
        rng = np.random.default_rng(35)
        t, s = ginibre(rng, 3), ginibre(rng, 3)
        params = BoundParams(1.0, r=1.5, n=2, alpha=0.3)
        for name, bound in CATALOG.items():
            terms = pair_terms(t, s) if bound.product else matrix_terms(t)
            evaluate([(terms, [Read(name, replace(params, lam=lam), mode)
                               for lam in (0.5, 2.0) for mode in bound.modes])])
            form, base = bound.form(params), WP if bound.product else W
            named = [f for prod in form.rhs for f in prod if f is not U] + [
                ("pow", base, form.exponent), ("pow", base, form.exponent / 2.0)]
            assert all(key in terms.values for key in named), name

    def test_a_config_derives_each_term_once(self, monkeypatch):
        # every pow and binom term of a config is computed once, from its table
        derived, filled = [], []

        def spy(values, key, derive=bounds._derive):
            derived.append(key)
            return derive(values, key)

        def keep(requests, fill=bounds.fill_terms):
            filled.extend(terms for terms, _ in requests)
            fill(requests)

        monkeypatch.setattr(bounds, "_derive", spy)
        monkeypatch.setattr(bounds, "fill_terms", keep)
        run_suite(EnsembleConfig("ginibre", 3, 4, 1), n=3)
        assert ("binom", 3) in derived and len(filled) == 2
        assert len(derived) == sum(key[0] in ("pow", "binom")
                                   for terms in filled for key in terms.values)


def _reference_rhs(form, values, lams, u, certificate):
    """rhs[input][lam] by the catalog's rule, one float at a time: each product
    c * f_1 * f_2 ... left to right, U read as u, then their sum left to right;
    for a certificate (u = 1), a over the products holding U and b over the
    others, resolved to the root of u^2 = a u + b."""
    def total(i, lam, prods):
        out = None
        for c0, cinf, prod in prods:
            x = c0 if lam is None else (c0 + cinf * lam) / (1.0 + lam)
            for f in prod:
                x = x * (u[i] if f is U else values[f][i])
            out = x if out is None else out + x
        return out

    prods = list(zip(form.ends[0], form.ends[-1], form.rhs))
    free = len(form.ends) == 1
    rows = []
    for i in range(len(u)):
        row = []
        for lam in lams:
            lam = None if free else lam
            if certificate:
                a = total(i, lam, [x for x in prods if U in x[2]])
                b = total(i, lam, [x for x in prods if U not in x[2]])
                row.append(resolve_implicit_quadratic(a, b))
            else:
                row.append(total(i, lam, prods))
        rows.append(row)
    return np.array(rows)


class TestStackedPass:
    @pytest.mark.parametrize("name", ALL_BOUNDS)
    def test_every_mode_is_the_left_to_right_rule_bitwise(self, name):
        # elementwise arithmetic only: the terms come from one table, so no
        # BLAS bits enter the comparison
        bound, rng = CATALOG[name], np.random.default_rng(71)
        t = np.array([ginibre(rng, 3) for _ in range(6)])
        terms = pair_terms(t[:3], t[3:]) if bound.product else matrix_terms(t[:3])
        params = BoundParams(1.0, r=1.5, n=2, alpha=0.3)
        lams = (0.3, 1.0, 7.0) + ((0.0,) if name == "al_dolat" else ())
        reads = [Read(name, replace(params, lam=lam), mode)  # one per lam and mode
                 for lam in lams for mode in bound.modes]
        ev = evaluate([(terms, reads)])[0]
        form, base = bound.form(params), WP if bound.product else W
        values = {key: v.tolist() for key, v in terms.values.items()}
        assert [ev.plan.rows[read] for read in reads] == list(range(len(reads)))  # row per read
        for i, (_, read_params, mode) in enumerate(reads):
            k = lams.index(read_params.lam)
            assert ev.plan.mode[i] == mode
            assert ev.plan.lam[i] == lams[k] if bound.uses_lambda else np.isnan(ev.plan.lam[i])
            certificate = bound.implicit and mode == MODE_CERTIFICATE
            p = form.exponent / 2.0 if certificate else form.exponent
            u = values["pow", base, form.exponent / 2.0]
            rhs = _reference_rhs(form, values, lams, [1.0] * len(u) if certificate else u,
                                 certificate)[:, k]
            w = np.array(values["pow", base, p])
            assert ev.plan.exponent[i] == p and np.array_equal(ev.w_power[i], w)
            assert np.array_equal(ev.rhs[i], rhs), (name, mode, lams[k])
            assert np.array_equal(ev.slack[i], rhs - w)
            assert np.array_equal(ev.holds[i], rhs - w >= -bounds.HOLDS_RTOL
                                  * bounds.rel_scale(rhs, w))

    def test_the_first_bad_read_names_the_error(self, monkeypatch):
        # every read is checked for its lam and mode, in request order, when its
        # plan is built, before any term is computed; then for overflow, in
        # request order
        filled = []
        monkeypatch.setattr(bounds, "fill_terms", lambda requests, fill=bounds.fill_terms:
                            filled.append(requests) or fill(requests))
        t = matrix_terms(2.0 * I2)
        no_mode = Read("kittaneh", BoundParams(1.0), MODE_INEQUALITY)
        overflow = Read("el_haddad", BoundParams(1.0, r=1e308), MODE_CERTIFICATE)
        no_mode_message = "^bound 'kittaneh' has no mode 'inequality-check'$"
        with pytest.raises(ValueError, match=no_mode_message):
            evaluate([(t, [no_mode, overflow])])
        with pytest.raises(ValueError, match=no_mode_message):
            evaluate([(t, [overflow, no_mode])])
        with pytest.raises(ValueError, match=no_mode_message):
            evaluate([(t, [overflow]), (matrix_terms(I2), [no_mode])])
        assert filled == [] and t.values.keys() == {bounds.OP}
        with pytest.raises(OverflowError, match=r"^bound 'el_haddad' with r=1e\+308, n=1, "):
            evaluate([(t, [Read("kittaneh", BoundParams(1.0), MODE_CERTIFICATE), overflow])])
        assert len(filled) == 1  # the spy sees the call that does compute terms

    def test_evaluate_bound_gives_one_result_per_mode_in_catalog_order(self):
        rng = np.random.default_rng(73)
        t, s = ginibre(rng, 3), ginibre(rng, 3)
        for name, bound in CATALOG.items():
            results = evaluate_bound(name, t, s)
            assert [res.mode for res in results] == list(bound.modes), name
            for res in results:  # each the one its mode gives alone
                assert res == evaluate_bound(name, t, s, mode=res.mode)[0], (name, res.mode)

    def test_the_plan_is_memoized_per_read_set(self):
        # the memo key is the reads, lam included: one plan per read set
        rng = np.random.default_rng(72)
        terms = [matrix_terms(ginibre(rng, 3)) for _ in range(2)]
        plans = [evaluate([(t, [Read("th3", BoundParams(lam), mode)
                                for lam in lams for mode in bound_modes("th3")])])[0].plan
                 for t, lams in zip(terms * 2, ((0.5, 2.0), (0.5, 2.0), (0.5,), (2.0, 0.5)))]
        assert plans[0] is plans[1]
        assert len({id(plan) for plan in plans}) == 3
        assert [len(plan.mode) for plan in plans] == [4, 4, 2, 4]
        # each row holds the coefficients at its own read's lam
        assert np.array_equal(plans[2].c, plans[0].c[:, :, :2])
        assert np.array_equal(plans[3].c, plans[0].c[:, :, [2, 3, 0, 1]])
        run_suite(EnsembleConfig("gue", 2, 3, 1))
        before = bounds._plan.cache_info()
        # the same grid: both plans memoized, each found when checked and when evaluated
        run_suite(EnsembleConfig("normal", 3, 5, 2))
        after = bounds._plan.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)
        run_suite(EnsembleConfig("normal", 3, 5, 2), lambda_grid=(0.5, 3.0))  # new reads
        assert bounds._plan.cache_info().misses - after.misses == 2

    def test_pairs_read_the_trial_family_powers(self, monkeypatch):
        formed, power = [], bounds._spectral_power

        def spy(values, vectors, q):  # the term tables call it once per family and q
            formed.append(q)
            return power(values, vectors, q)

        monkeypatch.setattr(bounds, "_spectral_power", spy)
        rng = np.random.default_rng(73)
        trials = matrix_terms(np.array([ginibre(rng, 3) for _ in range(6)]))
        pairs = bounds.PairTerms(trials, [0, 2, 4])
        fill_terms([(trials, [ns(2.0)]), (pairs, [ns(2.0), ns(3.0), wc(3.0)])])
        # |T|^2 and |T*|^2 for the trials; the pairs' A and B are rows of their
        # |T| powers, of which only |T|^3 is new
        assert formed == [2.0, 2.0, 3.0]


class TestNormalIdentity:
    """A normal T with ||T|| = s is an equality case of every catalog bound:
    |T| = |T*| and w(T) = s, so W = OP = s, W2 = WP = s^2 (S = T), ns(a, b) =
    s^a + s^b and wc(b, a) = s^(a+b). With s a power of two, every right side
    is its row's w-power bitwise, so a wrong coefficient fails, a loosening
    one included, which no sweep of random input can catch."""

    @staticmethod
    def normal_terms(s, keys):
        """V of a plan over these keys: the terms of one normal T with ||T|| = s."""
        def engine(key):
            if key[0] == "ns":
                return s ** key[1] + s ** key[2]
            if key[0] == "wc":
                return s ** (key[1] + key[2])
            return {W: s, bounds.OP: s, W2: s * s, WP: s * s}[key]

        values = {src: np.array([engine(src)]) for key in keys for src in bounds._sources(key)}
        values.update((key, bounds._derive(values, key)) for key in keys if key not in values)
        return np.array([values[key] for key in keys] + [np.ones(1)])

    @pytest.mark.parametrize("s", [2.0, 0.5])
    @pytest.mark.parametrize("fixed", [{}, {"n": 3}, {"r": 2.0}], ids=["default", "n3", "r2"])
    def test_every_right_side_is_the_w_power(self, s, fixed):
        # powers of two only: at s = 3 some interior-lam rows miss by an ulp
        reads = tuple(Read(name, BoundParams(lam, **fixed), mode)
                      for name, bound in CATALOG.items() for lam in (0.25, 1.0, 4.0)
                      for mode in bound.modes)
        plan = bounds._plan(reads)
        v = self.normal_terms(s, plan.keys)
        w = v[plan.w][:, 0]
        for at, c in (("c(lam)", plan.c), ("c(0)", plan.c0), ("c(inf)", plan.cinf)):
            rhs = bounds._rhs(plan, v, c)[:, 0]
            assert [(read, rhs[i], w[i]) for read, i in plan.rows.items()
                    if rhs[i] != w[i]] == [], at


def _svd_shapes(monkeypatch) -> list:
    """The shapes of the arrays np.linalg.svd is called on, from here on."""
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: shapes.append(a.shape) or svd(a))
    return shapes


class TestOneSpectralPass:
    @pytest.mark.parametrize("name,pair,shape", [
        ("th3", False, (1, 3, 3)),
        ("th2", False, (1, 3, 3)),  # T paired with itself: the SVD of T alone
        ("th2", True, (2, 3, 3)),  # T and S stacked
    ])
    def test_a_single_input_takes_one_svd(self, monkeypatch, name, pair, shape):
        rng = np.random.default_rng(41)
        t, s = ginibre(rng, 3), ginibre(rng, 3)
        shapes = _svd_shapes(monkeypatch)
        evaluate_bound(name, t, s if pair else None)
        assert shapes == [shape]

    def test_pair_terms_take_one_svd_of_both_stacks(self, monkeypatch):
        rng = np.random.default_rng(42)
        t = np.array([ginibre(rng, 3) for _ in range(8)])
        shapes = _svd_shapes(monkeypatch)
        terms = pair_terms(t[:4], t[4:])
        assert shapes == [(8, 3, 3)] and len(terms.t) == len(terms.s) == 4

    @pytest.mark.parametrize("trials,first,partners", [
        (1, [0], [0]), (2, [0], [1]), (5, [0, 2, 4], [1, 3, 4]), (6, [0, 2, 4], [1, 3, 5])])
    def test_pairs_take_the_next_input_or_the_last_itself(self, trials, first, partners):
        rng = np.random.default_rng(44)
        t = np.array([ginibre(rng, 2) for _ in range(trials)])
        pairs = bounds.PairTerms(matrix_terms(t), first)
        assert np.array_equal(pairs.t, t[first]) and np.array_equal(pairs.s, t[partners])

    def test_pair_terms_refuse_stacks_of_different_shapes(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^shapes \(1, 2, 2\) and \(1, 3, 3\) differ$"):
            pair_terms(J, np.eye(3))

    def test_norm_sums_are_the_norms_of_hermitian_sums(self):
        # the engine's near-Hermitian rule gives max|lambda| of each input; not
        # bitwise the eigvalsh value, which rests on last-bit LAPACK behaviour
        rng = np.random.default_rng(43)
        t = np.array([ginibre(rng, 4) for _ in range(6)])
        keys = [ns(1.0), ns(2.0), ns(4.0), ns(0.6, 1.4), ns(0.0, 2.0)]
        for terms in (matrix_terms(t), pair_terms(t[:3], t[3:])):
            fill_terms([(terms, keys)])
            for key in keys:
                h = terms._input(key)
                assert np.array_equal(h, h.conj().swapaxes(1, 2))  # exactly Hermitian
                ref = np.abs(np.linalg.eigvalsh(h)).max(axis=1)
                np.testing.assert_array_max_ulp(terms.values[key], ref, maxulp=4)


class TestCertificates:
    def test_modes_catalog(self):
        assert bound_modes("th2") == (MODE_INEQUALITY, MODE_CERTIFICATE)
        assert bound_modes("th4") == (MODE_CERTIFICATE,)
        assert bound_modes("kittaneh") == (MODE_CERTIFICATE,)

    def test_certificate_dominates_engine(self):
        rng = np.random.default_rng(44)
        for k in range(8):
            n = 2 + k % 4
            t, s = ginibre(rng, n), ginibre(rng, n)
            for name in ("th2", "th3", "th5", "al_dolat"):
                res = evaluate_bound(name, t, s, BoundParams(lam=0.8),
                                     mode=MODE_CERTIFICATE)[0]
                assert res.holds, (name, res)
                assert res.w_power_value <= res.rhs_value + 1e-8 * max(
                    1.0, res.rhs_value, res.w_power_value)

    def test_certificate_exponents(self):
        t = J
        assert bound_th2(t, t, 2.0, 1.0, mode=MODE_CERTIFICATE).exponent_p == 2.0
        assert bound_th2(t, t, 2.0, 1.0, mode=MODE_INEQUALITY).exponent_p == 4.0
        assert bound_th3(t, 0.5, 1.0, mode=MODE_CERTIFICATE).exponent_p == 1.0
        assert bound_th5(t, 1.0, mode=MODE_CERTIFICATE).exponent_p == 2.0


class TestSoundnessSweep:
    def test_all_bounds_hold_on_mixed_ensemble(self):
        rng = np.random.default_rng(55)
        mats = [ginibre(rng, 2), ginibre(rng, 4), np.triu(ginibre(rng, 3), k=1), J]
        for t in mats:
            s = ginibre(rng, t.shape[0])
            for name in ALL_BOUNDS:
                for lam in (0.01, 0.5, 1.0, 2.0, 100.0):
                    for res in evaluate_bound(name, t, s, BoundParams(lam=lam)):
                        assert res.holds, (name, lam, res)


class TestOptimizeLambda:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown method 'newton'$"):
            optimize_lambda("th3", J, method="newton")

    def test_th4_jordan_boundary_zero(self):
        opt = optimize_lambda("th4", J)
        assert opt.infimum == pytest.approx(1.0 / 16.0, abs=1e-10)
        assert opt.boundary == "lambda->0"
        assert opt.lambda_star is None

    def test_th2_identity_flat(self):
        opt = optimize_lambda("th2", I2, I2, r=1.0)
        assert opt.infimum == pytest.approx(1.0)
        assert opt.boundary == "flat"
        assert opt.lambda_star == 1.0

    @pytest.mark.parametrize("name", ["th4", "th6", "cor_bomi"])
    def test_closed_form_matches_golden_section(self, name):
        rng = np.random.default_rng(66)
        for _ in range(10):
            t = ginibre(rng, 3)
            closed = optimize_lambda(name, t, method="auto")
            golden = optimize_lambda(name, t, method="golden-section")
            assert abs(closed.infimum - golden.infimum) <= 1e-6 * max(1.0, closed.infimum)

    def test_golden_section_on_certificate(self):
        rng = np.random.default_rng(67)
        t = ginibre(rng, 3)
        opt = optimize_lambda("th5", t, mode=MODE_CERTIFICATE, method="golden-section")
        w2 = numerical_radius(t) ** 2
        assert opt.infimum >= w2 - 1e-8 * max(1.0, w2)  # still a valid bound on w^2

    def test_closed_form_on_certificate_is_the_auto_end_value(self):
        rng = np.random.default_rng(67)
        t = ginibre(rng, 3)
        closed = optimize_lambda("th5", t, mode=MODE_CERTIFICATE, method="auto")
        golden = optimize_lambda("th5", t, mode=MODE_CERTIFICATE, method="golden-section")
        assert closed == optimize_lambda("th5", t, mode=MODE_CERTIFICATE)
        assert closed.infimum <= golden.infimum + 1e-12 * max(1.0, abs(closed.infimum))

    def test_certificate_optimum_is_an_end_below_the_grid(self):
        # A resolved certificate is monotone in lam, so its infimum is an end
        # limit, which a search confined to lam in [e^-20, e^20] only nears
        # and can mistake for an interior minimum.
        rng = np.random.default_rng(67)
        grid = tuple(float(x) for x in np.logspace(-12.0, 12.0, 41))
        for _ in range(30):
            t, s = ginibre(rng, 3), ginibre(rng, 3)
            for name in ("th3", "th5", "th2", "al_dolat"):
                opt = optimize_lambda(name, t, s, mode=MODE_CERTIFICATE)
                golden = optimize_lambda(name, t, s, mode=MODE_CERTIFICATE,
                                         method="golden-section")
                scale = max(1.0, abs(opt.infimum))
                assert opt.boundary != "interior", (name, opt)
                assert opt.infimum <= golden.infimum + 1e-12 * scale, (name, opt, golden)
                assert golden.infimum - opt.infimum <= 1e-7 * scale, (name, opt, golden)
                # the grid as one read per lam
                terms = pair_terms(t, s) if name in ("th2", "al_dolat") else matrix_terms(t)
                ev = evaluate([(terms, [Read(name, BoundParams(lam), MODE_CERTIFICATE)
                                        for lam in grid])])[0]
                assert len(ev.rhs) == len(grid), name
                assert (opt.infimum <= ev.rhs[:, 0] + 1e-12 * scale).all(), (name, opt)

    def test_unknown_bound(self):
        with pytest.raises(UnknownBoundError):
            optimize_lambda("nope", J)

    @pytest.mark.parametrize("name", [b for b in ALL_BOUNDS if uses_lambda(b)])
    def test_golden_section_finds_the_end_rule_on_the_corpus_matrices(self, name):
        # the report corpus's seeded matrices, ginibre and nilpotent at dims 2
        # and 3, each the other's partner: the search finds no point below
        # both ends, so both methods give the same end, bitwise
        for dim in (2, 3):
            a, b = (generate_ensemble(EnsembleConfig(kind, dim, 1, 11))[0]
                    for kind in ("ginibre", "nilpotent"))
            for t, s in ((a, b), (b, a)):
                for mode in bound_modes(name):
                    auto = optimize_lambda(name, t, s, mode=mode)
                    golden = optimize_lambda(name, t, s, mode=mode, method="golden-section")
                    assert golden == auto, (dim, mode)

    def test_an_infinite_lambda_end(self, monkeypatch):
        # no catalog bound is least at lam -> inf beyond roundoff; this one's
        # c(inf) end is kittaneh's right side, its c(0) end twice that
        monkeypatch.setitem(bounds.CATALOG, "kittaneh_at_inf", bounds.BoundSpec(
            lambda p: bounds.Form(1.0, ((1.0,), (0.5,)), ((ns(1.0),),))))
        t = ginibre(np.random.default_rng(74), 3)
        kittaneh = bound_classical(t, "kittaneh").rhs_value
        opt = optimize_lambda("kittaneh_at_inf", t)
        assert (opt.boundary, opt.lambda_star) == ("lambda->inf", None)
        assert opt.infimum == kittaneh  # bitwise: the c(inf) end itself
        golden = optimize_lambda("kittaneh_at_inf", t, method="golden-section")
        assert golden.boundary == "lambda->inf"
        assert golden.infimum == kittaneh


class TestChains:
    @pytest.mark.parametrize("chain_id", CHAIN_IDS)
    def test_lambda_zero_refused_with_the_bound_message(self, chain_id):
        with pytest.raises(ValueError, match=r"^lam must be finite and > 0, got 0\.0$"):
            refinement_chain(J, None, chain_id, BoundParams(lam=0.0))

    def test_th2_dragomir_jordan_all_equal(self):
        ch = refinement_chain(J, J, "th2_dragomir", BoundParams(lam=1.0, r=1.0))
        values = [v for _, v in ch.links]
        assert values == pytest.approx([1.0, 1.0, 1.0], abs=1e-8)
        assert ch.holds

    def test_th4_elhaddad_jordan(self):
        ch = refinement_chain(J, None, "th4_elhaddad", BoundParams(lam=1.0))
        values = [v for _, v in ch.links]
        assert values == pytest.approx([1.0 / 16.0, 5.0 / 64.0, 0.5], abs=1e-8)
        assert ch.holds

    def test_product_chain_self_pairs_on_none(self):
        ch = refinement_chain(J, None, "th2_dragomir", BoundParams(lam=2.0, r=1.0))
        assert ch.holds

    @pytest.mark.parametrize("chain_id", CHAIN_IDS)
    def test_seeded_sweep(self, chain_id):
        rng = np.random.default_rng(77)
        for _ in range(20):
            t, s = ginibre(rng, 3), ginibre(rng, 3)
            for lam in (0.3, 1.0, 5.0):
                ch = refinement_chain(t, s, chain_id, BoundParams(lam=lam))
                assert ch.holds, (chain_id, lam, ch.links)

    @pytest.mark.parametrize("chain_id", CHAIN_IDS)
    def test_links_are_the_declared_bounds(self, chain_id):
        # (refined bound, mode, params), (classical bound, mode, params) as
        # the corollaries state them, for params lam = 0.7, r = 1.5, alpha = 0.3
        lam, r = 0.7, 1.5
        declared = {
            "th2_dragomir": (("th2", MODE_INEQUALITY, BoundParams(lam, r=r)),
                             ("dragomir", MODE_CERTIFICATE, BoundParams(lam, r=2 * r))),
            "th2_aldolat": (("th2", MODE_INEQUALITY, BoundParams(lam)),
                            ("al_dolat", MODE_INEQUALITY, BoundParams(lam))),
            "th3_elhaddad": (("th3", MODE_INEQUALITY, BoundParams(lam, alpha=0.5)),
                             ("el_haddad", MODE_CERTIFICATE, BoundParams(lam))),
            "th4_elhaddad": (("th4", MODE_CERTIFICATE, BoundParams(lam)),
                             ("el_haddad", MODE_CERTIFICATE, BoundParams(lam, r=2.0))),
            "th5_elhaddad": (("th5", MODE_INEQUALITY, BoundParams(lam)),
                             ("el_haddad", MODE_CERTIFICATE, BoundParams(lam, r=2.0))),
            "bomi_elhaddad": (("cor_bomi", MODE_CERTIFICATE, BoundParams(lam)),
                              ("el_haddad", MODE_CERTIFICATE, BoundParams(lam, r=2.0))),
        }
        rng = np.random.default_rng(78)
        t, s = ginibre(rng, 3), ginibre(rng, 3)
        (rb, rm, rp), (cb, cm, cp) = declared[chain_id]
        refined = evaluate_bound(rb, t, s, rp, mode=rm)[0]
        classical = evaluate_bound(cb, t, s, cp, mode=cm)[0]
        ch = refinement_chain(t, s, chain_id, BoundParams(lam, r=r, alpha=0.3))
        assert dict(ch.links) == {"w_power": refined.w_power_value,
                                  "refined": refined.rhs_value,
                                  "classical": classical.rhs_value}

    @pytest.mark.parametrize("chain_id", CHAIN_IDS)
    def test_both_bounds_are_of_one_kind(self, chain_id):
        # run_suite pairs a chain's inputs by its refined bound's kind alone
        ch = bounds.CHAINS[chain_id]
        assert CATALOG[ch.refined].product == CATALOG[ch.classical].product

    def test_unknown_chain(self):
        with pytest.raises(UnknownChainError):
            refinement_chain(J, None, "nope", BoundParams(lam=1.0))


def _tracer_names() -> dict:
    """LAYER_FUNCTIONS and TERM_CLASSES of bench/tracing.py, read from its source."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("LAYER_FUNCTIONS", "TERM_CLASSES")}


def test_every_name_the_tracer_wraps_exists():
    # the tracer replaces functions and term classes by name: a missing one fails a traced run
    names = _tracer_names()
    wrapped = [(module, name) for module, functions in names["LAYER_FUNCTIONS"].values()
               for name in functions] + [("numrad.bounds", c) for c in names["TERM_CLASSES"]]
    assert len(wrapped) > 20
    assert [m for m in wrapped if not hasattr(importlib.import_module(m[0]), m[1])] == []
