"""Bound catalog: frozen values, coefficient identities, homographic
structure, certificates, the lambda optimizer and refinement chains."""

import numpy as np
import pytest

from numrad import (
    ALL_BOUNDS,
    CHAIN_IDS,
    MODE_CERTIFICATE,
    MODE_INEQUALITY,
    BoundParams,
    DimensionMismatchError,
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
    optimize_lambda,
    refinement_chain,
    resolve_implicit_quadratic,
)
from numrad.bounds import (
    al_dolat_coefficients,
    bound_modes,
    cor_bomi_coefficients,
    matrix_terms,
    pair_terms,
    th2_coefficients,
    th3_coefficients,
    th4_coefficients,
    th5_coefficients,
    th6_coefficients,
    uses_lambda,
)

J = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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
        mt = matrix_terms(t)
        pt = pair_terms(t, s)
        w, w2t = mt.w, mt.w_square
        q_limits = {
            "th2": 0.25 * pt.norm_sum(4) + 0.5 * pt.w_cross(2),
            "al_dolat": 0.5 * pt.norm_sum(4),
            "th3": 0.25 * mt.norm_sum(2, 2) + 0.5 * mt.w_cross(1, 1),
            "th4": (3 / 32) * mt.norm_sum(4, 4) + (3 / 16) * mt.w_cross(2, 2)
                   + (5 / 16) * w2t * mt.norm_sum(2, 2),
            "th5": (1 / 16) * mt.norm_sum(4, 4) + (1 / 8) * mt.w_cross(2, 2)
                   + (1 / 4) * w2t**2 + (1 / 4) * mt.norm_sum(2, 2) * w2t,
            "th6": (2 / 16) * mt.norm_sum(4, 4) + (2 / 8) * mt.w_cross(2, 2)
                   + (1 / 8) * 2 * mt.norm_sum(2, 2) * w2t,
            "cor_bomi": (2 / 8) * mt.norm_sum(4, 4) + (2 / 8) * mt.norm_sum(2, 2) * w2t,
        }
        for name, q_limit in q_limits.items():
            mode = bound_modes(name)[0]
            rhs_far = evaluate_bound(name, t, s, BoundParams(lam=1e8), mode=mode)[0].rhs_value
            assert abs(rhs_far - q_limit) <= 1e-6 * max(1.0, q_limit), name


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
            closed = optimize_lambda(name, t, method="closed-form")
            golden = optimize_lambda(name, t, method="golden-section")
            assert abs(closed.infimum - golden.infimum) <= 1e-6 * max(1.0, closed.infimum)

    def test_golden_section_on_certificate(self):
        rng = np.random.default_rng(67)
        t = ginibre(rng, 3)
        opt = optimize_lambda("th5", t, mode=MODE_CERTIFICATE)
        w2 = matrix_terms(t).w ** 2
        assert opt.infimum >= w2 - 1e-8 * max(1.0, w2)  # still a valid bound on w^2

    def test_closed_form_refused_for_non_homographic(self):
        with pytest.raises(ValueError):
            optimize_lambda("th5", J, mode=MODE_CERTIFICATE, method="closed-form")

    def test_unknown_bound(self):
        with pytest.raises(UnknownBoundError):
            optimize_lambda("nope", J)


class TestChains:
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

    def test_unknown_chain(self):
        with pytest.raises(UnknownChainError):
            refinement_chain(J, None, "nope", BoundParams(lam=1.0))
