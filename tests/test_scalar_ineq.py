"""Scalar inequality evaluators: frozen values, equality cases, fuzz properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrad import (
    BoundParams,
    DimensionMismatchError,
    NotUnitVectorError,
    buzano,
    buzano_power,
    buzano_refined,
    buzano_refined_two,
    cs_refinement_gen,
    cs_refinement_two,
    young_amgm,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
DIAG = np.array([1.0, 1.0]) / np.sqrt(2)


# --- hypothesis strategies -------------------------------------------------

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def complex_vectors(draw, count=2):
    dim = draw(st.integers(min_value=2, max_value=6))
    vecs = []
    for _ in range(count):
        re = draw(st.lists(finite, min_size=dim, max_size=dim))
        im = draw(st.lists(finite, min_size=dim, max_size=dim))
        vecs.append(np.array(re) + 1j * np.array(im))
    return vecs


lambdas = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else None


# --- frozen examples -------------------------------------------------------

class TestCsRefinementGen:
    def test_parallel_saturates(self):
        rec = cs_refinement_gen(E1, E1, 1.0)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)
        assert rec.holds

    def test_orthogonal(self):
        rec = cs_refinement_gen(E1, E2, 2.0)
        assert rec.lhs == 0.0
        assert rec.rhs == pytest.approx(2.0 / 3.0)

    def test_oblique_pair(self):
        # lhs = |<e1, (1,1)/sqrt2>|^2 = 1/2; rhs = 1/2 * 1 + 1/2 * (1/sqrt2)
        rec = cs_refinement_gen(E1, DIAG, 1.0)
        assert rec.lhs == pytest.approx(0.5)
        assert rec.rhs == pytest.approx(0.5 + 0.5 / np.sqrt(2))
        assert rec.outer == pytest.approx(1.0)

    def test_rejects_nonpositive_lambda(self):
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                cs_refinement_gen(E1, E2, lam)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cs_refinement_gen(E1, np.ones(3), 1.0)


class TestCsRefinementTwo:
    def test_parallel_saturates_any_lambda(self):
        for lam in (0.01, 1.0, 42.0):
            rec = cs_refinement_two(E1, E1, lam)
            assert rec.rhs == pytest.approx(1.0)
            assert rec.lhs == pytest.approx(1.0)

    def test_orthogonal(self):
        rec = cs_refinement_two(E1, E2, 1.0)
        assert rec.lhs == 0.0
        assert rec.rhs == pytest.approx(0.25)

    def test_oblique_pair(self):
        # rhs = 1/4 + (3/4)/sqrt2, above the lhs of 1/2
        rec = cs_refinement_two(E1, DIAG, 1.0)
        assert rec.rhs == pytest.approx(0.25 + 0.75 / np.sqrt(2))
        assert rec.rhs >= 0.5


class TestBuzano:
    def test_classical_equality_triple(self):
        rec = buzano(E1, E2, DIAG)
        assert rec.lhs == pytest.approx(0.5)
        assert rec.rhs == pytest.approx(0.5)
        assert abs(rec.slack) <= 1e-12
        assert rec.holds

    def test_e_equals_x_reduces_to_cauchy_schwarz(self):
        y = np.array([0.3 + 0.4j, 1.2 - 0.1j])
        rec = buzano(E1, y, E1)
        assert rec.lhs == pytest.approx(abs(y[0]))
        assert rec.holds

    def test_rejects_non_unit_e(self):
        with pytest.raises(NotUnitVectorError):
            buzano(E1, E2, 2 * E1)


class TestBuzanoRefined:
    def test_coefficients_sum_to_one(self):
        for lam in (0.2, 1.0, 9.0):
            rec = buzano_refined(E1, E1, E1, lam)
            assert rec.lhs == pytest.approx(1.0)
            assert rec.rhs == pytest.approx(1.0)

    def test_orthogonal_triple(self):
        # (2+3)/(8*2) = 5/16 with the cross term vanishing
        rec = buzano_refined(E1, E2, DIAG, 1.0)
        assert rec.lhs == pytest.approx(0.25)
        assert rec.rhs == pytest.approx(5.0 / 16.0)

    def test_orthogonal_with_e_on_x(self):
        rec = buzano_refined(E1, E2, E1, 3.0)
        assert rec.lhs == 0.0
        assert rec.rhs >= 0.0


class TestBuzanoRefinedTwo:
    def test_all_equal_saturates(self):
        rec = buzano_refined_two(E1, E1, E1, 1.0)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_equality_triple(self):
        # 1/8 * 1 + 1/4 * (1/2) * 1 = 1/4 = lhs
        rec = buzano_refined_two(E1, E2, DIAG, 1.0)
        assert rec.lhs == pytest.approx(0.25)
        assert rec.rhs == pytest.approx(0.25)


class TestBuzanoPower:
    def test_n1_all_equal_saturates(self):
        # 3/8 + 1/8 + 1/2 = 1
        rec = buzano_power(E1, E1, E1, 1.0, 1)
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(3.0 / 8.0 + 1.0 / 8.0 + 0.5)

    def test_orthogonal_keeps_first_term_only(self):
        for n in (1, 2, 3):
            rec = buzano_power(E1, E2, E1, 2.0, n)
            assert rec.lhs == 0.0
            assert rec.rhs == pytest.approx(0.25**n * 5.0 / 3.0)  # (1+2*2)/(1+2)

    def test_rejects_large_n(self):
        with pytest.raises(OverflowError):
            buzano_power(E1, E2, E1, 1.0, 16)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            buzano_power(E1, E2, E1, 1.0, 0)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_bool_n(self, flag):
        with pytest.raises(ValueError, match="^n must be a number, not a bool$"):
            buzano_power(E1, E2, E1, 1.0, flag)

    def test_integral_float_n(self):
        assert buzano_power(E1, E2, E1, 1.0, 2.0) == buzano_power(E1, E2, E1, 1.0, 2)
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got 2.5$"):
            buzano_power(E1, E2, E1, 1.0, 2.5)


class TestYoungAmgm:
    def test_am_gm(self):
        rec = young_amgm(4.0, 9.0, 0.5)
        assert rec.lhs == pytest.approx(6.0)
        assert rec.rhs == pytest.approx(6.5)

    def test_equal_arguments_saturate(self):
        rec = young_amgm(3.7, 3.7, 0.3)
        assert rec.lhs == pytest.approx(rec.rhs)

    def test_weighted(self):
        rec = young_amgm(2.0, 8.0, 0.25)
        assert rec.lhs == pytest.approx(2.0**0.25 * 8.0**0.75)
        assert rec.lhs == pytest.approx(5.656854249492381)
        assert rec.rhs == pytest.approx(6.5)

    def test_zero_conventions(self):
        assert young_amgm(0.0, 0.0, 0.0).lhs == 0.0
        assert young_amgm(0.0, 5.0, 0.0).lhs == pytest.approx(5.0)
        assert young_amgm(0.0, 5.0, 0.5).lhs == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            young_amgm(-1.0, 2.0, 0.5)


class TestBoundParams:
    def test_valid(self):
        BoundParams(lam=1.0, r=2.0, n=3, alpha=0.25)

    def test_lambda_zero_allowed_for_al_dolat_representation(self):
        BoundParams(lam=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"lam": -1.0}, {"lam": float("nan")}, {"lam": 1.0, "r": 0.5},
        {"lam": 1.0, "n": 0}, {"lam": 1.0, "alpha": 0.0}, {"lam": 1.0, "alpha": 1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BoundParams(**kwargs)

    def test_hash_is_the_fields_hash_and_kept(self):
        # computed once per instance, when it is made; equal params hash equal
        a, b = BoundParams(1.0, r=2.0, n=3), BoundParams(1.0, r=2.0, n=3.0)
        assert a == b and hash(a) == hash(b) == hash((1.0, 2.0, 3, 0.5))
        assert hash(a) == hash(a) and {a: 1}[b] == 1 and a != BoundParams(2.0, r=2.0, n=3)
        assert repr(a) == "BoundParams(lam=1.0, r=2.0, n=3, alpha=0.5)"


# --- properties ------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(vecs=complex_vectors(2), lam=lambdas)
def test_cs_refinements_hold_and_chain(vecs, lam):
    x, y = vecs
    for op in (cs_refinement_gen, cs_refinement_two):
        rec = op(x, y, lam)
        assert rec.holds
        assert rec.rhs <= rec.outer + 1e-10 * max(1.0, rec.outer)


@settings(max_examples=150, deadline=None)
@given(vecs=complex_vectors(3), lam=lambdas, n=st.integers(min_value=1, max_value=3))
def test_buzano_family_holds(vecs, lam, n):
    x, y, e_raw = vecs
    e = _unit(e_raw)
    if e is None:
        return
    assert buzano(x, y, e).holds
    assert buzano_refined(x, y, e, lam).holds
    assert buzano_refined_two(x, y, e, lam).holds
    assert buzano_power(x, y, e, lam, n).holds


@settings(max_examples=100, deadline=None)
@given(vecs=complex_vectors(2), lam=lambdas)
def test_monotone_in_lambda(vecs, lam):
    x, y = vecs
    lams = sorted({lam, 2 * lam + 0.1, 5 * lam + 1.0})
    values = [cs_refinement_gen(x, y, v).rhs for v in lams]
    for a, b in zip(values, values[1:]):
        assert a <= b + 1e-10 * max(1.0, abs(a), abs(b))


@settings(max_examples=100, deadline=None)
@given(vecs=complex_vectors(2), t=st.floats(min_value=0.01, max_value=0.99))
def test_parameterization_lambda_as_odds(vecs, t):
    # lam = t/(1-t) turns the refinement into t a + (1-t) b
    x, y = vecs
    rec = cs_refinement_gen(x, y, t / (1.0 - t))
    a = (np.linalg.norm(x) * np.linalg.norm(y)) ** 2
    b = abs(np.vdot(y, x)) * np.linalg.norm(x) * np.linalg.norm(y)
    expected = t * a + (1.0 - t) * b
    assert rec.rhs == pytest.approx(expected, abs=1e-12 * max(1.0, expected))


@settings(max_examples=100, deadline=None)
@given(vecs=complex_vectors(2), lam=lambdas,
       c_re=st.floats(min_value=-2, max_value=2), c_im=st.floats(min_value=-2, max_value=2),
       d_re=st.floats(min_value=-2, max_value=2), d_im=st.floats(min_value=-2, max_value=2))
def test_scale_covariance(vecs, lam, c_re, c_im, d_re, d_im):
    x, y = vecs
    c, d = complex(c_re, c_im), complex(d_re, d_im)
    base = cs_refinement_gen(x, y, lam)
    scaled = cs_refinement_gen(c * x, d * y, lam)
    factor = (abs(c) * abs(d)) ** 2
    scale = max(1.0, abs(base.rhs) * factor)
    assert scaled.lhs == pytest.approx(base.lhs * factor, abs=1e-9 * scale)
    assert scaled.rhs == pytest.approx(base.rhs * factor, abs=1e-9 * scale)
    assert scaled.slack == pytest.approx(base.slack * factor, abs=1e-9 * scale)


@pytest.mark.parametrize("evaluate", [
    lambda x, y, e: cs_refinement_gen(x, y, 0.7),
    lambda x, y, e: cs_refinement_two(x, y, 0.7),
    lambda x, y, e: buzano(x, y, e),
    lambda x, y, e: buzano_refined(x, y, e, 0.7),
    lambda x, y, e: buzano_refined_two(x, y, e, 0.7),
    lambda x, y, e: buzano_power(x, y, e, 0.7, 2),
    lambda x, y, e: young_amgm(float(np.linalg.norm(x)), float(np.linalg.norm(y)), 0.3),
], ids=["cs_refinement_gen", "cs_refinement_two", "buzano", "buzano_refined",
        "buzano_refined_two", "buzano_power", "young_amgm"])
def test_records_hold_python_scalars(evaluate):
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
    rec = evaluate(x, y, _unit(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    for side in (rec.lhs, rec.rhs, rec.slack) + (() if rec.outer is None else (rec.outer,)):
        assert type(side) is float
    assert rec.holds is True
