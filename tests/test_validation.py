"""Input validation of the scalar evaluators and operator-lemma predicates.

Every public evaluator and predicate validates each input once and then
works on the validated arrays. These tests pin the exception class each
fault raises, so no check can go missing, and count the eigensolver, SVD
and finiteness passes of a call, so none is repeated.
"""

import math
import warnings

import numpy as np
import pytest

from numrad import (
    BoundParams,
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    NotUnitVectorError,
    UnknownFunctionError,
    buzano,
    buzano_power,
    buzano_refined,
    buzano_refined_two,
    convex_norm_check,
    cs_refinement_gen,
    cs_refinement_two,
    evaluate_bound,
    jensen_operator_check,
    mccarthy_check,
    mixed_schwarz_check,
    numerical_radius_enclosure,
    young_amgm,
)
from numrad import operator_lemmas

X = np.array([1.0, 2.0j])
Y = np.array([0.5, -1.0 + 1.0j])
UNIT = np.array([0.6, 0.8j])
PSD = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
HERM = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]])
GENERAL = np.array([[1.0, 2.0], [0.5j, -1.0]])

NAN = float("nan")
INF = float("inf")

# The faults of each kind of argument, as (fault, bad value, exception).
# A wrong-length vector has unit norm, so only its length is at fault.
VECTOR_FAULTS = [
    ("nan entry", np.array([NAN, 1.0]), ValueError),
    ("inf entry", np.array([1.0, INF]), ValueError),
    ("2-d", np.eye(2) / math.sqrt(2), ValueError),
    ("unequal dimension", np.ones(3) / math.sqrt(3), DimensionMismatchError),
]
UNIT_FAULTS = VECTOR_FAULTS + [("non-unit", np.array([1.0, 1.0]), NotUnitVectorError)]
MATRIX_FAULTS = [
    ("nan entry", np.array([[NAN, 0.0], [0.0, 1.0]]), ValueError),
    ("inf entry", np.array([[1.0, 0.0], [0.0, INF]]), ValueError),
    ("non-square", np.zeros((2, 3)), ValueError),
    ("unequal dimension", np.eye(3), DimensionMismatchError),
]
HERMITIAN_FAULTS = MATRIX_FAULTS + [
    ("non-Hermitian", np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianError)]
PSD_FAULTS = HERMITIAN_FAULTS + [("indefinite", np.diag([1.0, -1.0]), NotPSDError)]
PAST_DOUBLE = 10**400  # an int float() cannot convert
LAM_FAULTS = [(f"lam={v!r}", v, ValueError) for v in (0.0, -1.0, NAN, INF, True, "0.5")] + [
    ("lam=10**400", PAST_DOUBLE, ValueError)]
ORDER_FAULTS = [("n=0", 0, ValueError), ("n=1.5", 1.5, ValueError),
                ("n=16", 16, OverflowError), ("n=inf", INF, ValueError),
                ("n=nan", NAN, ValueError), ("n='2'", "2", ValueError)]
ALPHA_FAULTS = [(f"alpha={v!r}", v, ValueError) for v in (0.0, 1.0, NAN, True, "0.5")]
R_FAULTS = [(f"r={v!r}", v, ValueError) for v in (0.5, NAN, INF, True, "2")] + [
    ("r=10**400", PAST_DOUBLE, ValueError)]
H_ID_FAULTS = [("h_id=cube", "cube", UnknownFunctionError)]
T_FAULTS = [(f"t={v!r}", v, ValueError) for v in (-0.1, 1.5, NAN, True, "0.5")]
NONNEG_FAULTS = [(f"{v!r}", v, ValueError) for v in (-1.0, NAN, INF, True, "2")] + [
    ("10**400", PAST_DOUBLE, ValueError)]

# Each evaluator and predicate: valid arguments and the faults of each.
SIGNATURES = {
    cs_refinement_gen: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (1.0, LAM_FAULTS)),
    cs_refinement_two: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (1.0, LAM_FAULTS)),
    buzano: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (UNIT, UNIT_FAULTS)),
    buzano_refined: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (UNIT, UNIT_FAULTS),
                     (1.0, LAM_FAULTS)),
    buzano_refined_two: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (UNIT, UNIT_FAULTS),
                         (1.0, LAM_FAULTS)),
    buzano_power: ((X, VECTOR_FAULTS), (Y, VECTOR_FAULTS), (UNIT, UNIT_FAULTS),
                   (1.0, LAM_FAULTS), (2, ORDER_FAULTS)),
    young_amgm: ((2.0, NONNEG_FAULTS), (3.0, NONNEG_FAULTS), (0.3, T_FAULTS)),
    mccarthy_check: ((PSD, PSD_FAULTS), (UNIT, UNIT_FAULTS), (2.0, R_FAULTS)),
    convex_norm_check: ((PSD, PSD_FAULTS), (PSD.T, PSD_FAULTS), (2.0, R_FAULTS)),
    mixed_schwarz_check: ((GENERAL, MATRIX_FAULTS), (X, VECTOR_FAULTS), (Y, VECTOR_FAULTS),
                          (0.3, ALPHA_FAULTS)),
    jensen_operator_check: ((HERM, HERMITIAN_FAULTS), (UNIT, UNIT_FAULTS),
                            ("exp", H_ID_FAULTS)),
}

CASES = [
    pytest.param(fn, pos, bad, exc, id=f"{fn.__name__}-arg{pos}-{fault}")
    for fn, args in SIGNATURES.items()
    for pos, (_, faults) in enumerate(args)
    for fault, bad, exc in faults
]


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_valid_arguments_give_a_record(fn):
    assert fn(*(value for value, _ in SIGNATURES[fn])).holds


@pytest.mark.parametrize("fn,pos,bad,exc", CASES)
def test_each_fault_raises_its_class(fn, pos, bad, exc):
    args = [value for value, _ in SIGNATURES[fn]]
    args[pos] = bad
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc


@pytest.mark.parametrize("pos,name", [(0, "a"), (1, "b"), (2, "t")])
@pytest.mark.parametrize("bad,kind", [(True, "bool"), ("0.5", "str")])
def test_young_amgm_names_a_non_number(pos, name, bad, kind):
    # float() would read True as 1 and parse the string
    args = [2.0, 3.0, 0.3]
    args[pos] = bad
    with pytest.raises(ValueError, match=f"^{name} must be a number, not a {kind}$"):
        young_amgm(*args)


@pytest.mark.parametrize("make, name", [
    (lambda: BoundParams(lam=PAST_DOUBLE), "lam"), (lambda: BoundParams(1.0, r=PAST_DOUBLE), "r"),
    (lambda: BoundParams(1.0, n=PAST_DOUBLE), "n"),
    (lambda: young_amgm(2.0, PAST_DOUBLE, 0.3), "b"),
    (lambda: numerical_radius_enclosure(np.eye(2), PAST_DOUBLE), "tol"),
], ids=["lam", "r", "n", "b", "tol"])
def test_an_int_past_the_double_range_is_refused_by_name(make, name):
    # math.isfinite and float() would raise a bare OverflowError
    with pytest.raises(ValueError, match=f"^{name} leaves the double range$"):
        make()


@pytest.mark.parametrize("check,args", [
    (mccarthy_check, (np.eye(2), UNIT)),
    (convex_norm_check, (2.0 * np.eye(2), np.eye(2))),
])
@pytest.mark.parametrize("r", [NAN, INF])
def test_non_finite_exponent_is_refused_by_name(check, args, r):
    with pytest.raises(ValueError, match="r must be finite"):
        check(*args, r)


def _counting(monkeypatch, module, names) -> dict:
    """Replace module.name for each name by a wrapper counting its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("check,args,eigh,svd", [
    (mccarthy_check, (PSD, UNIT, 2.5), 1, 0),
    (convex_norm_check, (PSD, PSD.T, 2.5), 3, 1),
    (mixed_schwarz_check, (GENERAL, X, Y, 0.3), 0, 1),
    (jensen_operator_check, (HERM, UNIT, "exp"), 1, 0),
])
def test_decompositions_per_predicate(monkeypatch, check, args, eigh, svd):
    counts = _counting(monkeypatch, np.linalg, ("eigh", "svd"))
    check(*args)
    assert counts == {"eigh": eigh, "svd": svd}


@pytest.mark.parametrize("check,args,powers", [
    (mccarthy_check, (PSD, UNIT, 2.5), 0),
    (convex_norm_check, (PSD, PSD.T, 2.5), 2),
    (mixed_schwarz_check, (GENERAL, X, Y, 0.3), 0),
    (jensen_operator_check, (HERM, UNIT, "exp"), 0),
])
def test_matrix_powers_per_predicate(monkeypatch, check, args, powers):
    """Sides are read from the spectrum; only convex_norm_check forms A^r and B^r."""
    counts = _counting(monkeypatch, operator_lemmas, ("_spectral_power",))
    check(*args)
    assert counts == {"_spectral_power": powers}


@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_exponent_is_refused_as_bound_params_refuses_it(flag):
    with pytest.raises(ValueError) as expected:
        BoundParams(lam=1.0, r=flag)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        mccarthy_check(PSD, UNIT, flag)


@pytest.mark.parametrize("fn,args", [
    pytest.param(fn, [value for value, _ in SIGNATURES[fn]], id=fn.__name__)
    for fn in SIGNATURES if fn is not young_amgm] + [
    pytest.param(evaluate_bound, ["th3", GENERAL], id="evaluate_bound-single"),
    pytest.param(evaluate_bound, ["th2", GENERAL], id="evaluate_bound-self-pair"),
    pytest.param(evaluate_bound, ["th2", GENERAL, GENERAL.T], id="evaluate_bound-pair"),
])
def test_at_most_one_finiteness_pass_per_input(monkeypatch, fn, args):
    """Validation, all a call does before its first decomposition, passes over
    each array input at most once. (Afterwards convex_norm_check tests its
    two sides for overflow.)"""
    decompositions = _counting(monkeypatch, np.linalg, ("eigh", "svd"))
    passes = 0
    isfinite = np.isfinite

    def counting_isfinite(*a, **kw):
        nonlocal passes
        passes += not any(decompositions.values())
        return isfinite(*a, **kw)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    fn(*args)
    assert passes <= sum(isinstance(a, np.ndarray) for a in args)


BIG = 1e200 * np.ones(2)  # finite, but its squares and products leave the double range
E1 = np.array([1.0, 0.0])


@pytest.mark.parametrize("fn,args", [pytest.param(fn, args, id=fn.__name__) for fn, args in [
    (cs_refinement_gen, (BIG, np.ones(2), 1.0)),
    (cs_refinement_two, (BIG, np.ones(2), 1.0)),
    (buzano, (BIG, BIG, E1)),
    (buzano_refined, (BIG, np.ones(2), E1, 1.0)),
    (buzano_refined_two, (BIG, np.ones(2), E1, 1.0)),
    (buzano_power, (BIG, np.ones(2), E1, 1.0, 2)),
]])
def test_side_past_double_range_names_the_evaluator(fn, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(OverflowError, match=f"^{fn.__name__}: a side leaves the double range"):
            fn(*args)


def test_large_finite_vectors_with_double_sides_are_evaluated():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = cs_refinement_gen(1e160 * np.ones(2), 1e-160 * np.ones(2), 1.0)
    assert (rec.lhs, rec.rhs, rec.outer) == pytest.approx((4.0, 4.0, 4.0), rel=1e-15)
