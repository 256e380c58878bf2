"""The lambda-families of scalar_ineq, each fixed by its two end limits."""

import math
import warnings

import numpy as np
import pytest

from numrad import (
    buzano,
    buzano_power,
    buzano_refined,
    buzano_refined_two,
    cs_refinement_gen,
    cs_refinement_two,
)
from numrad.scalar_ineq import interpolate

X, Y, E = np.array([1.9, 0.0]), np.array([0.6, 0.8]), np.array([1.0, 0.0])

FAMILIES = {
    "cs_refinement_gen": lambda x, lam: cs_refinement_gen(x, Y, lam),
    "cs_refinement_two": lambda x, lam: cs_refinement_two(x, Y, lam),
    "buzano_refined": lambda x, lam: buzano_refined(x, Y, E, lam),
    "buzano_refined_two": lambda x, lam: buzano_refined_two(x, Y, E, lam),
    "buzano_power": lambda x, lam: buzano_power(x, Y, E, lam, 1),  # degree 2n = 2
}


def test_interpolate_runs_between_the_ends():
    assert interpolate(2.0, 6.0, 0.0) == 2.0
    assert interpolate(2.0, 6.0, 1.0) == 4.0
    assert interpolate(2.0, 6.0, 1e300) == 6.0
    c = np.array([[1.0, 3.0], [0.0, 8.0]])
    assert np.array_equal(interpolate(c[:, :1], c[:, 1:], np.array([1.0, 3.0])),
                          [[2.0, 2.5], [4.0, 6.0]])


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("lam,k", [(1e-3, 511), (3e8, 496), (1e12, 500)])
def test_homogeneous_up_to_the_double_range(name, lam, k):
    # Both sides have degree 2 in x, and 2^k is exact: at x 2^k they are the
    # sides at x times 4^k, bit for bit. The right side stays in the double
    # range here, while a sum of its terms over a common denominator, such
    # as |x|^2|y|^2 + |<x,y>| |x||y| at k = 511, would leave it.
    small, big = FAMILIES[name](X, lam), FAMILIES[name](np.ldexp(X, k), lam)
    assert (big.lhs, big.rhs) == (math.ldexp(small.lhs, 2 * k), math.ldexp(small.rhs, 2 * k))


def test_large_lambda_term_past_the_range_keeps_a_double_rhs():
    # c(inf) lam = 2.4e300 * 3e8 leaves the double range, the right side
    # 2.4e300 does not: it is interpolated again from ends scaled by 2^-k
    small, big = cs_refinement_gen(X, Y, 3e8), cs_refinement_gen(np.ldexp(X, 498), Y, 3e8)
    assert big.rhs == pytest.approx(2.4176e300, rel=1e-4) and big.holds
    assert big.rhs == math.ldexp(small.rhs, 996)


def test_right_side_past_the_range_still_overflows_by_name():
    with pytest.raises(OverflowError, match="^cs_refinement_gen: "):
        cs_refinement_gen(np.ldexp(X, 512), Y, 1e12)


# An end or a term leaves the double range where the right side does not: the
# sides are taken at x 2^-i and y 2^-j and scaled back by 2^(degree (i + j)).
BIG = math.ldexp(1.4, 512)
SCALED = [
    # c(inf) = |x|^2 |y|^2 = 1.96 * 2^1024; degree 2
    (lambda: cs_refinement_gen(np.array([BIG, 0.0]), np.array([0.3, math.sqrt(0.91)]), 1e-3),
     math.ldexp((0.588 + 1.96e-3) / 1.001, 1024)),
    # |x||y| = 1.125 * 2^1024, not (|x||y| + |<x,y>|)/2; degree 1
    (lambda: buzano(np.array([1.5 * 2.0**600, 0.0]), np.array([0.0, 1.5 * 2.0**423]), E),
     math.ldexp(0.5625, 1024)),
    # c(inf) = 2 (|x||y|/2)^2 = 1.5 * 2^1024; degree 2n = 2
    (lambda: buzano_power(np.array([math.sqrt(3.0) * 2.0**512, 0.0]), np.array([0.0, 1.0]), E,
                          1e-3, 1), math.ldexp(0.75, 1024) * 1.002 / 1.001),
]


@pytest.mark.parametrize("call,rhs", SCALED, ids=["cs_refinement_gen", "buzano", "buzano_power"])
def test_an_end_past_the_range_is_taken_from_scaled_vectors(call, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = call()
    assert rec.holds and rec.rhs == pytest.approx(rhs, rel=1e-12)


def test_scaled_sides_are_the_in_range_sides_times_a_power_of_two():
    # x 2^-513 = (0.7, 0): the record there, scaled by 4^513 bit for bit; the
    # outer end |x|^2 |y|^2 itself is past the double range
    y = np.array([0.3, math.sqrt(0.91)])
    small, big = cs_refinement_gen(np.array([0.7, 0.0]), y, 1e-3), SCALED[0][0]()
    assert (big.lhs, big.rhs) == (math.ldexp(small.lhs, 1026), math.ldexp(small.rhs, 1026))
    assert big.outer == math.inf
