"""The lambda-families of scalar_ineq, each fixed by its two end limits."""

import math

import numpy as np
import pytest

from numrad import (
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
