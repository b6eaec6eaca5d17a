"""The kernel against the 40-digit reference in ``reference.py``."""

import math

import mpmath
import numpy as np
import pytest

from irvpivot import prob_strictly_greater, skellam

import reference

# lam_b values, and lam_a = lam_b + z * sqrt(2 lam_b): z standard deviations
# of X - Y away from an even contest.
LAM_B = [0.01, 0.5, 3.0, 50.0, 500.0, 5e3, 5e4, 3e5]
Z = np.linspace(-6.0, 6.0, 13)
REL_BOUND = 1e-12


@pytest.mark.parametrize("lam_b", LAM_B)
def test_prob_strictly_greater_within_bound_of_reference(lam_b):
    checked = 0
    for z in Z:
        lam_a = lam_b + z * math.sqrt(2.0 * lam_b)
        if lam_a <= 0.0:
            continue
        got = prob_strictly_greater(lam_a, lam_b)
        if got < skellam._CLOSED_FORM_FLOOR:  # the series' deep tail; ROADMAP item 2
            continue
        want = reference.prob_strictly_greater(lam_a, lam_b)
        rel = float(abs(got - want) / want)
        assert rel <= REL_BOUND, (lam_a, lam_b, got, float(want), rel)
        checked += 1
    assert checked >= 5


def test_zero_rate_edges_exact():
    assert prob_strictly_greater(0.0, 0.0) == 0.0
    for lam in LAM_B + [1e-300, 1e6]:
        assert prob_strictly_greater(0.0, lam) == 0.0
        assert reference.prob_strictly_greater(0.0, lam) == 0
        # Y is 0 almost surely, so P(X > Y) = P(X >= 1), rounded to the nearest float.
        assert prob_strictly_greater(lam, 0.0) == float(reference.prob_strictly_greater(lam, 0.0))


def test_reference_window_holds_the_mass():
    # Each window leaves out less than exp(-70) of the mass on either side.
    for lam in LAM_B:
        lo, hi = reference.poisson_window(lam)
        with mpmath.workdps(reference.DIGITS):
            outside = 1 - mpmath.fsum(reference.poisson_pmfs(lam, lo, hi))
        assert outside < 2 * math.exp(-70)
