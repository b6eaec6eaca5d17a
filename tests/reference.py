"""High-precision reference evaluations, independent of the library's code.

Everything here runs in mpmath at ``DIGITS`` significant digits and sums an
explicit finite window.  ``mpmath.nsum`` over [0, inf) is not used: it
returned 1.5e-270 for P(X > Y) at rates (167, 667), where the truth is
near 7.5e-75.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 40

# Natural log of the Poisson mass each window may leave out on either side
# (mass below exp(-70), about 4e-31).
_TAIL_LOG = 70.0


def poisson_window(lam: float) -> tuple[int, int]:
    """Counts ``lo..hi`` outside which Poisson(lam) has mass below exp(-70) per side.

    The Chernoff bounds P(N >= lam + t) <= exp(-t^2 / (2 (lam + t))) and
    P(N <= lam - t) <= exp(-t^2 / (2 lam)) are both below exp(-70) at
    t = sqrt(140 lam) + 140, since then t^2 >= 140 lam + 140 t.
    """
    t = math.sqrt(2.0 * _TAIL_LOG * lam) + 2.0 * _TAIL_LOG
    return max(0, math.floor(lam - t)), math.ceil(lam + t)


def poisson_pmfs(lam, lo: int, hi: int) -> list:
    """Poisson(lam) pmf at lo..hi: one log-domain start, then the recurrence."""
    p = mpmath.exp(lo * mpmath.log(lam) - lam - mpmath.loggamma(lo + 1))
    out = [p]
    for k in range(lo + 1, hi + 1):
        p = p * lam / k
        out.append(p)
    return out


def prob_strictly_greater(lam_a: float, lam_b: float) -> mpmath.mpf:
    """P(X > Y) for independent X ~ Poisson(lam_a), Y ~ Poisson(lam_b).

    The sum runs over the union of both rates' windows, so the mass left
    out is below 4e-30 in absolute terms; zero rates are exact.
    """
    with mpmath.workdps(DIGITS):
        a, b = mpmath.mpf(lam_a), mpmath.mpf(lam_b)
        if a == 0:
            return mpmath.mpf(0)
        if b == 0:
            return -mpmath.expm1(-a)
        lo_a, hi_a = poisson_window(lam_a)
        lo_b, hi_b = poisson_window(lam_b)
        lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)
        pa = poisson_pmfs(a, lo, hi)
        pb = poisson_pmfs(b, lo, hi)
        # sum over x of P(X = x) * P(lo <= Y < x)
        total = mpmath.mpf(0)
        below = mpmath.mpf(0)
        for x in range(hi - lo + 1):
            total += pa[x] * below
            below += pb[x]
        return +total
