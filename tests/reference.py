"""Reference evaluations, independent of the library's fast code paths.

The kernel references run in mpmath at ``DIGITS`` significant digits and
sum an explicit finite window.  ``mpmath.nsum`` over [0, inf) is not used:
it returned 1.5e-270 for P(X > Y) at rates (167, 667), where the truth is
near 7.5e-75.

The double-precision Skellam reference evaluates each ``w``'s convolution
row on its own arrays, with its own Poisson log pmf and truncation windows:
the per-row formula :func:`irvpivot.skellam._skellam_pmf_many` used before
it took every row from one log-gamma grid.  The plurality reference scores
each opponent's tie window on its own arrays, the loop
:func:`irvpivot.smdp.smdp_pivot_prob` ran before it cut every window from
one shared grid.  Each must agree with the library bit for bit.

The oracle reference replays the Monte-Carlo oracle's random streams and
counts every draw twice, without and with the ballot, with the scalar
:func:`irvpivot.elections.tabulate`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaincc, gammaln

from irvpivot import oracle
from irvpivot.elections import RealizedElection, tabulate
from irvpivot.smdp import first_choice_rates

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


def pois_logpmf(ms: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) log pmf at the counts ``ms``; lam == 0 is exact."""
    if lam == 0.0:
        return np.where(ms == 0, 0.0, -np.inf)
    with np.errstate(divide="ignore"):
        return ms * np.log(lam) - lam - gammaln(ms + 1.0)


def window(lo_center: float, hi_center: float, variance: float) -> tuple[int, int]:
    """The kernel's truncation rule: 12 standard deviations plus 40 terms
    beyond either centre, clamped at count 0."""
    half = 12.0 * np.sqrt(variance) + 40
    return max(0, int(np.floor(lo_center - half))), int(np.ceil(hi_center + half))


def pmf_window(w: float, lam1: float, lam2: float) -> tuple[int, int]:
    """Y-values ``lo..hi`` kept in the Skellam convolution at w."""
    mstar = 0.5 * (-w + np.sqrt(w * w + 4.0 * lam1 * lam2))
    lo, hi = window(mstar, mstar, lam1 + lam2 + abs(w))
    lo = max(lo, int(-w))
    return lo, max(lo, hi)


def skellam_pmf_many(ws, lam1: float, lam2: float) -> np.ndarray:
    """P(X - Y = w) at every integer in ``ws``, one convolution row per w,
    each with its own log-gamma evaluation."""
    ws = np.asarray(ws, dtype=np.int64)
    if lam1 == 0.0 and lam2 == 0.0:
        return (ws == 0).astype(float)
    if lam2 == 0.0:
        out = np.exp(pois_logpmf(ws.astype(float), lam1))
        return np.where(ws >= 0, out, 0.0)
    if lam1 == 0.0:
        out = np.exp(pois_logpmf(-ws.astype(float), lam2))
        return np.where(ws <= 0, out, 0.0)

    lo, hi = pmf_window(float(ws.min()), lam1, lam2)
    lo2, hi2 = pmf_window(float(ws.max()), lam1, lam2)
    ms = np.arange(min(lo, lo2), max(hi, hi2) + 1, dtype=float)
    logy = pois_logpmf(ms, lam2)
    # logs[i, j] = log P(X = w_i + m_j) + log P(Y = m_j)
    logs = pois_logpmf(ws[:, None] + ms[None, :], lam1) + logy[None, :]
    mx = np.max(logs, axis=1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    vals = np.exp(mx[:, 0]) * np.sum(np.exp(logs - mx), axis=1)
    return np.clip(vals, 0.0, 1.0)


def smdp_pivot_prob(profile, candidate: int) -> float:
    """Exact plurality pivot probability, with fresh pmf and CDF arrays over
    each opponent's own window (two candidates take the head-to-head tie)."""
    lams = first_choice_rates(profile)
    lam_c = lams[candidate]
    others = [j for j in range(profile.kappa) if j != candidate]
    if len(others) == 1:
        brk, mk = skellam_pmf_many([0, -1], lam_c, lams[others[0]]).tolist()
        return min(1.0, max(0.0, 0.5 * (brk + mk)))
    total = 0.0
    for j in others:
        lam_j = lams[j]
        lo, hi = window(min(lam_c, lam_j), max(lam_c, lam_j), max(lam_c, lam_j) + 1.0)
        ms = np.arange(lo, hi + 1, dtype=float)
        p_j = np.exp(pois_logpmf(ms, lam_j))
        p_c_eq = np.exp(pois_logpmf(ms, lam_c))
        p_c_behind = np.exp(pois_logpmf(ms - 1.0, lam_c))
        below = np.ones_like(ms)
        for k in others:
            if k == j:
                continue
            if lams[k] == 0.0:
                below *= (ms >= 1).astype(float)
            else:
                below *= np.where(ms >= 1, gammaincc(np.maximum(ms, 1.0), lams[k]), 0.0)
        total += float(np.sum(p_j * 0.5 * (p_c_eq + p_c_behind) * below))
    return min(1.0, max(0.0, total))


def oracle_outcomes(profile, ballots, cfg) -> list[list[tuple[int, int, int | None]]]:
    """Per ballot, per Monte-Carlo draw: the winner without and with the
    ballot, and the ballot's surviving candidate in the final round (None
    when it is exhausted by then).

    Each block's counts and tie strengths are drawn from
    ``oracle._block_rngs`` in one call per generator.  Ties go as in the
    oracle: on equal totals the smaller tie strength drops.  An electorate
    with no ballots, which ``tabulate`` refuses, drops candidates by
    strength alone, so the strongest wins.
    """
    kappa = profile.kappa
    rankings = sorted(profile.rates)
    rates = [profile.rates[r] for r in rankings]
    out = [[] for _ in ballots]
    for block, done in enumerate(range(0, cfg.draws, oracle._BLOCK)):
        n = min(oracle._BLOCK, cfg.draws - done)
        rng_counts, rng_coins = oracle._block_rngs(cfg, block)
        counts = rng_counts.poisson(rates, size=(n, len(rates)))
        strength = rng_coins.random((n, kappa))
        for i in range(n):
            order = [int(c) for c in np.argsort(-strength[i])]
            votes = dict(zip(rankings, counts[i].tolist()))
            if sum(votes.values()):
                w0 = tabulate(RealizedElection(kappa, votes), tie_break=order)[0]
            else:
                w0 = order[0]
            for b, ballot in enumerate(ballots):
                more = dict(votes)
                more[ballot] = more.get(ballot, 0) + 1
                w1, drops = tabulate(RealizedElection(kappa, more), tie_break=order)
                survivor = next((c for c in ballot if c not in drops[: kappa - 2]), None)
                out[b].append((w0, w1, survivor))
    return out


def oracle_pivot_counts(outcomes) -> tuple[int, int]:
    """Direct and indirect pivotal draws among one ballot's outcomes."""
    direct = sum(w1 != w0 and survivor == w1 for w0, w1, survivor in outcomes)
    indirect = sum(w1 != w0 and survivor != w1 for w0, w1, survivor in outcomes)
    return direct, indirect


def oracle_expected_utility(outcomes, utilities) -> float:
    """Mean winner-utility change per draw, summed exactly and rounded once."""
    swing = sum(Fraction(utilities[w1] - utilities[w0]) for w0, w1, _ in outcomes)
    return float(swing / len(outcomes))
