"""Pivotal probabilities under single-member district plurality.

Only first choices matter: each candidate's expected vote count is the
total rate of rankings listing them first.  A single added vote for a
candidate is pivotal when it breaks, or creates and then wins, a two-way
tie at the top.  The default computation conditions on the level of that
tie: it sums over the shared count, weighting by the probability that
every other candidate falls strictly below it.  A cruder variant treats
each head-to-head tie as if the remaining candidates did not exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .elections import BallotProfile, _check_candidate
from .pivotal import PivotReport
from .skellam import DEFAULT_TOLERANCE, Tolerance, prob_strictly_greater, tie_terms
from .skellam import _pois_logpmf, _window

__all__ = ["SmdpReport", "first_choice_rates", "smdp_pivot_prob", "smdp_reports"]


@dataclass(frozen=True)
class SmdpReport:
    """Plurality pivotality of a single-choice ballot."""

    candidate: int
    p_pivotal: float

    def to_dict(self) -> dict:
        """The report JSON of :class:`PivotReport`, all of it direct."""
        return PivotReport((self.candidate,), self.p_pivotal, 0.0, self.p_pivotal).to_dict()


def first_choice_rates(profile: BallotProfile) -> list[float]:
    """Expected first-place count per candidate."""
    rates = [[] for _ in range(profile.kappa)]
    for ranking, rate in profile.rates.items():
        rates[ranking[0]].append(rate)
    return [math.fsum(r) for r in rates]


def smdp_pivot_prob(
    profile: BallotProfile,
    candidate: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
    pairwise_approx: bool = False,
) -> float:
    """Probability one added first-place vote for ``candidate`` changes
    the plurality winner.

    Args:
        profile: Expected ballot counts (only first choices are used).
        candidate: Candidate receiving the vote.
        tol: Kernel truncation bound.
        pairwise_approx: Score each two-way tie with the head-to-head tie
            mass alone, ignoring where the other candidates sit, instead of
            the exact top-two conditioning.

    Returns:
        Probability in [0, 1].
    """
    candidate = _check_candidate(candidate, profile.kappa)
    lams = first_choice_rates(profile)
    lam_c = lams[candidate]
    others = [j for j in range(profile.kappa) if j != candidate]

    if len(others) == 1 or pairwise_approx:
        total = 0.0
        for j in others:
            if pairwise_approx and len(others) > 1:
                # Everyone else must sit below the tie; proxy the unknown
                # tie level by a Poisson count at the pair's mean rate.
                level = 0.5 * (lam_c + lams[j])
                below = 1.0
                for k in others:
                    if k != j:
                        below *= prob_strictly_greater(level, lams[k], tol)
            else:
                below = 1.0
            brk, mk = tie_terms(lam_c, lams[j], tol)
            total += 0.5 * (brk + mk) * below
        return min(1.0, max(0.0, total))

    # Exact tie-level conditioning: sum over the tied count m of
    #   P(X_j = m) * [1/2 P(X_c = m) + 1/2 P(X_c = m - 1)] * prod_k P(X_k < m)
    # over each opponent j's window.  The windows are cut from one grid that
    # starts a count below their union, holding each distinct rate's pmf,
    # and each bystander rate's CDF over the windows that read it.  Both
    # are computed element by element, so a slice holds the same bits as an
    # array made for that window alone, and each sum runs over that window.
    windows = {}
    for j in others:
        lo_center, hi_center = sorted((lam_c, lams[j]))
        windows[j] = _window(lo_center, hi_center, hi_center + 1.0)
    start = min(lo for lo, _ in windows.values()) - 1
    grid = np.arange(start, max(hi for _, hi in windows.values()) + 1, dtype=float)
    pmf = {lam: np.exp(_pois_logpmf(grid, lam)) for lam in {lam_c, *(lams[j] for j in others)}}
    spans = {}  # bystander rate -> union of the windows whose product reads it
    for j in others:
        for k in others:
            if k != j:
                lo, hi = spans.get(lams[k], windows[j])
                spans[lams[k]] = min(lo, windows[j][0]), max(hi, windows[j][1])
    cdf = {
        lam: (lo, _poisson_cdf_below(grid[lo - start : hi + 1 - start], lam))
        for lam, (lo, hi) in spans.items()
    }
    p_c = pmf[lam_c]
    total = 0.0
    for j in others:
        lo, hi = windows[j]
        i, n = lo - start, hi + 1 - lo
        below = np.ones(n)
        for k in others:
            if k != j:
                at, cdf_k = cdf[lams[k]]
                below *= cdf_k[lo - at : lo - at + n]
        p_j = pmf[lams[j]][i : i + n]
        total += float(np.sum(p_j * 0.5 * (p_c[i : i + n] + p_c[i - 1 : i - 1 + n]) * below))
    return min(1.0, max(0.0, total))


def _poisson_cdf_below(ms: np.ndarray, lam: float) -> np.ndarray:
    """P(Poisson(lam) < m) for each m in the grid."""
    if lam == 0.0:
        return (ms >= 1).astype(float)
    # gammaincc(m, lam) = P(Poisson(lam) <= m - 1) for integer m >= 1.
    out = np.where(ms >= 1, gammaincc(np.maximum(ms, 1.0), lam), 0.0)
    return out


def smdp_reports(
    profile: BallotProfile,
    tol: Tolerance = DEFAULT_TOLERANCE,
    pairwise_approx: bool = False,
) -> list[SmdpReport]:
    """Pivotality of every single-choice ballot."""
    return [
        SmdpReport(c, smdp_pivot_prob(profile, c, tol, pairwise_approx))
        for c in range(profile.kappa)
    ]
