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

import functools
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

    With three or more candidates, the exact value comes from one pass that
    scores every candidate at the profile's first-choice rates; the last
    rate vector's results are kept, so scoring each candidate in turn costs
    one pass.

    Args:
        profile: Expected ballot counts (only first choices are used).
        candidate: Candidate receiving the vote.
        tol: Kernel truncation bound, passed to the kernel by the
            head-to-head variant and at two candidates; the exact path with
            three or more candidates never reads it.  The kernel validates
            it but no result depends on it yet (see :mod:`irvpivot.skellam`).
        pairwise_approx: Score each two-way tie with the head-to-head tie
            mass alone, ignoring where the other candidates sit, instead of
            the exact top-two conditioning.

    Returns:
        Probability in [0, 1].
    """
    candidate = _check_candidate(candidate, profile.kappa)
    lams = first_choice_rates(profile)
    if profile.kappa > 2 and not pairwise_approx:
        return _tie_level_probs(tuple(lams))[candidate]
    lam_c = lams[candidate]
    others = [j for j in range(profile.kappa) if j != candidate]
    total = 0.0
    for j in others:
        # Everyone else must sit below the tie; proxy the unknown tie level
        # by a Poisson count at the pair's mean rate.
        level = 0.5 * (lam_c + lams[j])
        below = 1.0
        for k in others:
            if k != j:
                below *= prob_strictly_greater(level, lams[k], tol)
        brk, mk = tie_terms(lam_c, lams[j], tol)
        total += 0.5 * (brk + mk) * below
    return min(1.0, max(0.0, total))


@functools.lru_cache(maxsize=1)
def _tie_level_probs(lams: tuple[float, ...]) -> tuple[float, ...]:
    """Exact tie-level pivot probability of every candidate at these
    first-choice rates.

    For candidate c, the sum over each opponent j's window of the tied
    count m of
        P(X_j = m) * [1/2 P(X_c = m) + 1/2 P(X_c = m - 1)] * prod_k P(X_k < m).
    Every window of every candidate is cut from one grid that starts a count
    below their union, holding each distinct rate's pmf, and each bystander
    rate's CDF over the windows that read it.  Both are computed element by
    element, so a slice holds the same bits as an array made for that window
    alone, and each sum runs over that window in the order a one-candidate
    loop would take.  A pair's window and bystander product, the same for
    both its candidates, are built once.  The result depends on the rates
    alone; only the last vector's is kept, so scoring the candidates of one
    profile in turn costs one pass.
    """
    kappa = len(lams)
    windows = {}  # candidate pair a < b -> window of their tie level
    spans = {}  # bystander rate -> union of the windows whose product reads it
    for a in range(kappa):
        for b in range(a + 1, kappa):
            lo_center, hi_center = sorted((lams[a], lams[b]))
            lo, hi = windows[a, b] = _window(lo_center, hi_center, hi_center + 1.0)
            for k in range(kappa):
                if k != a and k != b:
                    span_lo, span_hi = spans.get(lams[k], (lo, hi))
                    spans[lams[k]] = min(span_lo, lo), max(span_hi, hi)
    start = min(lo for lo, _ in windows.values()) - 1
    grid = np.arange(start, max(hi for _, hi in windows.values()) + 1, dtype=float)
    pmf = {lam: np.exp(_pois_logpmf(grid, lam)) for lam in set(lams)}
    cdf = {
        lam: (lo, _poisson_cdf_below(grid[lo - start : hi + 1 - start], lam))
        for lam, (lo, hi) in spans.items()
    }
    # Pairs in lexicographic order hand each candidate its opponents' sums
    # in ascending order, the order of a one-candidate loop.
    totals = [0.0] * kappa
    for (a, b), (lo, hi) in windows.items():
        i, n = lo - start, hi + 1 - lo
        below = np.ones(n)
        for k in range(kappa):
            if k != a and k != b:
                at, cdf_k = cdf[lams[k]]
                below *= cdf_k[lo - at : lo - at + n]
        for c, j in ((a, b), (b, a)):
            p_c = pmf[lams[c]]
            p_j = pmf[lams[j]][i : i + n]
            totals[c] += float(np.sum(p_j * 0.5 * (p_c[i : i + n] + p_c[i - 1 : i - 1 + n]) * below))
    return tuple(min(1.0, max(0.0, total)) for total in totals)


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
