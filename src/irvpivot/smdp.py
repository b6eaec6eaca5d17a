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

from .elections import BallotProfile, _check_candidate
from .pivotal import PivotReport
from .skellam import DEFAULT_TOLERANCE, Tolerance, prob_strictly_greater, tie_terms
from .skellam import _pois_logpmf, _Special, _window, gammaln

__all__ = ["SmdpReport", "first_choice_rates", "smdp_pivot_prob", "smdp_reports"]

gammaincc = _Special("gammaincc")


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
        tol: Truncation bound for the tie-level sum.  Nothing reads it
            yet: the sum keeps the kernel's fixed window (ROADMAP item 2(d)).
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
                below *= prob_strictly_greater(level, lams[k])
        brk, mk = tie_terms(lam_c, lams[j])
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
    below their union, holding each distinct rate's pmf (from one ``gammaln``
    row); each bystander rate's CDF over the span of windows that read it is
    a row of :func:`_cdf_row`, which keeps the last 16 rows across passes.
    Both are computed element by element, so a slice holds the same bits as
    an array made for that window alone, and each sum runs over that window
    in the order a one-candidate loop would take.  The pmf rows are built
    afresh each pass: each spans the whole grid, ``gammaln`` costs about a
    seventh of ``gammaincc`` per count, and keeping them too raised the
    Figure 1 batch's peak memory by about 10%.  A pair's window and
    bystander product, the same for both its candidates, are built once; a
    pair whose two rates and bystander rates in id order repeat an earlier
    pair's would repeat its operations, so it takes that pair's two sums.
    The result depends on the rates alone; only the last vector's is kept,
    so scoring the candidates of one profile in turn costs one pass.
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
    stop = max(hi for _, hi in windows.values()) + 1
    try:
        grid = np.arange(start, stop, dtype=float)
    except (ValueError, MemoryError):
        # numpy refuses a grid it cannot index or allocate.
        raise ValueError(
            f"rate {max(lams)!r} is too large: its tie-level grid would hold "
            "more counts than an array can"
        ) from None
    lgam = gammaln(grid + 1.0)
    pmf = {lam: np.exp(_pois_logpmf(grid, lam, lgam)) for lam in set(lams)}
    cdf = {lam: (lo, _cdf_row(lam, lo, hi)) for lam, (lo, hi) in spans.items()}
    # Pairs in lexicographic order hand each candidate its opponents' sums
    # in ascending order, the order of a one-candidate loop.
    totals = [0.0] * kappa
    pair_sums = {}  # (lam_a, lam_b, bystander rates in id order) -> sums
    for (a, b), (lo, hi) in windows.items():
        bystanders = [k for k in range(kappa) if k != a and k != b]
        key = (lams[a], lams[b], tuple(lams[k] for k in bystanders))
        sums = pair_sums.get(key)
        if sums is None:
            i, n = lo - start, hi + 1 - lo
            below = np.ones(n)
            for k in bystanders:
                at, cdf_k = cdf[lams[k]]
                below *= cdf_k[lo - at : lo - at + n]
            sums = pair_sums[key] = []
            for c, j in ((a, b), (b, a)):
                p_c = pmf[lams[c]]
                p_j = pmf[lams[j]][i : i + n]
                sums.append(float(np.sum(p_j * 0.5 * (p_c[i : i + n] + p_c[i - 1 : i - 1 + n]) * below)))
        totals[a] += sums[0]
        totals[b] += sums[1]
    return tuple(min(1.0, max(0.0, total)) for total in totals)


@functools.lru_cache(maxsize=16)
def _cdf_row(lam: float, lo: int, hi: int) -> np.ndarray:
    """Read-only P(Poisson(lam) < m) for m = lo..hi.

    The counts are the same integer-valued doubles as a slice of a tie-level
    grid, and ``gammaincc`` is elementwise, so a row holds the bits of the
    span computed inside any grid.  A row carries no candidate labels, so
    every profile whose first-choice rates put a bystander at this rate and
    span (each relabeling of one profile, every front-runner profile of one
    kappa) reads the same row.
    """
    ms = np.arange(lo, hi + 1, dtype=float)
    if lam == 0.0:
        row = (ms >= 1).astype(float)
    else:
        # gammaincc(m, lam) = P(Poisson(lam) <= m - 1) for integer m >= 1.
        row = np.where(ms >= 1, gammaincc(np.maximum(ms, 1.0), lam), 0.0)
    row.flags.writeable = False
    return row


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
