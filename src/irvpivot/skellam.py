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
fixed window of 12 standard deviations plus 40 terms (:func:`_window`),
so no entry point takes a truncation bound.  :class:`Tolerance` is the
bound the plurality engine will read once its tie-level window follows
it (ROADMAP item 2(d)).  The sums have no special-function edge cases
and handle degenerate rates exactly.

``gammaln(m + 1)`` comes from a :class:`_LogGammaRows` object, which
computes it in fixed blocks of counts, each block at most once.  A
``PivotCalculator`` owns one, so the tie terms of its many rate pairs share
the counts their windows have in common; a call given none makes a fresh
one.  X's log pmf is evaluated once over every shifted count ``w + m`` and
Y's over its own window, each read on its own, never the counts between
them; each ``w``'s row is a slice of X's row plus Y's, built in one buffer.
Every element sees the same operations on the same doubles as a per-row
evaluation (``tests/reference.py``), so the values keep their bits.

``scipy.special`` is imported on the first kernel call, not with the
package: ``import irvpivot`` and the Monte-Carlo oracle need numpy alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from importlib import import_module

import numpy as np

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
    """Truncation bound for an infinite sum.

    ``tail_eps`` is the maximum probability mass that may be discarded when
    an infinite sum is cut off.  Must lie strictly between 0 and 1.  Only
    the plurality entry points take it, and none reads it yet.
    """

    tail_eps: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tail_eps < 1.0):
            raise ValueError(f"tail_eps must be in (0, 1), got {self.tail_eps}")


DEFAULT_TOLERANCE = Tolerance()


class _Special:
    """The ``scipy.special`` function ``name``, imported on its first call.

    That import costs about 0.2 s and 25 MB, which the code paths that call
    no special function (the package import, the oracle) do not pay.
    """

    __slots__ = ("name", "_func")

    def __init__(self, name: str):
        self.name = name
        self._func = None

    def __call__(self, *args):
        if self._func is None:
            self._func = getattr(import_module("scipy.special"), self.name)
        return self._func(*args)


chndtr = _Special("chndtr")
gammainc = _Special("gammainc")
gammaln = _Special("gammaln")

# Smallest P(X > Y) taken from the closed form; smaller values come from the series.
_CLOSED_FORM_FLOOR = 1e-10


def _check_rate(lam: float, name: str) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"{name} must be a finite nonnegative rate, got {lam}")
    return lam


def _check_scale(lam1: float, lam2: float) -> None:
    """A ``ValueError`` names two nonzero rates whose sums this kernel cannot
    form: ``2 lam`` or ``4 lam1 lam2`` would overflow a float."""
    if not (math.isfinite(2.0 * max(lam1, lam2)) and math.isfinite(4.0 * lam1 * lam2)):
        raise ValueError(
            f"rates {lam1!r} and {lam2!r} are too large: 2*lam or 4*lam1*lam2 "
            "overflows a float"
        )


def _pois_logpmf(ms: np.ndarray, lam: float, lgam: np.ndarray | None = None) -> np.ndarray:
    """Poisson log pmf on an integer grid, ``lgam`` being ``gammaln(ms + 1)``
    if the caller has it; lam == 0 handled exactly."""
    if lam == 0.0:
        return np.where(ms == 0, 0.0, -np.inf)
    if lgam is None:
        lgam = gammaln(ms + 1.0)
    out = ms * np.log(lam)
    out -= lam
    out -= lgam
    return out


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


# Counts per log-gamma block: small enough that a window computes little
# beyond its ends, large enough that windows near each other share blocks.
_BLOCK = 256


class _LogGammaRows:
    """The counts ``m`` and ``gammaln(m + 1)`` over the windows a caller
    reads, computed in blocks of ``_BLOCK`` counts, each at most once.

    Computed blocks are kept as disjoint runs of consecutive counts, so a
    window inside one run is read as a view.  A window that reaches past a
    run joins the runs it touches and the blocks it is missing into one;
    counts that no window reached are never computed.  Negative counts get
    ``gammaln(<= 0) = inf``, so a log pmf of -inf.
    """

    __slots__ = ("starts", "runs")

    def __init__(self):
        self.starts: list[int] = []  # first count of each run, ascending
        self.runs: list[np.ndarray] = []  # rows: counts, gammaln(counts + 1)

    def __call__(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``m`` and ``gammaln(m + 1)`` for ``m = lo..hi``."""
        i = bisect_right(self.starts, lo) - 1
        if i < 0 or self.starts[i] + self.runs[i].shape[1] <= hi:
            i = self._join(lo // _BLOCK * _BLOCK, (hi // _BLOCK + 1) * _BLOCK)
        run = self.runs[i][:, lo - self.starts[i] : hi + 1 - self.starts[i]]
        return run[0], run[1]

    def _join(self, a: int, b: int) -> int:
        """Index of one run holding the counts ``a..b-1`` and every run they
        touch, made by computing the blocks of ``a..b-1`` that no run holds."""
        starts, runs = self.starts, self.runs
        i = bisect_right(starts, a) - 1
        if i < 0 or starts[i] + runs[i].shape[1] < a:
            i += 1
        j = bisect_right(starts, b)
        first = min(a, starts[i]) if i < j else a
        pieces, at = [], first
        for start, run in zip(starts[i:j], runs[i:j]):
            if at < start:
                pieces.append(_log_gamma_span(at, start))
            pieces.append(run)
            at = start + run.shape[1]
        if at < b:
            pieces.append(_log_gamma_span(at, b))
        starts[i:j] = [first]
        runs[i:j] = [pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)]
        return i


def _log_gamma_span(a: int, b: int) -> np.ndarray:
    """Rows ``m`` and ``gammaln(m + 1)`` for ``m = a..b-1``."""
    ms = np.arange(a, b, dtype=float)
    return np.array([ms, gammaln(ms + 1.0)])


def _skellam_pmf_many(
    ws: np.ndarray, lam1: float, lam2: float, rows: _LogGammaRows | None = None
) -> np.ndarray:
    """Skellam pmf at every integer in ``ws`` (vectorized convolution).

    Each row sums P(X = w + m) P(Y = m) over one shared Y window ``lo..hi``.
    Y's log pmf is evaluated over that window and X's once over
    ``min(ws) + lo .. max(ws) + hi``, each with ``gammaln`` read from
    ``rows`` (a fresh one if none is given); each row is built, shifted to
    its peak, exponentiated and summed in one buffer.
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
    _check_scale(lam1, lam2)
    if rows is None:
        rows = _LogGammaRows()

    wmin, wmax = int(ws.min()), int(ws.max())
    lo, hi = _pmf_window(float(wmin), lam1, lam2)
    lo2, hi2 = _pmf_window(float(wmax), lam1, lam2)
    lo, hi = min(lo, lo2), max(hi, hi2)
    width = hi - lo + 1
    xs, lgam_x = rows(wmin + lo, wmax + hi)
    ys, lgam_y = rows(lo, hi)
    logx = _pois_logpmf(xs, lam1, lgam_x)
    logy = _pois_logpmf(ys, lam2, lgam_y)
    # Row i holds log P(X = w_i + m_j) + log P(Y = m_j): a slice of logx plus logy.
    peaks = np.empty(len(ws))
    sums = np.empty(len(ws))
    row = np.empty(width)
    for i, k in enumerate((ws - wmin).tolist()):
        np.add(logx[k : k + width], logy, out=row)
        peak = row.max()
        if not math.isfinite(peak):
            peak = 0.0
        row -= peak
        np.exp(row, out=row)
        peaks[i], sums[i] = peak, row.sum()
    return np.clip(np.exp(peaks) * sums, 0.0, 1.0)


def skellam_pmf(w: int, lam1: float, lam2: float, rows: _LogGammaRows | None = None) -> float:
    """P(X - Y = w) for independent X ~ Poisson(lam1), Y ~ Poisson(lam2).

    Args:
        w: Integer difference at which to evaluate the pmf.
        lam1: Rate of the first count.
        lam2: Rate of the second count.
        rows: The caller's log-gamma rows, shared across its calls; a fresh
            one if omitted.

    Returns:
        Probability in [0, 1].  Zero rates are handled exactly.
    """
    lam1 = _check_rate(lam1, "lam1")
    lam2 = _check_rate(lam2, "lam2")
    return float(_skellam_pmf_many(np.array([_integral(w, "w")]), lam1, lam2, rows)[0])


def prob_strictly_greater(lam_a: float, lam_b: float) -> float:
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
    _check_scale(lam_a, lam_b)
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
    lam_c: float, lam_opp: float, rows: _LogGammaRows | None = None
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
    vals = _skellam_pmf_many(np.array([0, -1]), lam_c, lam_opp, rows)
    return float(vals[0]), float(vals[1])
