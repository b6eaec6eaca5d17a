"""Kernel tests against independent convolution and double-sum oracles."""

import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irvpivot.skellam
from irvpivot import Tolerance, prob_strictly_greater, skellam_pmf, tie_terms
from irvpivot.skellam import _BLOCK, _LogGammaRows, _skellam_pmf_many

from conftest import conv_skellam_pmf, double_sum_gt
import reference

RATE_GRID = [0.0, 0.5, 1.0, 5.0, 50.0, 500.0]


def test_pmf_point_masses():
    assert skellam_pmf(0, 0.0, 0.0) == 1.0
    assert skellam_pmf(1, 0.0, 0.0) == 0.0
    assert skellam_pmf(-1, 0.0, 0.0) == 0.0
    assert skellam_pmf(1, 1.0, 0.0) == pytest.approx(math.exp(-1), abs=1e-15)
    assert skellam_pmf(-1, 1.0, 0.0) == 0.0
    assert skellam_pmf(-2, 0.0, 2.0) == pytest.approx(2.0 * math.exp(-2), abs=1e-15)


def test_pmf_matches_convolution_oracle():
    # Frozen spot value from the convolution oracle: pmf(0, 1, 1).
    assert skellam_pmf(0, 1.0, 1.0) == pytest.approx(0.3085083225536710, abs=1e-12)
    worst = 0.0
    for lam1 in RATE_GRID:
        for lam2 in RATE_GRID:
            for w in (-20, -5, -1, 0, 1, 3, 20):
                got = skellam_pmf(w, lam1, lam2)
                want = conv_skellam_pmf(w, lam1, lam2)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-10


def test_pmf_mirror_symmetry_exact():
    for lam1 in RATE_GRID:
        for lam2 in RATE_GRID:
            for w in range(-20, 21):
                assert skellam_pmf(w, lam1, lam2) == pytest.approx(
                    skellam_pmf(-w, lam2, lam1), abs=1e-14
                )


def test_prob_strictly_greater_degenerate():
    lam = 1.0
    assert prob_strictly_greater(lam, 0.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert prob_strictly_greater(0.0, lam) == 0.0
    assert prob_strictly_greater(0.0, 0.0) == 0.0


def test_prob_strictly_greater_symmetry():
    for lam in (0.5, 3.0, 40.0):
        expect = (1.0 - skellam_pmf(0, lam, lam)) / 2.0
        assert prob_strictly_greater(lam, lam) == pytest.approx(expect, abs=1e-12)


def test_prob_strictly_greater_matches_double_sum():
    # Frozen spot value from the double-sum oracle: P(X > Y) at rates (2, 1).
    assert prob_strictly_greater(2.0, 1.0) == pytest.approx(0.6057031411076678, abs=1e-11)
    for lam_a, lam_b in [(0.5, 0.5), (5.0, 3.0), (50.0, 60.0), (500.0, 480.0)]:
        assert prob_strictly_greater(lam_a, lam_b) == pytest.approx(
            double_sum_gt(lam_a, lam_b), abs=1e-11
        )


def test_deep_tail_keeps_series_bits():
    # Below 1e-10, P(X > Y) still comes from the windowed series, bit for
    # bit, because the benchmark's recorded figure1 values hold its deep-tail
    # error (ROADMAP item 2).  The 40-digit sums of tests/reference.py give
    # 6.3779554997237770e-75 at (1000/6, 4000/6), a pair that figure1's
    # kappa = 3 profiles produce, and 1.2051538686292023e-60 at (250, 750):
    # the series is 9.9% and 2.1e-4 relative below them.
    assert prob_strictly_greater(1000.0 / 6.0, 4000.0 / 6.0) == 5.747112968641975e-75
    assert prob_strictly_greater(250.0, 750.0) == 1.2049042641344919e-60


def test_trichotomy_on_grid():
    eps = Tolerance().tail_eps
    for lam_a in RATE_GRID:
        for lam_b in RATE_GRID:
            total = (
                prob_strictly_greater(lam_a, lam_b)
                + prob_strictly_greater(lam_b, lam_a)
                + skellam_pmf(0, lam_a, lam_b)
            )
            assert abs(total - 1.0) <= 4 * eps


def test_tie_terms_values():
    assert tie_terms(0.0, 0.0) == (1.0, 0.0)
    brk, mk = tie_terms(0.0, 1.0)
    assert brk == pytest.approx(math.exp(-1), abs=1e-15)
    assert mk == pytest.approx(math.exp(-1), abs=1e-15)
    brk, mk = tie_terms(3.0, 3.0)
    assert brk == pytest.approx(conv_skellam_pmf(0, 3.0, 3.0), abs=1e-12)
    assert mk == pytest.approx(conv_skellam_pmf(-1, 3.0, 3.0), abs=1e-12)


def test_partial_sums_converge_monotonically():
    for lam1, lam2 in [(1.0, 1.0), (5.0, 2.0), (50.0, 40.0)]:
        eps = Tolerance().tail_eps
        prev = 0.0
        width = int(lam1 + lam2 + 12 * math.sqrt(lam1 + lam2) + 40)
        for cap in range(0, width, max(1, width // 20)):
            cur = math.fsum(
                skellam_pmf(w, lam1, lam2) for w in range(-cap, cap + 1)
            )
            assert cur >= prev - 1e-15
            prev = cur
        assert prev >= 1.0 - 2 * eps


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        skellam_pmf(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        prob_strictly_greater(1.0, -2.0)
    with pytest.raises(ValueError):
        tie_terms(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Tolerance(tail_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(tail_eps=1.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, lam1, lam2", [
    (lambda a, b: prob_strictly_greater(a, b), 1e308, 1e308),
    (lambda a, b: prob_strictly_greater(a, b), 1e-10, 1e308),
    (lambda a, b: tie_terms(a, b), 1e200, 1e200),
    (lambda a, b: tie_terms(a, b), 1e308, 1e-10),
    (lambda a, b: skellam_pmf(0, a, b), 1e200, 1e200),
], ids=["psg", "psg-2lam", "tie_terms", "tie_terms-2lam", "pmf"])
def test_huge_rates_raise_a_message(call, lam1, lam2):
    # Rates from about 1e12 up to these are left unprobed: the windowed sums
    # would allocate ~1e11 doubles there.
    with pytest.raises(ValueError, match=re.escape(f"rates {lam1!r} and {lam2!r} are too large")):
        call(lam1, lam2)


@pytest.mark.filterwarnings("error")
def test_huge_rates_against_zero_stay_exact():
    assert prob_strictly_greater(1e308, 0.0) == 1.0
    assert prob_strictly_greater(0.0, 1e308) == 0.0
    assert tie_terms(1e308, 0.0) == (0.0, 0.0)
    assert skellam_pmf(0, 0.0, 1e308) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    lam1=st.floats(0.0, 1e6, allow_nan=False),
    lam2=st.floats(0.0, 1e6, allow_nan=False),
    w=st.integers(-30, 30),
)
def test_outputs_stay_in_unit_interval(lam1, lam2, w):
    assert 0.0 <= skellam_pmf(w, lam1, lam2) <= 1.0
    assert 0.0 <= prob_strictly_greater(lam1, lam2) <= 1.0
    brk, mk = tie_terms(lam1, lam2)
    assert 0.0 <= brk <= 1.0
    assert 0.0 <= mk <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    lam1=st.floats(0.0, 300.0, allow_nan=False),
    lam2=st.floats(0.0, 300.0, allow_nan=False),
)
def test_trichotomy_property(lam1, lam2):
    total = (
        prob_strictly_greater(lam1, lam2)
        + prob_strictly_greater(lam2, lam1)
        + skellam_pmf(0, lam1, lam2)
    )
    assert abs(total - 1.0) <= 4e-12


RATES = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False))
W_SETS = st.one_of(
    st.sampled_from([[0, -1], [-1], [1]]),
    st.integers(-60, 60).map(lambda w: [w]),
    st.lists(st.integers(-60, 60), min_size=2, max_size=5),
)


# One rows object shared by every draw: blocks computed for earlier draws
# must serve later ones with the same bits.
SHARED_ROWS = _LogGammaRows()


@settings(max_examples=200, deadline=None)
@given(lam1=RATES, lam2=RATES, equal=st.booleans(), ws=W_SETS)
@example(lam1=5.0, lam2=7.0, equal=False, ws=[0, -1])
@example(lam1=100.0, lam2=600.0, equal=False, ws=[0, -1])
@example(lam1=1e4, lam2=1.05e4, equal=False, ws=[0, -1])
@example(lam1=0.3, lam2=2e5, equal=False, ws=[0, -1])
@example(lam1=0.0, lam2=3.5, equal=False, ws=[0, -1])
@example(lam1=2.0, lam2=0.0, equal=False, ws=[1, -1])
@example(lam1=0.3, lam2=0.3, equal=False, ws=[0, -1])  # X's window reaches count -1
@example(lam1=1e3, lam2=1e3, equal=False, ws=[0, -1])  # counts 423..1577 span several blocks
def test_pmf_rows_match_per_row_reference(lam1, lam2, equal, ws):
    # Log-gamma rows read from blocks do the per-row formula's arithmetic on
    # the same doubles, so every value keeps its bits, from a fresh rows
    # object and from one shared across draws.
    if equal:
        lam2 = lam1
    want = reference.skellam_pmf_many(ws, lam1, lam2).tobytes()
    assert _skellam_pmf_many(np.array(ws), lam1, lam2).tobytes() == want
    assert _skellam_pmf_many(np.array(ws), lam1, lam2, SHARED_ROWS).tobytes() == want


def window_blocks(ws, lam1: float, lam2: float) -> set[int]:
    """Blocks covering the kernel's Y window for ``ws`` and X's, shifted by ``ws``."""
    bounds = [reference.pmf_window(float(w), lam1, lam2) for w in ws]
    lo, hi = min(b[0] for b in bounds), max(b[1] for b in bounds)
    spans = [(lo, hi), (min(ws) + lo, max(ws) + hi)]
    return {b for a, z in spans for b in range(a // _BLOCK, z // _BLOCK + 1)}


@pytest.fixture
def log_gamma_counts(monkeypatch):
    """Every count m whose gammaln(m + 1) the kernel evaluates, in order."""
    seen = []
    real = irvpivot.skellam.gammaln
    monkeypatch.setattr(
        irvpivot.skellam, "gammaln", lambda x: seen.extend((x - 1.0).tolist()) or real(x)
    )
    return seen


@pytest.mark.parametrize("lam1, lam2", [(5.0, 7.0), (100.0, 600.0), (1e4, 1.05e4), (0.3, 2e5)])
def test_one_log_gamma_grid_per_call(log_gamma_counts, lam1, lam2):
    # Calls sharing one rows object evaluate each count's gammaln at most
    # once, and only in the blocks that cover some call's X or Y window.
    rows = _LogGammaRows()
    cases = [([0, -1], lambda: tie_terms(lam1, lam2, rows))]
    cases += [([w], lambda w=w: skellam_pmf(w, lam1, lam2, rows)) for w in (-1, 0, 1)]
    covered = set()
    for ws, call in cases:
        call()
        covered |= window_blocks(ws, lam1, lam2)
    counts = Counter(log_gamma_counts)
    assert max(counts.values()) == 1
    assert {m // _BLOCK for m in counts} == covered
    assert len(counts) == len(covered) * _BLOCK


def test_far_apart_tie_windows_compute_no_counts_between(log_gamma_counts):
    # Tie terms at totals 10 and 1e7 on one rows object: the blocks of their
    # two windows, and none of the ten million counts between them.
    rows = _LogGammaRows()
    tie_terms(10.0, 10.0, rows)
    tie_terms(1e7, 1e7, rows)
    low, high = window_blocks([0, -1], 10.0, 10.0), window_blocks([0, -1], 1e7, 1e7)
    assert max(low) + 1 < min(high)
    assert {m // _BLOCK for m in log_gamma_counts} == low | high
    assert len(log_gamma_counts) == len(set(log_gamma_counts)) == len(low | high) * _BLOCK


def test_pmf_far_in_the_tail_reads_two_windows_not_the_span(log_gamma_counts):
    # At w = 1e10, X's window sits 1e10 counts above Y's.  A grid spanning
    # both would be an 80 GB array; the two windows of 1.2 million counts
    # each fit in a few tens of MB.
    w = 10**10
    tracemalloc.start()
    try:
        assert skellam_pmf(w, 5.0, 7.0) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6
    assert {m // _BLOCK for m in log_gamma_counts} == window_blocks([w], 5.0, 7.0)

