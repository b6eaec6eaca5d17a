"""Kernel tests against independent convolution and double-sum oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irvpivot.skellam
from irvpivot import Tolerance, prob_strictly_greater, skellam_pmf, tie_terms
from irvpivot.skellam import _skellam_pmf_many

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


@settings(max_examples=200, deadline=None)
@given(lam1=RATES, lam2=RATES, equal=st.booleans(), ws=W_SETS)
@example(lam1=5.0, lam2=7.0, equal=False, ws=[0, -1])
@example(lam1=100.0, lam2=600.0, equal=False, ws=[0, -1])
@example(lam1=1e4, lam2=1.05e4, equal=False, ws=[0, -1])
def test_pmf_rows_match_per_row_reference(lam1, lam2, equal, ws):
    # The shared log-gamma grid does the per-row formula's arithmetic on the
    # same doubles, so every value keeps its bits.
    if equal:
        lam2 = lam1
    got = _skellam_pmf_many(np.array(ws), lam1, lam2)
    assert got.tobytes() == reference.skellam_pmf_many(ws, lam1, lam2).tobytes()


@pytest.mark.parametrize("lam1, lam2", [(5.0, 7.0), (100.0, 600.0), (1e4, 1.05e4), (0.3, 2e5)])
def test_one_log_gamma_grid_per_call(monkeypatch, lam1, lam2):
    # Evaluating each variable's log pmf on its own would take two gammaln
    # calls over three windows' worth of counts.
    sizes = []
    real = irvpivot.skellam.gammaln
    monkeypatch.setattr(irvpivot.skellam, "gammaln", lambda x: sizes.append(np.size(x)) or real(x))
    cases = [([0, -1], lambda: tie_terms(lam1, lam2))]
    cases += [([w], lambda w=w: skellam_pmf(w, lam1, lam2)) for w in (-1, 0, 1)]
    for ws, call in cases:
        sizes.clear()
        call()
        bounds = [reference.pmf_window(float(w), lam1, lam2) for w in ws]
        width = max(hi for _, hi in bounds) - min(lo for lo, _ in bounds) + 1
        assert len(sizes) == 1
        assert sizes[0] <= width + max(ws) - min(ws) + 1
