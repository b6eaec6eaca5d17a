"""Plurality baseline: exact tie-level conditioning and its approximation."""

import hashlib
import math

import numpy as np
import pytest

from irvpivot import (
    BallotProfile,
    first_choice_rates,
    gen_powerlaw_profile,
    gen_uniform_profile,
    skellam_pmf,
    smdp_pivot_prob,
    smdp_reports,
    total_pivot_prob,
)

from conftest import dirichlet_profile


def rates_profile(lams):
    return BallotProfile(len(lams), {(c,): lam for c, lam in enumerate(lams)}, max_length=1)


def test_first_choice_rates_ignore_later_positions():
    prof = BallotProfile(3, {(0, 1): 4.0, (0, 2): 1.0, (1, 0, 2): 2.0, (2,): 7.0})
    assert first_choice_rates(prof) == [5.0, 2.0, 7.0]


def test_two_candidate_closed_form():
    lam_a, lam_b = 6.0, 8.0
    prof = rates_profile((lam_a, lam_b))
    expect = 0.5 * (skellam_pmf(0, lam_a, lam_b) + skellam_pmf(-1, lam_a, lam_b))
    assert smdp_pivot_prob(prof, 0) == pytest.approx(expect, abs=1e-14)


def test_two_candidate_equals_irv_exactly():
    prof = rates_profile((9.5, 10.5))
    assert smdp_pivot_prob(prof, 0) == total_pivot_prob(prof, [0]).p_total
    assert smdp_pivot_prob(prof, 1) == total_pivot_prob(prof, [1]).p_total


def test_symmetric_three_candidates():
    prof = rates_profile((10.0, 10.0, 10.0))
    vals = [smdp_pivot_prob(prof, c) for c in range(3)]
    assert vals[0] == pytest.approx(vals[1], abs=1e-14)
    assert vals[1] == pytest.approx(vals[2], abs=1e-14)


def test_exact_value_against_unique_max_oracle():
    # Monte-Carlo reference (10^7 draws, seed 101) for rates (10, 10, 10):
    # candidate 0 ties or is one behind the unique max of the others with
    # frequency 0.1621024.  The pivot probability is half of that, the
    # fair-coin factor.
    prof = rates_profile((10.0, 10.0, 10.0))
    frozen_freq = 0.1621024
    stderr = math.sqrt(frozen_freq * (1 - frozen_freq) / 10**7)
    assert smdp_pivot_prob(prof, 0) == pytest.approx(frozen_freq / 2, abs=4 * stderr / 2)


def test_exact_value_against_fresh_unique_max_oracle():
    lams = (8.0, 12.0, 9.0)
    prof = rates_profile(lams)
    rng = np.random.default_rng(17)
    draws = 2 * 10**6
    x = rng.poisson(lams, size=(draws, 3))
    for c in range(3):
        others = np.delete(x, c, axis=1)
        top = others.max(axis=1)
        unique = (others == top[:, None]).sum(axis=1) == 1
        hits = unique & ((x[:, c] == top) | (x[:, c] == top - 1))
        freq = hits.mean()
        stderr = math.sqrt(freq * (1 - freq) / draws)
        assert smdp_pivot_prob(prof, c) == pytest.approx(freq / 2, abs=4 * stderr / 2)


def test_pairwise_variant_close_but_distinct():
    prof = rates_profile((10.0, 11.0, 9.0))
    for c in range(3):
        exact = smdp_pivot_prob(prof, c)
        approx = smdp_pivot_prob(prof, c, pairwise_approx=True)
        assert approx != exact
        assert approx == pytest.approx(exact, rel=0.25)


def test_moving_away_from_leader_decreases_pivotality():
    # Hold opponents at (12, 9); candidate 0's pivotality peaks near the
    # leader and falls off with distance.
    grid = [2.0, 5.0, 8.0, 12.0]
    vals = [
        smdp_pivot_prob(rates_profile((lam, 12.0, 9.0)), 0) for lam in grid
    ]
    assert vals == sorted(vals)
    far = smdp_pivot_prob(rates_profile((40.0, 12.0, 9.0)), 0)
    assert far < vals[-1]


def test_total_bounded_by_pairwise_tie_mass():
    prof = dirichlet_profile(3, 50.0, seed=3)
    lams = first_choice_rates(prof)
    max_tie = max(
        skellam_pmf(0, lams[a], lams[b]) + skellam_pmf(-1, lams[a], lams[b])
        for a in range(3)
        for b in range(3)
        if a != b
    )
    total = math.fsum(smdp_pivot_prob(prof, c) for c in range(3))
    assert total <= 3 * max_tie


def test_reports_shape():
    prof = rates_profile((5.0, 6.0))
    reports = smdp_reports(prof)
    assert [r.candidate for r in reports] == [0, 1]
    payload = reports[0].to_dict()
    assert payload["p_indirect"] == 0.0
    assert payload["p_total"] == payload["p_direct"] == reports[0].p_pivotal


def test_rejects_bad_candidate():
    prof = rates_profile((5.0, 6.0))
    with pytest.raises(ValueError):
        smdp_pivot_prob(prof, 2)


def test_reports_pinned_bits():
    # Recorded from the loop that scored one candidate at a time, with the
    # closed-form kernel (chndtr for every P(X > Y) of at least 1e-10) that
    # the head-to-head variant calls.  The two power-law profiles are
    # relabelings of each other whose totals differ in the last bit, so a
    # result shared across a relabeling shows here.
    pair = [gen_powerlaw_profile(4, 60.0, seed) for seed in (0, 1)]
    totals = [math.fsum(r.p_pivotal for r in smdp_reports(p)) for p in pair]
    assert totals[0] != totals[1]
    profiles = [dirichlet_profile(k, 60.0, seed=k) for k in (2, 3, 4, 5)]
    profiles += [gen_uniform_profile(3, 1000.0), gen_uniform_profile(5, 1000.0)]
    profiles += [rates_profile((0.0, 4.0)), rates_profile((0.0, 5.0, 7.0))]
    profiles += [rates_profile((0.0, 0.0, 3.0, 3.0))]
    profiles += pair + [gen_powerlaw_profile(5, 1000.0, seed=2)]
    dump = repr(
        [smdp_reports(p, pairwise_approx=pw) for p in profiles for pw in (False, True)]
    )
    digest = hashlib.sha256(dump.encode()).hexdigest()
    assert digest == "518d3aa203edcc3f0b1b694fef7401cb2b2149827be513a835ef015984e6834a"
