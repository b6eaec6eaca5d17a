"""Plurality baseline: exact tie-level conditioning and its approximation."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irvpivot import (
    BallotProfile,
    ExperimentConfig,
    admissible_rankings,
    first_choice_rates,
    gen_powerlaw_profile,
    gen_uniform_profile,
    run_experiment,
    skellam_pmf,
    smdp_pivot_prob,
    smdp_reports,
    total_pivot_prob,
)
from irvpivot import smdp

from conftest import dirichlet_profile
import reference


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


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_exact_path_matches_per_window_reference(data, seed):
    # Truncated Dirichlet profiles, down to totals small enough that every
    # window starts at count 0 and the shared grid at count -1.
    kappa = data.draw(st.integers(2, 5), label="kappa")
    max_length = data.draw(st.integers(1, kappa), label="max_length")
    total = data.draw(
        st.one_of(st.sampled_from([0.0, 0.5, 5.0, 60.0, 1000.0]), st.floats(0.0, 5000.0)),
        label="total",
    )
    rankings = admissible_rankings(kappa, max_length)
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(rankings)))
    prof = BallotProfile(kappa, dict(zip(rankings, total * weights)), max_length)
    for c in range(kappa):
        assert smdp_pivot_prob(prof, c) == reference.smdp_pivot_prob(prof, c)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 0.3, 4.0, 100.0, 600.0]), st.floats(0.0, 2000.0)),
        min_size=2,
        max_size=5,
    )
)
@example([0.0, 0.0, 3.0, 3.0])
@example([600.0, 100.0, 100.0, 100.0, 100.0])
@example([0.0, 0.0, 0.0])
# Six and seven candidates (the engine's cap is seven): a front-runner, and
# a zero beside two equal rates.
@example([900.0, 150.0, 120.0, 90.0, 60.0, 30.0])
@example([0.0, 4.0, 4.0, 100.0, 250.0, 37.5])
@example([1500.0, 200.0, 180.0, 150.0, 120.0, 90.0, 60.0])
@example([37.5, 0.0, 250.0, 600.0, 250.0, 1.0, 100.0])
def test_zero_and_equal_rates_match_per_window_reference(lams):
    prof = rates_profile(lams)
    for c in range(len(lams)):
        assert smdp_pivot_prob(prof, c) == reference.smdp_pivot_prob(prof, c)


def twin_profiles(lams):
    """Two full-length profiles with first-choice rates ``lams`` whose later
    positions differ."""
    kappa = len(lams)
    pair = []
    for order in (sorted, lambda rest: sorted(rest, reverse=True)):
        rates = {(c, *order(j for j in range(kappa) if j != c)): lam for c, lam in enumerate(lams)}
        pair.append(BallotProfile(kappa, rates))
    return pair


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    lams=st.lists(
        st.one_of(st.sampled_from([0.0, 4.0, 100.0]), st.floats(0.0, 2000.0)),
        min_size=3,
        max_size=5,
    ),
)
def test_scores_do_not_depend_on_earlier_calls(data, seed, lams):
    # The exact path keeps the last rate vector's scores; every call must
    # still give what a fresh per-window evaluation gives, whatever came
    # before it.
    twins = twin_profiles(lams)
    assert first_choice_rates(twins[0]) == first_choice_rates(twins[1])
    mutable = dirichlet_profile(4, 300.0, seed=seed)
    profiles = [dirichlet_profile(k, 60.0 * k, seed=seed + k) for k in (3, 5)]
    profiles += twins + [mutable, rates_profile(lams)]
    rankings = sorted(mutable.rates)

    def check(prof, c):
        assert smdp_pivot_prob(prof, c) == reference.smdp_pivot_prob(prof, c)

    # Memo hits across profiles that share first choices, and a profile
    # whose rates change between two calls.
    for prof in twins:
        for c in range(prof.kappa):
            check(prof, c)
    check(mutable, 0)
    mutable.rates[rankings[0]] += 50.0
    check(mutable, 1)

    steps = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(profiles) - 1),
                st.integers(0, 4),
                st.one_of(st.none(), st.floats(0.0, 500.0)),
            ),
            min_size=1,
            max_size=30,
        ),
        label="steps",
    )
    for i, c, new_rate in steps:
        if new_rate is not None:
            mutable.rates[rankings[c % len(rankings)]] = new_rate
        prof = profiles[i]
        check(prof, c % prof.kappa)


@pytest.mark.parametrize("rate", [1e17, 1e18, 1e20, 1e308])
def test_tie_level_grid_too_long_for_an_array_names_the_rate(rate):
    # numpy refuses these grids at allocation, without touching memory.
    # Rates from about 1e8 to 1e16 are left unprobed: numpy may really
    # allocate their grids, gigabytes or more.
    profile = BallotProfile(3, {(0,): rate, (1,): 1.0, (2,): 1.0})
    with pytest.raises(ValueError, match=re.escape(f"rate {rate!r} is too large")):
        smdp_pivot_prob(profile, 1)


def test_cdf_rows_shared_across_passes_keep_the_reference_bits():
    # Later passes read rows that earlier ones filled: relabelings of one
    # front-runner profile (rates 125, 125, 125, 625), a uniform profile,
    # and Dirichlet first choices beside a bystander at 125 whose span
    # differs from the front-runner profile's.
    powerlaw = gen_powerlaw_profile(4, 1000.0, seed=0)
    assert sorted(first_choice_rates(powerlaw)) == [125.0, 125.0, 125.0, 625.0]
    perms = [(0, 1, 2, 3), (3, 0, 1, 2), (2, 3, 0, 1), (1, 2, 3, 0)]
    relabelings = [powerlaw.relabeled(perm) for perm in perms]
    dirichlet = first_choice_rates(dirichlet_profile(4, 1000.0, seed=3))
    shares_125 = rates_profile([125.0, *dirichlet[1:]])
    smdp._cdf_row.cache_clear()
    smdp._tie_level_probs.cache_clear()
    for prof in relabelings + [gen_uniform_profile(5, 1000.0), shares_125] + relabelings:
        for c in range(prof.kappa):
            assert smdp_pivot_prob(prof, c) == reference.smdp_pivot_prob(prof, c)
    info = smdp._cdf_row.cache_info()
    # Two rows for the front-runner profiles, one for the uniform one, and
    # four for the Dirichlet rates, 125 at its own span among them; every
    # other read is a hit.
    assert (info.misses, info.hits) == (7, 14)


def test_cached_cdf_rows_are_read_only():
    row = smdp._cdf_row(125.0, 0, 300)
    assert row is smdp._cdf_row(125.0, 0, 300)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_figure1_batch_computes_each_cdf_row_once(monkeypatch):
    # Every front-runner profile of one kappa has the same first-choice
    # rates and spans, so the batch's rows are computed once each: one row
    # per bystander rate, two for each kappa (computed afresh per contest,
    # they took two ``gammaincc`` calls a contest, 120 here).
    calls = []
    gammaincc = smdp.gammaincc

    def counting(*args):
        calls.append(args)
        return gammaincc(*args)

    monkeypatch.setattr(smdp, "gammaincc", counting)
    smdp._cdf_row.cache_clear()
    smdp._tie_level_probs.cache_clear()
    run_experiment(ExperimentConfig(kappas=(3, 4, 5), runs=20, distribution="powerlaw"))
    assert len(calls) <= 6
