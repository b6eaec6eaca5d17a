"""Monte-Carlo oracle: determinism, coupling, and convergence checks."""

import math
import warnings

import numpy as np
import pytest

from irvpivot import (
    BallotProfile,
    RealizedElection,
    OracleConfig,
    OracleEstimate,
    mc_expected_utility,
    mc_pivot_estimate,
    mc_pivot_estimates,
    admissible_rankings,
    gen_uniform_profile,
    tabulate,
    total_pivot_prob,
)
from irvpivot.elections import _recipients
from irvpivot.oracle import _tabulate_block

from conftest import dirichlet_profile


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(draws=0)
    cfg = OracleConfig(draws=10, seed=5)
    assert cfg.coin_seed == 5
    assert OracleConfig(draws=10, seed=5, tie_coin_seed=9).coin_seed == 9


def test_bitwise_determinism():
    prof = dirichlet_profile(3, 40.0, seed=3)
    cfg = OracleConfig(draws=200_000, seed=99)
    a = mc_pivot_estimate(prof, [0, 1], cfg)
    b = mc_pivot_estimate(prof, [0, 1], cfg)
    assert a == b
    # a different tie-coin stream is a different experiment
    c = mc_pivot_estimate(prof, [0, 1], OracleConfig(draws=200_000, seed=99, tie_coin_seed=1))
    assert c != a


def test_estimate_fields_consistent():
    prof = dirichlet_profile(3, 40.0, seed=3)
    est = mc_pivot_estimate(prof, [1], OracleConfig(draws=100_000, seed=2))
    assert isinstance(est, OracleEstimate)
    assert est.p_total_hat == est.p_direct_hat + est.p_indirect_hat
    assert est.draws_used == 100_000
    expected_se = math.sqrt(est.p_total_hat * (1 - est.p_total_hat) / 100_000)
    assert est.stderr_total == pytest.approx(expected_se)


def test_multi_ballot_matches_single_ballot():
    prof = dirichlet_profile(3, 30.0, seed=5)
    cfg = OracleConfig(draws=50_000, seed=4)
    ballots = [(0,), (1, 2), (2, 1, 0)]
    merged = mc_pivot_estimates(prof, ballots, cfg)
    singles = [mc_pivot_estimate(prof, b, cfg) for b in ballots]
    assert merged == singles


def test_landslide_is_never_pivotal():
    prof = BallotProfile(3, {(0,): 1000.0, (1,): 1.0, (2,): 1.0}, max_length=1)
    est = mc_pivot_estimate(prof, [1], OracleConfig(draws=100_000, seed=7))
    assert est.p_total_hat == 0.0


def test_two_candidate_convergence_to_analytic():
    prof = BallotProfile(2, {(0,): 5.0, (1,): 5.0}, max_length=1)
    analytic = total_pivot_prob(prof, [0]).p_total
    est = mc_pivot_estimate(prof, [0], OracleConfig(draws=10**6, seed=12))
    assert est.p_indirect_hat == 0.0
    assert abs(est.p_total_hat - analytic) <= 4 * est.stderr_total


def test_small_electorate_has_indirect_pivots():
    # total expected electorate of 30, evenly split three ways
    prof = BallotProfile(
        3,
        {(0, 2): 6.0, (1,): 5.0, (2, 1): 5.0, (0,): 4.0, (1, 0): 5.0, (2,): 5.0},
        max_length=2,
    )
    est = mc_pivot_estimate(prof, [0], OracleConfig(draws=10**6, seed=21))
    assert est.p_indirect_hat > 0.0


def test_expected_utility_constant_and_indicator():
    prof = dirichlet_profile(3, 30.0, seed=6)
    cfg = OracleConfig(draws=100_000, seed=8)
    assert mc_expected_utility(prof, [0, 1], [1.0, 1.0, 1.0], cfg) == 0.0
    prof2 = BallotProfile(2, {(0,): 6.0, (1,): 6.0}, max_length=1)
    cfg2 = OracleConfig(draws=200_000, seed=9)
    gain = mc_expected_utility(prof2, [0], [1.0, 0.0], cfg2)
    est = mc_pivot_estimate(prof2, [0], cfg2)
    assert gain == pytest.approx(est.p_total_hat, abs=1e-12)


# Direct and indirect pivot counts (and utilities) recorded from the
# original per-ranking tabulation; any rewrite of the oracle must replay the
# same RNG streams and reproduce them exactly.
PINNED = [
    (
        BallotProfile(2, {(0,): 7.0, (1,): 6.0}, max_length=1),
        [(0,), (1,)],
        OracleConfig(draws=70_000, seed=3),
        [(7217, 0), (7760, 0)],
    ),
    (
        # max_length < kappa: some ballots exhaust before the final round
        BallotProfile(
            3,
            {(0, 2): 6.0, (1,): 5.0, (2, 1): 5.0, (0,): 4.0, (1, 0): 5.0, (2,): 5.0},
            max_length=2,
        ),
        [(0, 2), (1, 2), (2,), (1,)],
        OracleConfig(draws=70_000, seed=21),
        [(5865, 2270), (6048, 2020), (4947, 2051), (4854, 2020)],
    ),
    (
        BallotProfile(
            4,
            {
                (0, 1, 2, 3): 4.0,
                (1, 0, 3, 2): 3.5,
                (2, 3, 1, 0): 3.0,
                (3, 2, 0, 1): 3.2,
                (0, 2): 2.5,
                (1,): 2.0,
                (3, 1, 2): 2.8,
            },
        ),
        [(0, 1, 2, 3), (2, 0, 3, 1), (3,), (1,)],
        OracleConfig(draws=70_000, seed=8, tie_coin_seed=5),
        [(9125, 767), (10700, 1685), (7334, 1399), (7575, 446)],
    ),
]


@pytest.mark.parametrize("prof, ballots, cfg, counts", PINNED)
def test_pinned_pivot_counts(prof, ballots, cfg, counts):
    got = mc_pivot_estimates(prof, ballots, cfg)
    assert [(e.p_direct_hat, e.p_indirect_hat) for e in got] == [
        (d / cfg.draws, i / cfg.draws) for d, i in counts
    ]


def test_pinned_expected_utility():
    prof, _, cfg, _ = PINNED[1]
    assert mc_expected_utility(prof, (1, 2), [1.0, 0.5, -0.25], cfg) == -0.06881428571428572
    prof, _, cfg, _ = PINNED[2]
    utilities = {0: 0.0, 1: 1.0, 2: 3.0, 3: -2.0}
    assert mc_expected_utility(prof, (2, 0, 3, 1), utilities, cfg) == 0.2123857142857143


@pytest.mark.parametrize("ballot", [(-1,), (0, 0), (7,)])
def test_bad_ballots_rejected(ballot):
    prof = dirichlet_profile(3, 30.0, seed=6)
    cfg = OracleConfig(draws=10)
    with pytest.raises(ValueError):
        mc_pivot_estimate(prof, ballot, cfg)
    with pytest.raises(ValueError):
        mc_pivot_estimates(prof, [(0,), ballot], cfg)
    with pytest.raises(ValueError):
        mc_expected_utility(prof, ballot, [1.0, 0.0, 0.0], cfg)


@pytest.mark.parametrize(
    "utilities", [{0: 1.0, 1: 0.0}, [math.nan, 0.0, 0.0], [1e308, -1e308, 0.0]]
)
def test_expected_utility_rejects_bad_utilities(utilities):
    prof = dirichlet_profile(3, 30.0, seed=6)
    with pytest.raises(ValueError):
        mc_expected_utility(prof, (0,), utilities, OracleConfig(draws=10))


def test_expected_utility_near_the_float_limit():
    # A float sum of these swings overflows to inf; the analytic value is
    # 6.76e306.
    prof = gen_uniform_profile(3, 6.0)
    cfg = OracleConfig(draws=2000, seed=1)
    u = (1e308, -7e307, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = mc_expected_utility(prof, (0,), u, cfg)
        small = mc_expected_utility(prof, (0,), [v * 2.0**-1000 for v in u], cfg)
    assert math.isfinite(big) and big > 0.0
    # The sum is exact and rounded once, so a power-of-two scale commutes.
    assert big == small * 2.0**1000


@pytest.mark.parametrize("kappa", [2, 3, 4, 5])
def test_block_tabulation_matches_scalar_tabulate(kappa):
    """Per draw, the vectorized count agrees with ``elections.tabulate`` run
    with candidates ordered by descending tie strength, with and without
    one added ballot; ``direct`` marks the added ballot's final-round
    choice winning."""
    rng = np.random.default_rng(kappa)
    for max_length in range(1, kappa + 1):
        pool = admissible_rankings(kappa, max_length)
        picks = rng.choice(len(pool), size=min(len(pool), 6), replace=False)
        rankings = sorted(pool[int(j)] for j in picks)
        ballot = pool[int(rng.integers(len(pool)))]
        counts = rng.integers(0, 4, size=(60, len(rankings)))
        counts[:, 0] += 1  # no empty electorates
        strength = rng.random((60, kappa))
        recip = _recipients(rankings, kappa)
        extra = _recipients([ballot], kappa)[:, 0]
        w0, _, _ = _tabulate_block(counts, recip, strength)
        w1, final, _ = _tabulate_block(counts, recip, strength, extra)
        for i in range(len(counts)):
            order = [int(c) for c in np.argsort(-strength[i])]
            realized = dict(zip(rankings, counts[i].tolist()))
            assert w0[i] == tabulate(RealizedElection(kappa, realized), tie_break=order)[0]
            realized[ballot] = realized.get(ballot, 0) + 1
            win, drops = tabulate(RealizedElection(kappa, realized), tie_break=order)
            assert w1[i] == win
            survivor = next((c for c in ballot if c not in drops[: kappa - 2]), None)
            assert (extra[final[i]] == w1[i]) == (survivor == win)
