"""Monte-Carlo oracle: determinism, coupling, and convergence checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from irvpivot.elections import _realized_totals, _recipients
from irvpivot.oracle import _eliminate

from conftest import dirichlet_profile
import reference


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


# Counts at draws one past a 16,384-draw chunk and one past one or two
# 65,536-draw blocks, recorded from the count that tabulated each block in
# one piece.
P3 = BallotProfile(
    3,
    {(0,): 5.0, (1, 2): 4.5, (2, 0): 4.0, (1,): 2.5, (2,): 1.5, (0, 1): 3.0},
    max_length=2,
)
P4 = BallotProfile(
    4,
    {
        (0, 1, 2): 3.0,
        (1, 3): 2.8,
        (2,): 3.1,
        (3, 0, 1): 2.6,
        (1, 0, 2): 2.2,
        (0,): 1.5,
        (2, 3, 0): 1.9,
    },
    max_length=3,
)
B3 = [(0,), (1, 2), (2, 0), (0, 1)]
B4 = [(3,), (0, 1, 2), (2, 3), (1, 0, 3)]
EDGE_PINNED = [
    (P3, B3, 16_385, 13, None, [(1531, 215), (1393, 603), (1818, 561), (1672, 215)]),
    (P3, B3, 16_385, 40, 2, [(1503, 209), (1353, 577), (1882, 594), (1629, 209)]),
    (P3, B3, 65_537, 13, None, [(5936, 898), (5603, 2386), (7477, 2306), (6457, 898)]),
    (P3, B3, 65_537, 40, 2, [(5878, 924), (5501, 2379), (7461, 2275), (6384, 924)]),
    (P3, B3, 131_073, 13, None, [(11790, 1868), (11107, 4700), (14920, 4538), (12748, 1868)]),
    (P3, B3, 131_073, 40, 2, [(11630, 1832), (11001, 4721), (14727, 4488), (12658, 1832)]),
    (P4, B4, 16_385, 13, None, [(1023, 1242), (2562, 267), (1133, 597), (2156, 122)]),
    (P4, B4, 16_385, 40, 2, [(992, 1178), (2484, 294), (1132, 587), (2114, 136)]),
    (P4, B4, 65_537, 13, None, [(4094, 4898), (10190, 1169), (4540, 2349), (8501, 567)]),
    (P4, B4, 65_537, 40, 2, [(4040, 4772), (10317, 1202), (4533, 2385), (8442, 577)]),
    (P4, B4, 131_073, 13, None, [(8172, 9648), (20470, 2242), (8914, 4618), (16851, 1105)]),
    (P4, B4, 131_073, 40, 2, [(8050, 9638), (20781, 2298), (8944, 4796), (16936, 1097)]),
]


@pytest.mark.parametrize("prof, ballots, draws, seed, coin, counts", EDGE_PINNED)
def test_pinned_counts_at_chunk_and_block_edges(prof, ballots, draws, seed, coin, counts):
    cfg = OracleConfig(draws=draws, seed=seed, tie_coin_seed=coin)
    got = mc_pivot_estimates(prof, ballots, cfg)
    assert [(e.p_direct_hat, e.p_indirect_hat) for e in got] == [
        (d / draws, i / draws) for d, i in counts
    ]


@st.composite
def oracle_cases(draw):
    """Small electorates (rates 0.5-4 over a few rankings), so one-vote
    margins, ties and exhausted ballots are common."""
    kappa = draw(st.integers(2, 5))
    max_length = draw(st.integers(1, kappa))
    pool = admissible_rankings(kappa, max_length)
    rankings = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    rates = [draw(st.floats(0.5, 4.0)) for _ in rankings]
    prof = BallotProfile(kappa, dict(zip(rankings, rates)), max_length=max_length)
    ballots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    cfg = OracleConfig(draws=draw(st.integers(1, 300)), seed=draw(st.integers(0, 2**32)))
    utilities = [draw(st.floats(-10.0, 10.0)) for _ in range(kappa)]
    return prof, ballots, cfg, utilities


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
@example((P3, [(1, 2), (0,)], OracleConfig(draws=16_390, seed=3), [1.0, -0.5, 0.25]))
def test_matches_brute_force_reference(case):
    """Counts and expected utility equal a per-draw ``tabulate`` of the same
    draws, with and without the ballot; the example spans two chunks."""
    prof, ballots, cfg, utilities = case
    outcomes = reference.oracle_outcomes(prof, ballots, cfg)
    got = mc_pivot_estimates(prof, ballots, cfg)
    for est, per_draw in zip(got, outcomes):
        d, i = reference.oracle_pivot_counts(per_draw)
        assert (est.p_direct_hat, est.p_indirect_hat) == (d / cfg.draws, i / cfg.draws)
    assert mc_expected_utility(prof, ballots[0], utilities, cfg) == (
        reference.oracle_expected_utility(outcomes[0], utilities)
    )


def test_memory_does_not_grow_with_draws():
    """The traced allocation peak of one call is set by the chunk size, not
    by the number of draws (the count that held 65,536-draw blocks whole
    peaked at 15.8 MB on this input)."""
    prof = dirichlet_profile(3, 60.0, seed=1)
    ballots = [(0,), (1,), (2,), (0, 1, 2), (1, 2, 0), (2, 1, 0)]
    peaks = []
    for draws in (1 << 17, 1 << 19):
        tracemalloc.start()
        try:
            mc_pivot_estimates(prof, ballots, OracleConfig(draws=draws, seed=5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] * 1.05
    assert peaks[0] < 8e6


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


def _cast(counts, rankings, ballots, kappa):
    """Counts and recipient table of ``rankings`` followed by ``ballots``,
    each added ballot one more ranking, cast once in every draw."""
    ones = np.ones((len(counts), len(ballots)), counts.dtype)
    return np.column_stack((counts, ones)), _recipients([*rankings, *ballots], kappa)


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
        _, w0 = _eliminate(counts, recip, strength, (1 << kappa) - 1)
        cast, with_ballot = _cast(counts, rankings, [ballot], kappa)
        rounds, w1 = _eliminate(cast, with_ballot, strength, (1 << kappa) - 1)
        final = rounds[-1][0]
        for i in range(len(counts)):
            order = [int(c) for c in np.argsort(-strength[i])]
            realized = dict(zip(rankings, counts[i].tolist()))
            assert w0[i] == tabulate(RealizedElection(kappa, realized), tie_break=order)[0]
            realized[ballot] = realized.get(ballot, 0) + 1
            win, drops = tabulate(RealizedElection(kappa, realized), tie_break=order)
            assert w1[i] == win
            survivor = next((c for c in ballot if c not in drops[: kappa - 2]), None)
            assert (extra[final[i]] == w1[i]) == (survivor == win)


@pytest.mark.parametrize("kappa", [3, 4, 5])
def test_count_from_a_later_round(kappa):
    """Counted from the active sets left after ``r`` of ``tabulate``'s drops
    (a different set per draw), with or without one added ballot, the
    vectorized count drops the rest in ``tabulate``'s order; each round's
    ``instead`` is the candidate that drops once the loser has one more
    vote."""
    rng = np.random.default_rng(10 + kappa)
    for max_length in range(1, kappa + 1):
        pool = admissible_rankings(kappa, max_length)
        picks = rng.choice(len(pool), size=min(len(pool), 6), replace=False)
        rankings = sorted(pool[int(j)] for j in picks)
        ballot = pool[int(rng.integers(len(pool)))]
        counts = rng.integers(0, 4, size=(40, len(rankings)))
        counts[:, 0] += 1
        strength = rng.random((40, kappa))
        for ballots in ([], [ballot]):
            cast, recip = _cast(counts, rankings, ballots, kappa)
            realized = [dict(zip(rankings, c)) for c in counts.tolist()]
            for votes in realized:
                for b in ballots:
                    votes[b] = votes.get(b, 0) + 1
            orders = [[int(c) for c in np.argsort(-s)] for s in strength]
            wins, drops = zip(*(
                tabulate(RealizedElection(kappa, votes), tie_break=order)
                for votes, order in zip(realized, orders)
            ))
            for r in range(1, kappa - 1):
                start = np.array([(1 << kappa) - 1 - sum(1 << c for c in d[:r]) for d in drops])
                rounds, w = _eliminate(cast, recip, strength, start)
                assert w.tolist() == list(wins)
                assert (rounds[0][0] == start).all()
                assert np.array([lost for _, lost, _ in rounds]).T.tolist() == [
                    list(d[r:]) for d in drops
                ]
                for active, lost, instead in rounds:
                    for i in range(len(counts)):
                        alive = {c for c in range(kappa) if active[i] >> c & 1}
                        totals = _realized_totals(realized[i], alive)
                        totals[int(lost[i])] += 1
                        rank = {c: k for k, c in enumerate(orders[i])}
                        assert instead[i] == max(alive, key=lambda c: (-totals[c], rank[c]))


@pytest.mark.parametrize("kappa", [3, 4, 5])
def test_one_mask_for_all_draws_equals_one_per_draw(kappa):
    """An int active set counts as that set repeated per draw: the same
    rounds and winners, from the full field and from one candidate out,
    with and without one added ballot."""
    rng = np.random.default_rng(20 + kappa)
    pool = admissible_rankings(kappa, kappa)
    rankings = sorted(pool[int(j)] for j in rng.choice(len(pool), size=12, replace=False))
    counts = rng.integers(0, 5, size=(50, len(rankings)))
    strength = rng.random((50, kappa))
    for mask in ((1 << kappa) - 1, (1 << kappa) - 2):
        for ballots in ([], [rankings[-1]]):
            cast, recip = _cast(counts, rankings, ballots, kappa)
            one = _eliminate(cast, recip, strength, mask)
            each = _eliminate(cast, recip, strength, np.full(len(counts), mask))
            assert len(one[0]) == len(each[0]) == mask.bit_count() - 1
            for got, want in zip(one[0], each[0]):
                for a, b in zip(got, want):
                    assert a.tolist() == b.tolist()
            assert one[1].tolist() == each[1].tolist()
