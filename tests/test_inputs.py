"""The input rules at the package's edges: a non-integral number where an
integer is due, or a voter count that is not finite and positive, fails
with a ``ValueError`` that names it."""

import pytest

from irvpivot import (
    BallotProfile,
    ExperimentConfig,
    OracleConfig,
    RealizedElection,
    admissible_rankings,
    drop_sequence_prob,
    enumerate_alternates,
    expected_total,
    gen_powerlaw_profile,
    gen_uniform_profile,
    mc_pivot_estimate,
    skellam_pmf,
    smdp_pivot_prob,
    tabulate,
    total_pivot_prob,
)
from irvpivot.pivotal import drop_lists

PROFILE = BallotProfile(3, {(0, 1, 2): 5.0, (1, 2): 4.0, (2,): 3.0})
ELECTION = RealizedElection(3, {(0, 1, 2): 5, (1, 2): 4, (2,): 3})
CFG = OracleConfig(draws=10)

ENTRY_POINTS = {
    # candidate ids
    "expected_total candidate": lambda x: expected_total(PROFILE, x),
    "expected_total dropped": lambda x: expected_total(PROFILE, 0, [x]),
    "smdp_pivot_prob candidate": lambda x: smdp_pivot_prob(PROFILE, x),
    "drop_lists candidate": lambda x: drop_lists(3, x),
    "BallotProfile ranking": lambda x: BallotProfile(3, {(x,): 1.0}),
    "total_pivot_prob ballot": lambda x: total_pivot_prob(PROFILE, (0, x)),
    "mc_pivot_estimate ballot": lambda x: mc_pivot_estimate(PROFILE, (x,), CFG),
    # full orders
    "drop_sequence_prob order": lambda x: drop_sequence_prob(PROFILE, (0, x, 2)),
    "relabeled perm": lambda x: PROFILE.relabeled((0, x, 2)),
    "tabulate tie_break": lambda x: tabulate(ELECTION, tie_break=(0, x, 2)),
    "enumerate_alternates base": lambda x: enumerate_alternates((0, x, 2), 1),
    "enumerate_alternates round": lambda x: enumerate_alternates((0, 1, 2), x),
    # kappa and ballot length
    "BallotProfile kappa": lambda x: BallotProfile(x, {(0,): 1.0}),
    "RealizedElection kappa": lambda x: RealizedElection(x, {(0,): 1}),
    "admissible_rankings kappa": lambda x: admissible_rankings(x),
    "admissible_rankings max_length": lambda x: admissible_rankings(3, x),
    "drop_lists kappa": lambda x: drop_lists(x, 0),
    "gen_uniform_profile kappa": lambda x: gen_uniform_profile(x, 10.0),
    "ExperimentConfig kappas": lambda x: ExperimentConfig(kappas=(3, x)),
    # counts, seeds, draws, runs
    "RealizedElection count": lambda x: RealizedElection(3, {(0,): x}),
    "OracleConfig draws": lambda x: OracleConfig(draws=x),
    "OracleConfig seed": lambda x: OracleConfig(draws=10, seed=x),
    "OracleConfig tie_coin_seed": lambda x: OracleConfig(draws=10, tie_coin_seed=x),
    "gen_powerlaw_profile seed": lambda x: gen_powerlaw_profile(3, 10.0, seed=x),
    "ExperimentConfig runs": lambda x: ExperimentConfig(runs=x),
    "ExperimentConfig base_seed": lambda x: ExperimentConfig(base_seed=x),
    # the pmf's difference
    "skellam_pmf w": lambda x: skellam_pmf(x, 2.0, 3.0),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integral_input_names_the_value(entry):
    with pytest.raises(ValueError, match=r"\b1\.5\b"):
        ENTRY_POINTS[entry](1.5)



VOTER_COUNTS = {
    "gen_uniform_profile": lambda n: gen_uniform_profile(3, n),
    "gen_powerlaw_profile": lambda n: gen_powerlaw_profile(3, n, seed=0),
    "ExperimentConfig": lambda n: ExperimentConfig(n_voters=n),
}


@pytest.mark.parametrize("entry", sorted(VOTER_COUNTS))
@pytest.mark.parametrize("n", [float("nan"), float("inf"), -float("inf"), 0.0, -5.0])
def test_voter_count_must_be_finite_and_positive(entry, n):
    with pytest.raises(ValueError, match=f"finite and positive, got {n!r}$"):
        VOTER_COUNTS[entry](n)
