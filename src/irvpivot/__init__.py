"""Pivotal-vote probabilities for instant runoff elections.

The package models an electorate as Poisson-distributed counts of each
ballot ranking and answers: with what probability does one additional
ballot change the winner?  It covers IRV (direct and indirect pivotality),
a single-member plurality baseline, a Monte-Carlo oracle on realized
electorates, and a batch harness comparing the two systems.
"""

from .elections import (
    BallotProfile,
    RealizedElection,
    admissible_rankings,
    expected_total,
    tabulate,
    IRV,
    SMDP,
)
from .experiment import (
    ExperimentConfig,
    RunResult,
    gen_powerlaw_profile,
    gen_uniform_profile,
    run_experiment,
    write_csv,
    write_gnuplot,
)
from .oracle import (
    OracleConfig,
    OracleEstimate,
    mc_expected_utility,
    mc_pivot_estimate,
    mc_pivot_estimates,
)
from .pivotal import (
    DirectEvent,
    IndirectEvent,
    PivotCalculator,
    PivotReport,
    best_ballot,
    drop_sequence_prob,
    enumerate_alternates,
    expected_utility,
    sweep_reports,
    total_pivot_prob,
)
from .skellam import (
    DEFAULT_TOLERANCE,
    Tolerance,
    prob_strictly_greater,
    skellam_pmf,
    tie_terms,
)
from .smdp import SmdpReport, first_choice_rates, smdp_pivot_prob, smdp_reports

__version__ = "0.1.0"

__all__ = [
    "BallotProfile",
    "RealizedElection",
    "admissible_rankings",
    "expected_total",
    "tabulate",
    "IRV",
    "SMDP",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "skellam_pmf",
    "prob_strictly_greater",
    "tie_terms",
    "DirectEvent",
    "IndirectEvent",
    "PivotReport",
    "PivotCalculator",
    "drop_sequence_prob",
    "enumerate_alternates",
    "total_pivot_prob",
    "expected_utility",
    "best_ballot",
    "sweep_reports",
    "SmdpReport",
    "first_choice_rates",
    "smdp_pivot_prob",
    "smdp_reports",
    "OracleConfig",
    "OracleEstimate",
    "mc_pivot_estimate",
    "mc_pivot_estimates",
    "mc_expected_utility",
    "ExperimentConfig",
    "RunResult",
    "gen_uniform_profile",
    "gen_powerlaw_profile",
    "run_experiment",
    "write_csv",
    "write_gnuplot",
    "__version__",
]
