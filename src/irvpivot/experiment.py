"""Batch comparison of IRV and plurality pivotal probabilities.

For each run, a preference profile is generated for every requested number
of candidates, the IRV pivotal probability is summed over every admissible
ballot, the plurality pivotal probability is summed over every candidate,
and both totals are recorded against the same profile.  Two profile shapes
are available: a flat one where every ranking has the same expected count,
and a front-runner one where half of the electorate holds a single ranking
and the other half spreads evenly over all of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .elections import IRV, SMDP, BallotProfile, _check_limits, _integral, admissible_rankings
from .pivotal import _check_reach, sweep_reports
from .skellam import DEFAULT_TOLERANCE, Tolerance
from .smdp import smdp_pivot_prob

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "gen_uniform_profile",
    "gen_powerlaw_profile",
    "run_experiment",
    "write_csv",
    "write_gnuplot",
]

UNIFORM = "uniform"
POWERLAW = "powerlaw"


def gen_uniform_profile(
    kappa: int,
    n_voters: float,
    max_length: int | None = None,
    full_length_only: bool = True,
) -> BallotProfile:
    """Profile giving every admissible ranking the same expected count."""
    if n_voters <= 0:
        raise ValueError(f"n_voters must be positive, got {n_voters}")
    rankings = admissible_rankings(kappa, max_length, full_length_only)
    rate = n_voters / len(rankings)
    return BallotProfile(kappa, {r: rate for r in rankings}, max_length)


def gen_powerlaw_profile(
    kappa: int,
    n_voters: float,
    seed: int,
    max_length: int | None = None,
    full_length_only: bool = True,
) -> BallotProfile:
    """Front-runner profile: half the mass on one seeded focal ranking.

    The other half is spread evenly over all admissible rankings, the focal
    one included, so the total expected count is exactly ``n_voters``.
    """
    if n_voters <= 0:
        raise ValueError(f"n_voters must be positive, got {n_voters}")
    rankings = admissible_rankings(kappa, max_length, full_length_only)
    rng = np.random.default_rng(_integral(seed, "seed"))
    focal = rankings[int(rng.integers(len(rankings)))]
    spread = 0.5 * n_voters / len(rankings)
    rates = {r: spread for r in rankings}
    rates[focal] = spread + 0.5 * n_voters
    return BallotProfile(kappa, rates, max_length)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one batch comparison."""

    kappas: tuple[int, ...] = (3, 4, 5)
    n_voters: float = 1000.0
    runs: int = 100
    distribution: str = POWERLAW
    base_seed: int = 0
    max_length: int | None = None

    def __post_init__(self):
        kappas = tuple(_check_limits(k, None)[0] for k in self.kappas)
        for kappa in kappas:
            _check_reach(kappa)
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "runs", _integral(self.runs, "runs"))
        object.__setattr__(self, "base_seed", _integral(self.base_seed, "base_seed"))
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.n_voters <= 0:
            raise ValueError(f"n_voters must be positive, got {self.n_voters}")
        if self.distribution not in (UNIFORM, POWERLAW):
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass(frozen=True)
class RunResult:
    """Summed pivotal probability of one contest."""

    run_id: int
    kappa: int
    system: str
    distribution: str
    total_pivot: float
    wall_time: float


def _profile_for_run(cfg: ExperimentConfig, run_id: int, kappa: int) -> BallotProfile:
    if cfg.distribution == UNIFORM:
        return gen_uniform_profile(kappa, cfg.n_voters, cfg.max_length)
    return gen_powerlaw_profile(kappa, cfg.n_voters, cfg.base_seed + run_id, cfg.max_length)


def _profile_key(profile: BallotProfile):
    return (profile.kappa, profile.max_length, tuple(sorted(profile.rates.items())))


def run_experiment(
    cfg: ExperimentConfig,
    tol: Tolerance = DEFAULT_TOLERANCE,
    pairwise_approx: bool = False,
    partial: list[RunResult] | None = None,
) -> list[RunResult]:
    """Run every (run, kappa) contest under both systems.

    Both systems see the identical profile within a pair.  Profiles that
    repeat across runs (the flat distribution is the same every run, and
    relabelings recur) are computed once and reused; the reused totals are
    exactly the ones the first computation produced.

    Args:
        cfg: Batch parameters.
        tol: Kernel truncation bound.
        pairwise_approx: Use the head-to-head plurality variant.
        partial: Optional list that receives each result as it completes,
            so a caller can still flush finished rows if a later contest
            raises.

    Returns:
        Results sorted by (run_id, kappa, system).
    """
    memo: dict = {}
    results = partial if partial is not None else []
    for run_id in range(cfg.runs):
        for kappa in cfg.kappas:
            profile = _profile_for_run(cfg, run_id, kappa)
            key = _profile_key(profile)
            if key in memo:
                irv_total, smdp_total, elapsed = memo[key]
            else:
                start = time.perf_counter()
                reports = sweep_reports(profile, full_length_only=True, tol=tol)
                irv_total = math.fsum(r.p_total for r in reports)
                smdp_total = math.fsum(
                    smdp_pivot_prob(profile, c, tol, pairwise_approx)
                    for c in range(kappa)
                )
                elapsed = time.perf_counter() - start
                memo[key] = (irv_total, smdp_total, elapsed)
            results.append(
                RunResult(run_id, kappa, IRV, cfg.distribution, irv_total, elapsed)
            )
            results.append(
                RunResult(run_id, kappa, SMDP, cfg.distribution, smdp_total, elapsed)
            )
    results.sort(key=lambda r: (r.run_id, r.kappa, r.system))
    return results


def write_csv(results: Iterable[RunResult], path, timing: bool = False) -> None:
    """Write results as CSV.

    The ``seconds`` column is left empty unless ``timing`` is set: wall
    times vary between invocations, and the default output is meant to be
    byte-identical for identical configurations.
    """
    with open(path, "w", newline="") as fh:
        fh.write("run_id,kappa,system,distribution,total_pivot,seconds\n")
        for r in results:
            seconds = f"{r.wall_time:.6f}" if timing else ""
            fh.write(
                f"{r.run_id},{r.kappa},{r.system},{r.distribution},"
                f"{r.total_pivot!r},{seconds}\n"
            )


def write_gnuplot(results: Iterable[RunResult], path) -> None:
    """Write results as a whitespace-separated table gnuplot can read."""
    with open(path, "w") as fh:
        fh.write("# run_id kappa system distribution total_pivot\n")
        for r in results:
            fh.write(
                f"{r.run_id} {r.kappa} {r.system} {r.distribution} {r.total_pivot!r}\n"
            )
