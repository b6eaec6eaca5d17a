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

from .elections import IRV, SMDP, BallotProfile, _check_limits, _check_voters, _integral
from .elections import admissible_rankings
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
    _check_voters(n_voters)
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
    _check_voters(n_voters)
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
        _check_voters(self.n_voters)
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
    """A key that two profiles share only if one is a relabeling of the
    other, and that relabelings share where the candidates can be told apart.

    The key is the profile relabeled so that candidates are numbered in
    ascending order of their expected counts at each ballot position (one
    ``math.fsum`` per candidate and position, compared position by
    position), ties kept in id order.  Every key is a relabeling of its
    profile, so equal keys mean relabelings.  The sums move with the labels,
    so relabelings of a profile whose candidates all have different sums get
    the same key.
    """
    kappa = profile.kappa
    counts = [[[] for _ in range(profile.max_length)] for _ in range(kappa)]
    for ranking, rate in profile.rates.items():
        for position, c in enumerate(ranking):
            counts[c][position].append(rate)
    sums = [tuple(math.fsum(r) for r in per_position) for per_position in counts]
    label = [0] * kappa
    for new, old in enumerate(sorted(range(kappa), key=sums.__getitem__)):
        label[old] = new
    rates = sorted((tuple(label[c] for c in r), v) for r, v in profile.rates.items())
    return (kappa, profile.max_length, tuple(rates))


def run_experiment(
    cfg: ExperimentConfig,
    tol: Tolerance = DEFAULT_TOLERANCE,
    pairwise_approx: bool = False,
    partial: list[RunResult] | None = None,
) -> list[RunResult]:
    """Run every (run, kappa) contest under both systems.

    Both systems see the identical profile within a pair.  The IRV total is
    computed once per relabeling class of the profiles of this call
    (:func:`_profile_key`): the flat distribution gives the same profile
    every run, and every full-length front-runner profile of one kappa is a
    relabeling of every other.  Relabeling leaves each ballot's IRV
    pivot probability bitwise unchanged, and ``math.fsum`` does not depend
    on the order of its terms, so a reused total has the bits a fresh sweep
    would give.  The plurality total is computed for every contest: its
    last bit can change under relabeling.

    Args:
        cfg: Batch parameters.
        tol: Kernel truncation bound.
        pairwise_approx: Use the head-to-head plurality variant.
        partial: Optional list that receives each result as it completes,
            so a caller can still flush finished rows if a later contest
            raises.

    Returns:
        Results sorted by (run_id, kappa, system).  Both results of a
        contest carry the seconds that contest took in this call, so a
        contest that reused an IRV total reports less time than the one
        that computed it.
    """
    irv_totals: dict = {}
    results = partial if partial is not None else []
    for run_id in range(cfg.runs):
        for kappa in cfg.kappas:
            start = time.perf_counter()
            profile = _profile_for_run(cfg, run_id, kappa)
            key = _profile_key(profile)
            irv_total = irv_totals.get(key)
            if irv_total is None:
                reports = sweep_reports(profile, full_length_only=True, tol=tol)
                irv_total = irv_totals[key] = math.fsum(r.p_total for r in reports)
            smdp_total = math.fsum(
                smdp_pivot_prob(profile, c, tol, pairwise_approx) for c in range(kappa)
            )
            elapsed = time.perf_counter() - start
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
    byte-identical for identical configurations.  When set, it holds the
    seconds each contest took in this call (see :func:`run_experiment`).
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
