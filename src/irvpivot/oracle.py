"""Assumption-free Monte-Carlo estimates of pivotal probabilities.

Each draw realizes an integer electorate from the profile's Poisson rates,
tabulates the IRV winner, adds the single ballot under study, and
re-tabulates.  Ties are broken by a fair coin realized as one random
tie-strength number per candidate per draw; the recount reuses the same
numbers, so the added ballot is the only difference between the two counts.
A draw whose winner changes is pivotal; it counts as direct when the new
winner is the ballot's own surviving candidate, indirect otherwise.

Counting uses the recipient table of :func:`elections._recipients`, built
once per call: for every active-set bitmask and every ranking, the first
listed candidate still standing (or ``kappa`` for an exhausted ballot).
Each round scatters the ranking counts into per-candidate totals through
that table, and the studied ballot adds one vote through its own column, so
the recount also yields the ballot's final-round choice that tells direct
from indirect pivots.  Only draws where some round was decided by at most
one vote are recounted.

Draws are generated in fixed-size blocks with a counter-based seed per
block, so estimates are bit-for-bit reproducible and independent of how
blocks would be scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .elections import BallotProfile, Ranking, _check_ballot, _recipients, _utility_vector

__all__ = [
    "OracleConfig",
    "OracleEstimate",
    "mc_pivot_estimate",
    "mc_pivot_estimates",
    "mc_expected_utility",
]

_BLOCK = 1 << 16
_COUNT_STREAM = 0x636E7473
_COIN_STREAM = 0x636F696E


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo sampling parameters.

    ``seed`` drives the Poisson counts and ``tie_coin_seed`` the tie-break
    coins; the latter defaults to the former.  Both are folded into
    per-block substreams, so the same config always replays the same draws.
    """

    draws: int
    seed: int = 0
    tie_coin_seed: int | None = None

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")

    @property
    def coin_seed(self) -> int:
        return self.seed if self.tie_coin_seed is None else self.tie_coin_seed


@dataclass(frozen=True)
class OracleEstimate:
    """Estimated pivotal frequencies for one ballot."""

    p_direct_hat: float
    p_indirect_hat: float
    p_total_hat: float
    stderr_total: float
    draws_used: int


def _block_rngs(cfg: OracleConfig, block: int) -> tuple[np.random.Generator, np.random.Generator]:
    counts = np.random.default_rng(
        np.random.SeedSequence([_COUNT_STREAM, cfg.seed % 2**64, block])
    )
    coins = np.random.default_rng(
        np.random.SeedSequence([_COIN_STREAM, cfg.coin_seed % 2**64, block])
    )
    return counts, coins


def _tabulate_block(
    counts: np.ndarray,
    recip: np.ndarray,
    tie_strength: np.ndarray,
    extra: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized IRV count of many electorates at once.

    Args:
        counts: (n, R) ballot counts per ranking.
        recip: (2**kappa, R) recipient table from :func:`_recipients`.
        tie_strength: (n, kappa) floats in [0, 1); on equal totals the
            candidate with smaller strength drops (and loses the final).
        extra: Optional recipient column of one more ballot, added to
            every electorate.

    Returns:
        (winner, final, close): winner per draw, the active-set bitmask of
        the final round, and a flag marking draws where some round was
        decided by a margin of at most one vote (only those can react to
        one more ballot).
    """
    n, kappa = tie_strength.shape
    bits = (np.arange(1 << kappa)[:, None] >> np.arange(kappa)) & 1 == 1
    inactive = np.where(bits, 0.0, np.inf).T.copy()
    # Totals are kept candidate-major, as a flat (kappa + 1, n) array whose
    # row kappa collects exhausted ballots; per-candidate reductions over
    # axis 0 are far cheaper than over a short axis 1.
    offsets = recip.T * n
    rows = np.arange(n)
    mask = np.full(n, (1 << kappa) - 1, dtype=np.intp)
    close = np.zeros(n, dtype=bool)
    for _ in range(kappa - 1):
        final = mask
        totals = np.zeros((kappa + 1) * n, dtype=np.int64)
        for j in range(len(offsets)):
            totals[offsets[j].take(mask) + rows] += counts[:, j]
        if extra is not None:
            totals[extra.take(mask) * n + rows] += 1
        key = totals[: kappa * n].reshape(kappa, n) + inactive.take(mask, axis=1)
        close |= (key <= key.min(axis=0) + 1.0).sum(axis=0) >= 2
        loser = np.argmin(key + tie_strength.T, axis=0)
        mask = mask & ~(1 << loser)
    return bits.argmax(axis=1).take(mask), final, close


def _pivot_blocks(
    profile: BallotProfile, ballots: Sequence[Ranking], cfg: OracleConfig
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per block of draws, one ``(w0, w1, direct)`` per ballot over the
    block's near-tie draws: the winner without and with the ballot, and
    whether the ballot's surviving candidate at the final round is ``w1``
    (the pivot, where ``w1 != w0``, is then direct)."""
    rankings = sorted(profile.rates)
    rates = np.array([profile.rates[r] for r in rankings], dtype=np.float64)
    recip = _recipients(rankings, profile.kappa)
    extras = _recipients(ballots, profile.kappa).T
    for block, done in enumerate(range(0, cfg.draws, _BLOCK)):
        n = min(_BLOCK, cfg.draws - done)
        rng_counts, rng_coins = _block_rngs(cfg, block)
        counts = rng_counts.poisson(rates, size=(n, len(rates)))
        tie_strength = rng_coins.random((n, profile.kappa))
        w0, _, near = _tabulate_block(counts, recip, tie_strength)
        idx = np.flatnonzero(near)
        counts, tie_strength, w0 = counts[idx], tie_strength[idx], w0[idx]
        out = []
        for extra in extras:
            w1, final, _ = _tabulate_block(counts, recip, tie_strength, extra)
            out.append((w0, w1, extra[final] == w1))
        yield out


def mc_pivot_estimates(
    profile: BallotProfile,
    ballots: Sequence[Sequence[int]],
    cfg: OracleConfig,
) -> list[OracleEstimate]:
    """Pivotal-frequency estimates for several ballots over shared draws.

    All ballots are evaluated against the same realized electorates, so the
    result for each ballot is identical to running
    :func:`mc_pivot_estimate` on it alone.
    """
    ballots = [_check_ballot(profile, b) for b in ballots]
    n_direct = [0] * len(ballots)
    n_indirect = [0] * len(ballots)
    for block in _pivot_blocks(profile, ballots, cfg):
        for b, (w0, w1, direct) in enumerate(block):
            flipped = w1 != w0
            n_direct[b] += int(np.count_nonzero(flipped & direct))
            n_indirect[b] += int(np.count_nonzero(flipped & ~direct))

    out = []
    for b in range(len(ballots)):
        p_d = n_direct[b] / cfg.draws
        p_i = n_indirect[b] / cfg.draws
        p_t = p_d + p_i
        stderr = math.sqrt(p_t * (1.0 - p_t) / cfg.draws)
        out.append(OracleEstimate(p_d, p_i, p_d + p_i, stderr, cfg.draws))
    return out


def mc_pivot_estimate(
    profile: BallotProfile, ballot: Sequence[int], cfg: OracleConfig
) -> OracleEstimate:
    """Pivotal-frequency estimate for a single ballot."""
    return mc_pivot_estimates(profile, [ballot], cfg)[0]


def mc_expected_utility(
    profile: BallotProfile,
    ballot: Sequence[int],
    utilities: Sequence[float] | Mapping[int, float],
    cfg: OracleConfig,
) -> float:
    """Average winner-utility change from adding the ballot, per draw."""
    u = np.array(_utility_vector(profile.kappa, utilities))
    gain = 0.0
    for ((w0, w1, _),) in _pivot_blocks(profile, [_check_ballot(profile, ballot)], cfg):
        gain += float(np.sum(u[w1] - u[w0]))
    return gain / cfg.draws
