"""Assumption-free Monte-Carlo estimates of pivotal probabilities.

Each draw realizes an integer electorate from the profile's Poisson rates,
tabulates the IRV winner, adds the single ballot under study as one more
ranking cast once, and re-tabulates.  Ties are broken by a fair coin
realized as one random tie-strength number per candidate per draw; the
recount reuses the same numbers, so the added ballot is the only difference
between the two counts.  A draw whose winner changes is pivotal; it counts
as direct when the new winner is the ballot's own surviving candidate,
indirect otherwise.

Counting uses the recipient table of :func:`elections._recipients`, built
once per call: for every active-set bitmask and every ranking, the first
listed candidate still standing (or ``kappa`` for an exhausted ballot).
The ballot under study is one more column of that table.
:func:`_eliminate` counts many draws at once, each from its own active
set.  A round drops the candidate with the smallest key, its total plus its
tie strength, and the count records, per round, the active set, the loser,
and who would drop instead were the loser given one more vote.

The recount with the ballot is skipped wherever it cannot differ.  In every
round the ballot adds one vote to exactly one candidate, its first choice
still standing, or to nobody once it is exhausted:

- if that candidate is not the round's loser, the loser's key is unchanged
  and every other key only grows, so the same candidate drops;
- if it is the loser, the first count has already recorded whether one more
  vote saves it, which it does only when another candidate is level with
  the loser or one vote ahead on a smaller tie strength.

So up to the first round where the ballot's recipient is a loser that its
vote saves, the count with the ballot drops the same candidates as the one
without.  A draw with no such round keeps its winner and is not recounted.
A save in the final round needs no recount either: the saved loser wins,
as the ballot's own final-round choice.  Only a save in an earlier round
is recounted, with the ballot, from the next round on, after dropping the
candidate recorded as dropping instead.

Draws are generated in blocks of 65,536 with a counter-based seed per
block, so estimates are bit-for-bit reproducible and independent of how
blocks would be scheduled across workers.  Each block is sampled and
counted in chunks of at most 16,384 draws and at most 2**20 count cells
(draws times rankings), which bounds the working arrays by cells: a κ=4
profile keeps 16,384-draw chunks, a uniform κ=6 one (720 rankings) takes
1,456.  The chunks take a block's Poisson counts and tie strengths in
consecutive calls on the block's two generators, which consume their
streams in draw order, so every chunk holds the values one call per block
would give, whatever the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .elections import BallotProfile, Ranking, _check_ballot, _recipients, _utility_vector
from .elections import _integral

__all__ = [
    "OracleConfig",
    "OracleEstimate",
    "mc_pivot_estimate",
    "mc_pivot_estimates",
    "mc_expected_utility",
]

_BLOCK = 1 << 16
_CELLS = 1 << 20
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
        for name in ("draws", "seed", "tie_coin_seed"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integral(value, name))
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


def _argmin(v: np.ndarray) -> np.ndarray:
    """``v.argmin(axis=0)`` for a few long rows, without its per-column
    loop: the first row holding a column's minimum is the length of the
    run of rows above it that do not."""
    notmin = v != np.minimum.reduce(v, axis=0)
    first = notmin[0].astype(np.intp)
    run = notmin[0]
    for row in notmin[1:-1]:
        run = run & row
        first += run
    return first


def _eliminate(
    counts: np.ndarray,
    recip: np.ndarray,
    tie_strength: np.ndarray,
    mask: int | np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Vectorized IRV count of many electorates, each from its own active set.

    Args:
        counts: (n, R) ballot counts per ranking.
        recip: (2**kappa, R) recipient table from :func:`_recipients`.
        tie_strength: (n, kappa) floats in [0, 1); on equal totals the
            candidate with smaller strength drops (and loses the final).
        mask: Active-set bitmask to count from, one for all draws or one
            per draw; every mask has the same number (>= 2) of candidates.

    Returns:
        (rounds, winner): per round, ``(mask, loser, instead)`` arrays: the
        active set, the candidate that drops, and the one that would drop
        were the loser given one more vote (the loser itself when that
        vote cannot save it); then the winner per draw.
    """
    n, kappa = tie_strength.shape
    at = np.arange(n)
    # Candidate-major (kappa, n) rows, so reductions across candidates run
    # over long contiguous rows; row kappa of the totals collects exhausted
    # ballots.  A candidate out of the race has an infinite strength.
    weights = np.ascontiguousarray(counts.T, dtype=np.float64)
    strength = tie_strength.T.copy()
    np.copyto(strength, np.inf, where=(mask >> np.arange(kappa)[:, None]) & 1 == 0)
    slots = recip.T * n
    mask = np.broadcast_to(mask, (n,))
    rounds = []
    for _ in range(int(np.max(mask)).bit_count() - 1):
        index = slots.take(mask, axis=1)
        index += at
        totals = np.bincount(
            index.ravel(), weights=weights.ravel(), minlength=(kappa + 1) * n
        ).reshape(kappa + 1, n)
        key = totals[:kappa] + strength
        loser = _argmin(key)
        slot = loser * n + at
        key.put(slot, totals.take(slot) + 1.0 + strength.take(slot))
        rounds.append((mask, loser, _argmin(key)))
        strength.put(slot, np.inf)
        mask = mask & ~(1 << loser)
    # The one candidate left is the one whose strength is still finite.
    return rounds, _argmin(strength)


def _ballot_pivots(
    recip: np.ndarray,
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    saveable: list[np.ndarray],
    counts: np.ndarray,
    tie_strength: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws one more ballot can change, read off the first count.

    ``recip`` is the recipient table of the counted rankings with the
    ballot's column appended, so a recount takes the ballot as one more
    ranking, cast once.  ``saveable[r]`` lists the draws whose round-``r``
    loser one more vote would save.  A draw is taken at the first round
    whose loser is also the ballot's recipient.  Returns
    ``(draws, w1, direct)``: the draws taken, the winner with the ballot,
    and whether that winner is the ballot's own choice in the final round.
    On every other draw the count with the ballot drops the same candidates
    as the count without it (see the module docstring).
    """
    ballot = recip[:, -1]
    taken = np.zeros(len(tie_strength), dtype=bool)
    parts = []
    for r, ((mask, loser, instead), idx) in enumerate(zip(rounds, saveable)):
        hit = idx[ballot.take(mask.take(idx)) == loser.take(idx)]
        hit = hit[~taken[hit]]
        taken[hit] = True
        if r == len(rounds) - 1:
            # The final: the saved loser beats the one candidate left.
            parts.append((hit, loser[hit], np.ones(len(hit), dtype=bool)))
        elif len(hit):
            cast = np.column_stack((counts[hit], np.ones(len(hit), counts.dtype)))
            later, w1 = _eliminate(cast, recip, tie_strength[hit], mask[hit] & ~(1 << instead[hit]))
            parts.append((hit, w1, ballot.take(later[-1][0]) == w1))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _pivot_blocks(
    profile: BallotProfile, ballots: Sequence[Ranking], cfg: OracleConfig
) -> Iterator[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Per chunk of draws, one ``(w0, w1, direct)`` per ballot over the
    chunk's draws that the ballot can change: the winner without and with
    the ballot, and whether the ballot's surviving candidate at the final
    round is ``w1`` (the pivot, where ``w1 != w0``, is then direct).  All
    other draws have ``w1 == w0``."""
    rankings = sorted(profile.rates)
    rates = np.array([profile.rates[r] for r in rankings], dtype=np.float64)
    recip = _recipients(rankings, profile.kappa)
    extras = _recipients(ballots, profile.kappa).T
    chunk = min(1 << 14, _CELLS // len(rankings))
    for block, done in enumerate(range(0, cfg.draws, _BLOCK)):
        rng_counts, rng_coins = _block_rngs(cfg, block)
        size = min(_BLOCK, cfg.draws - done)
        for start in range(0, size, chunk):
            n = min(chunk, size - start)
            counts = rng_counts.poisson(rates, size=(n, len(rates)))
            tie_strength = rng_coins.random((n, profile.kappa))
            rounds, w0 = _eliminate(counts, recip, tie_strength, (1 << profile.kappa) - 1)
            saveable = [np.flatnonzero(instead != loser) for _, loser, instead in rounds]
            out = []
            for extra in extras:
                # One table at a time: all ballots' tables at once could outgrow memory.
                table = np.column_stack((recip, extra))
                draws, w1, direct = _ballot_pivots(table, rounds, saveable, counts, tie_strength)
                out.append((w0[draws], w1, direct))
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
    """Average winner-utility change from adding the ballot, per draw.

    The count-weighted swings are summed exactly and rounded once.
    """
    kappa = profile.kappa
    u = _utility_vector(kappa, utilities)
    pairs = np.zeros(kappa * kappa, dtype=np.int64)
    for ((w0, w1, _),) in _pivot_blocks(profile, [_check_ballot(profile, ballot)], cfg):
        pairs += np.bincount(w0 * kappa + w1, minlength=kappa * kappa)
    return float(sum(
        n * Fraction(u[new] - u[old])
        for (old, new), n in zip(np.ndindex(kappa, kappa), pairs.tolist())
    ) / cfg.draws)
