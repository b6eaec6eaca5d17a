"""Pivotal-probability engine for instant runoff elections.

A single added ballot can change an IRV winner in two mutually exclusive
ways.  It is *directly* pivotal when a candidate ranked on it ends up in a
two-way final-round contest and the extra vote breaks, or creates, a
first-place tie that the candidate then wins.  It is *indirectly* pivotal
when the extra vote flips a last-place tie in an earlier round, changing
the elimination order so that some other candidate wins.

Both cases are sums over elimination sequences.  Each sequence is scored
as a product of pairwise "survivor beats dropped" probabilities, evaluated
at the vote totals of the round where the drop happens, times a fair-coin
tie term at the round where the single added vote matters.  All
probabilities come from the Skellam kernel and the expected vote totals of
the ballot profile; pairwise comparisons within and across rounds are
multiplied as if independent.  A round's factor depends only on the set
already dropped and the candidate dropped now, so the sums are dynamic
programs over the subsets of candidates, evaluated lazily and kept per
profile (:class:`PivotCalculator`).  Single events are listed on request.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Sequence

from .elections import (
    BallotProfile,
    Ranking,
    _as_ranking,
    _check_ballot,
    _check_candidate,
    _check_limits,
    _check_order,
    _integral,
    _utility_vector,
    admissible_rankings,
    expected_total,
)
from .skellam import prob_strictly_greater, skellam_pmf, tie_terms

__all__ = [
    "DirectEvent",
    "IndirectEvent",
    "PivotReport",
    "PivotCalculator",
    "drop_lists",
    "drop_sequence_prob",
    "enumerate_alternates",
    "total_pivot_prob",
    "expected_utility",
    "best_ballot",
    "sweep_reports",
]

# Largest kappa a report is computed for.  Memory does not set it: the subset
# DP keeps O(kappa**2 * 2**kappa) values, and a full-length kappa=7 power-law
# sweep took 0.14 s at an 11 MB tracemalloc peak on one 2-core x86 host.  A
# kappa=8 sweep (40,320 ballots) took 2.2 s there, 1.2 s of it the totals table,
# at a 170 MB peak.  The cap moves once the benchmark records sweeps at kappa=8
# and kappa=9.
MAX_KAPPA = 7


def _check_reach(kappa: int) -> None:
    if kappa > MAX_KAPPA:
        raise ValueError(
            f"pivot events are enumerated for at most {MAX_KAPPA} candidates, got "
            f"kappa={kappa}; a larger cap awaits measured sweeps beyond it"
        )


@dataclass(frozen=True)
class DirectEvent:
    """One directly pivotal scenario.

    The candidate at 1-based ballot ``position`` survives to the final
    round after the others are dropped in the order ``drops`` (all
    candidates except that one; the last entry is the final-round
    opponent), and the added vote decides a tie against that opponent.
    """

    position: int
    candidate: int
    drops: tuple[int, ...]
    runner_up: int
    probability: float
    utility_swing: float | None = None


@dataclass(frozen=True)
class IndirectEvent:
    """One indirectly pivotal scenario.

    Without the added ballot the candidates are eliminated in the order
    ``base`` (last entry wins).  The ballot's candidate at ``position``
    would be dropped in round ``round_index``, but the extra vote decides a
    last-place tie against ``displaced``, who drops instead; the count then
    follows ``alternate`` and a different candidate wins.
    """

    position: int
    candidate: int
    base: tuple[int, ...]
    round_index: int
    alternate: tuple[int, ...]
    displaced: int
    suffix: tuple[int, ...]
    probability: float
    utility_swing: float | None = None


@dataclass
class PivotReport:
    """Per-ballot pivotality summary."""

    ballot: Ranking
    p_direct: float
    p_indirect: float
    p_total: float
    expected_utility: float | None = None
    events: list | None = None

    def to_dict(self, with_events: bool = False) -> dict:
        out = {
            "ballot": list(self.ballot),
            "p_direct": self.p_direct,
            "p_indirect": self.p_indirect,
            "p_total": self.p_total,
            "expected_utility": self.expected_utility,
        }
        if with_events and self.events is not None:
            out["events"] = [_event_dict(e) for e in self.events]
        return out


def _event_dict(event) -> dict:
    """The event's kind, then its fields, tuples as lists."""
    kind = "direct" if isinstance(event, DirectEvent) else "indirect"
    fields = vars(event).items()
    return {"kind": kind, **{k: list(v) if isinstance(v, tuple) else v for k, v in fields}}


def drop_lists(kappa: int, candidate: int):
    """All orders in which the other kappa-1 candidates could be dropped."""
    kappa, _ = _check_limits(kappa, None)
    candidate = _check_candidate(candidate, kappa)
    others = [c for c in range(kappa) if c != candidate]
    return permutations(others)


def enumerate_alternates(
    base: Sequence[int], round_index: int
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Alternate elimination orders reachable by saving one candidate.

    ``base`` is a full elimination sequence (last entry wins) and
    ``round_index`` (1-based) points at the candidate the added vote
    saves.  An alternate keeps the rounds before that unchanged, drops one
    of the candidates that outlasted the saved one instead, continues with
    any ordering of the rest, and must end with a winner different from
    both the original winner and the saved candidate.

    Returns:
        List of ``(alternate, displaced, suffix)`` triples, where
        ``suffix`` is the part of the alternate after the displaced
        candidate.
    """
    base = _as_ranking(base)
    round_index = _integral(round_index, "round_index")
    kappa = len(base)
    if len(set(base)) != kappa:
        raise ValueError(f"base sequence {base!r} repeats a candidate")
    if kappa == 2:
        # Two candidates leave no room for a reordering with a new winner.
        return []
    if not 1 <= round_index <= kappa - 2:
        raise ValueError(
            f"round_index must be in 1..{kappa - 2}, got {round_index}"
        )
    saved = base[round_index - 1]
    prefix = base[: round_index - 1]
    later = base[round_index:]
    original_winner = base[-1]
    out = []
    for displaced in later:
        remaining = [saved] + [c for c in later if c != displaced]
        for suffix in permutations(remaining):
            winner = suffix[-1]
            if winner == original_winner or winner == saved:
                continue
            alternate = prefix + (displaced,) + suffix
            out.append((alternate, displaced, suffix))
    return out


def _mask(candidates) -> int:
    return sum(1 << c for c in candidates)


class PivotCalculator:
    """Scores a profile's pivotal events and sums them per ballot.

    An elimination order's probability is a product of round factors, and
    the factor of a round depends only on the set already dropped and the
    candidate dropped now (:meth:`_loses`).  So every sum over orders is a
    dynamic program over the subsets of candidates (Held & Karp, *J. SIAM*
    1962), and a ballot only selects, through the ``(candidate, set ranked
    above)`` key of each position, which of its terms count:

    - :meth:`_prefix`: the orders in which a set is dropped first;
    - :meth:`_wins`: the orders that end with a given winner;
    - :meth:`_key`: per key, the direct and the indirect sum, or their
      utility gains.

    Every sum is computed the first time it is needed and kept.  A round
    factor is not kept: it is multiplied again from the cached comparisons
    each time a sum reads it, which is cheap and keeps one :meth:`beats`
    lookup per use of a comparison, as the benchmark's ``pivotal.beats``
    hit ratio counts them.  The expected totals after every set of drops
    are built up front as one table, ``T[dropped mask][candidate]``
    (:func:`elections.expected_total`).  The kernel is a function of two
    Poisson rates only, so :meth:`beats` and :meth:`tie_pair` cache it on
    the rate values: in symmetric profiles most comparisons share a pair.
    The DP reaches the kernel only through them.

    A round factor multiplies its comparisons in ascending order of value
    and every sum is a ``math.fsum``, so no result depends on candidate
    labels: a relabeled profile gives the same bits.  The sums lie within
    1e-15 relative of the ``math.fsum`` of the report's own events, which
    are listed only when asked for, each from the scalar path
    (:meth:`sequence_prob`), in a walk over the orders.

    Args:
        profile: Expected ballot counts.
        sequence_ties: If true, every pairwise survival comparison also
            credits half of the exact-tie mass for that pair (a coin-flip
            elimination going the survivor's way).  Off by default: drop
            orders are then scored from strict comparisons only, and tie
            mass enters solely through the pivotal round.
    """

    def __init__(self, profile: BallotProfile, sequence_ties: bool = False):
        self.profile = profile
        self.sequence_ties = sequence_ties
        self._T = expected_total(profile).tolist()
        # Kernel results keyed on the two rates they are evaluated at.
        self._beats: dict[tuple[float, float], float] = {}
        self._ties: dict[tuple[float, float], tuple[float, float]] = {}
        # DP values, each keyed on its arguments.
        self._prefixes: dict[int, float] = {0: 1.0}
        self._winners: dict[tuple[int, int], float] = {}
        self._saves: dict[tuple, tuple[float, ...]] = {}
        self._keys: dict[tuple, tuple[float, float]] = {}

    # -- cached primitives -------------------------------------------------

    def beats(self, winner: int, loser: int, dropped: int) -> float:
        """P(winner's total exceeds loser's) once the candidates in the
        bitmask ``dropped`` are eliminated."""
        totals = self._T[dropped]
        key = (totals[winner], totals[loser])
        val = self._beats.get(key)
        if val is None:
            val = prob_strictly_greater(*key)
            if self.sequence_ties:
                val = min(1.0, val + 0.5 * skellam_pmf(0, *key))
            self._beats[key] = val
        return val

    def tie_pair(self, candidate: int, opponent: int, dropped: int) -> tuple[float, float]:
        """The kernel's tie terms for the two totals after the drops in the
        bitmask ``dropped``."""
        totals = self._T[dropped]
        key = (totals[candidate], totals[opponent])
        val = self._ties.get(key)
        if val is None:
            val = self._ties[key] = tie_terms(*key)
        return val

    def _round_product(self, order: tuple[int, ...], first: int, last: int) -> float:
        """Product over rounds ``first..last`` (1-based) of "every later
        candidate beats the one dropped now", at that round's totals."""
        val = 1.0
        dropped = _mask(order[: first - 1])
        for rnd in range(first, last + 1):
            loser = order[rnd - 1]
            for survivor in order[rnd:]:
                val *= self.beats(survivor, loser, dropped)
            dropped |= 1 << loser
        return val

    def sequence_prob(self, order: tuple[int, ...], full: bool) -> float:
        """Probability that eliminations follow ``order``.

        Product over rounds of "every later candidate beats the one dropped
        now", at that round's totals.  With ``full`` the product runs
        through the final round (the last entry strictly wins); without it
        the final-round comparison is left out, for callers that replace it
        with a tie term.
        """
        return self._round_product(order, 1, len(order) - 1 if full else len(order) - 2)

    # -- sums over orders --------------------------------------------------

    def _loses(self, dropped: int, loser: int) -> float:
        """The round factor: every candidate standing after the drops in
        ``dropped`` beats ``loser``, multiplied in ascending order."""
        gone = dropped | 1 << loser
        return math.prod(sorted(
            self.beats(s, loser, dropped) for s in range(self.profile.kappa) if not gone >> s & 1
        ))

    def _prefix(self, dropped: int) -> float:
        """Summed probability of the orders that drop the candidates in
        ``dropped`` first, in any order among themselves."""
        val = self._prefixes.get(dropped)
        if val is None:
            val = self._prefixes[dropped] = math.fsum(
                self._prefix(dropped ^ 1 << last) * self._loses(dropped ^ 1 << last, last)
                for last in range(self.profile.kappa) if dropped >> last & 1
            )
        return val

    def _wins(self, winner: int, dropped: int) -> float:
        """Summed probability of the orders that, after the drops in
        ``dropped``, drop every other standing candidate before ``winner``."""
        val = self._winners.get((winner, dropped))
        if val is None:
            rest = [
                c for c in range(self.profile.kappa)
                if c != winner and not dropped >> c & 1
            ]
            val = self._winners[winner, dropped] = math.fsum(
                self._loses(dropped, c) * self._wins(winner, dropped | 1 << c) for c in rest
            ) if rest else 1.0
        return val

    def _saves_at(self, cand: int, dropped: int, u: tuple[float, ...] | None) -> tuple[float, ...]:
        """The indirect events in which ``cand`` would be dropped right
        after the drops in ``dropped`` and the added vote saves it, summed
        per displaced candidate ``d``; with ``u``, their utility gains.

        Base orders drop ``dropped``, then ``cand``, then the rest with
        winner ``w``; alternates drop ``d`` in place of ``cand``, then the
        rest with winner ``v``, neither ``w`` nor ``cand``.
        """
        val = self._saves.get((cand, dropped, u))
        if val is None:
            lost = dropped | 1 << cand
            later = [c for c in range(self.profile.kappa) if not lost >> c & 1]
            head = self._prefix(dropped) * self._loses(dropped, cand)
            base = [self._wins(w, lost) for w in later]
            terms = []
            for d in later:
                brk, mk = self.tie_pair(cand, d, dropped)
                saved = dropped | 1 << d
                tails = math.fsum(
                    p * self._wins(v, saved) * (1.0 if u is None else u[v] - u[w])
                    for w, p in zip(later, base) for v in later if v != d and v != w
                )
                terms.append(head * tails * 0.5 * (brk + mk))
            val = self._saves[cand, dropped, u] = tuple(terms)
        return val

    def _key(self, cand: int, above: int, u: tuple[float, ...] | None) -> tuple[float, float]:
        """The direct and indirect sums of the events a vote for ``cand``
        decides once every candidate in ``above`` is dropped; with ``u``,
        their utility gains."""
        val = self._keys.get((cand, above, u))
        if val is None:
            kappa = self.profile.kappa
            full = (1 << kappa) - 1
            direct = []
            for j in range(kappa):
                if j != cand and not above >> j & 1:
                    dropped = full ^ 1 << cand ^ 1 << j
                    brk, mk = self.tie_pair(cand, j, dropped)
                    swing = 1.0 if u is None else u[cand] - u[j]
                    direct.append(self._prefix(dropped) * 0.5 * (brk + mk) * swing)
            # Saves before the final round, at every superset of `above`.
            indirect = []
            rest = full ^ above ^ 1 << cand
            sub = rest
            while True:
                dropped = above | sub
                if dropped.bit_count() <= kappa - 3:
                    indirect += self._saves_at(cand, dropped, u)
                if not sub:
                    break
                sub = (sub - 1) & rest
            val = self._keys[cand, above, u] = (math.fsum(direct), math.fsum(indirect))
        return val

    # -- events and reports ------------------------------------------------

    def _events(self, ballot: Ranking, u: tuple[float, ...] | None) -> list:
        """The ballot's events, direct ones first, each by position, then
        in order of its elimination order, with the scalar path's bits."""
        kappa = self.profile.kappa
        direct, indirect = [], []
        above = 0
        for pos, cand in enumerate(ballot, start=1):
            for drops in drop_lists(kappa, cand):
                dropped = _mask(drops[:-1])
                if above & ~dropped:
                    continue
                opp = drops[-1]
                brk, mk = self.tie_pair(cand, opp, dropped)
                prob = self.sequence_prob(drops + (cand,), full=False) * 0.5 * (brk + mk)
                swing = None if u is None else u[cand] - u[opp]
                direct.append(DirectEvent(pos, cand, drops, opp, prob, swing))
            for base in permutations(range(kappa)):
                rnd = base.index(cand) + 1
                dropped = _mask(base[: rnd - 1])
                if rnd > kappa - 2 or above & ~dropped:
                    continue
                p_base = self.sequence_prob(base, full=True)
                for alt, displaced, suffix in enumerate_alternates(base, rnd):
                    brk, mk = self.tie_pair(cand, displaced, dropped)
                    tail = self._round_product(alt, rnd + 1, kappa - 1)
                    prob = p_base * tail * 0.5 * (brk + mk)
                    swing = None if u is None else u[alt[-1]] - u[base[-1]]
                    indirect.append(IndirectEvent(
                        pos, cand, base, rnd, alt, displaced, suffix, prob, swing
                    ))
            above |= 1 << cand
        return direct + indirect

    def report(
        self,
        ballot: Sequence[int],
        utilities: Sequence[float] | Mapping[int, float] | None = None,
        with_events: bool = False,
    ) -> PivotReport:
        _check_reach(self.profile.kappa)
        ballot = _check_ballot(self.profile, ballot)
        u = None if utilities is None else _utility_vector(self.profile.kappa, utilities)
        direct, indirect, gains = [], [], []
        above = 0
        for cand in ballot:
            d, i = self._key(cand, above, None)
            direct.append(d)
            indirect.append(i)
            if u is not None:
                gains += self._key(cand, above, u)
            above |= 1 << cand
        p_direct = math.fsum(direct)
        p_indirect = math.fsum(indirect)
        return PivotReport(
            ballot=ballot,
            p_direct=p_direct,
            p_indirect=p_indirect,
            p_total=p_direct + p_indirect,
            expected_utility=None if u is None else math.fsum(gains),
            events=self._events(ballot, u) if with_events else None,
        )


# -- module-level operations ----------------------------------------------


def drop_sequence_prob(profile: BallotProfile, order: Sequence[int]) -> float:
    """Probability the candidates are eliminated in exactly this order.

    ``order`` must rank all candidates (the last entry is the winner).  In
    each round the candidate dropped must strictly trail every candidate
    still standing, at that round's expected totals; the per-round
    comparisons are multiplied together.
    """
    order = _check_order(order, profile.kappa)
    return PivotCalculator(profile).sequence_prob(order, full=True)


def total_pivot_prob(
    profile: BallotProfile,
    ballot: Sequence[int],
    utilities: Sequence[float] | Mapping[int, float] | None = None,
    with_events: bool = False,
) -> PivotReport:
    """Full pivotality report for one ballot (direct plus indirect)."""
    return PivotCalculator(profile).report(ballot, utilities, with_events)


def expected_utility(
    profile: BallotProfile,
    ballot: Sequence[int],
    utilities: Sequence[float] | Mapping[int, float],
) -> float:
    """Expected utility of casting the ballot, relative to abstaining."""
    return total_pivot_prob(profile, ballot, utilities).expected_utility


def best_ballot(
    profile: BallotProfile,
    utilities: Sequence[float] | Mapping[int, float],
    full_length_only: bool = False,
) -> tuple[Ranking, PivotReport]:
    """Admissible ballot with the greatest expected utility.

    Exact utility ties go to the lexicographically smallest candidate-id
    sequence, shorter ballots before longer ones: the first maximum of
    :func:`sweep_reports`.
    """
    best = max(
        sweep_reports(profile, utilities, full_length_only),
        key=operator.attrgetter("expected_utility"),
    )
    return best.ballot, best


def sweep_reports(
    profile: BallotProfile,
    utilities: Sequence[float] | Mapping[int, float] | None = None,
    full_length_only: bool = False,
    sequence_ties: bool = False,
) -> list[PivotReport]:
    """Pivotality reports for every admissible ballot, in lexicographic order."""
    calc = PivotCalculator(profile, sequence_ties=sequence_ties)
    return [
        calc.report(ballot, utilities)
        for ballot in admissible_rankings(
            profile.kappa, profile.max_length, full_length_only
        )
    ]
