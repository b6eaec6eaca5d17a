"""Pivotal-probability engine for instant runoff elections.

A single added ballot can change an IRV winner in two mutually exclusive
ways.  It is *directly* pivotal when a candidate ranked on it ends up in a
two-way final-round contest and the extra vote breaks, or creates, a
first-place tie that the candidate then wins.  It is *indirectly* pivotal
when the extra vote flips a last-place tie in an earlier round, changing
the elimination order so that some other candidate wins.

Both cases are enumerated over elimination sequences.  Each sequence is
scored as a product of pairwise "survivor beats dropped" probabilities,
evaluated at the vote totals of the round where the drop happens, times a
fair-coin tie term at the round where the single added vote matters.  All
probabilities come from the Skellam kernel and the expected vote totals of
the ballot profile; pairwise comparisons within and across rounds are
multiplied as if independent.  A sequence's score does not depend on the
ballot, so :class:`PivotCalculator` scores each one once per profile, in a
table that every ballot's report reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Sequence

from .elections import (
    BallotProfile,
    Ranking,
    _check_ballot,
    _utility_vector,
    admissible_rankings,
    expected_total,
)
from .skellam import DEFAULT_TOLERANCE, Tolerance, prob_strictly_greater, skellam_pmf, tie_terms

__all__ = [
    "DirectEvent",
    "IndirectEvent",
    "PivotReport",
    "PivotCalculator",
    "drop_lists",
    "drop_sequence_prob",
    "direct_pivot_prob",
    "enumerate_alternates",
    "indirect_pivot_prob",
    "total_pivot_prob",
    "expected_utility",
    "best_ballot",
    "sweep_reports",
]


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
    if isinstance(event, DirectEvent):
        return {
            "kind": "direct",
            "position": event.position,
            "candidate": event.candidate,
            "drops": list(event.drops),
            "runner_up": event.runner_up,
            "probability": event.probability,
            "utility_swing": event.utility_swing,
        }
    return {
        "kind": "indirect",
        "position": event.position,
        "candidate": event.candidate,
        "base": list(event.base),
        "round_index": event.round_index,
        "alternate": list(event.alternate),
        "displaced": event.displaced,
        "suffix": list(event.suffix),
        "probability": event.probability,
        "utility_swing": event.utility_swing,
    }


def drop_lists(kappa: int, candidate: int):
    """All orders in which the other kappa-1 candidates could be dropped."""
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
    base = tuple(int(c) for c in base)
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


class PivotCalculator:
    """Scores a profile's pivotal events once and sums them per ballot.

    An event's probability depends only on the profile; the ballot only
    decides which events count.  One table, filled on first use, maps a
    direct event's elimination order to its probability and an indirect
    ``(base, round_index)`` group to its ``(alternate, displaced, suffix,
    probability)`` tuples.  It rests on caches of expected totals, pairwise
    comparisons and tie terms.  A report sums plain floats from the table
    with ``math.fsum``, so results do not depend on enumeration order, and
    builds event objects only when asked for them.

    Args:
        profile: Expected ballot counts.
        tol: Kernel truncation bound.
        sequence_ties: If true, every pairwise survival comparison also
            credits half of the exact-tie mass for that pair (a coin-flip
            elimination going the survivor's way).  Off by default: drop
            orders are then scored from strict comparisons only, and tie
            mass enters solely through the pivotal round.
    """

    def __init__(
        self,
        profile: BallotProfile,
        tol: Tolerance = DEFAULT_TOLERANCE,
        sequence_ties: bool = False,
    ):
        self.profile = profile
        self.tol = tol
        self.sequence_ties = sequence_ties
        self._totals: dict[tuple[int, frozenset[int]], float] = {}
        self._beats: dict[tuple[int, int, frozenset[int]], float] = {}
        self._ties: dict[tuple[int, int, frozenset[int]], tuple[float, float]] = {}
        self._events: dict[tuple, float | list] = {}

    # -- cached primitives -------------------------------------------------

    def total(self, candidate: int, dropped: frozenset[int]) -> float:
        key = (candidate, dropped)
        val = self._totals.get(key)
        if val is None:
            val = expected_total(self.profile, candidate, dropped)
            self._totals[key] = val
        return val

    def beats(self, winner: int, loser: int, dropped: frozenset[int]) -> float:
        """P(winner's total exceeds loser's) in the round after ``dropped``."""
        key = (winner, loser, dropped)
        val = self._beats.get(key)
        if val is None:
            lam_w = self.total(winner, dropped)
            lam_l = self.total(loser, dropped)
            val = prob_strictly_greater(lam_w, lam_l, self.tol)
            if self.sequence_ties:
                val = min(1.0, val + 0.5 * skellam_pmf(0, lam_w, lam_l, self.tol))
            self._beats[key] = val
        return val

    def tie_pair(
        self, candidate: int, opponent: int, dropped: frozenset[int]
    ) -> tuple[float, float]:
        key = (candidate, opponent, dropped)
        val = self._ties.get(key)
        if val is None:
            lam_c = self.total(candidate, dropped)
            lam_o = self.total(opponent, dropped)
            val = tie_terms(lam_c, lam_o, self.tol)
            self._ties[key] = val
        return val

    def _round_product(self, order: tuple[int, ...], first: int, last: int) -> float:
        """Product over rounds ``first..last`` (1-based) of "every later
        candidate beats the one dropped now", at that round's totals."""
        val = 1.0
        for rnd in range(first, last + 1):
            dropped = frozenset(order[: rnd - 1])
            loser = order[rnd - 1]
            for survivor in order[rnd:]:
                val *= self.beats(survivor, loser, dropped)
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

    # -- the event table ---------------------------------------------------

    def _direct(self, order: tuple[int, ...]) -> float:
        """Probability that the others drop in ``order`` and the added vote
        decides the final-round tie of ``order[-1]`` against ``order[-2]``."""
        prob = self._events.get(order)
        if prob is None:
            brk, mk = self.tie_pair(order[-1], order[-2], frozenset(order[:-2]))
            prob = self.sequence_prob(order, full=False) * 0.5 * (brk + mk)
            self._events[order] = prob
        return prob

    def _indirect(self, base: tuple[int, ...], round_index: int) -> list:
        """``(alternate, displaced, suffix, probability)`` for each way of
        saving ``base[round_index - 1]`` that changes the winner."""
        key = (base, round_index)
        group = self._events.get(key)
        if group is None:
            saved = base[round_index - 1]
            tie_dropped = frozenset(base[: round_index - 1])
            base_prob = self.sequence_prob(base, full=True)
            group = []
            for alternate, displaced, suffix in enumerate_alternates(base, round_index):
                tail = self._round_product(alternate, round_index + 1, len(base) - 1)
                brk, mk = self.tie_pair(saved, displaced, tie_dropped)
                prob = base_prob * tail * 0.5 * (brk + mk)
                group.append((alternate, displaced, suffix, prob))
            self._events[key] = group
        return group

    def _reach(self, ballot: Ranking):
        """Yield ``(position, candidate, orders, groups)`` per ballot position.

        The vote reaches the candidate only once everything ranked above
        has dropped: in the final round, that is unless the opponent is
        ranked above.  ``orders`` are the direct events' elimination orders
        (the candidate last) and ``groups`` the ``(base, round_index)``
        keys of the indirect events that the vote can decide there.
        """
        kappa = self.profile.kappa
        for pos, cand in enumerate(ballot, start=1):
            above = set(ballot[: pos - 1])
            orders: list[tuple[int, ...]] = []
            groups: list[tuple[tuple[int, ...], int]] = []
            for order in permutations(range(kappa)):
                rnd = order.index(cand) + 1
                if rnd == kappa and order[-2] not in above:
                    orders.append(order)
                # A save in round kappa - 1 is the final-round contest
                # itself, which the direct events score.
                elif rnd <= kappa - 2 and above <= set(order[: rnd - 1]):
                    groups.append((order, rnd))
            yield pos, cand, orders, groups

    # -- events and reports ------------------------------------------------

    def direct_events(self, ballot: Ranking) -> list[DirectEvent]:
        events = self.report(ballot, with_events=True).events
        return [e for e in events if isinstance(e, DirectEvent)]

    def indirect_events(self, ballot: Ranking) -> list[IndirectEvent]:
        events = self.report(ballot, with_events=True).events
        return [e for e in events if isinstance(e, IndirectEvent)]

    def report(
        self,
        ballot: Sequence[int],
        utilities: Sequence[float] | Mapping[int, float] | None = None,
        with_events: bool = False,
    ) -> PivotReport:
        ballot = _check_ballot(self.profile, ballot)
        u = None if utilities is None else _utility_vector(self.profile.kappa, utilities)
        direct, indirect, gains, direct_ev, indirect_ev = [], [], [], [], []
        for pos, cand, orders, groups in self._reach(ballot):
            for order in orders:
                prob = self._direct(order)
                direct.append(prob)
                swing = None if u is None else u[cand] - u[order[-2]]
                if swing is not None:
                    gains.append(prob * swing)
                if with_events:
                    direct_ev.append(DirectEvent(pos, cand, order[:-1], order[-2], prob, swing))
            for base, rnd in groups:
                for entry in self._indirect(base, rnd):
                    prob = entry[-1]
                    indirect.append(prob)
                    swing = None if u is None else u[entry[0][-1]] - u[base[-1]]
                    if swing is not None:
                        gains.append(prob * swing)
                    if with_events:
                        indirect_ev.append(IndirectEvent(pos, cand, base, rnd, *entry, swing))
        p_direct = math.fsum(direct)
        p_indirect = math.fsum(indirect)
        return PivotReport(
            ballot=ballot,
            p_direct=p_direct,
            p_indirect=p_indirect,
            p_total=p_direct + p_indirect,
            expected_utility=None if u is None else math.fsum(gains),
            events=direct_ev + indirect_ev if with_events else None,
        )


# -- module-level operations ----------------------------------------------


def drop_sequence_prob(
    profile: BallotProfile,
    order: Sequence[int],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Probability the candidates are eliminated in exactly this order.

    ``order`` must rank all candidates (the last entry is the winner).  In
    each round the candidate dropped must strictly trail every candidate
    still standing, at that round's expected totals; the per-round
    comparisons are multiplied together.
    """
    order = tuple(int(c) for c in order)
    if sorted(order) != list(range(profile.kappa)):
        raise ValueError(
            f"order must be a permutation of all {profile.kappa} candidates"
        )
    return PivotCalculator(profile, tol).sequence_prob(order, full=True)


def direct_pivot_prob(
    profile: BallotProfile,
    ballot: Sequence[int],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[float, list[DirectEvent]]:
    """Probability the ballot elects a candidate ranked on it."""
    calc = PivotCalculator(profile, tol)
    events = calc.direct_events(_check_ballot(profile, ballot))
    return math.fsum(e.probability for e in events), events


def indirect_pivot_prob(
    profile: BallotProfile,
    ballot: Sequence[int],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[float, list[IndirectEvent]]:
    """Probability the ballot changes the winner to an unhelped candidate."""
    calc = PivotCalculator(profile, tol)
    events = calc.indirect_events(_check_ballot(profile, ballot))
    return math.fsum(e.probability for e in events), events


def total_pivot_prob(
    profile: BallotProfile,
    ballot: Sequence[int],
    utilities: Sequence[float] | Mapping[int, float] | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
    with_events: bool = False,
) -> PivotReport:
    """Full pivotality report for one ballot (direct plus indirect)."""
    return PivotCalculator(profile, tol).report(ballot, utilities, with_events)


def expected_utility(
    profile: BallotProfile,
    ballot: Sequence[int],
    utilities: Sequence[float] | Mapping[int, float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """Expected utility of casting the ballot, relative to abstaining."""
    return total_pivot_prob(profile, ballot, utilities, tol).expected_utility


def best_ballot(
    profile: BallotProfile,
    utilities: Sequence[float] | Mapping[int, float],
    full_length_only: bool = False,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[Ranking, PivotReport]:
    """Admissible ballot with the greatest expected utility.

    Exact utility ties go to the lexicographically smallest candidate-id
    sequence, shorter ballots before longer ones.
    """
    calc = PivotCalculator(profile, tol)
    best: tuple[Ranking, PivotReport] | None = None
    for ballot in admissible_rankings(
        profile.kappa, profile.max_length, full_length_only
    ):
        rep = calc.report(ballot, utilities)
        if best is None or rep.expected_utility > best[1].expected_utility:
            best = (ballot, rep)
    return best


def sweep_reports(
    profile: BallotProfile,
    utilities: Sequence[float] | Mapping[int, float] | None = None,
    full_length_only: bool = False,
    tol: Tolerance = DEFAULT_TOLERANCE,
    sequence_ties: bool = False,
) -> list[PivotReport]:
    """Pivotality reports for every admissible ballot, in lexicographic order."""
    calc = PivotCalculator(profile, tol, sequence_ties=sequence_ties)
    return [
        calc.report(ballot, utilities)
        for ballot in admissible_rankings(
            profile.kappa, profile.max_length, full_length_only
        )
    ]
