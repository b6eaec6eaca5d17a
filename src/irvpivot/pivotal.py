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
multiplied as if independent.  An event's score does not depend on the
ballot, only which events a ballot position can decide does, so events are
listed once per kappa (:class:`_EventTable`) and scored once per profile
(:class:`PivotCalculator`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

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
from .skellam import DEFAULT_TOLERANCE, Tolerance, prob_strictly_greater, skellam_pmf, tie_terms

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

# Largest kappa the event table is built for: at kappa=7 it holds 17,377,920
# events and took 31-44 s and 1.2 GB peak RSS to build on one 2-core x86 host;
# kappa=8 would hold about a billion.  ROADMAP item 4 replaces the table with
# a DP that reaches further.
MAX_KAPPA = 7


def _check_reach(kappa: int) -> None:
    if kappa > MAX_KAPPA:
        raise ValueError(
            f"pivot events are enumerated for at most {MAX_KAPPA} candidates, got "
            f"kappa={kappa}; larger elections await the subset DP of ROADMAP item 4"
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


class _EventTable(NamedTuple):
    """The events of one kappa, shared by every calculator of that kappa.

    ``orders`` are the kappa! elimination orders in :func:`permutations`
    order, also as the rows of ``rows``.  ``events[c]`` holds four rows,
    ``base, round_index, alternate, dropped``, with one column per event a
    vote for candidate ``c`` can decide: orders by index, and ``dropped``
    the bitmask of the base's rounds before ``round_index``.  The direct events
    come first, one per order ``c`` wins, as saves in the final round
    (``round_index = kappa - 1``): the base is that order with its last two
    entries swapped, so the runner-up wins without the vote.  The indirect
    events follow, one per alternate of :func:`enumerate_alternates` that
    saves ``c``, in base order and then in the order of the alternates.  A
    vote decides an event once every candidate ranked above ``c`` is in
    ``dropped``, so a ``(candidate, set ranked above)`` key selects its
    events by that mask.

    Events share their arithmetic through orders.  A calculator keeps one
    value per slot, each computed the first time an event reads it.  Slot
    ``o * kappa`` holds :meth:`PivotCalculator._round_product` of order
    ``o`` over rounds ``1..kappa-2``, its ``head``, and slot ``o * kappa +
    r`` for ``r >= 1`` its product over rounds ``r+1..kappa-1``, the rounds
    after a save in round ``r`` (1.0 for ``r = kappa - 1``).  One slot per
    ``(dropped, opponent, candidate)`` follows, holding ``brk + mk``.  Per
    event, ``slots[c]`` holds a column of four slots, ``head, final, tail,
    tie``, and the event's probability is ``head * final * tail * 0.5 *
    tie``, multiplied in that order.  For an indirect event they are the
    base's head and final round (``head * final`` is bit for bit the base's
    product over all its rounds), the alternate's rounds after the save and
    the save's tie term; for a direct event, the alternate's head, 1.0, 1.0
    and the final-round tie term.  Each product is thus the scalar path's,
    and every event keeps its bits.
    """

    orders: list[tuple[int, ...]]
    rows: np.ndarray
    events: list[np.ndarray]
    slots: list[np.ndarray]


@functools.cache
def _event_table(kappa: int) -> _EventTable:
    _check_reach(kappa)
    orders = list(permutations(range(kappa)))
    rows = np.array(orders, dtype=np.int32).reshape(-1, kappa)
    masks = np.zeros_like(rows)
    np.cumsum(np.left_shift(1, rows[:, :-1]), axis=1, out=masks[:, 1:])
    index = {order: i for i, order in enumerate(orders)}
    groups: list[list[np.ndarray]] = [[] for _ in range(kappa)]
    for o, order in enumerate(orders):
        swapped = order[:-2] + order[:-3:-1]
        groups[order[-1]].append(np.array([(index[swapped], kappa - 1, o, masks[o, -2])]))
    for b, base in enumerate(orders):
        for rnd in range(1, kappa - 1):
            alts = enumerate_alternates(base, rnd)
            saves = [(b, rnd, index[alt], masks[b, rnd - 1]) for alt, _, _ in alts]
            groups[base[rnd - 1]].append(np.array(saves).reshape(-1, 4))
    events = [np.ascontiguousarray(np.concatenate(g).T, dtype=np.int32) for g in groups]

    ties = kappa * len(orders)
    slots = []
    for cand, e in enumerate(events):
        base, rnd, alt, dropped = e
        direct = rnd == kappa - 1
        slots.append(np.array([
            np.where(direct, alt, base) * kappa,
            np.where(direct, alt * kappa + kappa - 1, base * kappa + kappa - 2),
            alt * kappa + rnd,
            ties + (dropped * kappa + rows[alt, rnd - 1]) * kappa + cand,
        ], dtype=np.int32))
    return _EventTable(orders, rows, events, slots)


def _partials(values: list[float]) -> list[float]:
    """A short list of floats with the exact sum of ``values``.

    Each entry is the rounded remainder the entries before it leave.  A
    remainder is a multiple of 2**-1074, so it rounds to 0.0 only once it
    is exactly 0.  ``math.fsum`` is correctly rounded, so any list that
    holds these in place of ``values`` sums to the same bits.  A sum of
    zero is kept as the zero ``math.fsum`` gives, with its sign.
    """
    out: list[float] = []
    while rest := math.fsum(values + [-p for p in out]):
        out.append(rest)
        if not math.isfinite(rest):
            break
    return out or [rest]


class _KeyProbs(NamedTuple):
    """The events a vote decides at one ``(candidate, set ranked above)``
    key, as columns of the event table in report order, direct events
    first, with their probabilities and the exact partials of each kind."""

    picked: np.ndarray
    probs: np.ndarray
    direct_partials: list[float]
    indirect_partials: list[float]


class PivotCalculator:
    """Scores a profile's pivotal events and sums them per ballot.

    An event's probability depends only on the profile; the ballot only
    decides which events count, through the ``(candidate, set ranked
    above)`` key of each position.  So each distinct piece of arithmetic is
    done once per calculator.  The expected totals after every set of drops
    are built up front as one table, ``T[dropped mask][candidate]``
    (:func:`elections.expected_total`).  The kernel is a function of two
    Poisson rates only, so :meth:`beats` and :meth:`tie_pair` cache it on
    the rate values: in symmetric profiles most comparisons share a pair.
    The per-order folds and tie terms of :class:`_EventTable` are computed
    the first time an event needs them, so a report evaluates only what its
    ballot can reach, and the scalar path (:meth:`sequence_prob`) allocates
    none of them.  Per key, the event probabilities are kept with their
    exact partials (:func:`_partials`), and the utility gains' partials per
    utility vector.  A report sums its keys' partials with ``math.fsum``,
    which gives the correctly rounded sum of all its events, independent of
    enumeration order, and builds event objects only when asked for them.

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
        self._T = expected_total(profile).tolist()
        # Kernel results keyed on the two rates they are evaluated at.
        self._beats: dict[tuple[float, float], float] = {}
        self._ties: dict[tuple[float, float], tuple[float, float]] = {}
        self._probs: dict[tuple[int, int], _KeyProbs] = {}
        self._gains: dict[tuple[int, int, tuple[float, ...]], list[float]] = {}

    @functools.cached_property
    def _values(self) -> np.ndarray:
        """The slots of :class:`_EventTable`; NaN marks a value not computed yet."""
        k = self.profile.kappa
        return np.full(k * math.factorial(k) + (k * k << k), np.nan)

    # -- cached primitives -------------------------------------------------

    def beats(self, winner: int, loser: int, dropped: int) -> float:
        """P(winner's total exceeds loser's) once the candidates in the
        bitmask ``dropped`` are eliminated."""
        totals = self._T[dropped]
        key = (totals[winner], totals[loser])
        val = self._beats.get(key)
        if val is None:
            val = prob_strictly_greater(*key, self.tol)
            if self.sequence_ties:
                val = min(1.0, val + 0.5 * skellam_pmf(0, *key, self.tol))
            self._beats[key] = val
        return val

    def tie_pair(self, candidate: int, opponent: int, dropped: int) -> tuple[float, float]:
        """The kernel's tie terms for the two totals after the drops in the
        bitmask ``dropped``."""
        totals = self._T[dropped]
        key = (totals[candidate], totals[opponent])
        val = self._ties.get(key)
        if val is None:
            val = self._ties[key] = tie_terms(*key, self.tol)
        return val

    def _round_product(self, order: tuple[int, ...], first: int, last: int) -> float:
        """Product over rounds ``first..last`` (1-based) of "every later
        candidate beats the one dropped now", at that round's totals."""
        val = 1.0
        dropped = sum(1 << c for c in order[: first - 1])
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

    # -- events of one key -------------------------------------------------

    def _slot_values(self, slots: np.ndarray) -> np.ndarray:
        """The values at ``slots``, each computed the first time it is read."""
        vals = self._values[slots]
        missing = np.isnan(vals)
        if missing.any():
            k = self.profile.kappa
            orders = _event_table(k).orders
            ties = k * len(orders)
            for slot in np.unique(slots[missing]).tolist():
                if slot < ties:
                    o, r = divmod(slot, k)
                    val = self._round_product(orders[o], r + 1 if r else 1, k - 1 if r else k - 2)
                else:
                    dropped, pair = divmod(slot - ties, k * k)
                    brk, mk = self.tie_pair(pair % k, pair // k, dropped)
                    val = brk + mk
                self._values[slot] = val
            vals = self._values[slots]
        return vals

    def _key_probs(self, cand: int, above: int) -> _KeyProbs:
        """The key's direct and indirect event probabilities and their partials."""
        probs = self._probs.get((cand, above))
        if probs is None:
            table = _event_table(self.profile.kappa)
            picked = np.flatnonzero(table.events[cand][3] & above == above)
            head, final, tail, tie = self._slot_values(table.slots[cand][:, picked])
            p = head * final * tail * 0.5 * tie
            # Direct events come first in a candidate's columns.
            n = np.searchsorted(picked, math.factorial(self.profile.kappa - 1))
            probs = self._probs[cand, above] = _KeyProbs(
                picked, p, _partials(p[:n].tolist()), _partials(p[n:].tolist())
            )
        return probs

    def _swings(self, events: np.ndarray, u: tuple[float, ...]) -> np.ndarray:
        """Per event of ``events``, columns of the event table, the utility
        the added vote gains, ``u[new winner] - u[old winner]``:
        ``u[candidate] - u[runner_up]`` for a direct event."""
        winner = _event_table(self.profile.kappa).rows[:, -1]
        u = np.array(u)
        return u[winner[events[2]]] - u[winner[events[0]]]

    def _gain_partials(self, cand: int, above: int, u: tuple[float, ...]) -> list[float]:
        """Partials of the key's utility gains, ``probability * swing`` per event."""
        parts = self._gains.get((cand, above, u))
        if parts is None:
            probs = self._key_probs(cand, above)
            events = _event_table(self.profile.kappa).events[cand][:, probs.picked]
            gains = probs.probs * self._swings(events, u)
            parts = self._gains[cand, above, u] = _partials(gains.tolist())
        return parts

    # -- events and reports ------------------------------------------------

    def report(
        self,
        ballot: Sequence[int],
        utilities: Sequence[float] | Mapping[int, float] | None = None,
        with_events: bool = False,
    ) -> PivotReport:
        ballot = _check_ballot(self.profile, ballot)
        u = None if utilities is None else _utility_vector(self.profile.kappa, utilities)
        direct, indirect, gains, direct_ev, indirect_ev = [], [], [], [], []
        above = 0
        for pos, cand in enumerate(ballot, start=1):
            probs = self._key_probs(cand, above)
            direct += probs.direct_partials
            indirect += probs.indirect_partials
            if u is not None:
                gains += self._gain_partials(cand, above, u)
            if with_events:
                table = _event_table(self.profile.kappa)
                events = table.events[cand][:, probs.picked]
                swings = [None] * len(probs.picked)
                if u is not None:
                    swings = self._swings(events, u).tolist()
                orders = table.orders
                rows = zip(*events[:3].tolist(), probs.probs.tolist(), swings)
                for b, rnd, a, prob, swing in rows:
                    alt = orders[a]
                    if rnd == len(alt) - 1:
                        direct_ev.append(DirectEvent(pos, cand, alt[:-1], alt[-2], prob, swing))
                    else:
                        indirect_ev.append(IndirectEvent(
                            pos, cand, orders[b], rnd, alt, alt[rnd - 1], alt[rnd:], prob, swing
                        ))
            above |= 1 << cand
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
    order = _check_order(order, profile.kappa)
    return PivotCalculator(profile, tol).sequence_prob(order, full=True)


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
    sequence, shorter ballots before longer ones: the first maximum of
    :func:`sweep_reports`.
    """
    best = max(
        sweep_reports(profile, utilities, full_length_only, tol),
        key=operator.attrgetter("expected_utility"),
    )
    return best.ballot, best


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
