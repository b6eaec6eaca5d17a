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
ballot, only which events a ballot position can decide does, and that
depends only on the candidate there and the set ranked above it.
:class:`PivotCalculator` therefore evaluates the events of each such key
as numpy arrays, from a per-kappa index plan of the comparisons and tie
terms each event multiplies, in the scalar path's order of operations, so
every event keeps its bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .elections import (
    BallotProfile,
    Ranking,
    _as_ranking,
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
    "enumerate_alternates",
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
    base = _as_ranking(base)
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


def _pack(first, second, mask, kappa: int):
    """Dense index of a ``(first, second, dropped)`` triple, ``dropped`` as
    a bitmask; works elementwise on arrays."""
    return (mask * kappa + second) * kappa + first


def _prefix_masks(orders: np.ndarray) -> np.ndarray:
    """``masks[:, r]`` is the bitmask of the first ``r`` entries of each order."""
    masks = np.zeros(orders.shape, dtype=np.int64)
    np.cumsum(np.left_shift(1, orders[:, :-1]), axis=1, out=masks[:, 1:])
    return masks


def _fold_columns(orders: np.ndarray, last: int) -> tuple[np.ndarray, np.ndarray]:
    """The comparison column of every factor that
    :meth:`PivotCalculator._round_product` multiplies over rounds
    ``1..last`` of each order, one row per factor in fold order, and the
    round of each row."""
    kappa = orders.shape[1]
    masks = _prefix_masks(orders)
    rows, rounds = [], []
    for rnd in range(1, last + 1):
        for later in range(rnd, kappa):
            rows.append(1 + _pack(orders[:, later], orders[:, rnd - 1], masks[:, rnd - 1], kappa))
            rounds.append(rnd)
    cols = np.array(rows, dtype=np.int64).reshape(len(rows), len(orders))
    return cols, np.array(rounds, dtype=np.int64)


def _fold(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per event, the left fold from 1.0 of its factors ``values[cols[:, e]]``:
    the arithmetic of :meth:`PivotCalculator._round_product` on arrays."""
    out = np.ones(cols.shape[1])
    for row in cols:
        out *= values[row]
    return out


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


def _swings(plan: "_KeyPlan", cand: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per event of a key, the utility the added vote gains: the direct
    events' ``u[cand] - u[runner_up]`` and the indirect ones' ``u[new
    winner] - u[old winner]``."""
    return u[cand] - u[plan.runner_up], u[plan.new_winner] - u[plan.old_winner]


def _listed(swings: np.ndarray | None, probs: np.ndarray) -> list:
    """Per-event utility swings as floats, or ``None`` per event without utilities."""
    return [None] * len(probs) if swings is None else swings.tolist()


class _KeyPlan(NamedTuple):
    """Index arrays of the events a vote decides at one ``(candidate,
    set ranked above)`` key, in report order.  ``*_cols`` hold comparison
    columns, one row per factor and one column per event; ``*_ties`` hold
    tie rows."""

    direct_cols: np.ndarray  # survival factors of each direct event
    direct_ties: np.ndarray  # its final-round tie
    runner_up: np.ndarray  # its final-round opponent
    base_cols: np.ndarray  # every round of each group's base order
    group: np.ndarray  # the group of each indirect event
    tail_cols: np.ndarray  # the alternate's rounds after the save; 0 pads
    indirect_ties: np.ndarray  # the saved candidate's last-place tie
    new_winner: np.ndarray  # the alternate's winner
    old_winner: np.ndarray  # the base order's winner
    cols: np.ndarray  # every column used above, once
    ties: np.ndarray  # every tie row used above, once


class _KeyProbs(NamedTuple):
    """A calculator's event probabilities at one key, in report order, and
    their exact partials."""

    plan: _KeyPlan
    direct: np.ndarray
    indirect: np.ndarray
    direct_partials: list[float]
    indirect_partials: list[float]


class _Plan:
    """The index plan of one kappa, shared by every calculator of that kappa.

    A calculator's reports read two vectors.  Column ``1 + _pack(winner,
    loser, dropped)`` of the comparison vector holds ``beats(winner, loser,
    dropped)``, and column 0 holds the 1.0 that pads a fold.  Row
    ``_pack(candidate, opponent, dropped)`` of the tie vector holds ``brk +
    mk`` from ``tie_pair(candidate, opponent, dropped)``.  The plan lists
    per key, built on first use, the indices its events read, as narrow
    integer arrays.  It keeps the alternates of each group for
    :meth:`walk`, which lists the events themselves.
    """

    def __init__(self, kappa: int):
        self.kappa = kappa
        self.size = kappa * kappa << kappa
        self._index = np.min_scalar_type(self.size)
        self._keys: dict[tuple[int, int], _KeyPlan] = {}
        self._alternates: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

    def walk(self, cand: int, above: int):
        """The events a vote for ``cand`` can decide once the candidates in
        the bitmask ``above`` have dropped.

        Returns ``(orders, groups)`` in report order.  ``orders`` are the
        direct events' elimination orders (``cand`` last): the vote reaches
        ``cand`` in the final round unless the opponent is ranked above.
        ``groups`` holds a ``(base, round_index, alternates)`` triple for
        each order that drops ``cand`` in a round the vote can decide.
        ``alternates`` holds the alternate orders of
        :func:`enumerate_alternates` for that save, one per row, made once
        per ``(base, round_index)`` and shared by every key that reaches it.
        """
        kappa = self.kappa
        orders, groups = [], []
        for order in permutations(range(kappa)):
            rnd = order.index(cand) + 1
            if rnd == kappa and not above >> order[-2] & 1:
                orders.append(order)
            # A save in round kappa - 1 is the final-round contest itself,
            # which the direct events score.
            elif rnd <= kappa - 2 and not above & ~sum(1 << c for c in order[: rnd - 1]):
                alts = self._alternates.get((order, rnd))
                if alts is None:
                    rows = [a for a, _, _ in enumerate_alternates(order, rnd)]
                    alts = np.array(rows, dtype=np.int8).reshape(-1, kappa)
                    self._alternates[order, rnd] = alts
                groups.append((order, rnd, alts))
        return orders, groups

    def key(self, cand: int, above: int) -> _KeyPlan:
        plan = self._keys.get((cand, above))
        if plan is None:
            plan = self._keys[cand, above] = self._build(cand, above)
        return plan

    def _build(self, cand: int, above: int) -> _KeyPlan:
        kappa = self.kappa
        orders, groups = self.walk(cand, above)
        direct = np.array(orders, dtype=np.int64).reshape(-1, kappa)
        direct_cols, _ = _fold_columns(direct, kappa - 2)
        direct_ties = _pack(direct[:, -1], direct[:, -2], _prefix_masks(direct)[:, -2], kappa)

        base = np.array([g[0] for g in groups], dtype=np.int64).reshape(-1, kappa)
        base_cols, _ = _fold_columns(base, kappa - 1)
        sizes = [len(g[2]) for g in groups]
        group = np.repeat(np.arange(len(groups)), sizes)
        saved = np.repeat(np.array([g[1] for g in groups], dtype=np.int64), sizes)
        alt = np.concatenate([np.empty((0, kappa), np.int8)] + [g[2] for g in groups])
        alt = alt.astype(np.int64)
        tail_cols, rounds = _fold_columns(alt, kappa - 1)
        tail_cols = np.where(rounds[:, None] > saved, tail_cols, 0)
        # Rows up to the earliest save hold padding only.
        tail_cols = tail_cols[rounds > saved.min(initial=kappa)]
        at_save = (np.arange(len(alt)), saved - 1)
        indirect_ties = _pack(cand, alt[at_save], _prefix_masks(alt)[at_save], kappa)

        cols = np.unique(np.concatenate([a.ravel() for a in (direct_cols, base_cols, tail_cols)]))
        ties = np.unique(np.concatenate([direct_ties, indirect_ties]))
        idx = self._index
        return _KeyPlan(
            direct_cols=direct_cols.astype(idx),
            direct_ties=direct_ties.astype(idx),
            runner_up=direct[:, -2].astype(np.int8),
            base_cols=base_cols.astype(idx),
            group=group.astype(np.min_scalar_type(len(groups))),
            tail_cols=tail_cols.astype(idx),
            indirect_ties=indirect_ties.astype(idx),
            new_winner=alt[:, -1].astype(np.int8),
            old_winner=base[group, -1].astype(np.int8),
            cols=cols[cols > 0].astype(idx),
            ties=ties.astype(idx),
        )


@functools.cache
def _plan(kappa: int) -> _Plan:
    return _Plan(kappa)


class PivotCalculator:
    """Scores a profile's pivotal events as arrays and sums them per ballot.

    An event's probability depends only on the profile; the ballot only
    decides which events count, through the ``(candidate, set ranked
    above)`` key of each position.  A per-kappa index plan lists, per key,
    the comparison columns and tie rows each event multiplies.  A report
    fills the key's missing columns and rows through :meth:`beats` and
    :meth:`tie_pair`, and evaluates the key's events with the left fold of
    :meth:`_round_product`, so every event gets the same IEEE product as
    the scalar path.

    Each distinct piece of arithmetic is done once per calculator.  The
    expected totals after every set of drops are built up front as one
    table, ``T[dropped mask][candidate]`` (:func:`elections.expected_total`),
    from which :meth:`beats` and :meth:`tie_pair` read both rates.  The
    kernel is a function of two Poisson rates only, so :meth:`beats` and
    :meth:`tie_pair` cache it on the rate values: in symmetric profiles
    most comparisons share a pair.  Per key, the probability arrays are
    kept with their exact partials (:func:`_partials`), a few floats with
    the arrays' exact sum, and the utility gains' partials are kept per
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
        self._plan = _plan(profile.kappa)
        # The comparison and tie vectors of _Plan, made by the first report
        # (their length grows as 2**kappa, and the scalar path needs neither).
        self._cols: np.ndarray | None = None
        self._tie_sums: np.ndarray | None = None
        self._probs: dict[tuple[int, int], _KeyProbs] = {}
        self._gains: dict[tuple[int, int, tuple[float, ...]], list[float]] = {}

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

    def _fill(self, plan: _KeyPlan) -> None:
        """Fill the key's comparison columns and tie rows not filled yet."""
        if self._cols is None:
            # NaN marks an entry not filled yet.
            self._cols = np.full(self._plan.size + 1, np.nan)
            self._cols[0] = 1.0
            self._tie_sums = np.full(self._plan.size, np.nan)
        k = self._plan.kappa
        # Index (dropped * k + second) * k + first, as _pack makes it.
        for i in plan.cols[np.isnan(self._cols[plan.cols])].tolist():
            dropped, pair = divmod(i - 1, k * k)
            self._cols[i] = self.beats(pair % k, pair // k, dropped)
        for i in plan.ties[np.isnan(self._tie_sums[plan.ties])].tolist():
            dropped, pair = divmod(i, k * k)
            brk, mk = self.tie_pair(pair % k, pair // k, dropped)
            self._tie_sums[i] = brk + mk

    def _key_probs(self, cand: int, above: int) -> _KeyProbs:
        """The key's direct and indirect event probabilities and their partials.

        A direct event is ``survival * 0.5 * (brk + mk)`` and an indirect one
        ``base * tail * 0.5 * (brk + mk)``, each product in this order.
        """
        probs = self._probs.get((cand, above))
        if probs is None:
            plan = self._plan.key(cand, above)
            self._fill(plan)
            cols, ties = self._cols, self._tie_sums
            direct = _fold(cols, plan.direct_cols) * 0.5 * ties[plan.direct_ties]
            base = _fold(cols, plan.base_cols)[plan.group]
            indirect = base * _fold(cols, plan.tail_cols) * 0.5 * ties[plan.indirect_ties]
            probs = self._probs[cand, above] = _KeyProbs(
                plan, direct, indirect, _partials(direct.tolist()), _partials(indirect.tolist())
            )
        return probs

    def _gain_partials(self, cand: int, above: int, u: tuple[float, ...]) -> list[float]:
        """Partials of the key's utility gains, ``probability * swing`` per event."""
        parts = self._gains.get((cand, above, u))
        if parts is None:
            probs = self._key_probs(cand, above)
            d_swing, i_swing = _swings(probs.plan, cand, np.array(u))
            gains = (probs.direct * d_swing).tolist() + (probs.indirect * i_swing).tolist()
            parts = self._gains[cand, above, u] = _partials(gains)
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
                d_swing = i_swing = None
                if u is not None:
                    d_swing, i_swing = _swings(probs.plan, cand, np.array(u))
                orders, groups = self._plan.walk(cand, above)
                d_prob, i_prob = probs.direct, probs.indirect
                d_rows = zip(orders, d_prob.tolist(), _listed(d_swing, d_prob), strict=True)
                for order, prob, swing in d_rows:
                    direct_ev.append(DirectEvent(pos, cand, order[:-1], order[-2], prob, swing))
                alts = [
                    (base, rnd, alt, alt[rnd - 1], alt[rnd:])
                    for base, rnd, group in groups
                    for alt in map(tuple, group.tolist())
                ]
                i_rows = zip(alts, i_prob.tolist(), _listed(i_swing, i_prob), strict=True)
                for alt, prob, swing in i_rows:
                    indirect_ev.append(IndirectEvent(pos, cand, *alt, prob, swing))
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
    order = _as_ranking(order)
    if sorted(order) != list(range(profile.kappa)):
        raise ValueError(
            f"order must be a permutation of all {profile.kappa} candidates"
        )
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
