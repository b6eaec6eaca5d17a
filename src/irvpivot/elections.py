"""Ballot profiles, expected vote totals, and concrete vote tabulation.

Candidates are dense integer ids ``0 .. kappa-1``.  A ranking is a tuple of
distinct candidate ids, most preferred first; rankings shorter than the
ballot limit are allowed (a ballot whose listed candidates have all been
eliminated is exhausted and counts for nobody).  A :class:`BallotProfile`
maps rankings to expected counts (Poisson rates); a
:class:`RealizedElection` maps rankings to realized integer counts.

The ballot-transfer rule, "a ballot counts for its highest-ranked candidate
still standing", lives in :func:`_recipients`, a table over every active
set that both the pivot engine and the Monte-Carlo oracle count with.
Called without a candidate, :func:`expected_total` sums it into every
expected total at once, the table the engine reads; called with one, it
applies the rule one ranking at a time, the reference for that table.

The input rules live here too, one check per kind of input, and every
module calls them: :func:`_integral` for any integer, :func:`_check_candidate`
for a candidate id, :func:`_check_ranking` for a ranking within the ballot
limits, :func:`_check_order` for an order of all candidates,
:func:`_check_limits` for kappa and the ballot length, and
:func:`_check_voters` for an expected number of voters.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Ranking",
    "BallotProfile",
    "RealizedElection",
    "admissible_rankings",
    "expected_total",
    "tabulate",
    "IRV",
    "SMDP",
]

Ranking = tuple[int, ...]

IRV = "IRV"
SMDP = "SMDP"


def _integral(value, what: str) -> int:
    """``value`` as an int, if it is an int, a numpy integer or a float with
    no fractional part.  Another number raises a ``ValueError`` and a
    non-number a ``TypeError``; both name the value."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _as_ranking(seq: Iterable[int]) -> Ranking:
    return tuple(_integral(c, "candidate id") for c in seq)


def _check_candidate(candidate, kappa: int, what: str = "candidate") -> int:
    """``candidate`` as an id in ``0..kappa-1``; a ``ValueError`` names a
    non-integral or out-of-range value."""
    candidate = _integral(candidate, f"{what} id")
    if not 0 <= candidate < kappa:
        raise ValueError(f"{what} {candidate} out of range for kappa={kappa}")
    return candidate


def _check_order(order: Iterable[int], kappa: int, what: str = "order") -> Ranking:
    """``order`` as a ranking of every one of the ``kappa`` candidates."""
    order = _as_ranking(order)
    if sorted(order) != list(range(kappa)):
        raise ValueError(
            f"{what} {order!r} must rank each of the {kappa} candidates exactly once"
        )
    return order


def _check_ranking(seq: Iterable[int], kappa: int, max_length: int) -> Ranking:
    """``seq`` as a ranking of 1..``max_length`` distinct ids in
    ``0..kappa-1``.  Each entry is converted once; the checks fire in the
    order type, length, repeat, range."""
    ranking = _as_ranking(seq)
    if not 1 <= len(ranking) <= max_length:
        raise ValueError(
            f"ranking {ranking!r} has length {len(ranking)}, allowed 1..{max_length}"
        )
    if len(set(ranking)) != len(ranking):
        raise ValueError(f"ranking {ranking!r} repeats a candidate")
    for c in ranking:
        if not 0 <= c < kappa:
            _check_candidate(c, kappa)  # raises the out-of-range message
    return ranking


def _check_limits(kappa: int, max_length: int | None) -> tuple[int, int]:
    """Validated (kappa, max_length); ``max_length`` defaults to ``kappa``."""
    kappa = _integral(kappa, "kappa")
    if kappa < 2:
        raise ValueError(f"kappa must be at least 2, got {kappa}")
    max_length = kappa if max_length is None else _integral(max_length, "max_length")
    if not 1 <= max_length <= kappa:
        raise ValueError(f"max_length must be in 1..{kappa}, got {max_length}")
    return kappa, max_length


def _check_voters(n_voters) -> None:
    """A ``ValueError`` names ``n_voters`` unless it is finite and above 0
    (``nan <= 0`` is false, so a bare sign test would let NaN through)."""
    if not (math.isfinite(n_voters) and n_voters > 0):
        raise ValueError(f"n_voters must be finite and positive, got {n_voters!r}")


def _check_ballot(profile: "BallotProfile", ballot: Sequence[int]) -> Ranking:
    """The ballot as a ranking, validated against the profile's limits."""
    return _check_ranking(ballot, profile.kappa, profile.max_length)


def _utility_vector(
    kappa: int, utilities: Sequence[float] | Mapping[int, float]
) -> tuple[float, ...]:
    """One finite utility per candidate, from a sequence or a mapping.

    The gain of a changed winner is a difference of two utilities, so the
    spread between the largest and the smallest must be finite too.
    """
    if isinstance(utilities, Mapping):
        try:
            vals = [float(utilities[c]) for c in range(kappa)]
        except KeyError as exc:
            raise ValueError(f"missing utility for candidate {exc.args[0]}") from None
    else:
        vals = [float(v) for v in utilities]
        if len(vals) != kappa:
            raise ValueError(
                f"need one utility per candidate ({kappa}), got {len(vals)}"
            )
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("utilities must be finite")
    if not math.isfinite(max(vals) - min(vals)):
        raise ValueError(
            f"utility differences overflow: max {max(vals)!r} minus min "
            f"{min(vals)!r} is not a finite float"
        )
    return tuple(vals)


def _read_json(data, what: str, field: str, number: type) -> tuple:
    """``(kappa, entries, max_length)`` from a profile's or an election's JSON.

    ``entries`` holds one ``(ranking, value)`` pair per entry of the list
    under ``field + "s"``, repeats included.  A missing field raises a
    ``ValueError`` that names it, and so does a value that is not a JSON
    number where one is due (``float()`` and ``int()`` would take a string
    or a boolean); JSON of another wrong shape raises one that shows the
    expected shape.
    """

    def num(value, name: str):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"malformed {what}: {name} must be a number, got {value!r}")
        return value

    try:
        entries = [
            (
                _as_ranking(num(c, "each 'ranking' entry") for c in e["ranking"]),
                number(num(e[field], repr(field))),
            )
            for e in data[field + "s"]
        ]
        max_length = data.get("L")
        return (
            _integral(num(data["kappa"], "'kappa'"), "kappa"),
            entries,
            None if max_length is None else _integral(num(max_length, "'L'"), "max_length"),
        )
    except KeyError as exc:
        raise ValueError(f"{what} lacks the {exc.args[0]!r} field") from None
    except TypeError:
        raise ValueError(
            f'malformed {what}: expected {{"kappa": int, "{field}s": '
            f'[{{"ranking": [candidate ids], "{field}": number}}, ...]}}'
        ) from None


def admissible_rankings(
    kappa: int, max_length: int | None = None, full_length_only: bool = False
) -> list[Ranking]:
    """All rankings a voter could cast, in lexicographic order.

    Args:
        kappa: Number of candidates.
        max_length: Longest permitted ranking (defaults to ``kappa``).
        full_length_only: If true, only rankings of exactly ``max_length``
            candidates are returned; otherwise every length from 1 up to
            ``max_length`` is admissible.
    """
    kappa, max_length = _check_limits(kappa, max_length)
    from itertools import permutations

    lengths = [max_length] if full_length_only else range(1, max_length + 1)
    out: list[Ranking] = []
    for length in lengths:
        out.extend(permutations(range(kappa), length))
    # Plain tuple order: lexicographic, with a prefix sorting before any
    # extension of it (shorter before longer).
    out.sort()
    return out


class BallotProfile:
    """Expected ballot counts for one election.

    Args:
        kappa: Number of candidates (at least 2).
        rates: Mapping from ranking to a nonnegative expected count, or
            ``(ranking, rate)`` pairs; repeated rankings add up.
        max_length: Longest ranking voters may cast; defaults to ``kappa``.
    """

    def __init__(
        self,
        kappa: int,
        rates: Mapping[Sequence[int], float] | Iterable[tuple[Sequence[int], float]],
        max_length: int | None = None,
    ):
        self.kappa, self.max_length = _check_limits(kappa, max_length)
        cleaned: dict[Ranking, float] = {}
        for key, rate in rates.items() if isinstance(rates, Mapping) else rates:
            ranking = _check_ranking(key, self.kappa, self.max_length)
            rate = float(rate)
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"rate for {ranking!r} must be finite and >= 0, got {rate}")
            cleaned[ranking] = cleaned.get(ranking, 0.0) + rate
        self.rates: dict[Ranking, float] = cleaned

    @property
    def total_expected(self) -> float:
        return math.fsum(self.rates.values())

    def relabeled(self, perm: Sequence[int]) -> "BallotProfile":
        """Profile with candidate ids mapped through ``perm``."""
        perm = _check_order(perm, self.kappa, "perm")
        rates = {tuple(perm[c] for c in r): v for r, v in self.rates.items()}
        return BallotProfile(self.kappa, rates, self.max_length)

    def to_dict(self) -> dict:
        entries = [
            {"ranking": list(r), "rate": v} for r, v in sorted(self.rates.items())
        ]
        return {"kappa": self.kappa, "L": self.max_length, "rates": entries}

    @classmethod
    def from_dict(cls, data: Mapping) -> "BallotProfile":
        return cls(*_read_json(data, "profile", "rate", float))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BallotProfile":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BallotProfile)
            and self.kappa == other.kappa
            and self.max_length == other.max_length
            and self.rates == other.rates
        )

    def __repr__(self) -> str:
        return (
            f"BallotProfile(kappa={self.kappa}, L={self.max_length}, "
            f"n_rankings={len(self.rates)}, total={self.total_expected:g})"
        )


class RealizedElection:
    """One concrete electorate: integer ballot counts per ranking."""

    def __init__(
        self,
        kappa: int,
        counts: Mapping[Sequence[int], int] | Iterable[tuple[Sequence[int], int]],
        max_length: int | None = None,
    ):
        self.kappa, self.max_length = _check_limits(kappa, max_length)
        cleaned: dict[Ranking, int] = {}
        for key, count in counts.items() if isinstance(counts, Mapping) else counts:
            ranking = _check_ranking(key, self.kappa, self.max_length)
            count = _integral(count, f"count for {ranking!r}")
            if count < 0:
                raise ValueError(f"count for {ranking!r} must be >= 0, got {count}")
            cleaned[ranking] = cleaned.get(ranking, 0) + count
        self.counts: dict[Ranking, int] = cleaned

    @property
    def total_ballots(self) -> int:
        return sum(self.counts.values())

    def to_dict(self) -> dict:
        entries = [
            {"ranking": list(r), "count": v} for r, v in sorted(self.counts.items())
        ]
        return {"kappa": self.kappa, "L": self.max_length, "counts": entries}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RealizedElection":
        return cls(*_read_json(data, "election", "count", lambda v: _integral(v, "count")))

    def __repr__(self) -> str:
        return (
            f"RealizedElection(kappa={self.kappa}, L={self.max_length}, "
            f"ballots={self.total_ballots})"
        )


def expected_total(
    profile: BallotProfile, candidate: int | None = None, dropped: Sequence[int] = ()
) -> float | np.ndarray:
    """Expected vote total of ``candidate`` after ``dropped`` are eliminated.

    A ballot counts for its highest-ranked candidate not yet eliminated;
    ballots listing only eliminated candidates are exhausted.  This walks
    the rankings one at a time.

    Without a candidate it returns every total at once, the table
    ``T[dropped, c]`` that the pivot engine reads: the total of ``c`` once
    the candidates in the bitmask ``dropped`` are eliminated, 0.0 for a
    dropped ``c``.  Each entry is the ``math.fsum`` of the rates whose
    ballots :func:`_recipients` gives to ``c``, the multiset the walk sums,
    so it has the walk's bits.
    """
    if candidate is None:
        if len(dropped):
            raise ValueError("dropped candidates need a candidate")
        kappa = profile.kappa
        rates = np.array(list(profile.rates.values()))
        # Row ``dropped`` of the table is active set ``full ^ dropped``, and
        # ``full ^ dropped == full - dropped``: the recipient rows reversed.
        recip = _recipients(list(profile.rates), kappa)[::-1]
        return np.array(
            [[math.fsum(rates[row == c].tolist()) for c in range(kappa)] for row in recip]
        )
    candidate = _check_candidate(candidate, profile.kappa)
    dropped_set = frozenset(
        _check_candidate(c, profile.kappa, "dropped candidate") for c in dropped
    )
    if candidate in dropped_set:
        raise ValueError(f"candidate {candidate} is in the dropped sequence")
    return math.fsum(
        rate
        for ranking, rate in profile.rates.items()
        if next((c for c in ranking if c not in dropped_set), None) == candidate
    )


def _recipients(rankings: Sequence[Ranking], kappa: int) -> np.ndarray:
    """Recipient table: ``recip[mask, j]`` is the first candidate of
    ``rankings[j]`` in the active-set bitmask ``mask``, or ``kappa`` when
    every candidate it lists is eliminated (the ballot is exhausted).

    Built with one pass per ballot position, last position first, over the
    rankings padded with ``kappa``; bit ``kappa`` of a mask is never set, so
    padding never receives a ballot.
    """
    padded = np.array(
        [r + (kappa,) * (kappa - len(r)) for r in rankings], dtype=np.intp
    ).reshape(-1, kappa)
    masks = np.arange(1 << kappa)[:, None]
    recip = np.full((len(masks), len(padded)), kappa, dtype=np.intp)
    for cand in padded.T[::-1]:
        recip = np.where(masks >> cand & 1 == 1, cand, recip)
    return recip


def _realized_totals(
    counts: Mapping[Ranking, int], active: set[int]
) -> dict[int, int]:
    totals = {c: 0 for c in active}
    for ranking, count in counts.items():
        for cand in ranking:
            if cand in active:
                totals[cand] += count
                break
    return totals


def tabulate(
    realized: RealizedElection,
    rule: str = IRV,
    tie_break: Sequence[int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Run an election on realized counts and return (winner, drop order).

    Args:
        realized: Integer ballot counts.
        rule: ``"IRV"`` (iterated eliminations) or ``"SMDP"`` (single round
            of first choices).
        tie_break: Priority order over candidates, strongest first.  In a
            tie for the minimum the lowest-priority candidate drops; in a
            tie for the maximum the highest-priority candidate wins.
            Defaults to ascending candidate id.

    Returns:
        The winning candidate and the elimination order (empty for SMDP).
    """
    if realized.total_ballots == 0:
        raise ValueError("cannot tabulate an election with no ballots")
    kappa = realized.kappa
    tie_break = range(kappa) if tie_break is None else _check_order(tie_break, kappa, "tie_break")
    priority = {c: rank for rank, c in enumerate(tie_break)}

    if rule == SMDP:
        totals = _realized_totals(realized.counts, set(range(kappa)))
        # Highest total wins; priority rank ascends from strongest, so the
        # smallest rank wins ties.
        winner = min(range(kappa), key=lambda c: (-totals[c], priority[c]))
        return winner, ()
    if rule != IRV:
        raise ValueError(f"unknown rule {rule!r}")

    active = set(range(kappa))
    drops: list[int] = []
    while len(active) > 1:
        totals = _realized_totals(realized.counts, active)
        loser = max(active, key=lambda c: (-totals[c], priority[c]))
        active.remove(loser)
        drops.append(loser)
    return active.pop(), tuple(drops)
