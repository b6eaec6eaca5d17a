"""Profile validation, expected totals, the recipient table, and realized
tabulation."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irvpivot import (
    BallotProfile,
    RealizedElection,
    admissible_rankings,
    expected_total,
    tabulate,
)
from irvpivot.elections import _recipients


def test_profile_validation():
    with pytest.raises(ValueError):
        BallotProfile(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        BallotProfile(3, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        BallotProfile(3, {(0, 3): 1.0})
    with pytest.raises(ValueError):
        BallotProfile(3, {(0,): -1.0})
    with pytest.raises(ValueError):
        BallotProfile(3, {(0, 1, 2): 1.0}, max_length=2)
    with pytest.raises(ValueError, match="max_length"):
        RealizedElection(3, {(0,): 1}, max_length=9)
    for missing in ("kappa", "rates"):
        data = {"kappa": 3, "rates": [{"ranking": [0], "rate": 1.0}]}
        del data[missing]
        with pytest.raises(ValueError, match=missing):
            BallotProfile.from_dict(data)
    prof = BallotProfile(3, {(0, 1): 2.5, (2,): 1.5})
    assert prof.total_expected == pytest.approx(4.0)


@pytest.mark.parametrize(
    "ranking, message",
    [
        ((0, 0, 9, 1.5), "1.5"),
        ((0, 0, 9, 1), "has length 4"),
        ((0, 0, 9), "repeats a candidate"),
        ((0, 9, 7), "candidate 9 out of range"),
    ],
)
def test_ranking_checks_fire_in_order(ranking, message):
    # type, then length, then repeat, then the first id out of range
    for make in (BallotProfile, RealizedElection):
        with pytest.raises(ValueError, match=message):
            make(3, {ranking: 1})


def test_profile_json_round_trip(tmp_path):
    prof = BallotProfile(3, {(0, 1): 2.5, (2,): 1.5, (1, 2, 0): 3.0})
    path = tmp_path / "profile.json"
    prof.dump(path)
    data = json.loads(path.read_text())
    assert data["kappa"] == 3 and data["L"] == 3
    assert {"ranking": [0, 1], "rate": 2.5} in data["rates"]
    assert BallotProfile.load(path) == prof


def test_realized_json_round_trip(tmp_path):
    realized = RealizedElection(3, {(0, 1): 4, (2,): 2})
    path = tmp_path / "counts.json"
    with open(path, "w") as fh:
        json.dump(realized.to_dict(), fh)
    back = RealizedElection.from_dict(json.loads(path.read_text()))
    assert back.counts == realized.counts


def test_from_dict_sums_repeated_rankings():
    data = {"kappa": 2, "rates": [{"ranking": [0], "rate": 1.0}, {"ranking": [0], "rate": 2.0}]}
    assert BallotProfile.from_dict(data).rates == {(0,): 3.0}
    data = {"kappa": 2, "counts": [{"ranking": [1], "count": 4}, {"ranking": [1], "count": 5}]}
    assert RealizedElection.from_dict(data).counts == {(1,): 9}
    # Each entry is range-checked on its own, before any adding up.
    data = {"kappa": 2, "rates": [{"ranking": [0], "rate": 5.0}, {"ranking": [0], "rate": -3.0}]}
    with pytest.raises(ValueError, match=">= 0"):
        BallotProfile.from_dict(data)


@pytest.mark.parametrize("cls,field", [(BallotProfile, "rate"), (RealizedElection, "count")])
def test_from_dict_rejects_malformed_json(cls, field):
    for missing in ("kappa", field + "s", "ranking", field):
        entry = {"ranking": [0], field: 1}
        data = {"kappa": 3, field + "s": [entry]}
        data.pop(missing, None)
        entry.pop(missing, None)
        with pytest.raises(ValueError, match=f"lacks the '{missing}' field"):
            cls.from_dict(data)
    malformed = [
        [{"ranking": [0], field: 1}],
        {"kappa": 3, field + "s": [{"ranking": 0, field: 1}]},
        {"kappa": 3, field + "s": [[0, 1]]},
        {"kappa": 3, field + "s": 7},
        {"kappa": 3, field + "s": [{"ranking": [0], field: None}]},
        {"kappa": None, field + "s": []},
        {"kappa": 3, "L": [2], field + "s": []},
    ]
    for data in malformed:
        with pytest.raises(ValueError, match="malformed"):
            cls.from_dict(data)


@pytest.mark.parametrize(
    "cls,data,named",
    [
        (BallotProfile, {"kappa": 2, "rates": [{"ranking": [0], "rate": "1.5"}]}, "'rate'"),
        (BallotProfile, {"kappa": 2, "rates": [{"ranking": [0], "rate": True}]}, "'rate'"),
        (RealizedElection, {"kappa": 2, "counts": [{"ranking": [0], "count": True}]}, "'count'"),
        (RealizedElection, {"kappa": 2, "counts": [{"ranking": [0], "count": "3"}]}, "'count'"),
        (BallotProfile, {"kappa": True, "rates": []}, "'kappa'"),
        (RealizedElection, {"kappa": "3", "counts": []}, "'kappa'"),
        (BallotProfile, {"kappa": 3, "L": True, "rates": []}, "'L'"),
        (BallotProfile, {"kappa": 3, "rates": [{"ranking": [0, True], "rate": 1}]}, "'ranking'"),
        (RealizedElection, {"kappa": 3, "counts": [{"ranking": "01", "count": 1}]}, "'ranking'"),
    ],
)
def test_from_dict_rejects_strings_and_booleans(cls, data, named):
    # float() and int() take both, so "1.5" used to give 1.5 and true 1.
    with pytest.raises(ValueError, match=f"malformed .*{named} .*must be a number"):
        cls.from_dict(data)


def test_integral_values_accepted():
    data = {"kappa": 3.0, "L": 2.0, "rates": [{"ranking": [1.0, np.int64(2)], "rate": 1}]}
    prof = BallotProfile.from_dict(data)
    assert (prof.kappa, prof.max_length, prof.rates) == (3, 2, {(1, 2): 1.0})
    assert all(type(c) is int for c in next(iter(prof.rates)))
    realized = RealizedElection(3, {(np.int32(1),): 3.0, (0,): np.int64(2)})
    assert realized.counts == {(1,): 3, (0,): 2}
    assert all(type(v) is int for v in realized.counts.values())


def test_non_integral_values_rejected():
    # Each used to be truncated without a message.
    with pytest.raises(ValueError, match="1.7"):
        BallotProfile.from_dict({"kappa": 3, "rates": [{"ranking": [1.7], "rate": 1}]})
    with pytest.raises(ValueError, match="2.9"):
        RealizedElection(3, {(1,): 2.9})
    with pytest.raises(ValueError, match="2.5"):
        RealizedElection.from_dict({"kappa": 3, "counts": [{"ranking": [1], "count": 2.5}]})
    with pytest.raises(ValueError, match="0.5"):
        BallotProfile(3, {(0.5,): 1.0})
    with pytest.raises(ValueError, match="nan"):
        RealizedElection(3, {(1,): float("nan")})
    with pytest.raises(ValueError, match="3.5"):
        BallotProfile(3.5, {(0,): 1.0})
    with pytest.raises(ValueError, match="2.5"):
        BallotProfile.from_dict({"kappa": 3, "L": 2.5, "rates": []})
    with pytest.raises(ValueError, match="1.5"):
        RealizedElection(3, {(0,): 1}, max_length=1.5)
    # A value that is not a number at all is a type error, and malformed JSON.
    with pytest.raises(TypeError, match="'1'"):
        BallotProfile(3, {("1",): 1.0})
    with pytest.raises(ValueError, match="malformed"):
        BallotProfile.from_dict({"kappa": 3, "rates": [{"ranking": ["1"], "rate": 1}]})


def test_expected_total_examples():
    prof = BallotProfile(2, {(0, 1): 4.0, (1,): 1.0})
    assert expected_total(prof, 1, []) == 1.0
    assert expected_total(prof, 1, [0]) == 5.0
    assert expected_total(BallotProfile(2, {(0,): 5.0}), 0, []) == 5.0
    assert expected_total(BallotProfile(2, {(1, 0): 3.0, (0,): 2.0}), 0, [1]) == 5.0
    with pytest.raises(ValueError):
        expected_total(prof, 1, [1])
    with pytest.raises(ValueError):
        expected_total(prof, 5, [])
    with pytest.raises(ValueError):
        expected_total(prof, 0, [3])
    # Without a candidate: the whole table, rows indexed by the dropped mask.
    assert expected_total(prof).tolist() == [[4.0, 1.0], [0.0, 5.0], [4.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="need a candidate"):
        expected_total(prof, dropped=[0])
    # Ids are read as ids: 1.7 is not truncated to candidate 1.
    with pytest.raises(ValueError, match="dropped candidate id must be an integer, got 1.7"):
        expected_total(BallotProfile(3, {(1, 0): 2.0, (0,): 1.0}), 0, [1.7])
    with pytest.raises(ValueError, match="candidate id must be an integer, got 0.5"):
        expected_total(prof, 0.5, [])
    assert expected_total(BallotProfile(3, {(1, 0): 2.0, (0,): 1.0}), 0.0, [np.int64(1)]) == 3.0


def test_expected_total_reduces_to_first_place():
    prof = BallotProfile(3, {(0, 1): 4.0, (1, 0, 2): 2.0, (2,): 7.0})
    for c in range(3):
        first = math.fsum(v for r, v in prof.rates.items() if r[0] == c)
        assert expected_total(prof, c, []) == first


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_expected_total_monotone_in_dropped_set(data):
    kappa = data.draw(st.integers(2, 4))
    rankings = admissible_rankings(kappa)
    rates = {
        r: data.draw(st.floats(0, 10), label=f"rate{r}")
        for r in rankings
        if data.draw(st.booleans(), label=f"use{r}")
    }
    prof = BallotProfile(kappa, rates)
    cand = data.draw(st.integers(0, kappa - 1))
    others = [c for c in range(kappa) if c != cand]
    small = data.draw(st.sets(st.sampled_from(others), max_size=len(others)))
    extra = [c for c in others if c not in small]
    big = small | set(extra[:1])
    assert expected_total(prof, cand, sorted(big)) >= expected_total(
        prof, cand, sorted(small)
    ) - 1e-12


def test_pairwise_final_round_mass_accounting():
    prof = BallotProfile(3, {(0, 1): 3.0, (1, 2, 0): 2.0, (2,): 5.0, (1,): 1.0})
    total = prof.total_expected
    for c in range(3):
        for x in range(c + 1, 3):
            dropped = [k for k in range(3) if k not in (c, x)]
            pair = expected_total(prof, c, dropped) + expected_total(prof, x, dropped)
            exhausted = math.fsum(
                v for r, v in prof.rates.items() if c not in r and x not in r
            )
            assert pair == pytest.approx(total - exhausted, abs=1e-12)


def _first_standing(ranking, active: int, kappa: int) -> int:
    """The recipient-table rule for one ranking, written out."""
    return next((c for c in ranking if active >> c & 1), kappa)


@pytest.mark.parametrize("kappa", [2, 3, 4, 5, 6])
def test_recipients_match_per_ranking_rule(kappa):
    rankings = admissible_rankings(kappa)
    recip = _recipients(rankings, kappa)
    assert recip.shape == (1 << kappa, len(rankings))
    want = [[_first_standing(r, active, kappa) for r in rankings] for active in range(1 << kappa)]
    assert recip.tolist() == want
    assert _recipients([], kappa).shape == (1 << kappa, 0)


@settings(max_examples=60, deadline=None)
@given(
    kappa=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 5),
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.1, 1.0, 7.5, 5e-324, 1e300]),
            st.floats(0.0, 1e6),
        ),
        min_size=1,
        max_size=8,
    ),
)
@example(kappa=6, seed=0, cut=0, values=[0.1])
@example(kappa=4, seed=1, cut=2, values=[0.0])
def test_totals_table_equals_expected_total(kappa, seed, cut, values):
    # Every entry T[dropped, c] with c standing has the bits of the scalar
    # walk, on any subset of the rankings a length limit admits; rates
    # cycle through ``values``, so they repeat and may be zero.
    max_length = max(1, kappa - cut)
    pool = admissible_rankings(kappa, max_length)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=int(rng.integers(1, min(len(pool), 120) + 1)), replace=False)
    prof = BallotProfile(
        kappa, {pool[int(j)]: values[i % len(values)] for i, j in enumerate(picks)}, max_length
    )
    table = expected_total(prof)
    assert table.shape == (1 << kappa, kappa)
    for dropped in range((1 << kappa) - 1):
        gone = [c for c in range(kappa) if dropped >> c & 1]
        for c in range(kappa):
            if dropped >> c & 1:
                assert table[dropped, c] == 0.0
            else:
                assert table[dropped, c] == expected_total(prof, c, gone)


def test_tabulate_examples():
    assert tabulate(RealizedElection(2, {(0,): 3, (1,): 2})) == (0, (1,))
    # nine-ballot instance, checked by hand: totals 4/3/2, drop 2, then 4/3
    winner, drops = tabulate(RealizedElection(3, {(0,): 4, (1, 2): 3, (2,): 2}))
    assert winner == 0 and drops == (2, 1)
    # forced tie resolution under the default priority order
    assert tabulate(RealizedElection(2, {(0,): 2, (1,): 2}), "SMDP") == (0, ())
    assert tabulate(RealizedElection(2, {(0,): 2, (1,): 2}), "SMDP", tie_break=[1, 0]) == (1, ())


def test_tabulate_exhausted_ballots_transfer_to_nobody():
    realized = RealizedElection(3, {(2,): 4, (0,): 3, (1, 0): 3})
    winner, drops = tabulate(realized)
    # 1 drops first; its ballots move to 0, beating 2 in the final round.
    assert drops[0] == 1 and winner == 0


def test_tabulate_two_candidates_irv_equals_smdp():
    for counts in ({(0,): 3, (1,): 5}, {(0,): 4, (1,): 4}, {(0, 1): 2, (1, 0): 2}):
        realized = RealizedElection(2, counts)
        assert tabulate(realized, "IRV")[0] == tabulate(realized, "SMDP")[0]


def test_tabulate_errors_and_shape():
    with pytest.raises(ValueError):
        tabulate(RealizedElection(2, {(0,): 0}))
    with pytest.raises(ValueError):
        tabulate(RealizedElection(2, {(0,): 1}), "borda")
    with pytest.raises(ValueError):
        tabulate(RealizedElection(2, {(0,): 1}), tie_break=[0, 0])
    winner, drops = tabulate(RealizedElection(4, {(0,): 4, (1,): 3, (2,): 2, (3,): 1}))
    assert len(drops) == 3 and winner not in drops


def test_tabulate_invariant_to_insertion_order():
    a = RealizedElection(3, {(0, 1): 2, (2,): 3, (1,): 2})
    b = RealizedElection(3, {(1,): 2, (0, 1): 2, (2,): 3})
    assert tabulate(a) == tabulate(b)


def test_admissible_rankings_counts_and_order():
    all3 = admissible_rankings(3)
    assert len(all3) == 3 + 6 + 6
    assert all3[0] == (0,)
    assert all3 == sorted(all3)
    full3 = admissible_rankings(3, full_length_only=True)
    assert len(full3) == 6
    assert len(admissible_rankings(4, max_length=2)) == 4 + 12


def test_admissible_rankings_validates_limits():
    with pytest.raises(ValueError, match="kappa must be at least 2, got 1"):
        admissible_rankings(1)
    with pytest.raises(ValueError, match="kappa must be an integer, got 2.5"):
        admissible_rankings(2.5)
    with pytest.raises(ValueError, match="max_length must be an integer, got 1.5"):
        admissible_rankings(3, 1.5)
    with pytest.raises(ValueError, match=r"max_length must be in 1\.\.3, got 4"):
        admissible_rankings(3, 4)
    assert admissible_rankings(3.0, np.int64(2)) == admissible_rankings(3, 2)


def test_relabeled_profile():
    prof = BallotProfile(3, {(0, 1): 2.0, (2,): 1.0})
    rel = prof.relabeled([2, 0, 1])
    assert rel.rates == {(2, 0): 2.0, (1,): 1.0}
    with pytest.raises(ValueError):
        prof.relabeled([0, 0, 1])
