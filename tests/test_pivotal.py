"""Pivotality engine: enumeration, probabilities, utilities, best ballot."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irvpivot import (
    BallotProfile,
    DirectEvent,
    IndirectEvent,
    OracleConfig,
    admissible_rankings,
    best_ballot,
    drop_sequence_prob,
    enumerate_alternates,
    expected_utility,
    mc_expected_utility,
    skellam_pmf,
    smdp_pivot_prob,
    sweep_reports,
    total_pivot_prob,
)
from irvpivot import pivotal, skellam
from irvpivot.experiment import gen_powerlaw_profile, gen_uniform_profile
from irvpivot.pivotal import PivotCalculator, drop_lists

from conftest import brute_alternates, dirichlet_profile


def two_ranking_profile(lam_a, lam_b):
    return BallotProfile(2, {(0,): lam_a, (1,): lam_b}, max_length=1)


def direct_part(prof, ballot):
    """A fresh report's ``p_direct`` and its direct events."""
    rep = total_pivot_prob(prof, ballot, with_events=True)
    return rep.p_direct, [e for e in rep.events if isinstance(e, DirectEvent)]


def indirect_part(prof, ballot):
    """A fresh report's ``p_indirect`` and its indirect events."""
    rep = total_pivot_prob(prof, ballot, with_events=True)
    return rep.p_indirect, [e for e in rep.events if isinstance(e, IndirectEvent)]


SUMS = ("p_direct", "p_indirect", "p_total", "expected_utility")


def event_sums(rep):
    """``(p_direct, p_indirect, p_total, expected_utility)`` of a report
    listed with its events, each a ``math.fsum`` over those events."""
    direct = math.fsum(e.probability for e in rep.events if isinstance(e, DirectEvent))
    indirect = math.fsum(e.probability for e in rep.events if isinstance(e, IndirectEvent))
    gains = None
    if rep.expected_utility is not None:
        gains = math.fsum(e.probability * e.utility_swing for e in rep.events)
    return direct, indirect, direct + indirect, gains


def assert_sums_match_events(rep):
    """The output contract: a report's sums lie within 1e-15 relative of the
    fsums of its own events, its utility within 1e-15 of sum |p * swing|."""
    direct, indirect, _, gains = event_sums(rep)
    assert math.isclose(rep.p_direct, direct, rel_tol=1e-15, abs_tol=0.0)
    assert math.isclose(rep.p_indirect, indirect, rel_tol=1e-15, abs_tol=0.0)
    if gains is not None:
        scale = math.fsum(abs(e.probability * e.utility_swing) for e in rep.events)
        assert abs(rep.expected_utility - gains) <= 1e-15 * scale


# -- drop sequences ----------------------------------------------------------


def test_drop_sequence_prob_two_candidates():
    lam = 3.0
    prof = two_ranking_profile(lam, lam)
    expect = (1.0 - skellam_pmf(0, lam, lam)) / 2.0
    assert drop_sequence_prob(prof, [1, 0]) == pytest.approx(expect, abs=1e-12)
    prof = two_ranking_profile(5.0, 0.0)
    assert drop_sequence_prob(prof, [1, 0]) == pytest.approx(1 - math.exp(-5), abs=1e-12)


def test_drop_sequence_probs_sum_below_one():
    prof = gen_uniform_profile(3, 1000.0)
    total = math.fsum(
        drop_sequence_prob(prof, order) for order in permutations(range(3))
    )
    # Strict orderings cannot exhaust the space: tie mass is excluded, and
    # the pairwise-independence model also leaks mass to cyclic comparison
    # outcomes, so the deficit exceeds the tie mass alone.
    assert 0.0 < total < 1.0


def test_drop_sequence_prob_rejects_partial_orders():
    prof = gen_uniform_profile(3, 30.0)
    with pytest.raises(ValueError):
        drop_sequence_prob(prof, [0, 1])
    with pytest.raises(ValueError):
        drop_sequence_prob(prof, [0, 1, 1])
    with pytest.raises(ValueError, match="1.5"):
        drop_sequence_prob(prof, [0, 1.5, 2])


def test_scalar_path_allocates_no_report_state():
    # The scalar path reads the totals table and the kernel only: it keeps no
    # DP state and works past MAX_KAPPA.
    order = tuple(range(9))
    prof = BallotProfile(9, {order: 50.0, order[::-1]: 45.0, (4, 0): 30.0})
    tracemalloc.start()
    try:
        drop_sequence_prob(prof, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_reports_refuse_kappa_beyond_the_cap(kernel_calls):
    prof = BallotProfile(8, {(0, 1): 10.0, (7,): 9.0}, max_length=2)
    message = f"at most {pivotal.MAX_KAPPA} candidates, got kappa=8"
    with pytest.raises(ValueError, match=message):
        PivotCalculator(prof).report((0,))
    with pytest.raises(ValueError, match=message):
        sweep_reports(prof)
    with pytest.raises(ValueError, match=message):
        total_pivot_prob(prof, (0,))
    assert kernel_calls == {"psg": 0, "tie": 0}


def test_reports_refuse_kappa_beyond_the_cap_before_the_totals_table(monkeypatch):
    def no_table(profile):
        raise AssertionError("the totals table was built")

    monkeypatch.setattr(pivotal, "expected_total", no_table)
    prof = BallotProfile(8, {(0, 1): 10.0, (7,): 9.0}, max_length=2)
    u = [1.0] + [0.0] * 7
    for refused in (
        lambda: total_pivot_prob(prof, (0,)),
        lambda: expected_utility(prof, (0,), u),
        lambda: sweep_reports(prof),
        lambda: best_ballot(prof, u),
    ):
        with pytest.raises(ValueError, match=f"at most {pivotal.MAX_KAPPA} candidates, got kappa=8"):
            refused()


def test_kappa7_sweep_memory():
    # The per-kappa event table this DP replaced took 1.18 GB at kappa=7.
    prof = gen_powerlaw_profile(7, 1000.0, seed=0)
    tracemalloc.start()
    try:
        reports = sweep_reports(prof, full_length_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == math.factorial(7)
    assert peak < 64 * 2**20


# -- direct pivotality -------------------------------------------------------


def test_direct_two_candidate_reduction():
    lam_a, lam_b = 7.0, 6.0
    prof = two_ranking_profile(lam_a, lam_b)
    p, events = direct_part(prof, [0])
    expect = 0.5 * (skellam_pmf(0, lam_a, lam_b) + skellam_pmf(-1, lam_a, lam_b))
    assert p == pytest.approx(expect, abs=1e-14)
    assert len(events) == 1
    assert events[0].runner_up == 1


def test_direct_symmetric_three_candidates():
    prof = gen_uniform_profile(3, 30.0)
    values = [direct_part(prof, [c])[0] for c in range(3)]
    assert values[0] == values[1] == values[2]


def test_direct_singleton_profile_against_frozen_oracle():
    # Monte-Carlo reference (10^7 draws, seed 20250808): direct pivotal
    # frequency 0.0902306 for ballot [0] on rates {0:10, 1:10, 2:10}.
    # The independence model sits below the simulated truth; agreement is
    # order-of-magnitude only.
    prof = BallotProfile(3, {(0,): 10.0, (1,): 10.0, (2,): 10.0}, max_length=1)
    p, _ = direct_part(prof, [0])
    frozen_mc = 0.0902306
    assert frozen_mc / 10 < p < frozen_mc * 10


def test_direct_event_count_and_validity():
    prof = dirichlet_profile(4, 40.0, seed=3)
    ballot = (2, 0, 1)
    p, events = direct_part(prof, ballot)
    kappa = prof.kappa
    for ev in events:
        assert isinstance(ev, DirectEvent)
        assert ev.candidate == ballot[ev.position - 1]
        assert ev.candidate not in ev.drops
        assert len(ev.drops) == kappa - 1
        assert set(ballot[: ev.position - 1]) <= set(ev.drops[: kappa - 2])
        assert 0.0 <= ev.probability <= 1.0
    # position 1 sees every drop list; later positions only the compatible ones
    by_pos = {i: sum(1 for e in events if e.position == i) for i in (1, 2, 3)}
    assert by_pos[1] == math.factorial(kappa - 1)
    assert 0 < by_pos[2] < math.factorial(kappa - 1)
    assert p == pytest.approx(math.fsum(e.probability for e in events))


def test_drop_lists_enumeration_count():
    for kappa in (3, 4, 5):
        assert sum(1 for _ in drop_lists(kappa, 0)) == math.factorial(kappa - 1)


def test_ranking_final_opponent_above_blocks_direct_credit():
    # With two candidates, position 2 can never be reached before the final
    # round, so [0, 1] scores the same as [0].
    prof = BallotProfile(2, {(0,): 4.0, (1,): 5.0})
    assert total_pivot_prob(prof, [0, 1]).p_total == total_pivot_prob(prof, [0]).p_total


# -- alternate sequences -----------------------------------------------------


def test_enumerate_alternates_two_candidates_empty():
    assert enumerate_alternates((0, 1), 1) == []


def test_enumerate_alternates_example():
    # base [A, C, B] with A saved in round 1: only [B, A, C] survives the
    # constraints (filtering all 6 permutations confirms).
    alts = enumerate_alternates((0, 2, 1), 1)
    assert {a[0] for a in alts} == brute_alternates((0, 2, 1), 1)
    assert [a[0] for a in alts] == [(1, 0, 2)]
    alternate, displaced, suffix = alts[0]
    assert displaced == 1 and suffix == (0, 2)


def test_enumerate_alternates_takes_any_ids():
    # The base need not be an order of 0..n-1; only repeats are refused.
    assert enumerate_alternates((9, 2, 5), 1) == [((5, 9, 2), 5, (9, 2))]
    with pytest.raises(ValueError, match="repeats a candidate"):
        enumerate_alternates((2, 5, 2), 1)


def test_enumerate_alternates_matches_brute_force():
    for kappa in (3, 4):
        for base in permutations(range(kappa)):
            for y in range(1, kappa - 1):
                got = {a[0] for a in enumerate_alternates(base, y)}
                assert got == brute_alternates(base, y)
                bound = (kappa - y) * math.factorial(kappa - y)
                assert len(got) <= bound


def test_enumerate_alternates_rejects_bad_round():
    with pytest.raises(ValueError):
        enumerate_alternates((0, 1, 2), 2)
    with pytest.raises(ValueError):
        enumerate_alternates((0, 1, 2), 0)
    with pytest.raises(ValueError):
        enumerate_alternates((0, 1, 1), 1)
    with pytest.raises(ValueError, match="0.7"):
        enumerate_alternates((0.7, 2, 1), 1)


# -- indirect pivotality -----------------------------------------------------


def test_indirect_two_candidates_zero():
    prof = two_ranking_profile(5.0, 5.0)
    p, events = indirect_part(prof, [0])
    assert p == 0.0 and events == []


def test_indirect_no_final_round_saves():
    prof = dirichlet_profile(4, 40.0, seed=9)
    for ballot in [(0, 1, 2, 3), (2, 1), (3,)]:
        _, events = indirect_part(prof, ballot)
        assert all(ev.round_index <= prof.kappa - 2 for ev in events)


def test_indirect_event_constraints():
    prof = dirichlet_profile(4, 40.0, seed=5)
    ballot = (1, 3)
    p, events = indirect_part(prof, ballot)
    assert p > 0
    for ev in events:
        assert isinstance(ev, IndirectEvent)
        y = ev.round_index
        assert ev.base[: y - 1] == ev.alternate[: y - 1]
        assert ev.alternate[-1] != ev.base[-1]
        assert ev.alternate[-1] != ev.candidate
        assert ev.displaced == ev.alternate[y - 1]
        assert ev.displaced != ev.candidate
        assert ev.base[y - 1] == ev.candidate
        assert set(ballot[: ev.position - 1]) <= set(ev.base[: y - 1])
        assert 0.0 <= ev.probability <= 1.0


def test_indirect_example_against_frozen_oracle():
    # Monte-Carlo reference (10^7 draws, seed 20250808): adding ballot [0]
    # moves the win to a candidate other than 0 with frequency 0.0369332.
    prof = BallotProfile(3, {(0, 2): 6.0, (1,): 5.0, (2, 1): 5.0}, max_length=2)
    p, events = indirect_part(prof, [0])
    frozen_mc = 0.0369332
    assert p > 0
    assert frozen_mc / 10 < p < frozen_mc * 10
    # the dominant mechanism: save 0 in round 1, drop 1 instead
    top = max(events, key=lambda e: e.probability)
    assert top.round_index == 1 and top.candidate == 0


def test_event_probability_bounded_by_sequence_factor():
    prof = dirichlet_profile(3, 45.0, seed=11)
    calc = PivotCalculator(prof)
    for ballot in [(0,), (1, 2), (2, 0, 1)]:
        for ev in calc.report(ballot, with_events=True).events:
            if isinstance(ev, DirectEvent):
                bound = calc.sequence_prob(ev.drops + (ev.candidate,), full=False)
            else:
                bound = calc.sequence_prob(ev.base, full=True)
            assert ev.probability <= bound + 1e-15


# -- totals, utilities, best ballot -----------------------------------------


def test_total_is_sum_of_components():
    prof = dirichlet_profile(3, 50.0, seed=2)
    for ballot in [(0,), (1, 0), (2, 1, 0)]:
        rep = total_pivot_prob(prof, ballot)
        assert rep.p_total == rep.p_direct + rep.p_indirect
        # Listing the events does not change the sums.
        d, _ = direct_part(prof, ballot)
        i, _ = indirect_part(prof, ballot)
        assert rep.p_direct == d and rep.p_indirect == i


def test_total_two_candidates_equals_smdp():
    prof = two_ranking_profile(12.0, 11.0)
    assert total_pivot_prob(prof, [0]).p_total == smdp_pivot_prob(prof, 0)


def test_total_zero_rate_profile():
    prof = two_ranking_profile(0.0, 0.0)
    assert total_pivot_prob(prof, [0]).p_total == 0.5


def test_uniform_profile_single_ballot_symmetry():
    for kappa in (3, 4):
        prof = gen_uniform_profile(kappa, 100.0)
        vals = [total_pivot_prob(prof, [c]).p_total for c in range(kappa)]
        assert max(vals) - min(vals) <= 1e-12


def test_relabeling_equivariance_exact():
    prof = dirichlet_profile(3, 60.0, seed=7)
    perm = [2, 0, 1]
    relabeled = prof.relabeled(perm)
    for ballot in permutations(range(3)):
        rep = total_pivot_prob(prof, ballot)
        rep2 = total_pivot_prob(relabeled, tuple(perm[c] for c in ballot))
        assert rep.p_direct == rep2.p_direct
        assert rep.p_indirect == rep2.p_indirect
        assert rep.p_total == rep2.p_total


def test_expected_utility_constant_vanishes():
    prof = dirichlet_profile(3, 30.0, seed=4)
    for ballot in [(0,), (1, 2, 0)]:
        assert expected_utility(prof, ballot, [2.0, 2.0, 2.0]) == 0.0


def test_expected_utility_two_candidates():
    prof = two_ranking_profile(9.0, 10.0)
    p = total_pivot_prob(prof, [0]).p_total
    assert expected_utility(prof, [0], [1.0, 0.0]) == pytest.approx(p, abs=1e-15)


def test_expected_utility_missing_entry():
    prof = dirichlet_profile(3, 30.0, seed=4)
    with pytest.raises(ValueError):
        expected_utility(prof, [0], {0: 1.0, 1: 0.5})
    with pytest.raises(ValueError):
        expected_utility(prof, [0], [1.0, 0.5])


@pytest.mark.filterwarnings("error")
def test_utilities_whose_difference_overflows_are_rejected():
    # Each utility is finite, but u[0] - u[1] is not: before the check, a
    # report gave inf with a numpy overflow warning, and best_ballot raised
    # "-inf + inf in fsum".
    prof = gen_uniform_profile(3, 30.0)
    bad = (1e308, -1e308, 0.0)
    with pytest.raises(ValueError, match="utility differences overflow"):
        PivotCalculator(prof).report((0,), bad)
    with pytest.raises(ValueError, match="utility differences overflow"):
        best_ballot(prof, bad)
    # The largest spread that stays finite is accepted as given.
    edge = (8e307, -8e307, 0.0)
    assert math.isfinite(PivotCalculator(prof).report((2, 1, 0), edge).expected_utility)


def test_expected_utility_sign_agrees_with_oracle():
    prof = dirichlet_profile(3, 50.0, seed=2)
    u = [1.0, 0.4, 0.0]
    cfg = OracleConfig(draws=10**6, seed=33)
    for ballot in [(0, 1), (2, 1)]:
        analytic = expected_utility(prof, ballot, u)
        simulated = mc_expected_utility(prof, ballot, u, cfg)
        assert abs(analytic) > 1e-6 and abs(simulated) > 1e-6
        assert math.copysign(1, analytic) == math.copysign(1, simulated)


def test_utility_affine_invariance_of_best_ballot():
    prof = dirichlet_profile(3, 40.0, seed=6)
    u = [0.9, 0.2, 0.1]
    base_choice, _ = best_ballot(prof, u)
    scaled, _ = best_ballot(prof, [3.0 * x + 5.0 for x in u])
    assert base_choice == scaled


def test_best_ballot_two_candidates():
    prof = two_ranking_profile(5.0, 5.0)
    choice, rep = best_ballot(prof, [1.0, 0.0])
    assert choice == (0,)
    assert rep.expected_utility == pytest.approx(rep.p_total)


def test_best_ballot_constant_utility_lexicographic():
    prof = dirichlet_profile(3, 30.0, seed=8)
    choice, _ = best_ballot(prof, [1.0, 1.0, 1.0])
    assert choice == (0,)


def test_best_ballot_matches_exhaustive_search():
    prof = dirichlet_profile(3, 45.0, seed=12)
    u = [1.0, 0.6, 0.0]
    choice, rep = best_ballot(prof, u)
    scored = {
        b: expected_utility(prof, b, u) for b in admissible_rankings(3)
    }
    top = max(scored.values())
    winners = sorted(b for b, v in scored.items() if v == top)
    assert choice == winners[0]
    assert rep.expected_utility == top
    assert len(scored) == 15


def test_sequence_tie_mode_raises_survival_mass():
    prof = dirichlet_profile(3, 45.0, seed=13)
    plain = sweep_reports(prof, full_length_only=True)
    with_ties = sweep_reports(prof, full_length_only=True, sequence_ties=True)
    for a, b in zip(plain, with_ties):
        assert b.p_total > a.p_total


def test_sweep_covers_admissible_universe():
    prof = dirichlet_profile(3, 30.0, seed=1)
    assert len(sweep_reports(prof)) == 15
    assert len(sweep_reports(prof, full_length_only=True)) == 6
    total = math.fsum(r.p_total for r in sweep_reports(prof))
    assert math.isfinite(total) and total > 0


def test_report_events_flag_and_json_shape():
    prof = dirichlet_profile(3, 30.0, seed=1)
    rep = total_pivot_prob(prof, (0, 1), utilities=[1.0, 0.5, 0.0], with_events=True)
    payload = rep.to_dict(with_events=True)
    assert set(payload) == {
        "ballot", "p_direct", "p_indirect", "p_total", "expected_utility", "events",
    }
    kinds = {e["kind"] for e in payload["events"]}
    assert kinds == {"direct", "indirect"}
    assert all(e["utility_swing"] is not None for e in payload["events"])
    plain = total_pivot_prob(prof, (0, 1)).to_dict()
    assert "events" not in plain


def test_ballot_validation():
    prof = dirichlet_profile(3, 30.0, seed=1)
    with pytest.raises(ValueError):
        total_pivot_prob(prof, [0, 0])
    with pytest.raises(ValueError):
        total_pivot_prob(prof, [5])
    with pytest.raises(ValueError):
        total_pivot_prob(prof, [])


# -- pinned outputs ----------------------------------------------------------


def truncated4() -> BallotProfile:
    rankings = admissible_rankings(4, 2)
    w = np.random.default_rng(2).dirichlet(4.0 * np.ones(len(rankings)))
    return BallotProfile(4, dict(zip(rankings, 90.0 * w)), max_length=2)


PINNED_PROFILES = {
    "k3": lambda: dirichlet_profile(3, 60.0, seed=7),
    "k4": lambda: dirichlet_profile(4, 120.0, seed=4),
    "k5": lambda: dirichlet_profile(5, 200.0, seed=5),
    "k4L2": truncated4,
}
PINNED_UTILITIES = (1.0, 0.25, 0.6, 0.0, 0.8)
# (profile, sequence_ties, ballot, p_direct, p_indirect, p_total, expected_utility),
# recorded from the windowed-series kernel, which P(X > Y) still uses below
# skellam._CLOSED_FORM_FLOOR, and from the engine that summed each report's
# events: each value is the math.fsum of the report's events (event_sums).
PINNED = [
    ('k3', False, (0,), 0.0190867149956501, 0.010521061874495648, 0.02960777687014575, 0.00904979452042747),
    ('k3', False, (1, 2), 0.030706559992753818, 0.0058903575199200035, 0.03659691751267382, -0.013077654140170628),
    ('k3', False, (2, 0, 1), 0.030889968323048567, 0.0018941254045326005, 0.03278409372758117, 0.003457349124870184),
    ('k4', False, (3,), 0.014020246695258528, 0.0009744792096892714, 0.0149947259049478, -0.009273265410116522),
    ('k4', False, (0, 2), 0.01583376430573026, 0.010733935042276049, 0.02656769934800631, 0.012382732452561314),
    ('k4', False, (1, 3, 0, 2), 0.016178547696229447, 0.012105862553703441, 0.02828441024993289, -0.005767157704723041),
    ('k4', True, (0, 2), 0.018315300418551266, 0.013891527935437298, 0.03220682835398857, 0.014330411567155326),
    ('k4', True, (1, 3, 0, 2), 0.018839527934235496, 0.015948200478281674, 0.03478772841251717, -0.006339425644731993),
    ('k5', False, (4,), 0.003061107744890995, 0.002344529285273956, 0.005405637030164951, 0.0014372106150166229),
    ('k5', False, (2, 0, 3), 0.003755313234882052, 0.0037229234675956527, 0.0074782367024777046, -0.0002223076149712478),
    ('k5', False, (0, 1, 2, 3, 4), 0.005695177950401911, 0.007578042959169449, 0.01327322090957136, -0.001973712748496287),
    ('k5', True, (3, 1), 0.0065014701296167605, 0.007424562306807178, 0.013926032436423938, -0.003670087669374537),
    ('k4L2', False, (2,), 0.006182011664763021, 0.003583043791441651, 0.009765055456204673, 0.0014031268098000048),
    ('k4L2', False, (1, 3), 0.007689655159452328, 0.010817153015391028, 0.018506808174843355, -0.004999257518350464),
]


# The same reports from the closed-form kernel (chndtr for every P(X > Y) of at
# least 1e-10), recorded from the subset DP; each value is within 1e-12
# relative of PINNED.
PINNED_CLOSED_FORM = {
    ('k3', False, (0,)): (0.019086714995650032, 0.010521061874495655, 0.029607776870145687, 0.009049794520427444),
    ('k3', False, (1, 2)): (0.030706559992753804, 0.005890357519919933, 0.036596917512673736, -0.013077654140170644),
    ('k3', False, (2, 0, 1)): (0.03088996832304855, 0.0018941254045325962, 0.03278409372758115, 0.0034573491248702554),
    ('k4', False, (3,)): (0.014020246695258327, 0.0009744792096892834, 0.01499472590494761, -0.009273265410116369),
    ('k4', False, (0, 2)): (0.01583376430573003, 0.010733935042276155, 0.026567699348006183, 0.01238273245256116),
    ('k4', False, (1, 3, 0, 2)): (0.0161785476962292, 0.012105862553703467, 0.028284410249932668, -0.005767157704722943),
    ('k4', True, (0, 2)): (0.018315300418551006, 0.013891527935437424, 0.03220682835398843, 0.014330411567155152),
    ('k4', True, (1, 3, 0, 2)): (0.018839527934235222, 0.015948200478281698, 0.03478772841251692, -0.006339425644731891),
    ('k5', False, (4,)): (0.0030611077448908625, 0.0023445292852738095, 0.0054056370301646724, 0.0014372106150165793),
    ('k5', False, (2, 0, 3)): (0.0037553132348818355, 0.0037229234675954384, 0.0074782367024772735, -0.0002223076149712306),
    ('k5', False, (0, 1, 2, 3, 4)): (0.00569517795040163, 0.0075780429591687515, 0.013273220909570381, -0.001973712748496156),
    ('k5', True, (3, 1)): (0.006501470129616467, 0.0074245623068065, 0.013926032436422969, -0.0036700876693742993),
    ('k4L2', False, (2,)): (0.006182011664763011, 0.0035830437914415878, 0.0097650554562046, 0.0014031268098000042),
    ('k4L2', False, (1, 3)): (0.0076896551594523065, 0.010817153015390893, 0.0185068081748432, -0.00499925751835047),
}


@pytest.mark.parametrize("name,sequence_ties,ballot,p_direct,p_indirect,p_total,eu", PINNED)
def test_report_pinned_values(
    name, sequence_ties, ballot, p_direct, p_indirect, p_total, eu, monkeypatch
):
    # Any change to the DP's arithmetic, its summation or the kernel shows up here.
    prof = PINNED_PROFILES[name]()
    u = PINNED_UTILITIES[: prof.kappa]
    want = PINNED_CLOSED_FORM[name, sequence_ties, ballot]
    series = (p_direct, p_indirect, p_total, eu)
    assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0) for a, b in zip(want, series))
    rep = PivotCalculator(prof, sequence_ties=sequence_ties).report(ballot, u)
    assert (rep.p_direct, rep.p_indirect, rep.p_total, rep.expected_utility) == want
    # A calculator that has already scored other ballots gives the same bits.
    warm = PivotCalculator(prof, sequence_ties=sequence_ties)
    for other in admissible_rankings(prof.kappa, prof.max_length):
        warm.report(other)
    again = warm.report(ballot, u)
    assert (again.p_direct, again.p_indirect, again.p_total, again.expected_utility) == want
    # With the closed form switched off, the series kernel's bits come back
    # in the events, and the report's sums lie within the contract of them.
    monkeypatch.setattr(skellam, "_CLOSED_FORM_FLOOR", math.inf)
    rep = PivotCalculator(prof, sequence_ties=sequence_ties).report(ballot, u, with_events=True)
    assert event_sums(rep) == series
    assert_sums_match_events(rep)


def test_expected_utility_cached_per_utility_vector():
    # Gains are cached per key and utility vector.  A calculator that has
    # priced other utilities must give a fresh calculator's bits.
    prof = PINNED_PROFILES["k4"]()
    calc = PivotCalculator(prof)
    utilities = [(1.0, 0.25, 0.6, 0.0), (0.0, 1.0, 0.5, 0.2), {0: 1.0, 1: 0.25, 2: 0.6, 3: 0.0}]
    for u in utilities:
        for ballot in admissible_rankings(4)[::3]:
            want = PivotCalculator(prof).report(ballot, u).expected_utility
            assert calc.report(ballot, u).expected_utility == want


@pytest.mark.parametrize("name,sequence_ties,ballot", [c[:3] for c in PINNED])
def test_event_list_agrees_with_report_sums(name, sequence_ties, ballot):
    prof = PINNED_PROFILES[name]()
    calc = PivotCalculator(prof, sequence_ties=sequence_ties)
    u = PINNED_UTILITIES[: prof.kappa]
    rep = calc.report(ballot, u, with_events=True)
    assert all(isinstance(e, (DirectEvent, IndirectEvent)) for e in rep.events)
    assert_sums_match_events(rep)
    # A warm calculator lists the same events with the same bits.
    assert calc.report(ballot, u, with_events=True).events == rep.events
    assert calc.report(ballot).events is None


# sha256 of each report's JSON with its events, ``json.dumps(report.to_dict(True))``,
# recorded from the per-key index-plan engine with the windowed-series kernel:
# (kappa, ballot, sequence_ties, with utilities, digest).  The event order is
# part of the report JSON.  That engine reported the fsums of the events, so
# the digests hold for the JSON with event_sums in place of the report's sums.
EVENT_JSON = [
    (2, (0,), False, False, "018fbae92441934e1422e136f9ef2fc308fdd192d07e01cde3903629dbb3c75a"),
    (2, (1, 0), True, True, "a7c055608e4d91804f2d7aa23664d3e73d1455af46e957dedc9ea48b2400ca3d"),
    (3, (0,), False, True, "7710bdbeb39760c02f453b2e976349aa20167c5d564c76ee4ff60f083343be37"),
    (3, (2, 0, 1), True, False, "c754b3c42407e21e6fa2597fd19d9c5a9e9fd8605320f42571ddea4c01be1e34"),
    (4, (1, 3), False, False, "9c04328de0be300f1b0b6b121655cbeddcf1ce1b218a6759f703c7db3a599098"),
    (4, (3, 0, 2, 1), True, True, "befede1c738e805aeaa59ddeaa2cf47f5278d31381c0a17eb9303ce086611eea"),
    (5, (4,), True, False, "8e7567898d8a60d1298af3080b2ec5c76b49b5565fbadbd756b69733dabed175"),
    (5, (0, 2, 1), False, True, "219b05be838caa6d431de858ebddbbd652c8093ad169a3b01e9a81341888308e"),
    (6, (5, 0), False, True, "629fbc31c8c8f1ac2516d0258603d3562860738bfbd921ecaf2a4e230664bf73"),
    (6, (2, 4, 1, 0, 3, 5), True, False, "ea98174f8796f8c50fa8d4b2046ccc38ea8466a0cab896a6bbe13b9989866d08"),
]


# The report JSON itself from the closed-form kernel (chndtr for every
# P(X > Y) of at least 1e-10), keyed by (kappa, ballot), recorded from the
# subset DP.  At kappa = 2 no comparison reaches the kernel.
EVENT_JSON_CLOSED_FORM = {
    (2, (0,)): "018fbae92441934e1422e136f9ef2fc308fdd192d07e01cde3903629dbb3c75a",
    (2, (1, 0)): "a7c055608e4d91804f2d7aa23664d3e73d1455af46e957dedc9ea48b2400ca3d",
    (3, (0,)): "2f90ee527a06707b1f10ba0118c7c0334187eb5b6e7e5e371fab967c458581a8",
    (3, (2, 0, 1)): "eed4aa17ce85166b7fa631e146ea81c37128d0604f882b30a8c04395b2fa2bc2",
    (4, (1, 3)): "cc4d743c88a58c4d30f6953cb79cf472ee6563e8f8ab45e345e9f55f3323bd02",
    (4, (3, 0, 2, 1)): "95e2862a0c1935ca116e5e0e696cc3222ecae5c0a106330205db00974696e21a",
    (5, (4,)): "84bda7ce6cdf332ed45293d135619513f2671a8a837ee5997f0c20ffd5291d36",
    (5, (0, 2, 1)): "d9fe2e3f31411c289afd76115b087f23f3be28fb9c2cf9ecaf65d49496d47c18",
    (6, (5, 0)): "247d1acc3dedb085e76c14ab7062128268618d9aceedfc160174037fbe5ec71e",
    (6, (2, 4, 1, 0, 3, 5)): "5309535cf37876059ac4d20d554f73de41be324045a7af0a174ff1728a07780d",
}


@pytest.mark.parametrize("kappa,ballot,sequence_ties,with_utilities,digest", EVENT_JSON)
def test_event_json_pinned(kappa, ballot, sequence_ties, with_utilities, digest, monkeypatch):
    prof = dirichlet_profile(kappa, 30.0 * kappa, seed=kappa)
    u = (1.0, 0.25, 0.6, 0.0, 0.8, -0.5)[:kappa] if with_utilities else None

    def report():
        return PivotCalculator(prof, sequence_ties=sequence_ties).report(ballot, u, with_events=True)

    def sha(rep):
        return hashlib.sha256(json.dumps(rep.to_dict(with_events=True)).encode()).hexdigest()

    assert sha(report()) == EVENT_JSON_CLOSED_FORM[kappa, ballot]
    # With the closed form switched off, the series kernel's bits come back.
    monkeypatch.setattr(skellam, "_CLOSED_FORM_FLOOR", math.inf)
    rep = report()
    assert sha(dataclasses.replace(rep, **dict(zip(SUMS, event_sums(rep))))) == digest
    assert_sums_match_events(rep)


@settings(max_examples=30, deadline=None)
@given(
    kappa=st.integers(3, 5),
    seed=st.integers(0, 2**16),
    truncated=st.booleans(),
    sequence_ties=st.booleans(),
    pick=st.integers(0, 10**6),
)
@example(kappa=4, seed=1, truncated=True, sequence_ties=True, pick=7)
@example(kappa=5, seed=2, truncated=False, sequence_ties=True, pick=10**6)
@example(kappa=2, seed=3, truncated=False, sequence_ties=False, pick=2)  # no saves
@example(kappa=6, seed=4, truncated=False, sequence_ties=True, pick=1000)  # largest table
def test_event_probabilities_match_scalar_arithmetic(kappa, seed, truncated, sequence_ties, pick):
    def mask(dropped):
        return sum(1 << c for c in dropped)

    # Each event evaluated on arrays must give the bits of the scalar
    # product it stands for, with the same association.
    max_length = kappa - 1 if truncated else kappa
    rankings = admissible_rankings(kappa, max_length)
    w = np.random.default_rng(seed).dirichlet(4.0 * np.ones(len(rankings)))
    prof = BallotProfile(kappa, dict(zip(rankings, 20.0 * kappa * w)), max_length=max_length)
    calc = PivotCalculator(prof, sequence_ties=sequence_ties)
    ballot = rankings[pick % len(rankings)]
    events = calc.report(ballot, with_events=True).events
    assert events
    for ev in events:
        if isinstance(ev, DirectEvent):
            order = ev.drops + (ev.candidate,)
            brk, mk = calc.tie_pair(ev.candidate, ev.runner_up, mask(ev.drops[:-1]))
            want = calc.sequence_prob(order, full=False) * 0.5 * (brk + mk)
        else:
            rnd = ev.round_index
            brk, mk = calc.tie_pair(ev.candidate, ev.displaced, mask(ev.base[: rnd - 1]))
            want = (
                calc.sequence_prob(ev.base, full=True)
                * calc._round_product(ev.alternate, rnd + 1, kappa - 1)
                * 0.5
                * (brk + mk)
            )
        assert ev.probability == want


@settings(max_examples=40, deadline=None)
@given(
    kappa=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    truncated=st.booleans(),
    sequence_ties=st.booleans(),
    pick=st.integers(0, 10**6),
)
@example(kappa=6, seed=6, truncated=True, sequence_ties=True, pick=1000)
def test_report_sums_agree_with_their_events(kappa, seed, truncated, sequence_ties, pick):
    # The DP sums its events in another order and association than listing
    # them does, so it agrees with their fsums within the output contract.
    # Relabeling the candidates gives the same bits.
    max_length = kappa - 1 if truncated else kappa
    rankings = admissible_rankings(kappa, max_length)
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(4.0 * np.ones(len(rankings)))
    prof = BallotProfile(kappa, dict(zip(rankings, 20.0 * kappa * w)), max_length=max_length)
    u = tuple(rng.normal(size=kappa).tolist())
    ballot = rankings[pick % len(rankings)]
    rep = PivotCalculator(prof, sequence_ties=sequence_ties).report(ballot, u, with_events=True)
    assert_sums_match_events(rep)
    perm = rng.permutation(kappa).tolist()
    relabeled = PivotCalculator(prof.relabeled(perm), sequence_ties=sequence_ties).report(
        tuple(perm[c] for c in ballot), {perm[c]: u[c] for c in range(kappa)}
    )
    assert [getattr(relabeled, f) for f in SUMS] == [getattr(rep, f) for f in SUMS]


# Kernel calls of one report on a fresh calculator, per ballot length
# (ballot: the candidates in descending order), recorded from the engine
# that scored events one at a time.  A report must not evaluate
# comparisons or tie terms its ballot cannot reach.
KERNEL_WORK = {
    "k3": [(10, 4), (10, 5), (10, 5)],
    "k4": [(45, 12), (45, 16), (45, 17), (45, 17)],
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the two kernels the engine makes, counted by kind."""
    calls = {"psg": 0, "tie": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, kernel in (("psg", "prob_strictly_greater"), ("tie", "tie_terms")):
        monkeypatch.setattr(pivotal, kernel, counted(key, getattr(pivotal, kernel)))
    return calls


@pytest.mark.parametrize("name", sorted(KERNEL_WORK))
def test_one_off_report_kernel_work(name, kernel_calls):
    prof = PINNED_PROFILES[name]()
    ballot = tuple(reversed(range(prof.kappa)))
    got = []
    for length in range(1, prof.kappa + 1):
        kernel_calls.update(psg=0, tie=0)
        PivotCalculator(prof).report(ballot[:length])
        got.append((kernel_calls["psg"], kernel_calls["tie"]))
    assert got == KERNEL_WORK[name]


# Kernel calls of a full-length sweep on a fresh calculator, kappa = 3, 4, 5.
# The kernel is a function of the two rates alone, and in these symmetric
# profiles most comparisons share a pair of rates; an engine that ran it
# once per (winner, loser, dropped) made 12, 48 and 160 calls of each kind.
SWEEP_KERNEL_WORK = {
    "powerlaw": (lambda k: gen_powerlaw_profile(k, 1000.0, seed=0), [(5, 5), (8, 8), (11, 11)]),
    "flat": (lambda k: gen_uniform_profile(k, 1000.0), [(2, 2), (3, 3), (4, 4)]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_KERNEL_WORK))
def test_sweep_kernel_work_per_distinct_rate_pair(name, kernel_calls):
    make, want = SWEEP_KERNEL_WORK[name]
    got = []
    for kappa in (3, 4, 5):
        kernel_calls.update(psg=0, tie=0)
        sweep_reports(make(kappa), full_length_only=True)
        got.append((kernel_calls["psg"], kernel_calls["tie"]))
    assert got == want


def test_each_calculator_owns_its_log_gamma_rows(monkeypatch):
    # The tie terms and, under sequence_ties, the tie credit of a comparison
    # read the calculator's own rows object, so no log-gamma value survives
    # from one calculator to the next.
    seen = []

    def recording(kernel):
        def wrapper(*args):
            seen.append(args[-1])
            return kernel(*args)
        return wrapper

    for name in ("tie_terms", "skellam_pmf"):
        monkeypatch.setattr(pivotal, name, recording(getattr(pivotal, name)))
    prof = gen_powerlaw_profile(4, 1000.0, seed=0)
    owners = []
    for _ in range(2):
        seen.clear()
        calc = PivotCalculator(prof, sequence_ties=True)
        calc.report((3, 2, 1, 0))
        assert seen and all(rows is seen[0] for rows in seen)
        assert isinstance(seen[0], skellam._LogGammaRows)
        owners.append(seen[0])
    assert owners[0] is not owners[1]
