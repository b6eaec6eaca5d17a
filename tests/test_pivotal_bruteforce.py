"""Cross-check the cached pivot engine against a from-scratch evaluator.

The reference below re-derives direct and indirect probabilities with no
caching, no shared state, and its own loop structure, straight from the
event definitions.  Any bug in the calculator's memoization or index
plumbing shows up as a mismatch here.
"""

import math
import sys
from functools import cache
from itertools import permutations

import pytest

from irvpivot import (
    BallotProfile,
    direct_pivot_prob,
    expected_total,
    indirect_pivot_prob,
    prob_strictly_greater,
    skellam_pmf,
    total_pivot_prob,
)
from irvpivot.pivotal import PivotCalculator

from conftest import dirichlet_profile


def ref_direct(profile, ballot):
    kappa = profile.kappa
    total = 0.0
    for i in range(1, len(ballot) + 1):
        cand = ballot[i - 1]
        need = set(ballot[: i - 1])
        for drops in permutations([c for c in range(kappa) if c != cand]):
            if not need <= set(drops[: kappa - 2]):
                continue
            order = drops + (cand,)
            prob = 1.0
            for rnd in range(1, kappa - 1):
                ctx = order[: rnd - 1]
                for later in range(rnd, kappa):
                    prob *= prob_strictly_greater(
                        expected_total(profile, order[later], ctx),
                        expected_total(profile, order[rnd - 1], ctx),
                    )
            ctx = drops[: kappa - 2]
            lam_c = expected_total(profile, cand, ctx)
            lam_o = expected_total(profile, drops[-1], ctx)
            prob *= 0.5 * (skellam_pmf(0, lam_c, lam_o) + skellam_pmf(-1, lam_c, lam_o))
            total += prob
    return total


def ref_indirect(profile, ballot):
    kappa = profile.kappa
    total = 0.0
    for i in range(1, len(ballot) + 1):
        cand = ballot[i - 1]
        need = set(ballot[: i - 1])
        for base in permutations(range(kappa)):
            y = base.index(cand) + 1
            if y > kappa - 2 or not need <= set(base[: y - 1]):
                continue
            base_prob = 1.0
            for rnd in range(1, kappa):
                ctx = base[: rnd - 1]
                for later in range(rnd, kappa):
                    base_prob *= prob_strictly_greater(
                        expected_total(profile, base[later], ctx),
                        expected_total(profile, base[rnd - 1], ctx),
                    )
            for displaced in base[y:]:
                tail_pool = [cand] + [c for c in base[y:] if c != displaced]
                for suffix in permutations(tail_pool):
                    if suffix[-1] in (base[-1], cand):
                        continue
                    alternate = base[: y - 1] + (displaced,) + suffix
                    tail_prob = 1.0
                    for rnd in range(y + 1, kappa):
                        ctx = alternate[: rnd - 1]
                        for later in range(rnd, kappa):
                            tail_prob *= prob_strictly_greater(
                                expected_total(profile, alternate[later], ctx),
                                expected_total(profile, alternate[rnd - 1], ctx),
                            )
                    ctx = base[: y - 1]
                    lam_c = expected_total(profile, cand, ctx)
                    lam_t = expected_total(profile, displaced, ctx)
                    tie = 0.5 * (
                        skellam_pmf(0, lam_c, lam_t) + skellam_pmf(-1, lam_c, lam_t)
                    )
                    total += base_prob * tail_prob * tie
    return total


PROFILES = [
    dirichlet_profile(3, 45.0, seed=21),
    dirichlet_profile(4, 35.0, seed=22),
    BallotProfile(3, {(0, 2): 6.0, (1,): 5.0, (2, 1): 5.0}, max_length=2),
    BallotProfile(4, {(0, 1): 8.0, (1, 2, 3): 7.0, (2,): 6.5, (3, 0): 6.0}, max_length=3),
]


@pytest.mark.parametrize("profile", PROFILES, ids=["dir3", "dir4", "short3", "short4"])
def test_engine_matches_reference(profile):
    kappa = profile.kappa
    ballots = [(c,) for c in range(kappa)]
    ballots += [tuple(range(kappa)), tuple(reversed(range(kappa)))[: profile.max_length]]
    ballots = [b[: profile.max_length] for b in ballots]
    calc = PivotCalculator(profile)
    for ballot in ballots:
        want_d = ref_direct(profile, ballot)
        want_i = ref_indirect(profile, ballot)
        got_d, _ = direct_pivot_prob(profile, ballot)
        got_i, _ = indirect_pivot_prob(profile, ballot)
        assert got_d == pytest.approx(want_d, rel=1e-12, abs=1e-15)
        assert got_i == pytest.approx(want_i, rel=1e-12, abs=1e-15)
        # a warm shared calculator agrees with fresh single-use ones
        rep = calc.report(ballot)
        assert rep.p_direct == got_d
        assert rep.p_indirect == got_i


@pytest.mark.parametrize(
    "profile,ballots",
    [
        (dirichlet_profile(5, 60.0, seed=23), [(0,), (3, 1)]),
        (dirichlet_profile(6, 90.0, seed=24), [(2,)]),
    ],
    ids=["dir5", "dir6"],
)
def test_engine_matches_reference_at_larger_kappa(profile, ballots, monkeypatch):
    # The reference's kernel and expected totals are pure functions of
    # their arguments; memoizing them keeps its event walk unchanged and
    # the kappa=6 run to seconds.
    module = sys.modules[__name__]
    for name in ("prob_strictly_greater", "skellam_pmf"):
        monkeypatch.setattr(module, name, cache(getattr(module, name)))
    totals = cache(lambda cand, ctx, total=expected_total: total(profile, cand, ctx))
    monkeypatch.setattr(
        module, "expected_total", lambda _, cand, ctx: totals(cand, tuple(sorted(ctx)))
    )
    calc = PivotCalculator(profile)
    for ballot in ballots:
        rep = calc.report(ballot)
        assert rep.p_direct == pytest.approx(ref_direct(profile, ballot), rel=1e-12, abs=1e-15)
        assert rep.p_indirect == pytest.approx(ref_indirect(profile, ballot), rel=1e-12, abs=1e-15)


def test_probabilities_stay_in_unit_interval():
    for profile in PROFILES:
        for ballot in [(c,) for c in range(profile.kappa)]:
            rep = total_pivot_prob(profile, ballot)
            assert 0.0 <= rep.p_direct <= 1.0
            assert 0.0 <= rep.p_indirect <= 1.0
            assert 0.0 <= rep.p_total <= 1.0


def test_three_candidate_event_taxonomy():
    """Emitted events match an independent constraint filter over all
    (position, sequence, alternate) triples."""
    profile = dirichlet_profile(3, 45.0, seed=21)
    kappa = 3
    for ballot in [(0,), (1, 0), (2, 0, 1)]:
        calc = PivotCalculator(profile)
        got_direct = {(e.position, e.drops) for e in calc.direct_events(ballot)}
        got_indirect = {
            (e.position, e.base, e.alternate) for e in calc.indirect_events(ballot)
        }
        want_direct = set()
        want_indirect = set()
        for i in range(1, len(ballot) + 1):
            cand = ballot[i - 1]
            above = set(ballot[: i - 1])
            for perm in permutations(range(kappa)):
                # direct: cand survives to the final round, everything
                # ranked above already gone before it
                if perm[-1] == cand and above <= set(perm[: kappa - 2]):
                    want_direct.add((i, perm[:-1]))
                # indirect: cand dropped early, prefix compatible, paired
                # with every alternate that changes the winner
                y = perm.index(cand) + 1
                if y <= kappa - 2 and above <= set(perm[: y - 1]):
                    for alt in permutations(range(kappa)):
                        if alt[: y - 1] != perm[: y - 1]:
                            continue
                        if alt[y - 1] == cand:
                            continue
                        if alt[-1] in (perm[-1], cand):
                            continue
                        want_indirect.add((i, perm, alt))
        assert got_direct == want_direct
        assert got_indirect == want_indirect
