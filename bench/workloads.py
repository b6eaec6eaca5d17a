"""Seeded workloads of the irvpivot benchmark.

Each workload generates all of its inputs from the workload seed when it is
built (that is the set-up the benchmark times), then runs operations in a
closed loop with one client: the next operation starts only when the
previous one has returned.  The library is called through module
attributes (``pivotal.total_pivot_prob``, ``experiment.run_experiment``,
``oracle.mc_pivot_estimates``) so that the traced run can wrap them.

Why each workload exists is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from irvpivot import elections, experiment, oracle, pivotal

# Relative tolerance for every analytic (pivotal, smdp) golden or
# relabeling comparison.  Values go down to ~1e-93, so an absolute
# tolerance would accept anything; 1e-6 leaves room for a different
# summation order or truncation window, not for a wrong result.
REL_TOL = 1e-6

FIGURE1_KAPPAS = (3, 4, 5)
FIGURE1_VOTERS = 1000.0
# Runs per run_experiment call.  The memo lives for one call, and a
# kappa=5 memo hit turns an ~0.8 s run into a ~30 ms one.  In calls of the
# paper's 100 runs the hits pile up, and their seed-dependent number alone
# spread runs per 30 s phase by ~13% between seeds (quartiles over 20 seeds,
# modelled from the focal rankings); in calls of 20 runs, by ~3%.
FIGURE1_BATCH_RUNS = 20

COMPUTE_POOL = 2048
COMPUTE_KAPPAS = (3, 4)
COMPUTE_LOG10_N = (4.0, 5.0)

ORACLE_POOL = 1024
ORACLE_KAPPA = 3
ORACLE_VOTERS = 60.0
ORACLE_DRAWS = 2 * (1 << 16)  # two of the oracle's 65,536-draw blocks
ORACLE_SINGLETONS = ((0,), (1,), (2,))

# Ops whose golden values are stored for the default seed; later ops
# (and every op at another seed) are checked against invariants only.
GOLDEN_OPS = {"compute_cold": 1024, "oracle": 256}
DEFAULT_SEED = 0


@dataclass
class OpRecord:
    """One completed operation: its index, latency and output (or error)."""

    index: int
    latency_s: float
    output: Any = None
    error: str | None = None


class PhaseEnd(Exception):
    """Raised from the figure1 result list to stop a batch at the deadline."""


def competitive_profile(
    rng: np.random.Generator, kappa: int, n_voters: float
) -> elections.BallotProfile:
    """Near-uniform profile over full rankings whose spread matches Poisson noise.

    Shares are Dirichlet with concentration ``n_voters / R`` per ranking, so
    the profile's own margins are about as large as the vote-count noise:
    contests stay close and pivot probabilities stay far from underflow.
    """
    rankings = elections.admissible_rankings(kappa, full_length_only=True)
    shares = rng.dirichlet(np.full(len(rankings), n_voters / len(rankings)))
    return elections.BallotProfile(
        kappa, {r: n_voters * float(s) for r, s in zip(rankings, shares)}
    )


def _rel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _stop(deadline: float | None, max_ops: int | None, done: int) -> bool:
    if max_ops is not None:
        return done >= max_ops
    return time.perf_counter() >= deadline


def _loop(
    op: Callable[[int], Any],
    deadline: float | None,
    max_ops: int | None,
    on_op: Callable[[int], None] | None = None,
) -> list[OpRecord]:
    """Closed loop over op indices 0, 1, ... until the deadline or count."""
    records: list[OpRecord] = []
    while not _stop(deadline, max_ops, len(records)):
        i = len(records)
        if on_op is not None:
            on_op(i)
        start = time.perf_counter()
        try:
            out = op(i)
        except Exception as exc:  # a failed op is counted, the loop goes on
            records.append(OpRecord(i, time.perf_counter() - start, error=repr(exc)))
            continue
        records.append(OpRecord(i, time.perf_counter() - start, out))
    return records


# -- figure1 -----------------------------------------------------------------


class _RunClock(list):
    """Result list for ``run_experiment`` that timestamps each finished run.

    A run is finished when the plurality result of its last kappa arrives.
    """

    def __init__(self, on_run, last_kappa):
        super().__init__()
        self._on_run = on_run
        self._last_kappa = last_kappa

    def append(self, result):
        super().append(result)
        if result.kappa == self._last_kappa and result.system == elections.SMDP:
            self._on_run(self[-2 * len(FIGURE1_KAPPAS):])


class Figure1:
    """The paper's Figure 1 batch: power-law profiles, IRV and SMDP totals.

    One op is one run of ``run_experiment`` (every kappa, both systems).
    Runs go in batches of ``FIGURE1_BATCH_RUNS``; the experiment memo lives
    for a batch, so later runs of a batch reuse earlier sweeps.
    """

    name = "figure1"
    contests_per_op = len(FIGURE1_KAPPAS)

    def __init__(self, seed: int):
        self.seed = seed
        self.base_seed = int(np.random.default_rng(seed).integers(2**31))

    def describe(self) -> dict:
        return {"base_seed": self.base_seed, "kappas": list(FIGURE1_KAPPAS)}

    def run(self, deadline=None, max_ops=None, on_op=None) -> list[OpRecord]:
        records: list[OpRecord] = []
        batch = 0
        while not _stop(deadline, max_ops, len(records)):
            cfg = experiment.ExperimentConfig(
                kappas=FIGURE1_KAPPAS,
                n_voters=FIGURE1_VOTERS,
                runs=FIGURE1_BATCH_RUNS,
                distribution=experiment.POWERLAW,
                base_seed=self.base_seed + batch * FIGURE1_BATCH_RUNS,
            )
            last = [time.perf_counter()]

            def on_run(results):
                now = time.perf_counter()
                out = {(r.kappa, r.system): r.total_pivot for r in results}
                records.append(OpRecord(len(records), now - last[0], out))
                if _stop(deadline, max_ops, len(records)):
                    raise PhaseEnd
                if on_op is not None:
                    on_op(len(records))
                last[0] = time.perf_counter()

            if on_op is not None:
                on_op(len(records))
            try:
                experiment.run_experiment(cfg, partial=_RunClock(on_run, FIGURE1_KAPPAS[-1]))
            except PhaseEnd:
                break
            except Exception as exc:  # the batch is lost; its open run fails
                records.append(
                    OpRecord(len(records), time.perf_counter() - last[0], error=repr(exc))
                )
                break
            batch += 1
        return records

    def check(self, rec: OpRecord, golden: dict | None) -> bool:
        """Every power-law contest of one kappa is a relabeling of every
        other, so its totals must match the golden value for that kappa at
        any seed."""
        if rec.error is not None:
            return False
        if set(rec.output) != {(k, s) for k in FIGURE1_KAPPAS for s in (elections.IRV, elections.SMDP)}:
            return False
        for (kappa, system), value in rec.output.items():
            if not (math.isfinite(value) and value >= 0.0):
                return False
            if golden is not None and not _rel_close(value, golden[str(kappa)][system]):
                return False
        return True

    def relabel_failures(self, records) -> set[int]:
        return set()


# -- compute_cold ------------------------------------------------------------


class ComputeCold:
    """One-off ``total_pivot_prob`` reports, as ``pivot compute`` makes them.

    Every op builds a fresh calculator, so no cache survives between ops.
    """

    name = "compute_cold"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for _ in range(COMPUTE_POOL):
            kappa = int(rng.choice(COMPUTE_KAPPAS))
            n = float(10.0 ** rng.uniform(*COMPUTE_LOG10_N))
            profile = competitive_profile(rng, kappa, n)
            length = int(rng.integers(1, kappa + 1))
            ballot = tuple(int(c) for c in rng.permutation(kappa)[:length])
            utilities = tuple(float(u) for u in rng.uniform(0.0, 1.0, kappa))
            self.inputs.append((profile, ballot, utilities))
        self._relabel_rng = np.random.default_rng([seed, 2])

    def describe(self) -> dict:
        return {"pool": len(self.inputs)}

    def _call(self, profile, ballot, utilities) -> tuple[float, float, float, float]:
        rep = pivotal.total_pivot_prob(profile, ballot, utilities=utilities)
        return rep.p_direct, rep.p_indirect, rep.p_total, rep.expected_utility

    def op(self, i: int):
        return self._call(*self.inputs[i % len(self.inputs)])

    def run(self, deadline=None, max_ops=None, on_op=None) -> list[OpRecord]:
        return _loop(self.op, deadline, max_ops, on_op)

    def check(self, rec: OpRecord, golden: list | None) -> bool:
        if rec.error is not None:
            return False
        p_d, p_i, p_t, eu = rec.output
        if not (0.0 <= p_d <= 1.0 and 0.0 <= p_i <= 1.0 and 0.0 <= p_t <= 1.0):
            return False
        if p_t != p_d + p_i or not math.isfinite(eu):
            return False
        if golden is not None:
            return all(_rel_close(a, b) for a, b in zip((p_d, p_i, eu), golden[rec.index]))
        return True

    def relabel_failures(self, records, samples: int = 8) -> set[int]:
        """Positions in ``records`` of sampled ops whose report changes when
        the candidates are relabeled."""
        ok = [pos for pos, r in enumerate(records) if r.error is None]
        bad = set()
        for pos in ok[:: max(1, len(ok) // samples)][:samples]:
            rec = records[pos]
            profile, ballot, utilities = self.inputs[rec.index % len(self.inputs)]
            perm = [int(c) for c in self._relabel_rng.permutation(profile.kappa)]
            moved_u = [0.0] * profile.kappa
            for c, u in enumerate(utilities):
                moved_u[perm[c]] = u
            try:
                p_d, p_i, _, eu = self._call(
                    profile.relabeled(perm), tuple(perm[c] for c in ballot), moved_u
                )
            except Exception:
                bad.add(pos)
                continue
            base_d, base_i, _, base_eu = rec.output
            if not all(_rel_close(a, b) for a, b in ((p_d, base_d), (p_i, base_i), (eu, base_eu))):
                bad.add(pos)
        return bad


# -- oracle ------------------------------------------------------------------


def pivot_counts(est) -> tuple[int, int]:
    """Direct and indirect pivotal draws behind an oracle estimate (exact)."""
    return round(est.p_direct_hat * est.draws_used), round(est.p_indirect_hat * est.draws_used)


class Oracle:
    """Monte-Carlo pivot counts for six ballots over shared draws."""

    name = "oracle"

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        fulls = elections.admissible_rankings(ORACLE_KAPPA, full_length_only=True)
        self.inputs = []
        for _ in range(ORACLE_POOL):
            profile = competitive_profile(rng, ORACLE_KAPPA, ORACLE_VOTERS)
            picks = rng.choice(len(fulls), size=3, replace=False)
            ballots = list(ORACLE_SINGLETONS) + [fulls[int(j)] for j in sorted(picks)]
            cfg = oracle.OracleConfig(draws=ORACLE_DRAWS, seed=int(rng.integers(2**31)))
            self.inputs.append((profile, ballots, cfg))

    def describe(self) -> dict:
        return {"pool": len(self.inputs), "draws": ORACLE_DRAWS}

    def op(self, i: int, with_ballots: bool = True) -> list:
        profile, ballots, cfg = self.inputs[i % len(self.inputs)]
        return oracle.mc_pivot_estimates(profile, ballots if with_ballots else [], cfg)

    def run(self, deadline=None, max_ops=None, on_op=None) -> list[OpRecord]:
        return _loop(self.op, deadline, max_ops, on_op)

    def first_pass(self, n_ops: int, on_op=None) -> list[float]:
        """Latency of the same calls with no ballots: sampling and first count."""
        return [r.latency_s for r in _loop(lambda i: self.op(i, False), None, n_ops, on_op)]

    def check(self, rec: OpRecord, golden: list | None) -> bool:
        if rec.error is not None:
            return False
        _, ballots, cfg = self.inputs[rec.index % len(self.inputs)]
        if len(rec.output) != len(ballots):
            return False
        for est in rec.output:
            direct, indirect = pivot_counts(est)
            if est.p_total_hat != est.p_direct_hat + est.p_indirect_hat:
                return False
            if not (direct >= 0 and indirect >= 0 and direct + indirect <= cfg.draws):
                return False
        if golden is not None:
            return [list(pivot_counts(e)) for e in rec.output] == golden[rec.index]
        return True

    def relabel_failures(self, records) -> set[int]:
        # Tie coins and count streams are tied to candidate ids and column
        # order, so a relabeled profile draws different electorates.
        return set()


WORKLOADS = {w.name: w for w in (Figure1, ComputeCold, Oracle)}


def golden_for(workload, golden: dict, rec: OpRecord):
    """The golden entry that applies to ``rec``, or None to use invariants."""
    entry = golden.get(workload.name)
    if entry is None:
        return None
    if workload.name == Figure1.name:
        return entry
    if workload.seed != DEFAULT_SEED or rec.index >= len(entry):
        return None
    return entry


def count_failures(workload, records: list[OpRecord], golden: dict) -> int:
    """Ops that raised or failed their golden, invariant or relabeling check."""
    bad = {
        pos for pos, r in enumerate(records)
        if not workload.check(r, golden_for(workload, golden, r))
    }
    return len(bad | workload.relabel_failures(records))
