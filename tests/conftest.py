"""Shared fixtures and independent reference implementations.

The reference functions here deliberately avoid the library's own code
paths: the Skellam oracle is a plain linear-domain convolution of scipy
Poisson pmfs over a generous cap, and the strictly-greater oracle is a
literal double sum over the joint pmf grid.
"""

from __future__ import annotations

import os
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

from irvpivot import BallotProfile

# Subprocesses the tests start (the CLI, the demos, import checks) import the
# package from this checkout too, with or without PYTHONPATH set.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def poisson_cap(lam: float, eps: float = 1e-13) -> int:
    """Count below which all but ``eps`` of the Poisson mass sits."""
    if lam == 0.0:
        return 1
    return int(poisson.ppf(1.0 - eps, lam)) + 10


def conv_skellam_pmf(w: int, lam1: float, lam2: float) -> float:
    """Direct-convolution oracle for P(X - Y = w)."""
    cap = max(poisson_cap(lam1), poisson_cap(lam2)) + abs(w)
    ms = np.arange(0, cap + 1)
    xs = ms + w
    valid = xs >= 0
    return float(np.sum(poisson.pmf(xs[valid], lam1) * poisson.pmf(ms[valid], lam2)))


def double_sum_gt(lam_a: float, lam_b: float) -> float:
    """Double-sum oracle for P(X > Y) over a capped joint grid."""
    cap_a = poisson_cap(lam_a)
    cap_b = poisson_cap(lam_b)
    pa = poisson.pmf(np.arange(cap_a + 1), lam_a)
    pb = poisson.pmf(np.arange(cap_b + 1), lam_b)
    grid = np.outer(pa, pb)
    xs = np.arange(cap_a + 1)[:, None]
    ys = np.arange(cap_b + 1)[None, :]
    return float(grid[xs > ys].sum())


def brute_alternates(base: tuple[int, ...], round_index: int) -> set[tuple[int, ...]]:
    """Filter all permutations against the alternate-sequence constraints."""
    kappa = len(base)
    saved = base[round_index - 1]
    out = set()
    for perm in permutations(range(kappa)):
        if perm[: round_index - 1] != base[: round_index - 1]:
            continue
        if perm[round_index - 1] == saved:
            continue
        if perm[-1] == base[-1] or perm[-1] == saved:
            continue
        out.add(perm)
    return out


def dirichlet_profile(kappa: int, total: float, seed: int, alpha: float = 4.0) -> BallotProfile:
    """Competitive full-length profile with Dirichlet-weighted rates."""
    rankings = list(permutations(range(kappa)))
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(alpha * np.ones(len(rankings)))
    return BallotProfile(kappa, dict(zip(rankings, total * weights)))


@pytest.fixture
def competitive3() -> BallotProfile:
    return dirichlet_profile(3, 60.0, seed=7)
