"""The benchmark's tracer still finds the library names it wraps.

``bench/spans.py`` wraps library functions by module and attribute name,
and leaves a name it cannot find out of a traced run's metrics.  These
checks load it read-only, so renaming or bypassing one of those names
fails here rather than in a traced benchmark run.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from irvpivot import experiment, pivotal
from irvpivot.experiment import POWERLAW, ExperimentConfig, gen_powerlaw_profile, run_experiment
from irvpivot.pivotal import PivotCalculator, sweep_reports, total_pivot_prob

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is made.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_tracer_target_resolves(spans):
    targets = [t[:3] for t in spans.SPAN_TARGETS + spans.LOOKUP_TARGETS + spans.CALL_COUNTERS]
    assert targets
    unresolved = [t for t in targets if spans._resolve(t[1], t[2]) is None]
    assert unresolved == []


def test_experiment_scores_each_candidate_through_its_smdp_name(monkeypatch):
    # The traced benchmark counts plurality calls on this module attribute.
    calls = []
    score = experiment.smdp_pivot_prob

    def counting(profile, candidate, *args, **kwargs):
        calls.append((profile.kappa, candidate))
        return score(profile, candidate, *args, **kwargs)

    monkeypatch.setattr(experiment, "smdp_pivot_prob", counting)
    cfg = ExperimentConfig(kappas=(3, 4, 5), n_voters=1000.0, runs=2, distribution=POWERLAW)
    run_experiment(cfg)
    per_run = [(kappa, c) for kappa in (3, 4, 5) for c in range(kappa)]
    assert len(per_run) == 12
    assert calls == per_run * 2


def test_pivot_kernel_calls_happen_inside_the_lookups(monkeypatch):
    # The tracer counts a lookup of PivotCalculator.beats or .tie_pair as a
    # miss when a kernel call happens inside it.  A kernel call made from
    # anywhere else would leave its hit ratio reading nonsense.
    lookup_of = {"prob_strictly_greater": "beats", "skellam_pmf": "beats", "tie_terms": "tie_pair"}
    depth = Counter()
    calls = Counter()

    def lookup(method, fn):
        def wrapper(*args, **kwargs):
            depth[method] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[method] -= 1
        return wrapper

    def kernel(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, depth[lookup_of[name]] > 0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for method in ("beats", "tie_pair"):
        monkeypatch.setattr(PivotCalculator, method, lookup(method, getattr(PivotCalculator, method)))
    for name in lookup_of:
        monkeypatch.setattr(pivotal, name, kernel(name, getattr(pivotal, name)))
    total_pivot_prob(gen_powerlaw_profile(4, 1000.0, seed=3), (2, 0))
    sweep_reports(gen_powerlaw_profile(5, 1000.0, seed=0), sequence_ties=True)
    assert {name for name, inside in calls if not inside} == set()
    assert all(calls[name, True] > 0 for name in lookup_of)
