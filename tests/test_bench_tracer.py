"""The benchmark's tracer still finds the library names it wraps.

``bench/spans.py`` wraps library functions by module and attribute name,
and leaves a name it cannot find out of a traced run's metrics.  These
checks load it read-only, so renaming or bypassing one of those names
fails here rather than in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from irvpivot import experiment
from irvpivot.experiment import POWERLAW, ExperimentConfig, run_experiment

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
