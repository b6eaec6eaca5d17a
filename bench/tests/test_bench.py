"""Tests of the benchmark itself (not of irvpivot).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402

GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


@pytest.fixture(scope="module")
def cold_records():
    wl = workloads.ComputeCold(workloads.DEFAULT_SEED)
    return wl, wl.run(max_ops=3)


def test_golden_mismatch_counts_as_failed(cold_records):
    wl, records = cold_records
    assert workloads.count_failures(wl, records, GOLDEN) == 0

    corrupt = copy.deepcopy(GOLDEN)
    corrupt["compute_cold"][1][0] *= 1.0 + 1e-4
    assert workloads.count_failures(wl, records, corrupt) == 1


def test_figure1_golden_mismatch_counts_as_failed():
    wl = workloads.Figure1(5)
    rec = workloads.OpRecord(0, 0.1, {
        (int(k), system): value
        for k, by_system in GOLDEN["figure1"].items()
        for system, value in by_system.items()
    })
    assert workloads.count_failures(wl, [rec], GOLDEN) == 0
    corrupt = copy.deepcopy(GOLDEN)
    corrupt["figure1"]["5"]["IRV"] *= 2.0
    assert workloads.count_failures(wl, [rec], corrupt) == 1


def test_oracle_counts_must_match_exactly():
    wl = workloads.Oracle(workloads.DEFAULT_SEED)
    records = wl.run(max_ops=1)
    assert workloads.count_failures(wl, records, GOLDEN) == 0
    corrupt = copy.deepcopy(GOLDEN)
    corrupt["oracle"][0][3][1] += 1
    assert workloads.count_failures(wl, records, corrupt) == 1


def test_raised_op_counts_as_failed(cold_records):
    wl, records = cold_records
    broken = records[:1] + [workloads.OpRecord(1, 0.01, error="ValueError()")]
    assert workloads.count_failures(wl, broken, GOLDEN) == 1


def test_self_time_subtracts_child_spans():
    spans_ = [
        Span("pivotal.report", 0.0, 10.0, -1, 0),
        Span("skellam.psg", 1.0, 3.0, 0, 0),
        Span("elections.expected_total", 2.0, 4.0, 0, 0),  # overlaps its sibling
        Span("skellam.psg", 6.0, 7.0, 0, 0),
        Span("elections.expected_total", 6.2, 6.5, 3, 0),  # grandchild
        Span("skellam.psg", 9.5, 12.0, 0, 0),  # runs past its parent's end
    ]
    selfs = self_times(spans_)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[3] == pytest.approx(1.0 - 0.3)
    assert selfs[1] == pytest.approx(2.0)
    by_name, by_layer = layer_totals(spans_)
    assert by_layer["pivotal"] == pytest.approx(5.5)
    assert by_layer["skellam"] == pytest.approx(2.0 + 0.7 + 2.5)
    assert by_name["elections.expected_total"] == pytest.approx(2.3)


def test_tracer_nests_spans_and_counts_lookups():
    wl = workloads.ComputeCold(1)
    tracer = Tracer()
    tracer.install()
    try:
        wl.run(max_ops=1)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    names = {s.name for s in tracer.spans}
    assert {"pivotal.total_pivot_prob", "pivotal.report", "skellam.psg",
            "elections.expected_total"} <= names
    top = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in top] == ["pivotal.total_pivot_prob"]
    c = tracer.counts
    assert c["pivotal.calculators"] == 1
    assert 0 < c["pivotal.beats.misses"] < c["pivotal.beats.lookups"]
    assert c["pivotal.beats.misses"] == c["skellam.psg"]
    # uninstall restores the library
    assert workloads.pivotal.total_pivot_prob.__name__ == "total_pivot_prob"


def test_missing_wrapper_target_is_absent_not_zero(monkeypatch):
    targets = tuple(
        (n, m, p + "_gone" if n == "skellam.tie_terms" else p)
        for n, m, p in spans.SPAN_TARGETS
    )
    monkeypatch.setattr(spans, "SPAN_TARGETS", targets)
    wl = workloads.ComputeCold(1)
    tracer = Tracer()
    tracer.install()
    try:
        records = wl.run(max_ops=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == {"skellam.tie_terms"}
    out = metrics.per_layer(tracer, records, records, import_s=0.3)
    assert "skellam.tie_terms.calls" not in out
    assert "skellam.share" not in out
    assert out["skellam.psg.calls"][0] > 0


def test_seed_changes_inputs_not_shape():
    a, b = workloads.ComputeCold(1), workloads.ComputeCold(2)
    assert len(a.inputs) == len(b.inputs) == workloads.COMPUTE_POOL
    assert [p.rates for p, _, _ in a.inputs[:20]] != [p.rates for p, _, _ in b.inputs[:20]]
    for wl in (a, b):
        assert {p.kappa for p, _, _ in wl.inputs} == set(workloads.COMPUTE_KAPPAS)
        assert {len(ballot) for _, ballot, _ in wl.inputs} == {1, 2, 3, 4}
        assert all(1e4 <= p.total_expected <= 1e5 * (1 + 1e-9) for p, _, _ in wl.inputs)

    a, b = workloads.Oracle(1), workloads.Oracle(2)
    assert [cfg.seed for _, _, cfg in a.inputs] != [cfg.seed for _, _, cfg in b.inputs]
    for wl in (a, b):
        for profile, ballots, cfg in wl.inputs:
            assert profile.kappa == workloads.ORACLE_KAPPA
            assert [len(x) for x in ballots] == [1, 1, 1, 3, 3, 3]
            assert cfg.draws == workloads.ORACLE_DRAWS

    a, b = workloads.Figure1(1), workloads.Figure1(2)
    assert a.base_seed != b.base_seed
    assert a.describe()["kappas"] == b.describe()["kappas"]
    assert workloads.ComputeCold(1).inputs[0][0] == workloads.ComputeCold(1).inputs[0][0]


def test_cpu_hopper_visits_every_allowed_cpu_and_restores(monkeypatch):
    import run

    monkeypatch.setattr(run, "HOP_PERIOD_S", 0.0)
    before = os.sched_getaffinity(0)
    ops, visited = [], set()
    hop = run.CpuHopper(then=ops.append)
    try:
        for i in range(2 * len(before)):
            hop(i)
            visited |= os.sched_getaffinity(0)
    finally:
        hop.restore()
    assert os.sched_getaffinity(0) == before
    assert ops == list(range(2 * len(before)))
    assert visited == before


@pytest.mark.parametrize(
    "n, value, percentile",
    [(100, 90, 90.0), (11, 1, 100 / 11), (25, 15, 60.0), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, value, percentile):
    lat = [float(x) for x in range(n, 0, -1)]  # 1..n, unsorted
    got, pct = metrics.tail_latency(lat)
    assert got == value and pct == pytest.approx(percentile)
    if n > 10:
        assert sum(x > got for x in lat) == 10
