"""End-to-end and per-layer metrics computed from op records and spans."""

from __future__ import annotations

import statistics

from spans import Tracer, layer_totals
from workloads import ORACLE_DRAWS, pivot_counts

TAIL_BEYOND = 10  # samples that must lie above the reported tail latency


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the 11th-largest sample and the share of
    samples at or below it, in percent.  With fewer than 11 samples no
    percentile qualifies and the maximum is returned at 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    idx = n - 1 - TAIL_BEYOND
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(records, phase_s: float, setup_s: float, rss_mb: float) -> dict:
    """The ``end_to_end`` metrics of BENCHMARK.json, plus context for the log."""
    lat = [r.latency_s for r in records]
    tail, pct = tail_latency(lat)
    return {
        "ops_per_s": (len(records) / phase_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"ops": len(lat), "tail_percentile": pct, "phase_s": phase_s}


def _div(a: float, b: float) -> float:
    """a / b, reading 0 when the layer did no work on this workload."""
    return a / b if b else 0.0


def per_layer(
    tracer: Tracer,
    traced,
    untraced,
    import_s: float,
    contests_per_op: int = 0,
    first_pass: list[float] | None = None,
) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json from one traced replay.

    ``traced`` and ``untraced`` are the records of the same ops with and
    without wrappers.  Metrics whose wrapped function no longer exists are
    left out.
    """
    by_name, by_layer = layer_totals(tracer.spans)
    c = tracer.counts
    op_s = sum(r.latency_s for r in traced)
    missing = tracer.missing
    out: dict = {}

    def put(name, value, unit, needs=()):
        if not any(n in missing for n in needs):
            out[name] = (float(value), unit)

    for short, span in (("psg", "skellam.psg"), ("tie_terms", "skellam.tie_terms")):
        put(f"skellam.{short}.calls", c[span], "count", (span,))
        put(f"skellam.{short}.self_s", by_name[span], "s", (span,))
        put(f"skellam.{short}.us_per_call", 1e6 * _div(by_name[span], c[span]), "us", (span,))
    put("skellam.share", _div(by_layer["skellam"], op_s), "ratio", ("skellam.psg", "skellam.tie_terms"))

    et = "elections.expected_total"
    put(f"{et}.calls", c[et], "count", (et,))
    put(f"{et}.self_s", by_name[et], "s", (et,))
    put("elections.share", _div(by_layer["elections"], op_s), "ratio", (et,))

    put("pivotal.calculators", c["pivotal.calculators"], "count", ("pivotal.calculators",))
    put("pivotal.report.calls", c["pivotal.report"], "count", ("pivotal.report",))
    put("pivotal.report.self_s", by_name["pivotal.report"], "s", ("pivotal.report",))
    put("pivotal.share", _div(by_layer["pivotal"], op_s), "ratio", ("pivotal.report",))
    for name in ("pivotal.beats", "pivotal.tie_pair"):
        lookups = c[name + ".lookups"]
        put(f"{name}.hit_ratio", _div(lookups - c[name + ".misses"], lookups), "ratio", (name,))
    kernel_calls = c["skellam.psg"] + c["skellam.tie_terms"] + c["skellam.pmf"]
    put("pivotal.kernel_calls_per_report", _div(kernel_calls, c["pivotal.report"]), "count",
        ("pivotal.report", "skellam.psg", "skellam.tie_terms"))

    sm = "smdp.smdp_pivot_prob"
    put("smdp.calls", c[sm], "count", (sm,))
    put("smdp.self_s", by_name[sm], "s", (sm,))
    put("smdp.share", _div(by_layer["smdp"], op_s), "ratio", (sm,))

    contests = contests_per_op * len(traced)
    put("experiment.sweeps", c["pivotal.sweep_reports"], "count", ("pivotal.sweep_reports",))
    put("experiment.memo_hit_ratio", _div(contests - c["pivotal.sweep_reports"], contests), "ratio",
        ("pivotal.sweep_reports",))
    put("experiment.self_s", by_layer["experiment"], "s", ("experiment.run_experiment",))

    mc = "oracle.mc_pivot_estimates"
    mc_s = sum(s.end - s.start for s in tracer.spans if s.name == mc)
    put("oracle.draws_per_s", _div(c[mc] * ORACLE_DRAWS, mc_s), "1/s", (mc,))
    if first_pass:
        full = [r.latency_s for r in untraced[: len(first_pass)]]
        put("oracle.first_pass_s", statistics.median(first_pass), "s")
        put("oracle.recount_s", statistics.median(f - p for f, p in zip(full, first_pass)), "s")
    else:
        put("oracle.first_pass_s", 0.0, "s")
        put("oracle.recount_s", 0.0, "s")
    flips = draws_ballots = 0
    if c[mc]:
        for est in (e for r in traced if r.error is None for e in r.output):
            flips += sum(pivot_counts(est))
            draws_ballots += est.draws_used
    put("oracle.pivotal_share", _div(flips, draws_ballots), "ratio", (mc,))

    put("cli.import_s", import_s, "s")
    put("trace.overhead_s", op_s - sum(r.latency_s for r in untraced), "s")
    return out
