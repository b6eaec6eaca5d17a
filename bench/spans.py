"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from outside the library, on the module attributes
and class methods through which one layer calls the next.  ``pivotal`` and
``smdp`` import the kernel by name (``from .skellam import ...``), so the
kernel is wrapped in the *importing* module's namespace, not in
``irvpivot.skellam``.  A span holds name, start, end, parent span and op
id; the first part of the name is the layer.  The hot cache lookups
(``PivotCalculator.beats`` and ``tie_pair``, about 10^5-10^6 per kappa=5
sweep) get counters, not spans, so trace memory stays bounded.

A name none of whose targets exists any more is listed in ``missing`` and
its metrics are left out; it never fails the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass

# (span name, module, attribute path) for each layer boundary.
SPAN_TARGETS = (
    ("skellam.psg", "irvpivot.pivotal", "prob_strictly_greater"),
    ("skellam.psg", "irvpivot.smdp", "prob_strictly_greater"),
    ("skellam.tie_terms", "irvpivot.pivotal", "tie_terms"),
    ("skellam.tie_terms", "irvpivot.smdp", "tie_terms"),
    ("skellam.pmf", "irvpivot.pivotal", "skellam_pmf"),
    ("elections.expected_total", "irvpivot.pivotal", "expected_total"),
    ("pivotal.report", "irvpivot.pivotal", "PivotCalculator.report"),
    ("pivotal.total_pivot_prob", "irvpivot.pivotal", "total_pivot_prob"),
    ("pivotal.sweep_reports", "irvpivot.experiment", "sweep_reports"),
    ("smdp.smdp_pivot_prob", "irvpivot.experiment", "smdp_pivot_prob"),
    ("experiment.run_experiment", "irvpivot.experiment", "run_experiment"),
    ("oracle.mc_pivot_estimates", "irvpivot.oracle", "mc_pivot_estimates"),
)

# (counter name, module, method, kernel spans whose call marks a miss).
LOOKUP_TARGETS = (
    ("pivotal.beats", "irvpivot.pivotal", "PivotCalculator.beats", ("skellam.psg", "skellam.pmf")),
    ("pivotal.tie_pair", "irvpivot.pivotal", "PivotCalculator.tie_pair", ("skellam.tie_terms",)),
)

CALL_COUNTERS = (("pivotal.calculators", "irvpivot.pivotal", "PivotCalculator.__init__"),)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Records spans and counters while installed; restores on ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._wanted: set[str] = set()
        self._found: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)

        return wrapper

    def _lookup_wrapper(self, name, fn, kernels):
        counts = self.counts
        lookups, misses = name + ".lookups", name + ".misses"

        def wrapper(*args, **kwargs):
            before = sum(counts[k] for k in kernels)
            out = fn(*args, **kwargs)
            counts[lookups] += 1
            if sum(counts[k] for k in kernels) != before:
                counts[misses] += 1
            return out

        return wrapper

    def _call_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @property
    def missing(self) -> set[str]:
        """Names none of whose targets exist any more."""
        return self._wanted - self._found

    def _patch(self, name, module, path, make):
        self._wanted.add(name)
        found = _resolve(module, path)
        if found is None:
            return
        self._found.add(name)
        owner, attr, value = found
        self._undo.append((owner, attr, value))
        setattr(owner, attr, make(value))

    def install(self) -> None:
        for name, module, path in SPAN_TARGETS:
            self._patch(name, module, path, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, path, kernels in LOOKUP_TARGETS:
            self._patch(name, module, path, lambda fn, n=name, k=kernels: self._lookup_wrapper(n, fn, k))
        for name, module, path in CALL_COUNTERS:
            self._patch(name, module, path, lambda fn, n=name: self._call_wrapper(n, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.op}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> tuple[Counter, Counter]:
    """Self time per span name and per layer (the name's first part)."""
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        by_name[s.name] += t
        by_layer[s.name.split(".", 1)[0]] += t
    return by_name, by_layer
