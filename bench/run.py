"""irvpivot benchmark: one seeded workload per call, checked against golden values.

Run from the root of a checkout:

    python3 bench/run.py --workload figure1 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines (prefixed ``#``) come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
UNTRACED_SHARE = 0.4  # of --seconds, for the untraced half of a traced run
WORKLOAD_NAMES = ("figure1", "compute_cold", "oracle")
HOP_PERIOD_S = 1.0


class CpuHopper:
    """Moves this process to the next allowed CPU about once a second, between ops.

    On a shared VM each vCPU goes through slow and fast stretches of its
    own, lasting seconds to minutes.  A single-threaded run left on one vCPU
    reports that vCPU's stretch; hopping samples every vCPU the process may
    use, which narrows the spread between runs.  It is called from the op
    loop as ``on_op``; ``restore`` puts the original affinity back.
    """

    def __init__(self, then=None):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)
        self.then = then
        self._k = 0
        self._next = time.perf_counter() + HOP_PERIOD_S

    def __call__(self, i: int) -> None:
        if len(self.cpus) > 1 and time.perf_counter() >= self._next:
            self._k = (self._k + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self._k]})
            self._next = time.perf_counter() + HOP_PERIOD_S
        if self.then is not None:
            self.then(i)

    def restore(self) -> None:
        os.sched_setaffinity(0, self.allowed)


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _setup_probe(args) -> None:
    """Child process: import the package, build the inputs, report, exit."""
    start = time.perf_counter()
    import irvpivot  # noqa: F401  (the import being timed)

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed)
    print(json.dumps({"import_s": import_s}), flush=True)


def _measure_setup(args) -> tuple[float, float]:
    """Median set-up time and import time over fresh interpreters.

    Set-up runs from process start to the moment the first op could begin:
    interpreter start, ``import irvpivot`` (numpy, scipy) and input
    generation.
    """
    setups, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        setups.append(ready - start)
        imports.append(json.loads(line)["import_s"])
    return statistics.median(setups), statistics.median(imports)


def _run_untraced(args, workload) -> tuple[dict, dict, list]:
    import metrics

    hop = CpuHopper()
    start = time.perf_counter()
    try:
        records = workload.run(deadline=start + args.seconds, on_op=hop)
    finally:
        hop.restore()
    phase_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values, context = metrics.end_to_end(records, phase_s, args.setup_s, rss_mb)
    return values, context, records


def _run_traced(args, workload) -> tuple[dict, dict, list]:
    import metrics
    from spans import Tracer

    tracer = Tracer()
    hop = CpuHopper(then=lambda i: setattr(tracer, "op", i))
    try:
        untraced = workload.run(deadline=time.perf_counter() + UNTRACED_SHARE * args.seconds,
                                on_op=hop)
        n_ops = len(untraced)
        tracer.install()
        try:
            traced = workload.run(max_ops=n_ops, on_op=hop)
        finally:
            tracer.uninstall()
        first_pass = workload.first_pass(n_ops, hop) if hasattr(workload, "first_pass") else None
    finally:
        hop.restore()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.tsv")
    contests = getattr(workload, "contests_per_op", 0)
    values = metrics.per_layer(tracer, traced, untraced, args.import_s, contests, first_pass)
    context = {"ops": n_ops, "spans": len(tracer.spans), "missing": sorted(tracer.missing)}
    return values, context, untraced + traced


def _run_one(args) -> int:
    from workloads import WORKLOADS, count_failures

    env = _environment(args.seed)
    args.setup_s, args.import_s = _measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed)
    run = _run_traced if args.trace else _run_untraced
    values, context, records = run(args, workload)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    failed = count_failures(workload, records, golden)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} inputs {json.dumps(workload.describe())} context {json.dumps(context)}")
    for name, (value, unit) in values.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# {args.workload} failed_share = {failed / max(1, len(records)):.6g} "
          f"({failed}/{len(records)} ops)")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process; the last line gathers their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "irvpivot" / "__init__.py").is_file():
        print(f"error: no irvpivot sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
