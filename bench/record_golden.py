"""Write bench/golden.json: reference outputs for the default seed.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are trusted; the benchmark fails any
op that disagrees with the file.  It takes a few minutes (each stored op
is computed once).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import DEFAULT_SEED, GOLDEN_OPS, ComputeCold, Figure1, Oracle, pivot_counts  # noqa: E402


def main() -> None:
    (first,) = Figure1(DEFAULT_SEED).run(max_ops=1)
    figure1 = {}
    for (kappa, system), value in first.output.items():
        figure1.setdefault(str(kappa), {})[system] = value

    compute = ComputeCold(DEFAULT_SEED)
    compute_cold = [
        [r.output[0], r.output[1], r.output[3]]
        for r in compute.run(max_ops=GOLDEN_OPS["compute_cold"])
    ]

    oracle = Oracle(DEFAULT_SEED)
    oracle_counts = [
        [list(pivot_counts(e)) for e in r.output]
        for r in oracle.run(max_ops=GOLDEN_OPS["oracle"])
    ]

    golden = {
        "seed": DEFAULT_SEED,
        "figure1": figure1,
        "compute_cold": compute_cold,
        "oracle": oracle_counts,
    }
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
