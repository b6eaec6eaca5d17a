"""Command-line interface: the ``pivot`` entry point."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .elections import BallotProfile
from .experiment import POWERLAW, UNIFORM, ExperimentConfig, run_experiment
from .experiment import write_csv, write_gnuplot
from .oracle import OracleConfig, mc_pivot_estimate
from .pivotal import sweep_reports, total_pivot_prob
from .skellam import DEFAULT_TOLERANCE, Tolerance
from .smdp import smdp_reports

_ENV_TAIL_EPS = "PIVOT_TAIL_EPS"


def _tolerance(args) -> Tolerance:
    eps = args.tail_eps
    if eps is None:
        eps = float(os.environ.get(_ENV_TAIL_EPS, DEFAULT_TOLERANCE.tail_eps))
    return Tolerance(tail_eps=eps)


def _parse_list(text: str, convert, what: str, flag: str, example: str) -> tuple:
    """Comma-separated values; a ``ValueError`` names the text and its flag."""
    try:
        return tuple(convert(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse {what} {text!r} given to {flag}; expected e.g. {example}"
        ) from None


def _parse_ballot(text: str) -> tuple[int, ...]:
    return _parse_list(text, int, "ballot", "--ballot", "0,2,1")


def _parse_floats(text: str) -> tuple[float, ...]:
    return _parse_list(text, float, "utilities", "--utilities", "1,0.5,0")


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_compute(args, tol: Tolerance) -> None:
    profile = BallotProfile.load(args.profile)
    utilities = _parse_floats(args.utilities) if args.utilities else None
    report = total_pivot_prob(
        profile,
        _parse_ballot(args.ballot),
        utilities=utilities,
        with_events=args.events,
    )
    _emit(report.to_dict(with_events=args.events))


def _cmd_sweep(args, tol: Tolerance) -> None:
    profile = BallotProfile.load(args.profile)
    utilities = _parse_floats(args.utilities) if args.utilities else None
    reports = sweep_reports(
        profile,
        utilities=utilities,
        full_length_only=args.full_length_only,
        sequence_ties=args.with_sequence_ties,
    )
    _emit([r.to_dict() for r in reports])


def _cmd_smdp(args, tol: Tolerance) -> None:
    profile = BallotProfile.load(args.profile)
    reports = smdp_reports(profile, tol, args.pairwise_approx)
    _emit([r.to_dict() for r in reports])


def _cmd_oracle(args, tol: Tolerance) -> None:
    profile = BallotProfile.load(args.profile)
    cfg = OracleConfig(draws=args.draws, seed=args.seed, tie_coin_seed=args.tie_coin_seed)
    est = mc_pivot_estimate(profile, _parse_ballot(args.ballot), cfg)
    _emit(dataclasses.asdict(est))


def _cmd_experiment(args, tol: Tolerance) -> None:
    cfg = ExperimentConfig(
        kappas=_parse_list(args.kappas, int, "kappas", "--kappas", "3,4,5"),
        n_voters=args.voters,
        runs=args.runs,
        distribution=args.dist,
        base_seed=args.base_seed,
        max_length=args.max_length,
    )
    results: list = []
    try:
        run_experiment(cfg, tol, args.pairwise_approx, partial=results)
    finally:
        # On failure, finished contests are still written out.
        write_csv(results, args.out, timing=args.timing)
        if args.dat:
            write_gnuplot(results, args.dat)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="pivot",
        description="Pivotal-vote probabilities for instant runoff elections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ballot=False):
        p.add_argument("--profile", required=True, help="ballot profile JSON path")
        if ballot:
            p.add_argument("--ballot", required=True,
                           help="comma-separated candidate ids, best first")

    p = sub.add_parser("compute", help="pivotality of one ballot")
    common(p, ballot=True)
    p.add_argument("--utilities", help="comma-separated utility per candidate")
    p.add_argument("--events", action="store_true", help="include the event list")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("sweep", help="pivotality of every admissible ballot")
    common(p)
    p.add_argument("--utilities", help="comma-separated utility per candidate")
    p.add_argument("--full-length-only", action="store_true",
                   help="only ballots ranking the maximum number of candidates")
    p.add_argument("--with-sequence-ties", action="store_true",
                   help="credit half the tie mass inside every survival comparison")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("smdp", help="plurality pivotality of every candidate")
    common(p)
    p.add_argument("--pairwise-approx", action="store_true",
                   help="head-to-head tie terms without top-two conditioning")
    p.set_defaults(func=_cmd_smdp)

    p = sub.add_parser("oracle", help="Monte-Carlo pivotality of one ballot")
    common(p, ballot=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-coin-seed", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="batch IRV vs plurality comparison")
    p.add_argument("--dist", choices=[UNIFORM, POWERLAW], default=POWERLAW)
    p.add_argument("--kappas", default="3,4,5", help="comma-separated candidate counts")
    p.add_argument("--voters", type=float, default=1000.0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--max-length", type=int, default=None,
                   help="ballot length (default: rank every candidate)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--dat", default=None, help="optional gnuplot table path")
    p.add_argument("--timing", action="store_true",
                   help="fill the seconds column (breaks byte-reproducibility)")
    p.add_argument("--pairwise-approx", action="store_true",
                   help="use the head-to-head plurality variant")
    p.set_defaults(func=_cmd_experiment)

    for p in sub.choices.values():
        p.add_argument("--tail-eps", type=float, default=None,
                       help=f"series truncation bound (default {_ENV_TAIL_EPS} or "
                            f"{DEFAULT_TOLERANCE.tail_eps})")

    args = parser.parse_args(argv)
    try:
        # Every command validates --tail-eps; only the plurality ones take it.
        args.func(args, _tolerance(args))
    except (ValueError, OSError) as exc:
        # An OSError's message names the path it could not open.
        raise SystemExit(f"pivot: {exc}") from None


if __name__ == "__main__":
    main()
