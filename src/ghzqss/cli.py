"""Command line front end.

Three subcommands: ``run`` plays one session and reports it, ``sweep``
runs a grid of sessions, ``verify-equations`` replays the closed-form
identity corpus.  Exit codes: 0 success, 1 a requested check failed
(identity mismatch, or ``--fail-on-detect`` with a detection), 2 bad
usage.  ``QSS_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .attacks import STRATEGIES
from .corpus import IDENTITY_IDS, verify_equation_corpus
from .harness import VARIANTS, SimConfig, SimReport, run_grid, run_simulation
from .protocol import transcripts_to_jsonl

CSV_HEADER = (
    "variant,strategy,rounds,check_fraction,seed,rounds_run,checked_rounds,"
    "honest_error_rate,detected,eve_accuracy,err_product,err_pair,err_single_w1,err_single_w2"
)


def _seed(args: argparse.Namespace) -> int:
    """``--seed`` if given, else ``QSS_SEED``, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("QSS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QSS_SEED must be an integer, got {raw!r}") from None


def _fmt_float(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def _report_csv_row(r: SimReport) -> str:
    def rate(key: str) -> str:
        slot = r.mode_breakdown.get(key)
        return "" if slot is None else f"{slot['error_rate']:.6f}"

    fields = [
        r.variant,
        r.strategy,
        str(r.rounds),
        f"{r.check_fraction:.6f}",
        str(r.seed),
        str(r.rounds_run),
        str(r.checked_rounds),
        f"{r.honest_error_rate:.6f}",
        "true" if r.detected else "false",
        _fmt_float(r.eve_accuracy),
        rate("product"),
        rate("pair"),
        rate("single_w1"),
        rate("single_w2"),
    ]
    return ",".join(fields)


def _report_human(r: SimReport) -> str:
    lines = [
        f"variant            {r.variant}",
        f"strategy           {r.strategy}",
        f"rounds run         {r.rounds_run}",
        f"checked rounds     {r.checked_rounds}",
        f"check error rate   {r.honest_error_rate:.6f}",
        f"detected           {'yes' if r.detected else 'no'}",
        f"eve accuracy       {_fmt_float(r.eve_accuracy) or 'n/a'}",
        f"seed               {r.seed}",
        "per-mode errors:",
    ]
    for key in sorted(r.mode_breakdown):
        slot = r.mode_breakdown[key]
        lines.append(
            f"  {key:<10} rounds={slot['rounds']:<6} errors={slot['errors']:<6} "
            f"rate={slot['error_rate']:.6f}"
        )
    return "\n".join(lines)


def _emit_reports(reports: list[SimReport], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif fmt == "csv":
        print(CSV_HEADER)
        for r in reports:
            print(_report_csv_row(r))
    else:
        print("\n\n".join(_report_human(r) for r in reports))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        variant=args.protocol,
        strategy=args.attack,
        rounds=args.rounds,
        seed=_seed(args),
        check_fraction=args.check_fraction,
        hadamard_bias=args.hadamard_bias,
        secret_bits=args.secrets,
        detect_threshold=args.detect_threshold,
    )
    # Open the transcript file before simulating, so an unwritable path
    # fails at once instead of after the whole session.
    with open(args.transcripts, "w") if args.transcripts else nullcontext() as fh:
        transcripts = None if fh is None else []
        report = run_simulation(cfg, transcripts_out=transcripts)
        if fh is not None:
            fh.write(transcripts_to_jsonl(transcripts))
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _emit_reports([report], args.format)
    if args.fail_on_detect and report.detected:
        return 1
    return 0


def _entries(option: str, text: str, kind: type, noun: str) -> list:
    """The non-empty comma-separated entries of ``option``'s ``text``, each read by ``kind``."""
    entries = []
    for entry in filter(None, text.split(",")):
        try:
            entries.append(kind(entry))
        except ValueError:
            raise ValueError(f"{option} entries must be {noun}, got {entry!r}") from None
    return entries


def _cmd_sweep(args: argparse.Namespace) -> int:
    strategies = [s for s in args.attacks.split(",") if s]
    rounds_list = _entries("--rounds", args.rounds, int, "integers")
    fractions = _entries("--check-fractions", args.check_fractions, float, "numbers")
    reports = run_grid(
        args.protocol, strategies, rounds_list, fractions, args.repeats, _seed(args)
    )
    _emit_reports(reports, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_equation_corpus(corrupt=args.corrupt)
    if args.format == "json":
        payload = [
            {
                "identity": res.identity,
                "title": res.title,
                "ok": res.ok,
                "max_deviation": res.max_deviation,
                "branches": [
                    {"branch": b.branch, "deviation": b.deviation, "ok": b.ok}
                    for b in res.branches
                ],
            }
            for res in results
        ]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("identity,branch,deviation,ok")
        for res in results:
            for b in res.branches:
                print(f"{res.identity},{b.branch},{b.deviation:.3e},{'true' if b.ok else 'false'}")
    else:
        for res in results:
            status = "PASS" if res.ok else "FAIL"
            print(
                f"{res.identity:<4} {res.title:<58} branches={len(res.branches):<3} "
                f"max_dev={res.max_deviation:.2e}  {status}"
            )
        total = sum(len(res.branches) for res in results)
        bad = [res.identity for res in results if not res.ok]
        if bad:
            print(f"{len(bad)} of {len(results)} identities FAILED: {', '.join(bad)}")
        else:
            print(f"all {len(results)} identities hold ({total} branches)")
    return 0 if all(res.ok for res in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzqss",
        description="Simulate three-party XOR secret sharing over a reusable "
        "entangled carrier, with optional channel attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play one session and report it")
    run.add_argument("--protocol", choices=VARIANTS, default="revised")
    run.add_argument("--attack", choices=STRATEGIES, default="none")
    run.add_argument("--rounds", type=int, default=100)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--check-fraction", type=float, default=0.25)
    run.add_argument("--hadamard-bias", type=float, default=0.5,
                     help="probability of Alice's per-round coin (revised variant)")
    run.add_argument("--secrets", default=None,
                     help="explicit secret bits, one per round, e.g. 0110")
    run.add_argument("--detect-threshold", type=float, default=0.0)
    run.add_argument("--format", choices=("human", "json", "csv"), default="human")
    run.add_argument("--transcripts", default=None, metavar="PATH",
                     help="also write per-round transcripts as JSON lines")
    run.add_argument("--fail-on-detect", action="store_true",
                     help="exit 1 when the check phase flags the session")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a grid of sessions")
    sweep.add_argument("--protocol", choices=VARIANTS, default="revised")
    sweep.add_argument("--attacks", default="none",
                       help="comma-separated strategies")
    sweep.add_argument("--rounds", default="100",
                       help="comma-separated round counts")
    sweep.add_argument("--check-fractions", default="0.25",
                       help="comma-separated check fractions")
    sweep.add_argument("--repeats", type=int, default=1,
                       help="independent seeds per grid point")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--format", choices=("csv", "json", "human"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify-equations",
                            help="replay the closed-form identity corpus")
    verify.add_argument("--format", choices=("human", "json", "csv"), default="human")
    verify.add_argument("--corrupt", choices=IDENTITY_IDS, default=None,
                        help="flip one fixture amplitude as a negative control")
    verify.set_defaults(func=_cmd_verify)
    return parser


# ``main`` parses with one parser per process; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
