"""Command-line interface.

``votepower run <scenario.json>`` executes the analyses a scenario requests
and prints either human-readable tables or one JSON document per analysis.
``votepower verify-corpus`` recomputes the shipped golden corpus and diffs
it against the frozen expected values.

Exit codes: 0 success, 1 verification or analysis failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import ValidationError, VotePowerError
from .corpus import verify_corpus
from .report import RunOptions, render_table, result_json, run_scenario
from .scenario import INTERPRETATIONS, ScenarioError, load


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votepower",
        description="Exact voting-power analysis for stockholder meetings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the analyses requested by a scenario file")
    run.add_argument("scenario", type=Path, help="path to a scenario JSON file")
    run.add_argument("--backend", choices=("enum", "dp", "mc"), default="enum")
    run.add_argument("--samples", type=int, default=None,
                     help="sample count for the mc backend")
    run.add_argument("--seed", type=int, default=0, help="seed for the mc backend")
    run.add_argument("--quota-interpretation", choices=INTERPRETATIONS,
                     default="percent", dest="interpretation",
                     help="how to read a symbolic supermajority quota")
    run.add_argument("--format", choices=("table", "machine"), default="table")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify-corpus", help="recompute and diff the shipped corpus")
    verify.add_argument("--subset", nargs="+", default=None, metavar="NAME",
                        help="verify only the named scenarios")
    verify.set_defaults(func=_cmd_verify)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load(args.scenario)
    options = RunOptions(
        backend=args.backend,
        samples=args.samples,
        seed=args.seed,
        interpretation=args.interpretation,
    )
    results = run_scenario(scenario, options)
    for result in results:
        if args.format == "machine":
            print(json.dumps(result_json(result)))
        else:
            print(render_table(result))
            print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_corpus(args.subset)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except VotePowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
