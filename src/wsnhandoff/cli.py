"""Command line front end: run scenarios and compare counter reports."""

import argparse
import dataclasses
import math
import os
import sys

from .report import (parse_report_ledger, render_report, render_run,
                     serialize_report)
from .scenario import (ParseError, ValidationError, load_scenario,
                       reference_scenario, strip_wsn)
from .simulation import run
from .stats import RegistryMismatchError, classify


class Failure(Exception):
    """A failure main() reports as it is: its message names the file."""


def _reason(exc: Exception) -> str:
    if isinstance(exc, (ParseError, ValidationError)):
        return f"invalid scenario: {exc}"
    if isinstance(exc, RegistryMismatchError):
        return f"bad report: {exc}"
    return getattr(exc, "strerror", None) or str(exc)


def _load(path: str, parse):
    """parse() the text of a UTF-8 file; a failure names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError, ParseError, ValidationError,
            RegistryMismatchError) as exc:
        raise Failure(f"{path}: {_reason(exc)}") from None


def _output(path: str, text: str | None = None) -> None:
    """Write text to the --out file. With no text, only check that path can
    be written, leaving an existing file as it was. Failures name the path."""
    try:
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif os.path.lexists(path):
            open(path, "a").close()
        else:
            open(path, "x").close()  # made by this call, so ours to remove
            os.remove(path)
    except OSError as exc:
        raise Failure(f"{path}: {_reason(exc)}") from None


def _scenario(source: str):
    """The scenario named by --scenario: 'reference' or a file path."""
    return (reference_scenario() if source == "reference"
            else _load(source, load_scenario))


def seconds(text: str) -> float:
    """argparse type for --until: a positive, finite number of seconds.
    argparse reports the ValueError of a non-number as a usage error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number of seconds, got {text!r}")
    return value


def count(text: str) -> int:
    """argparse type for --epsilon: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def cmd_run(args) -> int:
    scenario = _scenario(args.scenario)
    changes = {name: value for name, value in (("seed", args.seed),
               ("duration", args.until)) if value is not None}
    if changes:  # one build, so the overridden scenario is validated once
        scenario = dataclasses.replace(scenario, **changes)
    if args.out is not None:
        _output(args.out)  # before the run, which may be long
    report = run(scenario)
    print(render_run(report), end="")
    if args.out is not None:
        _output(args.out, serialize_report(report))
    return 0


def cmd_compare(args) -> int:
    files = (args.baseline, args.with_wsn)
    auto = args.auto_baseline and args.scenario and files == (None, None)
    if not (auto or all(files) and not args.auto_baseline
            and args.scenario is None):
        print("error: need --baseline and --with-wsn, or --scenario with "
              "--auto-baseline, and not both", file=sys.stderr)
        return 2
    if args.out is not None:
        _output(args.out)  # before the runs and reads
    if auto:
        scenario = _scenario(args.scenario)
        baseline = run(strip_wsn(scenario)).ledger
        candidate = run(scenario).ledger
    else:
        baseline = _load(args.baseline, parse_report_ledger)
        candidate = _load(args.with_wsn, parse_report_ledger)
    result = classify(baseline, candidate, epsilon=args.epsilon)
    text = render_report(candidate, result)
    print(text)
    if args.out is not None:
        _output(args.out, text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnhandoff",
        description="Sensor-mote assisted cellular handoff simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True,
                       help="scenario file path, or 'reference' for the "
                            "built-in two-cell corridor")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--until", type=seconds, default=None,
                       help="override the simulated duration in seconds")
    p_run.add_argument("--out", help="write the machine-readable report here")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="classify counter movement between two runs")
    p_cmp.add_argument("--baseline", help="report file without the mesh")
    p_cmp.add_argument("--with-wsn", help="report file with the mesh")
    p_cmp.add_argument("--scenario",
                       help="scenario to run on both sides of the compare")
    p_cmp.add_argument("--auto-baseline", action="store_true",
                       help="derive the baseline by stripping the motes "
                            "from --scenario")
    p_cmp.add_argument("--epsilon", type=count, default=0,
                       help="ignore counter moves of at most this size")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    """Exit 0 on success, 2 on a usage error, and 1 with one `error:` line
    when a file, which it names, cannot be read, parsed or written, or a
    scenario is invalid."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Failure, ParseError, ValidationError, RegistryMismatchError,
            OSError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
