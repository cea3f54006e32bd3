"""Command line front end: run scenarios and compare counter reports."""

import argparse
import dataclasses
import math
import sys

from .scenario import (ParseError, ValidationError, load_scenario,
                       reference_scenario, strip_wsn)
from .simulation import parse_report_ledger, run, serialize_report
from .stats import RegistryMismatchError, classify, render_report


def _load(source: str):
    """The scenario named by --scenario, or None once the reason it cannot
    be loaded is printed."""
    try:
        if source == "reference":
            return reference_scenario()
        with open(source, encoding="utf-8") as fh:
            return load_scenario(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (ParseError, ValidationError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
    return None


def _duration(text: str) -> float:
    """argparse type for --until: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number of seconds, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type for --epsilon: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def cmd_run(args) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.until is not None:
        scenario = dataclasses.replace(scenario, duration=args.until)
    report = run(scenario)
    print(render_report(report.ledger))
    for link in report.links:
        path = ",".join(link.relay_path) if link.relay_path else "-"
        print(f"link: {link.ms_id} -> {link.endpoint.kind.value}:"
              f"{link.endpoint.node_id} at t={link.established_at:.3f} "
              f"via {path}")
    total = sum(units for units, _ in report.mote_energy.values())
    asleep = sum(1 for _, mode in report.mote_energy.values()
                 if mode == "sleeping")
    print(f"motes: {len(report.mote_energy)} total, {asleep} released "
          f"to sleep, {total} energy units spent")
    print(f"events: {report.events_processed}")
    print(f"digest: {report.digest}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialize_report(report))
    return 0


def cmd_compare(args) -> int:
    if args.auto_baseline:
        if not args.scenario:
            print("error: --auto-baseline needs --scenario",
                  file=sys.stderr)
            return 2
        scenario = _load(args.scenario)
        if scenario is None:
            return 1
        baseline = run(strip_wsn(scenario)).ledger
        candidate = run(scenario).ledger
    else:
        if not (args.baseline and args.with_wsn):
            print("error: need --baseline and --with-wsn, or "
                  "--scenario with --auto-baseline", file=sys.stderr)
            return 2
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = parse_report_ledger(fh.read())
            with open(args.with_wsn, encoding="utf-8") as fh:
                candidate = parse_report_ledger(fh.read())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except RegistryMismatchError as exc:
            print(f"error: bad report: {exc}", file=sys.stderr)
            return 1
    result = classify(baseline, candidate, epsilon=args.epsilon)
    text = render_report(candidate, result)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
    p_run.add_argument("--until", type=_duration, default=None,
                       help="override the simulated duration in seconds")
    p_run.add_argument("--out", default=None,
                       help="write the machine-readable report here")
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
    p_cmp.add_argument("--epsilon", type=_count, default=0,
                       help="ignore counter moves of at most this size")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
