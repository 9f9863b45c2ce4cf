"""Command-line scenario runner.

Exit codes: 0 success, 1 configuration error (the message names the offending
key), 2 usage error (argparse) or reproduction-check failure from
reproduce-all (or, with --strict, reproduction warnings).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import PLAN, load_scenario, run_all_checks, write_plan
from .config import ConfigError, validate_config
from .report import RUNNERS, write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wagedyn",
        description="supervision-and-incentive wage model: solvers, "
                    "distributions, employer optimization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, default=None,
                        help="scenario JSON (defaults to the bundled scenario "
                             "for the subcommand)")
        sp.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
        if name == "additive-profile":  # the one runner that simulates
            sp.add_argument("--seed", type=int, default=None,
                            help="override simulation.seed")
    sp = sub.add_parser("reproduce-all")
    sp.add_argument("--out", type=Path, default=Path("out"),
                    help="output directory")
    sp.add_argument("--strict", action="store_true",
                    help="treat reproduction warnings as failures")
    return parser


def _load(args) -> "Scenario":
    if args.config is not None:
        scenario = validate_config(args.config)
    else:
        bundled = [name for name, command in PLAN if command == args.command]
        if not bundled:
            raise ConfigError([f"{args.command}: --config is required"])
        scenario = load_scenario(bundled[0])
    if getattr(args, "seed", None) is not None:
        raw = dict(scenario.raw)
        raw["simulation"] = dict(raw.get("simulation", {}), seed=args.seed)
        scenario = validate_config(raw)
    return scenario


def _reproduce_all(args) -> int:
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    write_plan(RUNNERS, outdir)
    results = run_all_checks(RUNNERS, outdir)
    lines = []
    n_warn = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"criterion {res.number:2d} [{status}] {res.title}")
        for item in res.items:
            mark = "ok" if item.passed else "FAIL"
            detail = f" ({item.detail})" if item.detail else ""
            lines.append(f"    [{mark}] {item.name}{detail}")
        for warning in res.warnings:
            n_warn += 1
            lines.append(f"    note: {warning}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    (outdir / "report.txt").write_text(text, encoding="utf-8")
    write_json(outdir / "report.json", [
        {"criterion": r.number, "title": r.title, "passed": r.passed,
         "items": [{"name": i.name, "passed": i.passed, "detail": i.detail}
                   for i in r.items],
         "warnings": r.warnings} for r in results])
    failed = [r for r in results if not r.passed]
    if failed or (args.strict and n_warn):
        sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria "
                         f"passed; see {outdir / 'report.txt'}\n")
        return 2
    sys.stdout.write(f"all {len(results)} criteria passed\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            return _reproduce_all(args)
        scenario = _load(args)
        RUNNERS[args.command](scenario, args.out)
    except ConfigError as exc:
        for err in exc.errors:
            sys.stderr.write(f"config error: {err}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
