"""Command line interface: per-kind scenario runs and the full suite.

Exit codes: 0 = ran, 1 = usage or parse/validation error, 2 = at least one
certificate failed and --strict was given.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from framecert.runner import _seal, _summary, emit, run
from framecert.scenarios import ParseError, ValidationError, is_seed, load_scenarios

_BOUNDS_CHECKS = {"frame_bounds", "frame_inequality", "separation_constant"}
_DUAL_CHECKS = {"dual_reconstruction", "bessel_dual"}

# subcommand -> (scenario kind filter, frame_analysis check filter)
_SUBCOMMANDS = {
    "check-separation": ("sampling_bound", None),
    "frame-bounds": ("frame_analysis", _BOUNDS_CHECKS),
    "dual": ("frame_analysis", _DUAL_CHECKS),
    "hap": ("hap", None),
    "compare": ("comparison", None),
    "density": ("density", None),
    "suite": (None, None),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _filter_checks(report: dict, names: set[str]) -> dict:
    checks = [c for c in report.get("checks", []) if c["check"] in names]
    summary = _summary(checks, sum(1 for c in checks if c["ok"]))
    return _seal({**report, "checks": checks, "summary": summary})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framecert", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenarios", required=True, help="path to a scenario JSON file")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", default="json", choices=("json", "csv", "text"))
    common.add_argument(
        "--strict", action="store_true", help="exit 2 if any certificate failed"
    )
    common.add_argument("--parallel", type=int, default=1, metavar="N")
    common.add_argument(
        "--seed", type=int, default=None, help="override every scenario seed"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        subparsers.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and not is_seed(args.seed):
            parser.error(f"argument --seed: {args.seed} is not an unsigned 64-bit integer")
    except SystemExit as exc:
        return int(exc.code or 0)
    kind_filter, check_filter = _SUBCOMMANDS[args.command]
    try:
        scenarios = load_scenarios(args.scenarios)
    except FileNotFoundError as exc:
        print(f"framecert: error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"framecert: error: {exc}", file=sys.stderr)
        return 1
    if kind_filter is not None:
        scenarios = [s for s in scenarios if s.kind == kind_filter]
    reports = run(scenarios, parallelism=max(1, args.parallel), seed_override=args.seed)
    if check_filter is not None:
        reports = [_filter_checks(r, check_filter) for r in reports]
    payload = emit(reports, args.format)
    if args.out is None:
        try:
            sys.stdout.buffer.write(payload)
            if not payload.endswith(b"\n"):
                sys.stdout.buffer.write(b"\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (e.g. head) closed the pipe; leave quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    else:
        Path(args.out).write_bytes(payload)
    if args.strict and any(not r["ok"] for r in reports):
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
