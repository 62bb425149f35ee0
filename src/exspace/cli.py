"""Command-line driver: check, run, and corpus subcommands."""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .corpus import HeaderError, run_corpus
from .diagnostics import format_diagnostic
from .interp import run_program
from .spacecheck import Mode, analyze
from .syntax.preprocess import CompileProfile

_MODES = [m.value for m in Mode]


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=_MODES, default="classic")
    p.add_argument("--profile", choices=["nvcc", "plain"], default="nvcc")
    p.add_argument("--cuda-version", type=int, choices=[9, 10, 11, 12], default=12)
    p.add_argument("--relaxed-constexpr", action="store_true")
    p.add_argument("--erase-specifiers", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exspace",
        description="Static checker and interpreter for MiniCU execution spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="diagnose one or more units")
    _add_common_flags(p_check)
    p_check.add_argument("paths", nargs="+")

    p_run = sub.add_parser("run", help="check, then execute a unit")
    _add_common_flags(p_run)
    p_run.add_argument("--force", action="store_true",
                       help="execute even when the check reports errors")
    p_run.add_argument("path")

    for p in (p_check, p_run):
        p.add_argument("--emit", choices=["human", "machine"], default="machine")

    p_corpus = sub.add_parser("corpus", help="run an expected-diagnostics corpus")
    _add_common_flags(p_corpus)
    p_corpus.add_argument("dir")
    return parser


def _profile_from(args, parser) -> CompileProfile:
    try:
        return CompileProfile(
            compiler=args.profile,
            cuda_version=args.cuda_version,
            relaxed_constexpr=args.relaxed_constexpr,
            erase_specifiers=args.erase_specifiers,
        )
    except ValueError as e:
        parser.error(str(e))  # exits 2


def _want_color() -> bool:
    return os.environ.get("EXSPACE_COLOR", "0") == "1"


def _print_diags(diags, style, source):
    color = _want_color()
    for d in diags:  # none is suppressed: analysis.diagnostics and notes omit those
        print(format_diagnostic(d, style, source if style == "human" else None, color))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        print(f"exspace: cannot read {path}: {e.strerror}", file=sys.stderr)
        raise SystemExit(2)


def cmd_check(args, parser) -> int:
    profile = _profile_from(args, parser)
    mode = Mode(args.mode)
    any_error = False
    for path in args.paths:
        text = _read(path)
        analysis = analyze(text, path, profile, mode)
        _print_diags(analysis.diagnostics, args.emit, text)
        any_error = any_error or analysis.has_errors
    return 1 if any_error else 0


def cmd_run(args, parser) -> int:
    profile = _profile_from(args, parser)
    mode = Mode(args.mode)
    text = _read(args.path)
    analysis = analyze(text, args.path, profile, mode)
    _print_diags(analysis.diagnostics, args.emit, text)
    if analysis.has_errors and not args.force:
        return 1
    try:
        result = run_program(analysis)
    except ValueError as e:
        print(f"exspace: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    sys.stdout.buffer.write(result.stdout)
    sys.stdout.buffer.flush()
    _print_diags(result.notes, args.emit, text)
    return result.exit_code


def cmd_corpus(args, parser) -> int:
    profile = _profile_from(args, parser)
    mode = Mode(args.mode)
    try:
        results, summary = run_corpus(Path(args.dir), mode, profile)
    except (FileNotFoundError, HeaderError) as e:
        print(f"exspace: {e}", file=sys.stderr)
        return 2
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4} {r.file} ({r.matched} expectation(s) matched)")
        for miss in r.unmatched_expectations:
            print(f"     missing: {miss}")
        for extra in r.unexpected_diagnostics:
            print(f"     unexpected: {extra}")
        if r.run_check is not None:
            print(f"     run: {r.run_check}")
    print(summary)
    return 0 if summary.endswith("failed 0") else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args, parser)
    if args.command == "run":
        return cmd_run(args, parser)
    return cmd_corpus(args, parser)


if __name__ == "__main__":
    sys.exit(main())
