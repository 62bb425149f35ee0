"""Fingerprint of everything check and run print, for before/after comparison.

A change meant to keep behaviour gives the same sha256 in its tree as in the
tree of its parent commit.  The inputs are the corpus under its header
profiles, gen_unit seeds 0-299 in both pragma spellings, 50 trap schedules,
and the chain, fanout and kernel pools of benchmark seeds 1 and 11.  Each
runs under its profile and that profile with relaxed constexpr (nvcc only),
in all five modes.  Each output is the machine-format diagnostics,
suppressed ones included and marked, then the exit code, stdout and notes
of a forced run.

    PYTHONPATH=src python tests/equivalence.py [--dump FILE]

prints the number of outputs per input group and one sha256 over all of
them; --dump writes the outputs themselves, for a diff of two trees.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import sys
from pathlib import Path

from exspace.corpus import parse_header
from exspace.interp import run_program
from exspace.spacecheck import Mode, analyze
from exspace.syntax.preprocess import CompileProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]
import gen  # noqa: E402
from genprog import gen_trap_schedule, gen_unit  # noqa: E402
from test_golden import _line  # noqa: E402


def inputs():
    """(group, path, text, profile) for every input unit."""
    for path in sorted((ROOT / "corpus").glob("*.mcu")):
        text = path.read_text(encoding="utf-8")
        cfg = parse_header(text, Mode.CLASSIC, CompileProfile(), path.name)
        yield "corpus", path.name, text, cfg.profile
    for seed in range(300):
        unit = gen_unit(random.Random(seed))
        yield "gen_unit", f"gen_{seed}_p.mcu", unit.with_pragmas, CompileProfile()
        yield "gen_unit", f"gen_{seed}.mcu", unit.without_pragmas, CompileProfile()
    for seed in range(50):
        sched = gen_trap_schedule(random.Random(seed))
        yield "trap", f"trap_{seed}.mcu", sched.text, CompileProfile()
    for workload in ("chain", "fanout", "kernel"):
        for seed in (1, 11):
            for unit in gen.make_cycle(workload, ROOT, seed):
                yield workload, unit.path, unit.text, CompileProfile()


def outputs(path: str, text: str, profile: CompileProfile):
    profiles = [profile]
    if profile.compiler == "nvcc" and not profile.relaxed_constexpr:
        profiles.append(dataclasses.replace(profile, relaxed_constexpr=True))
    for prof in profiles:
        for mode in Mode:
            out = [f"== {path} {prof} --mode={mode.value}"]
            analysis = analyze(text, path, prof, mode)
            out.extend(_line(d) for d in analysis.all_diagnostics)
            try:
                result = run_program(analysis)
            except (ValueError, RecursionError) as e:
                out.append(f"-- {type(e).__name__}")
            else:
                out.append(f"-- exit {result.exit_code} stdout {result.stdout!r}")
                out.extend(_line(d) for d in result.notes)
            yield "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dump", type=Path, help="also write every output to this file")
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    dump = args.dump.open("w", encoding="utf-8") if args.dump else None
    try:
        for group, path, text, profile in inputs():
            for block in outputs(path, text, profile):
                counts[group] = counts.get(group, 0) + 1
                digest.update(block.encode())
                if dump:
                    dump.write(block)
    finally:
        if dump:
            dump.close()
    for group, count in counts.items():
        print(f"{group} {count}")
    print(f"total {sum(counts.values())}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
