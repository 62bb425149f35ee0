"""Fingerprint of everything check and run print, for before/after comparison.

A change meant to keep behaviour gives the same sha256 in its tree as in the
tree of its parent commit.  The inputs are the corpus under its header
profiles, gen_unit seeds 0-299 in both pragma spellings, 50 trap schedules,
and the chain, fanout and kernel pools of benchmark seeds 1 and 11.  Each
runs under its profile and that profile with relaxed constexpr (nvcc only),
in all five modes.  Each output is the machine-format diagnostics,
suppressed ones included and marked, then the exit code, stdout and notes
of a forced run.

A second set, the split group, holds units whose two pass texts differ:
gen_unit units with #ifdef __CUDA_ARCH__ regions that change one token of
a line, hold a lex error or a pragma only one pass keeps, or end the text.
A third, the one-sided group, holds units where code of one side only
reaches a host-device template, whose instance on the other side only the
nvcc instantiation makes.

    python tests/equivalence.py [--dump FILE]
        [--expect [SHA SPLIT_SHA [ONE_SIDED_SHA]]]

prints the number of outputs per input group and one sha256 per set; --dump
writes the outputs themselves, for a diff of two trees.  --expect takes the
digests of the parent tree, the one-sided group's optional, and exits 1,
naming the set, when one differs; a bare --expect compares with DIGESTS,
the digests of the current outputs.  A change that changes an output on
purpose updates DIGESTS with it.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import re
import sys
from pathlib import Path

# The digests of the first set, the split group and the one-sided group.
DIGESTS = (
    "65f4653f6946c5f8533f478dfd1203bf0b13aad6772e1cbd58b68c353d8324f4",
    "d31498cc6cefed38c4a4f21cb506b42f9f554dbbdc8587f6ceb8b14d4581a398",
    "8837e4f964fc7aca1b25c0a8a0b08ce0c323cc26592009951c0fc53da9a5cc1c",
)

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
import gen  # noqa: E402
from exspace.corpus import parse_header  # noqa: E402
from exspace.interp import run_program  # noqa: E402
from exspace.spacecheck import Mode, analyze  # noqa: E402
from exspace.syntax.preprocess import CompileProfile  # noqa: E402
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


# Lines with a lex error: a stray character, an open string, a malformed
# pragma, a numeric identifier start.
_BAD_LINES = ["  int x = 1 @ 2;", '  printf( "open );', "#pragma", "#pragma a b", "  x\u00b2;"]
_PRAGMAS = ["#pragma hd_warning_disable", "#pragma nv_exec_check_disable"]
# One token and what it may turn into in the other pass.
_SWAPS = {"Hst": "Dev", "Dev": "HstDev", "HstDev": "Hst", "__host__": "__device__",
          "__device__": "__host__", "call": "value", "value": "call", "1": "2",
          "2": "3", "3": "1", "S0": "S1", "S1": "S0", "w0": "w1", "void": "int"}
_TOKEN = re.compile(r"\w+")
_IF = ["#ifdef __CUDA_ARCH__", "#ifndef __CUDA_ARCH__"]


def _one_token_apart(rng: random.Random, line: str) -> str:
    spots = [m for m in _TOKEN.finditer(line) if m.group() in _SWAPS]
    if not spots:
        return line + " "
    m = rng.choice(spots)
    return line[:m.start()] + _SWAPS[m.group()] + line[m.end():]


def gen_split(rng: random.Random) -> str:
    """A gen_unit unit whose host and device pass texts differ."""
    lines = gen_unit(rng).with_pragmas.split("\n")
    bad_at = rng.randrange(len(lines)) if rng.random() < 0.4 else -1
    out = []
    for i, line in enumerate(lines):
        if i == bad_at:  # a lex error only one pass keeps
            out += [rng.choice(_IF), rng.choice(_BAD_LINES), "#endif"]
        if line.startswith(("template", "__global__")) and rng.random() < 0.3:
            out += [rng.choice(_IF), rng.choice(_PRAGMAS), "#endif"]
        if line.strip() and rng.random() < 0.08:  # one token apart
            out += [rng.choice(_IF), line, "#else", _one_token_apart(rng, line), "#endif"]
        else:
            out.append(line)
    text = "\n".join(out)
    if rng.random() < 0.2:  # end in a region, with or without a newline
        text += "\n" + rng.choice(_IF) + "\n}\n#endif" + rng.choice(["", "\n", "\n  "])
    return text


def split_inputs():
    for seed in range(300):
        yield "split", f"split_{seed}.mcu", gen_split(random.Random(seed)), CompileProfile()


# t< int > is reached from device code only; its host instance calls
# h< int > legally and its device instance calls it as a stray.
_ONE_SIDED_UNIT = """__device__ int dev() { return 0; }
template< typename T > __host__ int h() { return dev(); }
template< typename T > __host__ __device__ int t() { return h< T >(); }
__global__ void k() { t< int >(); }
int main() { k<<< 1, 1 >>>(); return 0; }
"""
_CALLEES = """__device__ int dev() { return 0; }
__host__ int hst() { printf( "h" ); return 1; }
__device__ constexpr int dc() { return dev(); }
constexpr int hc() { return hst(); }
__global__ void k2() { printf( "k" ); }
template< typename T > __host__ int h() { return dev(); }
template< typename T > __device__ int d() { return hst(); }
template< typename T > __host__ __device__ int u() { dev(); return hst(); }
template< HDC H > struct R { __host__ __device__ int m() { h< int >(); return d< int >(); } };
"""
# Bodies of t: a one-sided template, a launch, a chain to both one-sided
# callees, a direct call of a kernel, constexpr callees of either side and
# a member of a struct template.
_T_BODIES = [
    "return h< T >();",
    "k2<<< 1, 1 >>>(); return 0;",
    "u< T >(); return d< T >();",
    "k2(); return 0;",
    "dc(); return hc();",
    "return R< HDC::Dev >{}.m();",
]
# The one side that reaches t.
_REACHERS = {
    "device": "__global__ void k() { t< int >(); }\n"
              "int main() { k<<< 1, 1 >>>(); return cudaDeviceSynchronize(); }\n",
    "host": "__global__ void k() {}\nint main() { k<<< 1, 1 >>>(); return t< int >(); }\n",
}


def one_sided_inputs():
    yield "one-sided", "one_sided.mcu", _ONE_SIDED_UNIT, CompileProfile()
    for i, body in enumerate(_T_BODIES):
        for side, reacher in _REACHERS.items():
            text = f"{_CALLEES}template< typename T > __host__ __device__ int t() {{ {body} }}\n"
            yield "one-sided", f"one_sided_{i}_{side}.mcu", text + reacher, CompileProfile()


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
    ap.add_argument("--expect", nargs="*", metavar="SHA",
                    help="the digests to match, SHA SPLIT_SHA [ONE_SIDED_SHA], "
                         "DIGESTS if none; exit 1 if one differs")
    args = ap.parse_args(argv)
    if args.expect == []:
        args.expect = DIGESTS
    if args.expect is not None and len(args.expect) not in (2, 3):
        ap.error("--expect takes no, two or three digests")
    digests = {"": hashlib.sha256(), "split ": hashlib.sha256(),
               "one-sided ": hashlib.sha256()}
    counts: dict[str, int] = {}
    dump = args.dump.open("w", encoding="utf-8") if args.dump else None
    try:
        for name, units in (("", inputs()), ("split ", split_inputs()),
                            ("one-sided ", one_sided_inputs())):
            for group, path, text, profile in units:
                for block in outputs(path, text, profile):
                    counts[group] = counts.get(group, 0) + 1
                    digests[name].update(block.encode())
                    if dump:
                        dump.write(block)
    finally:
        if dump:
            dump.close()
    for group, count in counts.items():
        print(f"{group} {count}")
    print(f"total {sum(counts.values()) - counts['split'] - counts['one-sided']}")
    for name, digest in digests.items():
        print(f"{name}sha256 {digest.hexdigest()}")
    if args.expect is None:
        return 0
    labels = {"": "the first set", "split ": "the split group",
              "one-sided ": "the one-sided group"}
    differing = [
        f"{labels[name]} differs: expected sha256 {want}"
        for (name, digest), want in zip(digests.items(), args.expect)
        if digest.hexdigest() != want
    ]
    for line in differing:
        print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
