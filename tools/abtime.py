"""Time two checkouts of exspace against each other.

    python tools/abtime.py PARENT CHANGE [--workload W] [--seed N] [--rounds R]
    python tools/abtime.py PARENT CHANGE --setup [--workload W] [--seed N] [--rounds R]

PARENT and CHANGE are the roots of two checkouts, each with src/exspace.
Both packages are loaded into this process, each under a name of its own,
so they run on the same interpreter, heap and CPU.  Each round takes every
unit of the bench/gen.py pool of workload W and seed N (the pool of this
checkout's bench/) and times one op on the parent, then the same op on the
change, swapping that order every round.  The ops are the ones bench/run.py
times: a check (analyze and the machine-format lines, or for a reference
corpus file exspace corpus's run of it) and, for a unit with a run answer,
a run of the checked unit.  The cyclic collector is off within a round and
runs between rounds.

For each op kind it prints the median over units of the ratio of the
change's median op time to the parent's: below 1 means the change is
faster.  A checkout against itself reads about 1.

With --setup it times start-up instead, in R pairs of fresh processes,
one per checkout, the parent first in even pairs.  Each process times
what bench/run.py's setup_s measures, with this checkout's bench/run.py
(measure_setup) pointed at the checkout's src/: the import of exspace and
exspace.corpus, then a check and a run of unit 0 of the pool.  It prints
each side's median and quartiles in raw seconds, not scaled by the
reference op, and the pairs in which the change started faster.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402


def load(checkout: Path, name: str):
    """The exspace package of checkout, imported as the package name."""
    init = checkout / "src" / "exspace" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.corpus")
    return package


class Ops:
    """The timed ops of one unit on one loaded exspace."""

    def __init__(self, xs):
        self.xs = xs
        self.profile = xs.CompileProfile()

    def check(self, unit):
        """Seconds of the check op, and the analysis a run op executes."""
        xs = self.xs
        if unit.mode == "corpus":
            t0 = perf_counter()
            xs.corpus.run_corpus_file(Path(unit.path), xs.Mode.CLASSIC, self.profile)
            elapsed = perf_counter() - t0
            if unit.run is None:
                return elapsed, None
            cfg = xs.corpus.parse_header(unit.text, xs.Mode.CLASSIC, self.profile)
            return elapsed, xs.analyze(unit.text, unit.path, cfg.profile, cfg.mode)
        t0 = perf_counter()
        analysis = xs.analyze(unit.text, unit.path, self.profile, xs.Mode(unit.mode))
        [xs.format_diagnostic(d, "machine") for d in analysis.diagnostics]
        return perf_counter() - t0, analysis

    def run(self, analysis) -> float:
        t0 = perf_counter()
        self.xs.run_program(analysis)
        return perf_counter() - t0


def measure(parent: Path, change: Path, workload: str, seed: int, rounds: int) -> dict:
    """Op kind -> unit path -> (parent's op times, change's op times)."""
    sides = (Ops(load(parent, "abtime_parent")), Ops(load(change, "abtime_change")))
    units = gen.make_cycle(workload, ROOT, seed)
    times: dict = {"check": {}, "run": {}}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        gc.collect()
        gc.disable()
        try:
            for unit in units:
                for side in order:
                    elapsed, analysis = sides[side].check(unit)
                    times["check"].setdefault(unit.path, ([], []))[side].append(elapsed)
                    if unit.run is not None and analysis is not None:
                        elapsed = sides[side].run(analysis)
                        times["run"].setdefault(unit.path, ([], []))[side].append(elapsed)
        finally:
            gc.enable()
    return times


def median_ratio(per_unit: dict) -> float:
    """The median over units of the change's median time over the parent's."""
    return statistics.median(
        statistics.median(c) / statistics.median(p) for p, c in per_unit.values()
    )


# Run in a fresh process: seconds of measure_setup for the checkout's src/.
_SETUP_PROBE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
run.SRC = Path(sys.argv[2]) / "src"
print(run.measure_setup(sys.argv[3], int(sys.argv[4])))
"""


def measure_setup(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> tuple:
    """The parent's and the change's start-up seconds, one of each per pair."""
    times: tuple = ([], [])
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            checkout = (parent, change)[side]
            out = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "bench"), str(checkout),
                 workload, str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
            )
            times[side].append(float(out.stdout.split()[-1]))
    return times


def quartiles(samples: list) -> tuple:
    """The first and third quartiles, as statistics.quantiles(n=4, method="inclusive")
    gives them; a lone sample is both."""
    q1, _, q3 = statistics.quantiles(samples * 2 if len(samples) == 1 else samples,
                                     n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", choices=gen.WORKLOADS, default="chain")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=12,
                    help="rounds of ops, or with --setup pairs of processes")
    ap.add_argument("--setup", action="store_true", help="time start-up instead of ops")
    args = ap.parse_args(argv)
    if args.setup:
        times = measure_setup(args.parent, args.change, args.workload, args.seed, args.rounds)
        print(f"{args.workload} seed {args.seed}, set-up, {args.rounds} pairs")
        for name, samples in zip(("parent", "change"), times):
            q1, q3 = quartiles(samples)
            print(f"  {name}: median {statistics.median(samples):.4f} s, "
                  f"quartiles {q1:.4f} {q3:.4f}")
        wins = sum(c < p for p, c in zip(*times))
        print(f"  change faster in {wins} of {args.rounds} pairs")
        return 0
    times = measure(args.parent, args.change, args.workload, args.seed, args.rounds)
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds")
    for kind, per_unit in times.items():
        if per_unit:
            print(f"  {kind}: {len(per_unit)} units, median change/parent "
                  f"{median_ratio(per_unit):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
