"""Count the GC-tracked objects that one analyze keeps per function.

    python tools/gcobjects.py [CHECKOUT] [--workload W] [--functions N] [--seed S]
        [--repeats R]

CHECKOUT is the root of a checkout with src/exspace, this one by default.
The unit is unit 0 of this checkout's bench/gen.py pool of workload W
(chain or fanout) and seed S, made about N functions long by assigning
gen.CHAIN_FIRST or gen.FANOUT_FIRST in this process; no file is written.
With the cyclic collector off, each of R repeats counts gc.get_objects()
before and after one analyze of the unit, with the Analysis still alive,
and prints the difference and that over the unit's functions: what the
Analysis keeps, plus any cycle left for the collector.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402

# The gen.py constant that sizes unit 0 of each workload.
FIRST = {"chain": "CHAIN_FIRST", "fanout": "FANOUT_FIRST"}


def sized_unit(workload: str, seed: int, functions: int):
    """Unit 0 of the pool, sized so that it has about functions functions."""
    setattr(gen, FIRST[workload], functions)
    unit = gen.make_unit(workload, ROOT, seed, 0)
    setattr(gen, FIRST[workload], max(1, 2 * functions - unit.fns))  # gen adds a few
    return gen.make_unit(workload, ROOT, seed, 0)


def kept(xs, unit) -> int:
    """The GC-tracked objects that one analyze of unit leaves behind."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        analysis = xs.analyze(unit.text, unit.path, xs.CompileProfile(), xs.Mode(unit.mode))
        count = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del analysis
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", choices=sorted(FIRST), default="chain")
    ap.add_argument("--functions", type=int, default=1611)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.checkout / "src"))
    import exspace as xs

    unit = sized_unit(args.workload, args.seed, args.functions)
    print(f"{args.workload} seed {args.seed}, {unit.fns} functions, {args.repeats} repeats")
    for _ in range(args.repeats):
        count = kept(xs, unit)
        print(f"  {count} objects, {count / unit.fns:.1f} per function")
    return 0


if __name__ == "__main__":
    sys.exit(main())
