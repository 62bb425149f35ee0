"""Check the generators' answers against exspace across several seeds.

    python3 bench/selfcheck.py [--seeds 0,1,2,3,4]

Every unit of every workload pool runs once, traced.  Besides each
verdict and run outcome, two counts made by the generators are compared
with what the trace saw: the calls a run executes (each resolves one
overload, as does each executed launch) and the source function count.
Deep host call chains that die with RecursionError are the one listed
known failure; anything else exits 1.
"""
from __future__ import annotations

import argparse
import sys

import gen
import run
import tracer


def check_seed(ops: run.Ops, t: tracer.Tracer, workload: str, seed: int) -> run.Tally:
    tally = run.Tally()
    units = [gen.make_unit(workload, run.ROOT, seed, 0)] + gen.make_cycle(workload, run.ROOT, seed)
    for unit in units:
        if workload != "corpus" and gen.count_functions(unit.text) != unit.fns:
            tally.wrong.append(f"{unit.path}: {gen.count_functions(unit.text)} "
                               f"function definitions, generator says {unit.fns}")
        t.reset()
        failed = tally.failed
        ops.unit(unit, tally)
        if workload == "corpus" or tally.failed != failed:
            continue
        _, counts = t.layer_totals()
        want = unit.run.calls + unit.run.launches
        if counts.get("interp.overload", 0) != want:
            tally.wrong.append(f"{unit.path}: run resolved {counts.get('interp.overload', 0)} "
                               f"calls and launches, generator says {want}")
        skipped = len(unit.run.notes or ())
        if counts.get("interp.launches", 0) != unit.run.launches + skipped:
            tally.wrong.append(f"{unit.path}: {counts.get('interp.launches', 0)} launch "
                               f"statements ran, generator says {unit.run.launches + skipped}")
    return tally


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0,1,2,3,4")
    args = p.parse_args(argv)
    xs = run.import_exspace()
    ops = run.Ops(xs)
    t = tracer.Tracer()
    t.install()
    wrong = 0
    for workload in gen.WORKLOADS:
        seeds = [0] if workload == "corpus" else [int(s) for s in args.seeds.split(",")]
        for seed in seeds:
            tally = check_seed(ops, t, workload, seed)
            print(f"{workload:7} seed {seed}: {tally.attempted} ops, {tally.failed} failed")
            for k in tally.known:
                print(f"  known failure {k}")
            for w in tally.wrong:
                print(f"  MISMATCH {w}")
            wrong += len(tally.wrong)
    t.uninstall()
    print("selfcheck:", "ok" if not wrong else f"{wrong} unexpected mismatch(es)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
