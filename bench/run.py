"""The exspace benchmark: verdict latency and run throughput.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process serves one workload as a closed loop with one client and no
threads: each op starts when the previous one has returned.  The ops
mirror the command line in-process:

* check op: ``analyze``, then ``format_diagnostic(..., "machine")`` on
  each diagnostic (``exspace check`` minus the printing);
* run op: ``run_program`` on the checked unit (``exspace run --force``);
* corpus op: ``run_corpus_file`` on one reference file.

Every verdict and run outcome is compared with an answer known without
exspace (see gen.py).  The last line of stdout is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Any mismatch that is not a
listed known failure prints the detail to stderr and exits 1.

Times are scaled by a reference computation timed alongside the ops
(reference.py), so that they read as on a machine where one reference op
takes 1 ms whatever the shared machine's speed at the moment.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = gen.WORKLOADS
MIN_OPS = 100  # executed ops per op kind, at the least
MIN_CYCLES = 3  # repetitions of every unit, at the least
HARD_STOP_S = 120.0  # a run ends well inside its 180 s limit
REFERENCE_EVERY_S = 0.02  # op time between reference ops; each takes about 1 ms
SETUP_PROBES = 6  # fresh child processes, besides this process's own set-up


def require_checkout():
    """The program's sources and reference corpus must sit beside the benchmark."""
    for need in (SRC / "exspace" / "__init__.py", ROOT / "corpus"):
        if not need.exists():
            sys.exit(f"bench: {need} is missing; run from a checkout of the repository")


def import_exspace():
    """Import exspace from this checkout's sources, never from elsewhere."""
    require_checkout()
    sys.path.insert(0, str(SRC))
    import exspace
    import exspace.corpus  # noqa: F401  (the corpus op's module, as the CLI loads it)

    if Path(exspace.__file__).resolve().parent != (SRC / "exspace").resolve():
        sys.exit(f"bench: imported exspace from {exspace.__file__}, not {SRC}")
    return exspace


class Tally:
    """Op times per unit, and the outcomes, of one pass or run."""

    def __init__(self):
        # unit path -> (seconds, reference seconds) of each check (or corpus)
        # op and of each run op; the reference op is the one timed last
        # before the op, or None if none was
        self.check_s: dict = {}
        self.run_s: dict = {}
        self.ref_s = None
        self.units: dict = {}  # unit path -> Unit
        self.run_ok: set = set()  # paths whose run outcome was right
        self.attempted = 0
        self.failed = 0
        self.known: list = []  # failures listed as known (deep host call chains)
        self.wrong: list = []

    def time(self, kind: dict, unit, seconds: float):
        self.units[unit.path] = unit
        kind.setdefault(unit.path, []).append((seconds, self.ref_s))

    def ops(self, kind: dict) -> int:
        return sum(len(v) for v in kind.values())

    @property
    def op_s(self) -> float:
        return sum(s for k in (self.check_s, self.run_s) for v in k.values() for s, _ in v)

    def fail(self, unit, what: str, known: bool = False):
        self.failed += 1
        (self.known if known else self.wrong).append(f"{unit.path}: {what}")


class Ops:
    def __init__(self, xs):
        self.xs = xs
        self.profile = xs.CompileProfile()
        self.corpus_analyses: dict = {}

    def cycle(self, cycle: list, tally: Tally, ref_s: list):
        """Every unit once, with a reference op before the first unit and
        then after each REFERENCE_EVERY_S spent on units; its times go to
        ref_s and pair with the ops that follow it."""
        since = REFERENCE_EVERY_S
        for unit in cycle:
            if since >= REFERENCE_EVERY_S:
                tally.ref_s = reference.timed()
                ref_s.append(tally.ref_s)
                since = 0.0
            t0 = perf_counter()
            self.unit(unit, tally)
            since += perf_counter() - t0

    def unit(self, unit, tally: Tally):
        """Every op of one unit, timed one by one and checked."""
        if unit.mode == "corpus":
            self._corpus_op(unit, tally)
            analysis = self._corpus_analysis(unit) if unit.run else None
        else:
            analysis = self._check_op(unit, tally)
        if unit.run is not None and analysis is not None:
            self._run_op(unit, analysis, tally)

    def _check_op(self, unit, tally):
        xs = self.xs
        tally.attempted += 1
        t0 = perf_counter()
        try:
            analysis = xs.analyze(unit.text, unit.path, self.profile, xs.Mode(unit.mode))
            lines = [line for d in analysis.diagnostics
                     if (line := xs.format_diagnostic(d, "machine")) is not None]
        except Exception as e:  # a raising op is a failed op, not a crash
            tally.time(tally.check_s, unit, perf_counter() - t0)
            tally.fail(unit, f"check raised {e!r}")
            return None
        tally.time(tally.check_s, unit, perf_counter() - t0)
        if lines != unit.diags:
            tally.fail(unit, f"diagnostics {lines} != expected {unit.diags}")
        return analysis

    def _corpus_op(self, unit, tally):
        xs = self.xs
        tally.attempted += 1
        t0 = perf_counter()
        try:
            res = xs.corpus.run_corpus_file(Path(unit.path), xs.Mode.CLASSIC, self.profile)
        except Exception as e:
            tally.time(tally.check_s, unit, perf_counter() - t0)
            tally.fail(unit, f"corpus op raised {e!r}")
            return
        tally.time(tally.check_s, unit, perf_counter() - t0)
        if not res.passed or res.matched != unit.annotations:
            tally.fail(unit, f"corpus result {res} with {unit.annotations} annotations")

    def _corpus_analysis(self, unit):
        """The checked unit a corpus run op executes; built once, untimed."""
        analysis = self.corpus_analyses.get(unit.path)
        if analysis is None:
            xs = self.xs
            cfg = xs.corpus.parse_header(unit.text, xs.Mode.CLASSIC, self.profile)
            analysis = xs.analyze(unit.text, unit.path, cfg.profile, cfg.mode)
            self.corpus_analyses[unit.path] = analysis
        return analysis

    def _run_op(self, unit, analysis, tally):
        xs, want = self.xs, unit.run
        tally.attempted += 1
        t0 = perf_counter()
        try:
            res = xs.run_program(analysis)
        except RecursionError:
            tally.time(tally.run_s, unit, perf_counter() - t0)
            tally.fail(unit, "run raised RecursionError", known=want.deep)
            return
        except Exception as e:
            tally.time(tally.run_s, unit, perf_counter() - t0)
            tally.fail(unit, f"run raised {e!r}")
            return
        tally.time(tally.run_s, unit, perf_counter() - t0)
        notes = [xs.format_diagnostic(d, "machine") for d in res.notes]
        if (res.exit_code, res.stdout) != (want.exit_code, want.stdout) or (
            want.notes is not None and notes != want.notes
        ):
            tally.fail(unit, f"run gave exit {res.exit_code} stdout {res.stdout!r} "
                             f"notes {notes}; expected exit {want.exit_code} "
                             f"stdout {want.stdout!r} notes {want.notes}")
            return
        tally.run_ok.add(unit.path)


def p90(samples) -> float:
    return statistics.quantiles(list(samples), n=10, method="inclusive")[8]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def scaled(samples) -> float:
    """Seconds of one op where one reference op takes REFERENCE_S.

    Each op's time is divided by that of the reference op timed just
    before it, and the median of those ratios is taken over the op's
    repetitions.  The speed of a shared machine drifts by up to 2x over
    seconds to minutes and slows both alike, so the ratio holds where the
    raw time does not."""
    return statistics.median(s / ref for s, ref in samples) * reference.REFERENCE_S


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from just before `import exspace` to the end of the warm-up op."""
    first = gen.make_unit(workload, ROOT, seed, 0)
    t0 = perf_counter()
    xs = import_exspace()
    tally = Tally()
    Ops(xs).unit(first, tally)
    elapsed = perf_counter() - t0
    if tally.wrong:
        sys.exit("bench: warm-up op failed: " + "; ".join(tally.wrong))
    return elapsed


def setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


def untraced(workload: str, seed: int, seconds: float) -> dict:
    cycle = gen.make_cycle(workload, ROOT, seed)
    setups = [measure_setup(workload, seed)]
    ops = Ops(sys.modules["exspace"])
    tally = Tally()
    ref_s = []
    cpus = sorted(os.sched_getaffinity(0))
    gc.collect()
    t0 = perf_counter()
    paused = 0.0
    for cycles in itertools.count(1):  # whole cycles, so every unit has as many samples
        # Cycles take turns on the CPUs this process may use: at one moment
        # one vCPU of a shared machine can run 30% slower than the other.
        os.sched_setaffinity(0, {cpus[cycles % len(cpus)]})
        ops.cycle(cycle, tally, ref_s)
        if len(setups) <= SETUP_PROBES:
            # Probes sit between cycles so that they sample the machine's
            # state across the whole run, not in one burst.
            p0 = perf_counter()
            setups.append(setup_probe(workload, seed))
            paused += perf_counter() - p0
        elapsed = perf_counter() - t0 - paused
        enough = (cycles >= MIN_CYCLES and tally.ops(tally.check_s) >= MIN_OPS
                  and tally.ops(tally.run_s) >= MIN_OPS)
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break
    os.sched_setaffinity(0, cpus)
    while len(setups) <= SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = {path: scaled(v) for path, v in tally.check_s.items()}
    run = {path: scaled(v) for path, v in tally.run_s.items()}
    # Set-up probes ran in other processes, spread over the run: they are
    # scaled by the reference op's median over the run.
    scale = reference.REFERENCE_S / statistics.median(ref_s)
    ok_s = sum(run[path] for path in tally.run_ok)
    ok = [tally.units[path].run for path in tally.run_ok]
    metrics = {
        "check_ms_p50": metric(statistics.median(check.values()) * 1e3, "ms"),
        "check_ms_p90": metric(p90(check.values()) * 1e3, "ms"),
        "check_fns_per_s": metric(
            sum(tally.units[path].fns for path in check) / sum(check.values()), "1/s"),
        "run_ms_p50": metric(statistics.median(run.values()) * 1e3, "ms"),
        "run_ms_p90": metric(p90(run.values()) * 1e3, "ms"),
        "run_calls_per_s": metric(sum(a.calls for a in ok) / ok_s, "1/s"),
        "run_threads_per_s": metric(sum(a.threads for a in ok) / ok_s, "1/s"),
        "setup_s": metric(statistics.median(setups) * scale, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"{workload} seed {seed}: {cycles} cycles of {len(cycle)} units, "
          f"{tally.ops(tally.check_s)} check ops and {tally.ops(tally.run_s)} run ops "
          f"in {elapsed:.1f} s; failed {tally.failed}/{tally.attempted} "
          f"(failed_ratio {tally.failed / tally.attempted:.4f}, {len(tally.known)} known)")
    print(f"  reference op median {statistics.median(ref_s) * 1e3:.4f} ms of {len(ref_s)}; "
          f"times below are scaled to {reference.REFERENCE_S * 1e3:g} ms")
    for name, m in metrics.items():
        print(f"  {name:18} {m['value']:14.4f} {m['unit']}")
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    for w in tally.wrong:
        print(f"bench: MISMATCH {w}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# --------------------------------------------------------------------------
# Traced run: per-layer metrics


def _sum_or_absent(values):
    values = list(values)
    return None if any(v is None for v in values) else sum(values)


def _walk_sizes(analysis, side_name: str):
    """Instances and edges of one side's walk, or None if not exposed."""
    try:
        walk = next(w for side, w in analysis.walks.items() if side.value == side_name)
    except StopIteration:
        return 0, 0
    except AttributeError:
        return None, None
    try:
        return len(walk.instances), sum(len(v) for v in walk.edges.values())
    except AttributeError:
        return None, None


class Counters:
    """Counts read from op results after each op, with no timing around them."""

    NAMES = ("lexer.tokens", "parser.items", "spacecheck.instances.host",
             "spacecheck.instances.device", "spacecheck.edges.host",
             "spacecheck.edges.device", "diagnostics.count", "interp.launches_skipped",
             "interp.threads", "interp.calls")

    def __init__(self, present: set):
        self.present = present
        # "identical" and "two_pass" give the identical-pass share.
        self.values = dict.fromkeys(self.NAMES + ("identical", "two_pass"), 0)

    def add(self, name: str, value):
        if self.values[name] is not None:
            self.values[name] = None if value is None else self.values[name] + value

    def take(self, unit, results: list):
        for name, value in results:
            if name == "tokenize":
                self.add("lexer.tokens", value)
            elif name == "analyze":
                self._analysis(value)
            elif name == "run_program":
                skipped = sum(1 for d in value.notes if d.code == "N0001"
                              and d.message.startswith("kernel launch skipped"))
                self.add("interp.launches_skipped", skipped)
                if (value.exit_code, value.stdout) == (unit.run.exit_code, unit.run.stdout):
                    self.add("interp.threads", unit.run.threads)
                    self.add("interp.calls", unit.run.calls)
        results.clear()

    def _analysis(self, a):
        passes = getattr(a, "passes", None)
        try:
            self.add("parser.items", sum(len(p.ast.items) for p in passes.values()))
            texts = [p.text for p in passes.values()]
        except AttributeError:
            self.add("parser.items", None)
            self.add("identical", None)
            texts = []
        if len(texts) == 2:
            self.add("two_pass", 1)
            self.add("identical", int(texts[0] == texts[1]))
        for side in ("host", "device"):
            inst, edges = _walk_sizes(a, side)
            self.add(f"spacecheck.instances.{side}", inst)
            self.add(f"spacecheck.edges.{side}", edges)
        self.add("diagnostics.count", len(a.diagnostics))

    def metrics(self) -> dict:
        v = self.values
        out = {name: v[name] for name in self.NAMES}
        for what in ("instances", "edges"):
            out[f"spacecheck.{what}"] = _sum_or_absent(
                [v[f"spacecheck.{what}.host"], v[f"spacecheck.{what}.device"]])
        share = None
        if v["identical"] is not None and v["two_pass"]:
            share = v["identical"] / v["two_pass"]
        out["preprocess.identical_pass_share"] = share
        needs = {"lexer.tokens": "tokenize", "interp.launches_skipped": "run_program",
                 "interp.threads": "run_program", "interp.calls": "run_program"}
        for name in out:
            ep = needs.get(name, "analyze")
            if ep not in self.present:
                out[name] = None
        return out


LAYER_METRICS = {  # metric -> (layer, "ms" | "calls")
    "preprocess.ms": ("preprocess", "ms"),
    "lexer.ms": ("lexer", "ms"),
    "parser.ms": ("parser", "ms"),
    "sema.resolve.ms": ("sema.resolve", "ms"),
    "spacecheck.walk.ms": ("spacecheck.walk", "ms"),
    "spacecheck.overload.ms": ("spacecheck.overload", "ms"),
    "spacecheck.overload.calls": ("spacecheck.overload", "calls"),
    "spacecheck.spaces.ms": ("spacecheck.spaces", "ms"),
    "spacecheck.spaces.calls": ("spacecheck.spaces", "calls"),
    "spacecheck.divergence.ms": ("spacecheck.divergence", "ms"),
    "diagnostics.finish.ms": ("diagnostics.finish", "ms"),
    "diagnostics.format.ms": ("diagnostics.format", "ms"),
    "interp.ms": ("interp", "ms"),
    "interp.overload.ms": ("interp.overload", "ms"),
    "interp.overload.calls": ("interp.overload", "calls"),
    "interp.spaces.ms": ("interp.spaces", "ms"),
    "interp.spaces.calls": ("interp.spaces", "calls"),
    "interp.launches": ("interp.launches", "calls"),
    "corpus.ms": ("corpus", "ms"),
}
COUNT_UNITS = {"preprocess.identical_pass_share": "ratio"}


def traced(workload: str, seed: int, seconds: float) -> dict:
    import tracer as tr

    first = gen.make_unit(workload, ROOT, seed, 0)
    cycle = gen.make_cycle(workload, ROOT, seed)
    xs = import_exspace()
    ops = Ops(xs)
    t = tr.Tracer()
    warm = Tally()
    ops.unit(first, warm)
    tally = Tally()
    ratios, layer_ms, first_counts, first_spans = [], {}, None, None
    t0 = perf_counter()
    plain = Tally()
    ref_s = []
    while True:
        plain_before = plain.op_s
        ops.cycle(cycle, plain, ref_s)
        t.reset()
        counters = Counters(t.present)
        t.install()
        try:
            before = tally.op_s
            for k, unit in enumerate(cycle):
                t.op = k
                ops.unit(unit, tally)
                counters.take(unit, t.results)
        finally:
            t.uninstall()
        ratios.append((tally.op_s - before) / (plain.op_s - plain_before))
        seconds_by_layer, calls = t.layer_totals()
        for name, (layer, kind) in LAYER_METRICS.items():
            if kind == "ms":
                value = seconds_by_layer.get(layer, 0.0) * 1e3 / len(cycle)
                layer_ms.setdefault(name, []).append(value)
        counts = counters.metrics()
        counts.update({name: calls.get(layer, 0) for name, (layer, kind)
                       in LAYER_METRICS.items() if kind == "calls"})
        if first_counts is None:
            first_counts, first_spans = counts, list(t.spans)
        elif counts != first_counts:
            tally.wrong.append(f"counts differ between traced passes: "
                               f"{first_counts} != {counts}")
        if perf_counter() - t0 >= min(seconds, HARD_STOP_S):
            break
    tr.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv", first_spans)
    tally.wrong.extend(warm.wrong + plain.wrong)

    metrics = {}
    scale = reference.REFERENCE_S / statistics.median(ref_s)
    for name, (layer, kind) in LAYER_METRICS.items():
        present = all(ep in t.present for ep in tr.LAYER_SOURCES[layer])
        if kind == "ms":
            value = statistics.median(layer_ms[name]) * scale if present else None
            metrics[name] = metric(value, "ms")
        else:
            metrics[name] = metric(first_counts[name] if present else None, "count")
    for name, value in first_counts.items():
        if name not in metrics:
            metrics[name] = metric(value, COUNT_UNITS.get(name, "count"))
    metrics["trace.overhead_ratio"] = metric(statistics.median(ratios), "ratio")
    for m in metrics.values():
        if m["value"] is None:
            m["absent"] = True
    print(f"{workload} seed {seed}: {len(ratios)} traced cycle(s) of {len(cycle)} units")
    for name, m in sorted(metrics.items()):
        shown = "absent" if m["value"] is None else f"{m['value']:14.4f}"
        print(f"  {name:34} {shown:>14} {m['unit']}")
    return result(tally, metrics)


# --------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one table, one verdict."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for wl in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            combined["correct"] = False
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{wl}.{name}"] = m
        combined["metrics"][f"{wl}.failed_ratio"] = metric(
            res["failed"] / res["attempted"], "ratio")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    require_checkout()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(f"{measure_setup(args.workload, args.seed):.9f}")
        return 0
    run = traced if args.trace else untraced
    res = run(args.workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
