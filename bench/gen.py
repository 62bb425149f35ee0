"""Seeded MiniCU inputs for the benchmark, each with its known answer.

Every generator builds a unit line by line and derives the expected
machine-format diagnostics and run outcome from that construction alone:
no answer here comes from running exspace.  One unit is a pure function
of (workload, seed, index), so a set-up probe can rebuild the first unit
without building the rest.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Optional

W1101 = "calling a host function from a host device function is not allowed"
W1102 = "calling a device function from a host device function is not allowed"
E1001 = "calling a device function from a host function is not allowed"
E1002 = "calling a host function from a device function is not allowed"
SKIP_NOTE = "kernel launch skipped: the device error state is 207"

_SPEC = {"Hst": "__host__", "Dev": "__device__", "HstDev": "__host__ __device__"}
HOST_CALLABLE = ("Hst", "HstDev")
DEVICE_CALLABLE = ("Dev", "HstDev")


@dataclass
class RunAnswer:
    exit_code: int
    stdout: bytes
    notes: list  # machine-format note lines, in emission order
    calls: int  # user-defined function bodies entered; builtins excluded
    threads: int  # device threads executed
    launches: int  # launches that executed (not skipped)
    deep: bool = False  # a host call chain that may outgrow the Python stack


@dataclass
class Unit:
    path: str
    text: str
    mode: str
    fns: int  # function definitions in the source
    diags: list = field(default_factory=list)  # expected machine lines, ordered
    run: Optional[RunAnswer] = None
    annotations: int = 0  # corpus files: `//~` expectations to be matched


class _Src:
    """Line-numbered source builder; every call site records its position."""

    def __init__(self, path: str):
        self.path = path
        self.lines: list[str] = []
        self.diags: list[tuple] = []

    def add(self, line: str = "") -> int:
        self.lines.append(line)
        return len(self.lines)

    def diag(self, lineno: int, col: int, sev: str, code: str, msg: str):
        self.diags.append((lineno, col, code, msg, sev))

    def expected(self) -> list:
        # exspace orders diagnostics by (line, col, code, message) and drops
        # exact duplicates.
        keys = sorted(set(self.diags))
        return [f"{self.path}:{l}:{c}: {s}[{code}]: {m}" for l, c, code, m, s in keys]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def ladder(index: int, count: int, lo: float, hi: float) -> float:
    """Step `index` of `count` on a log-spaced ladder from lo to hi.

    Sizes sit on a fixed ladder so that every seed's pool spans the same
    range with the same spacing, and the counts that shape a unit's cost
    follow its step; the seed draws which names, structs and overloads a
    unit uses.  Per-run percentiles then measure the program, not the luck
    of one draw.
    """
    u = (index + 0.5) / count
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _structs(src: _Src, tags: list, prefix: str = "S"):
    for j, tag in enumerate(tags):
        src.add(f"struct {prefix}{j} {{")
        src.add(f"  static constexpr HDC hdc = HDC::{tag};")
        src.add(f"  {_SPEC[tag]} void call() {{}}")
        src.add("};")
        src.add()


# --------------------------------------------------------------------------
# chain: host-device template chains, classic mode, identical pass texts


CHAIN_POOL = 8
CHAIN_FIRST = 100  # chain functions in the set-up unit
CHAIN_MAX_DEPTH = 48  # keeps the run op well inside the interpreter's stack


def gen_chain(seed: int, index: int) -> Unit:
    rng = _rng("chain", seed, index)
    if index == 0:
        total = CHAIN_FIRST
    else:
        total = round(ladder(index - 1, CHAIN_POOL, 16, 400))
    nchains = max(1, math.ceil(total / CHAIN_MAX_DEPTH))
    depths = [total // nchains + (1 if c < total % nchains else 0) for c in range(nchains)]
    tags = ["Hst", "Dev", "HstDev"] * 3
    rng.shuffle(tags)
    # Every chain runs once per side, over two different structs, so the
    # instance count depends on the size alone; the seed picks the structs.
    # Chains take turns to run one side over a one-sided struct, so the
    # warning count depends on the size alone too.
    by_tag = {t: [j for j, x in enumerate(tags) if x == t] for t in _SPEC}
    main_calls, kern_calls = [], []
    for k, c in enumerate(rng.sample(range(nchains), nchains)):
        j = rng.choice(by_tag["HstDev" if k % 2 else "Hst"])
        main_calls.append((c, j))
        kern_calls.append((c, rng.choice([i for i in by_tag["Dev" if k % 2 else "HstDev"]
                                          if i != j])))

    src = _Src(f"chain_{index:03d}.mcu")
    _structs(src, tags)
    call_lines = {c: [] for c in range(nchains)}
    for c, depth in enumerate(depths):
        for i in range(depth):
            src.add("template< typename T, HDC h = hdc< T > >")
            src.add("__host__ __device__")
            src.add(f"void f{c}_{i}() {{")
            call_lines[c].append(src.add("  T{}.call();"))
            if i + 1 < depth:
                src.add(f"  f{c}_{i + 1}< T >();")
            else:
                src.add(f'  printf( "%d;", {c} );')
            src.add("}")
            src.add()
    src.add("__global__ void kern() {")
    for c, j in kern_calls:
        src.add(f"  f{c}_0< S{j} >();")
    src.add("}")
    src.add()
    src.add("int main() {")
    for c, j in main_calls:
        src.add(f"  f{c}_0< S{j} >();")
    src.add("  kern<<< 1, 1 >>>();")
    src.add("  return cudaDeviceSynchronize();")
    src.add("}")

    # Classic mode instantiates a called host-device template for both
    # sides, so a one-sided callee warns on its mismatched side.
    for calls, bad_tag, code, msg in ((main_calls, "Hst", "W1101", W1101),
                                      (kern_calls, "Dev", "W1102", W1102)):
        for c, j in calls:
            if tags[j] == bad_tag:
                for line in call_lines[c]:
                    src.diag(line, 3, "warning", code, msg)
    order = main_calls + kern_calls
    stdout = "".join(f"{c};" for c, _ in order).encode()
    calls = sum(2 * depths[c] for c, _ in order)
    run = RunAnswer(0, stdout, [], calls, 1, 1)
    return Unit(src.path, src.text(), "classic", total + len(tags) + 2,
                src.expected(), run)


# --------------------------------------------------------------------------
# fanout: requires-clause overload triples over many structs, sound mode


FANOUT_POOL = 16
FANOUT_FIRST = 32  # shared structs in the set-up unit

_OVERLOAD_MARK = {"Hst": "h", "Dev": "d", "HstDev": "b"}


def gen_fanout(seed: int, index: int) -> Unit:
    rng = _rng("fanout", seed, index)
    if index == 0:
        shared = FANOUT_FIRST
    else:
        shared = round(ladder(index - 1, FANOUT_POOL, 12, 128))
    ntriples = 1 + index % 3
    tags = (["Hst", "Dev", "HstDev"] * math.ceil(shared / 3))[:shared]
    rng.shuffle(tags)
    host_ok = [j for j, t in enumerate(tags) if t in HOST_CALLABLE]
    dev_ok = [j for j, t in enumerate(tags) if t in DEVICE_CALLABLE]
    by_tag = {t: [j for j, x in enumerate(tags) if x == t] for t in _SPEC}
    # Call sites name distinct instantiations, and every count below is
    # fixed by the ladder step: the seed picks which structs and overloads
    # are called, not how many, so a unit's cost depends on its step alone.
    main_calls = rng.sample([(m, j) for m in range(ntriples) for j in host_ok], shared // 2)
    kern_calls = rng.sample([(m, j) for m in range(ntriples) for j in dev_ok], shared // 2)
    host_strays = [(rng.randrange(ntriples), rng.choice(by_tag["Dev"]))
                   for _ in range(1 + index % 3)]
    dev_strays = [(rng.randrange(ntriples), rng.choice(by_tag["Hst"]))
                  for _ in range(1 + (index + 1) % 3)]
    # Call sites under #ifdef __CUDA_ARCH__ each get a struct of their own,
    # so the instantiation they demand exists in the device pass only.
    arch_sites = [("div", "HstDev") for _ in range(1 + (index + 2) % 3)]
    arch_sites += [("stray", "Dev") for _ in range(index % 3)]
    arch_structs = []
    for _, tag in arch_sites:
        arch_structs.append(len(tags))
        tags.append(tag)

    src = _Src(f"fanout_{index:03d}.mcu")
    _structs(src, tags)
    for m in range(ntriples):
        for tag in ("Hst", "Dev", "HstDev"):
            src.add("template< typename T, HDC h = hdc< T > >")
            src.add(f"requires( h == HDC::{tag} )")
            src.add(f"{_SPEC[tag]} void g{m}() {{")
            src.add("  T{}.call();")
            src.add(f'  printf( "{_OVERLOAD_MARK[tag]}" );')
            src.add("}")
            src.add()
    for k, (m, j) in enumerate(host_strays):
        src.add(f"void hs{k}() {{")
        src.diag(src.add(f"  g{m}< S{j} >();"), 3, "error", "E1001", E1001)
        src.add("}")
        src.add()
    for k, (m, j) in enumerate(dev_strays):
        src.add(f"__device__ void ds{k}() {{")
        src.diag(src.add(f"  g{m}< S{j} >();"), 3, "error", "E1002", E1002)
        src.add("}")
        src.add()
    for k, ((kind, tag), j) in enumerate(zip(arch_sites, arch_structs)):
        m = rng.randrange(ntriples)
        src.add(f"__host__ __device__ void dv{k}() {{" if kind == "div"
                else f"void dv{k}() {{")
        src.add("#ifdef __CUDA_ARCH__")
        line = src.add(f"  g{m}< S{j} >();")
        src.add("#endif")
        src.add("}")
        src.add()
        src.diag(line, 3, "error", "E1201",
                 f'the instantiation of "g{m}<S{j}, {tag}>" must not depend on '
                 "whether __CUDA_ARCH__ is defined")
        if kind == "stray":
            src.diag(line, 3, "error", "E1001", E1001)
    src.add("__global__ void kern() {")
    for m, j in kern_calls:
        src.add(f"  g{m}< S{j} >();")
    src.add("}")
    src.add()
    src.add("int main() {")
    for m, j in main_calls:
        src.add(f"  g{m}< S{j} >();")
    src.add("  kern<<< 1, 1 >>>();")
    src.add("  return cudaDeviceSynchronize();")
    src.add("}")

    # The run op executes the unit despite its errors, as `run --force`
    # does; only main and kern run, and every call they make is legal.
    stdout = "".join(_OVERLOAD_MARK[tags[j]] for _, j in main_calls + kern_calls)
    calls = 2 * (len(main_calls) + len(kern_calls))
    run = RunAnswer(0, stdout.encode(), [], calls, 1, 1)
    fns = len(tags) + 3 * ntriples + len(host_strays) + len(dev_strays) + len(arch_sites) + 2
    return Unit(src.path, src.text(), "sound", fns, src.expected(), run)


# --------------------------------------------------------------------------
# kernel: launch-heavy units, some trapping, some deep host call chains


KERNEL_POOL = 16
KERNEL_FIRST = 1000  # target executed calls of the set-up unit
DEEP_EVERY = 8  # one unit in eight is a deep host call chain
DEEP_MAX = 256


def gen_kernel(seed: int, index: int) -> Unit:
    rng = _rng("kernel", seed, index)
    if index % DEEP_EVERY == DEEP_EVERY - 1:
        # Depths step evenly up to DEEP_MAX, so every pool reaches past the
        # interpreter's current stack limit.
        steps = KERNEL_POOL // DEEP_EVERY
        depth = round(2 + (index // DEEP_EVERY + 1) / steps * (DEEP_MAX - 2))
        return _deep_chain(rng, f"kernel_{index:03d}.mcu", depth)
    target = KERNEL_FIRST if index == 0 else ladder(index - 1, KERNEL_POOL, 1000, 20000)

    # Counts that shape the check op are fixed by the ladder step; the
    # seed draws tags, grids and which structs each kernel calls.
    tags = [rng.choice(DEVICE_CALLABLE) for _ in range(2 + index % 3)]
    src = _Src(f"kernel_{index:03d}.mcu")
    _structs(src, tags, "A")
    src.add("template< typename T >")
    src.add("__host__ __device__")
    src.add("void step() {")
    step_line = src.add("  T{}.call();")
    src.add("}")
    src.add()

    nlaunch = 1 + index % 3
    # One unit in four traps after its sized launches, and then launches
    # one or two more kernels that are skipped.
    traps = index % 4 == 2
    nskipped = 1 + index // 4 % 2 if traps else 0
    kernels = []  # (name, loops, g, b) per launch, in launch order
    loops = 1 + index % 6  # fixed by the ladder step, so threads per call are too
    for i in range(nlaunch + nskipped):
        threads = max(1, round(target / nlaunch / (3 * loops)))
        g = rng.randint(1, min(8, threads))
        kernels.append((f"k{i}", loops, g, max(1, round(threads / g))))
    stepped = set()
    for i, (name, _, _, _) in enumerate(kernels):
        a, b = rng.randrange(len(tags)), rng.randrange(len(tags))
        stepped.add(a)
        src.add(f"__global__ void {name}( int n ) {{")
        src.add("  for( int r = 0; r < n; ++r ) {")
        src.add(f"    step< A{a} >();")
        src.add(f"    A{b}{{}}.call();")
        src.add("  }")
        src.add('  printf( "." );')
        src.add("}")
        src.add()
    if traps:
        a = rng.randrange(len(tags))
        stepped.add(a)
        src.add("__global__ void tk() {")
        src.add(f"  step< A{a} >();")
        src.add("  release_assert( false );")
        src.add("}")
        src.add()
        kernels.insert(nlaunch, ("tk", 0, rng.randint(1, 4), rng.randint(1, 4)))
    src.add("int main() {")
    out, notes = [], []
    calls = threads = launches = 0
    tripped = False
    for name, loops, g, b in kernels:
        if name == "tk":
            line = src.add(f"  tk<<< {g}, {b} >>>();")
        else:
            line = src.add(f"  {name}<<< {g}, {b} >>>( {loops} );")
        if tripped:
            notes.append(f"{src.path}:{line}:3: note[N0001]: {SKIP_NOTE}")
            continue
        launches += 1
        if name == "tk":
            # Thread 0 steps once, then traps and abandons the launch.
            tripped = True
            calls += 2
            threads += 1
        else:
            calls += g * b * 3 * loops
            threads += g * b
            out.append("." * (g * b))
    src.add("  return cudaDeviceSynchronize();")
    src.add("}")
    # The host instance of step< Dev-tagged > calls a device-only member.
    if any(tags[a] == "Dev" for a in stepped):
        src.diag(step_line, 3, "warning", "W1102", W1102)
    run = RunAnswer(207 if tripped else 0, "".join(out).encode(), notes,
                    calls, threads, launches)
    nkernels = len(kernels)
    return Unit(src.path, src.text(), "classic", len(tags) + nkernels + 2,
                src.expected(), run)


def _deep_chain(rng: random.Random, path: str, depth: int) -> Unit:
    src = _Src(path)
    value = rng.randint(0, 99)
    for i in range(depth):
        src.add(f"int c{i}() {{")
        src.add(f"  return c{i + 1}();" if i + 1 < depth else f"  return {value};")
        src.add("}")
    src.add("int main() {")
    src.add('  printf( "%d", c0() );')
    src.add("  return 0;")
    src.add("}")
    run = RunAnswer(0, str(value).encode(), [], depth, 0, 0, deep=True)
    return Unit(src.path, src.text(), "classic", depth + 1, [], run)


# --------------------------------------------------------------------------
# corpus: the reference files, answered by their own annotations


CORPUS_FILES = (
    "listing1.mcu", "listing10.mcu", "listing101.mcu", "listing101_dev.mcu",
    "listing102.mcu", "listing102_dev.mcu", "listing103.mcu", "listing104.mcu",
    "listing10_fidelity.mcu", "listing11.mcu", "listing11_nopragma.mcu",
    "listing13.mcu", "listing14.mcu", "listing15.mcu", "listing15_noflag.mcu",
    "listing18.mcu", "listing19.mcu", "listing19_strays.mcu",
    "listing1_strays.mcu", "listing2.mcu", "listing20.mcu",
    "listing20_strays.mcu", "listing5.mcu", "listing6.mcu", "listing7.mcu",
    "listing7_cuda9.mcu", "listing9.mcu", "problem_t.mcu", "problem_t_dev.mcu",
    "problem_t_dev_classic.mcu", "problem_t_dev_sound.mcu",
    "problem_t_direct.mcu",
)

# The files that run, with the calls and threads each run executes,
# counted by hand from the source.  Exit codes and stdout restate the
# files' own `//! expect-*` headers.
CORPUS_RUNS = {
    "listing101.mcu": RunAnswer(0, b"", [], 2, 0, 0),
    "listing15.mcu": RunAnswer(0, b"42", [], 1, 1, 1),
    "listing2.mcu": RunAnswer(0, b"." * 24, [], 24, 12, 1),
    "listing5.mcu": RunAnswer(0, b"", [], 2, 0, 0),
    "listing7.mcu": RunAnswer(207, b"", [], 1, 1, 1),
    "listing7_cuda9.mcu": RunAnswer(4, b"", [], 1, 1, 1),
    "problem_t.mcu": RunAnswer(3, b"", [], 2, 0, 0),
    "problem_t_dev.mcu": RunAnswer(101, b"", None, 1, 0, 0),  # UB halt; note text not pinned
}

_ANNOTATION = re.compile(r"//~(?:@\d+)?\s+(?:error|warning|note)\s+[EWN]\d{4}")
_FN_DEF = re.compile(r"\b([A-Za-z_]\w*)\s*\([^;{}()]*\)\s*\{")
_NOT_FN = frozenset({"if", "for", "while", "switch", "requires", "__host__", "__device__"})


def count_annotations(text: str) -> int:
    return len(_ANNOTATION.findall(text))


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def count_functions(text: str) -> int:
    """Function definitions: a name, a parameter list, then a body."""
    return sum(1 for m in _FN_DEF.finditer(_strip_comments(text))
               if m.group(1) not in _NOT_FN)


def corpus_unit(root, seed: int, index: int) -> Unit:
    """Index 0 is the first named file; the cycle is a seeded shuffle."""
    if index == 0:
        name = CORPUS_FILES[0]
    else:
        order = list(CORPUS_FILES)
        _rng("corpus", seed, 0).shuffle(order)
        name = order[index - 1]
    path = root / "corpus" / name
    text = path.read_text(encoding="utf-8")
    return Unit(str(path), text, "corpus", count_functions(text), [],
                CORPUS_RUNS.get(name), count_annotations(text))


GENERATORS = {"chain": gen_chain, "fanout": gen_fanout, "kernel": gen_kernel}
POOL_SIZES = {"chain": CHAIN_POOL, "fanout": FANOUT_POOL, "kernel": KERNEL_POOL,
              "corpus": len(CORPUS_FILES)}
WORKLOADS = tuple(POOL_SIZES)


def make_unit(workload: str, root, seed: int, index: int) -> Unit:
    """Unit `index` of the pool; index 0 is the set-up unit, not timed."""
    if workload == "corpus":
        return corpus_unit(root, seed, index)
    return GENERATORS[workload](seed, index)


def make_cycle(workload: str, root, seed: int) -> list:
    """The timed units: every unit of the pool once."""
    return [make_unit(workload, root, seed, i) for i in range(1, POOL_SIZES[workload] + 1)]
