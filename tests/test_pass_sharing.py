"""The front end runs once per unit and once per item, not once per pass.

A unit is lexed once; each pass parses only the top-level items whose
tokens differ from an earlier pass's, and passes that share every item
share one AST, one symbol table and one walk.  Walks over tables of their
own share the calls they resolve, unless a table read answers
differently.  The Analysis keeps a record of each walk's instances, not
the walk, so every walk dies by reference count when analyze returns.
The trace test runs the front end under the benchmark's own tracer, so a
change that hides an entry point from it, or runs a stage more often than
that, fails here as well as in the benchmark.
"""
import gc
import os
import subprocess
import sys
import weakref
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import exspace.corpus  # noqa: F401  (run_corpus_file is a traced entry point)
from exspace import spacecheck
from exspace.corpus import parse_header
from exspace.interp import UB_EXIT, run_program
from exspace.sema import DEVICE, HOST
from exspace.spacecheck import Mode, analyze
from exspace.syntax import nodes as n
from exspace.syntax import parser
from exspace.syntax.preprocess import DEVICE_PASS, HOST_PASS, CompileProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import equivalence  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

SHARED = """struct S { __host__ __device__ int f() { return 1; } };
__host__ __device__ int g() { return S{}.f(); }
int main() { return g(); }
"""

SPLIT = """struct S { __host__ __device__ int f() { return 1; } };
__host__ __device__ int g() {
#ifdef __CUDA_ARCH__
  return 2;
#else
  return S{}.f();
#endif
}
int main() { return g(); }
"""


def test_passes_with_one_text_share_one_front_end():
    shared = analyze(SHARED)
    host, device = shared.passes[HOST_PASS], shared.passes[DEVICE_PASS]
    assert host.ast is device.ast
    assert host.table is device.table
    assert shared.walks[HOST] is shared.walks[DEVICE]
    split = analyze(SPLIT)
    host, device = split.passes[HOST_PASS], split.passes[DEVICE_PASS]
    assert host.ast is not device.ast
    assert host.table is not device.table
    assert split.walks[HOST] is not split.walks[DEVICE]
    assert shared.diagnostics == split.diagnostics == []


# t< int > is reached from device code only.  Its host instance, which only
# the nvcc instantiation makes, calls h< int > legally; its device instance
# calls it as a stray.
ONE_SIDED = """__device__ int dev() { return 0; }
template< typename T > __host__ int h() { return dev(); }
template< typename T > __host__ __device__ int t() { return h< T >(); }
__global__ void k() { t< int >(); }
int main() { k<<< 1, 1 >>>(); return 0; }
"""
_NVCC_VERDICTS = [("E1001", 2, 50), ("W1101", 3, 61)]
_VERDICTS = {
    Mode.CLASSIC: _NVCC_VERDICTS,
    Mode.FIDELITY: _NVCC_VERDICTS,
    Mode.PROPOSAL1: _NVCC_VERDICTS,
    Mode.SOUND: [("E1001", 2, 50), ("E1101", 3, 61)],
    Mode.PROPOSAL2: [("E1501", 2, 50), ("E1501", 3, 61)],
}


@pytest.mark.parametrize("mode", list(_VERDICTS), ids=lambda m: m.value)
def test_a_template_one_side_reaches_in_a_shared_walk(mode):
    analysis = analyze(ONE_SIDED, "o.mcu", mode=mode)
    assert analysis.walks[HOST] is analysis.walks[DEVICE]
    assert [(d.code, d.loc.line, d.loc.col) for d in analysis.all_diagnostics] == _VERDICTS[mode]
    result = run_program(analysis)
    assert (result.exit_code, result.stdout) == (UB_EXIT, b"")
    assert [(d.code, d.loc.line, d.loc.col) for d in result.notes] == [("N0001", 3, 61)]


def test_fidelity_shows_nothing_of_an_instance_only_the_host_pass_makes():
    # Under relaxed constexpr, only t< int >'s host instance, which only the
    # host pass's nvcc instantiation makes, calls dc on the host side, where
    # dc's call of dev is a stray that the FIDELITY host compiler cannot see.
    text = """__device__ int dev() { return 0; }
__device__ constexpr int dc() { return dev(); }
template< typename T > __host__ __device__ int t() { return dc(); }
__global__ void k() { t< int >(); }
int main() { k<<< 1, 1 >>>(); return 0; }
"""
    relaxed = CompileProfile(relaxed_constexpr=True)
    classic = analyze(text, "f.mcu", relaxed)
    assert [(d.code, d.loc.line, d.loc.col) for d in classic.all_diagnostics] == [
        ("E1001", 2, 40)
    ]
    assert analyze(text, "f.mcu", relaxed, Mode.FIDELITY).all_diagnostics == []


def test_a_shared_text_reports_each_front_end_error_once(monkeypatch):
    raw = []
    finish = spacecheck.finish_diagnostics
    monkeypatch.setattr(spacecheck, "finish_diagnostics",
                        lambda diags: raw.extend(diags) or finish(diags))
    analyze("void f() {}\nvoid f() {}\nint main() { return 0; }\n")
    assert [d.code for d in raw] == ["E0102"]
    raw.clear()
    # Both passes fail alike, each reports it, and the output keeps one.
    analysis = analyze("int main() { return ( ; }\n")
    assert [(d.code, d.loc.line, d.loc.col) for d in analysis.diagnostics] == [("E0001", 1, 23)]
    assert len(raw) == 2 and all(d == analysis.diagnostics[0] for d in raw)


def test_trace_sees_one_front_end_per_distinct_pass_text():
    t = tracer.Tracer()
    assert t.present == set(tracer.ENTRY_POINTS)  # no layer metric goes absent
    counts = {}
    for name, text in (("shared", SHARED), ("split", SPLIT)):
        t.reset()
        t.install()
        try:
            spacecheck.analyze(text)
        finally:
            t.uninstall()
        counts[name] = Counter(span[0] for span in t.spans)
    # One lex per unit, one parse per pass (which reuses the items an earlier
    # pass parsed from the same tokens), one resolve per distinct AST.
    for stage, shared, split in (("tokenize", 1, 1), ("parse", 2, 2), ("resolve", 1, 2)):
        assert (counts["shared"][stage], counts["split"][stage]) == (shared, split), stage
    assert counts["shared"]["preprocess"] == counts["split"]["preprocess"] == 2
    assert counts["shared"]["analyze"] == counts["split"]["analyze"] == 1


def _raw_diagnostics(monkeypatch) -> list:
    """The diagnostics analyze() collects, before deduplication."""
    raw = []
    finish = spacecheck.finish_diagnostics
    monkeypatch.setattr(spacecheck, "finish_diagnostics",
                        lambda diags: raw.extend(diags) or finish(diags))
    return raw


def test_an_item_is_parsed_once_unless_its_tokens_differ(monkeypatch):
    parsed = []
    parse_item = parser._Parser.parse_item
    monkeypatch.setattr(parser._Parser, "parse_item",
                        lambda self: parsed.append(self.lines.loc(self.positions[self.i]).line)
                        or parse_item(self))
    split = analyze(SPLIT)
    host, device = split.passes[HOST_PASS].ast, split.passes[DEVICE_PASS].ast
    # The host pass parses all three items; the device pass only g, whose
    # body differs.
    assert parsed == [1, 2, 9, 2]
    assert [a is b for a, b in zip(host.items, device.items)] == [True, False, True]
    assert host is not device


def test_a_pass_with_the_earlier_token_list_checks_no_item(monkeypatch):
    checked = []
    reuse = parser.ParsedItems.reuse
    monkeypatch.setattr(parser.ParsedItems, "reuse",
                        lambda self, toks, at: checked.append(at) or reuse(self, toks, at))
    shared = analyze(SHARED)
    assert shared.passes[HOST_PASS].ast is shared.passes[DEVICE_PASS].ast
    # The first pass looks for each of its three items; the second pass
    # keeps every token, so it gets the first pass's Ast at once.
    assert len(checked) == len(shared.passes[HOST_PASS].ast.items) == 3


# Each line is kept by one pass only, which reports the E0001 that lexing its
# pass text on its own gives.
_BAD_LINES = [
    ("  return 1 @ 2;", 12, "unexpected character '@'"),
    ("#pragma", 1, "malformed #pragma directive"),
    ('  printf( "a );', 11, "unterminated string literal"),
]


@pytest.mark.parametrize("line, col, message", _BAD_LINES)
@pytest.mark.parametrize("bad_pass", [DEVICE_PASS, HOST_PASS])
def test_a_lex_error_fails_only_the_passes_that_keep_its_line(
        monkeypatch, bad_pass, line, col, message):
    device_line, host_line = (line, "  return 2;") if bad_pass == DEVICE_PASS \
        else ("  return 2;", line)
    text = ("__host__ __device__ int g() {\n#ifdef __CUDA_ARCH__\n"
            f"{device_line}\n#else\n{host_line}\n#endif\n  return 1;\n}}\n"
            "int main() { return g(); }\n")
    raw = _raw_diagnostics(monkeypatch)
    analysis = analyze(text, "l.mcu")
    bad_line = 3 if bad_pass == DEVICE_PASS else 5
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in raw] == [
        ("E0001", bad_line, col, message)
    ]
    good_pass = HOST_PASS if bad_pass == DEVICE_PASS else DEVICE_PASS
    assert list(analysis.passes) == [good_pass]


def test_a_lex_error_both_passes_keep_is_reported_once(monkeypatch):
    raw = _raw_diagnostics(monkeypatch)
    analysis = analyze("int main() {\n#ifdef __CUDA_ARCH__\n#endif\n  return 1 @ 2;\n}\n")
    assert [(d.code, d.loc.line, d.loc.col) for d in analysis.diagnostics] == [("E0001", 4, 12)]
    assert len(raw) == 2 and all(d == analysis.diagnostics[0] for d in raw)
    assert analysis.passes == {}


def test_a_lex_error_comes_before_an_earlier_parse_error():
    # As when each pass text was lexed before it was parsed.
    analysis = analyze("int main() { return ( ; }\nint f() { return 1 @ 2; }\n")
    assert [(d.loc.line, d.loc.col, d.message) for d in analysis.diagnostics] == [
        (2, 20, "unexpected character '@'")
    ]


@pytest.mark.parametrize("directive", ["#ifdef", "#ifndef"])
@pytest.mark.parametrize("tail, line, col", [
    ("#endif", 5, 1),  # the last line is a directive, which both passes blank
    ("#endif\n  ", 6, 3),  # both passes keep the last line
])
def test_end_of_input_keeps_its_location_in_the_pass_that_reaches_it(
        directive, tail, line, col):
    # Only one pass keeps the line that closes f; the other reaches the end
    # of input inside f's body, where the prepared text ends elsewhere.
    text = f"int main() {{ return 0; }}\nvoid f() {{\n{directive} __CUDA_ARCH__\n}}\n{tail}"
    analysis = analyze(text, "e.mcu")
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in analysis.diagnostics] == [
        ("E0001", line, col, "expected an expression, found 'end of input'")
    ]
    assert list(analysis.passes) == [DEVICE_PASS if directive == "#ifdef" else HOST_PASS]


def test_resolve_writes_a_shared_struct_the_same_in_both_passes(monkeypatch):
    text = """struct S {
  __host__ __device__ int f() { return 1; }
  __host__ __device__ int f() { return 2; }
};
__host__ __device__ int g() {
#ifdef __CUDA_ARCH__
  return 2;
#else
  return S{}.f();
#endif
}
int main() { return g(); }
"""
    raw = _raw_diagnostics(monkeypatch)
    analysis = analyze(text, "d.mcu")
    host, device = analysis.passes[HOST_PASS], analysis.passes[DEVICE_PASS]
    struct = host.ast.items[0]
    assert device.ast.items[0] is struct and host.table is not device.table
    # Each pass reports the E0102, which the unit's output shows once.
    assert [(d.code, d.loc.line) for d in raw] == [("E0102", 3)] * 2
    assert [(d.code, d.loc.line) for d in analysis.all_diagnostics] == [("E0102", 3)]
    members = [id(m) for m in struct.declared]
    assert [host.table.keys[k] for k in members] == [device.table.keys[k] for k in members]
    assert struct.members == struct.declared[:1]
    assert run_program(analysis).exit_code == 1


def test_a_struct_kept_in_one_pass_and_dropped_in_the_other():
    # The second S is the host pass's only S and a duplicate in the device
    # pass, where its member f has no owner, like every member of a dropped
    # struct.
    text = ("#ifdef __CUDA_ARCH__\nstruct S { __host__ __device__ int f() { return 1; } };\n"
            "#endif\nstruct S { __host__ __device__ int f() { return 2; } };\n"
            "int main() { return S{}.f(); }\n")
    assert [(d.code, d.loc.line) for d in analyze(text, "s.mcu").diagnostics] == [("E0102", 4)]
    sound = analyze(text, "s.mcu", mode=spacecheck.Mode.SOUND)
    assert [d.message for d in sound.diagnostics][1:] == [
        'the instantiation of "f" must not depend on whether __CUDA_ARCH__ is defined'
    ]
    host, device = (sound.passes[p].ast.items[-2] for p in (HOST_PASS, DEVICE_PASS))
    assert [m.owner for m in host.members] == ["S"]
    assert [m.owner for m in device.members] == [None]
    assert run_program(sound).exit_code == 2


_DIFFERING_UNIT = """struct A {};
int main() { return 0; }
static_assert( true );
#ifdef __CUDA_ARCH__
struct B { static constexpr HDC hdc = HDC::Dev; };
__device__ void only_device() {}
#else
struct B {};
#endif
"""


def test_the_names_two_tables_answer_differently():
    analysis = analyze(_DIFFERING_UNIT)
    host, device = analysis.passes[HOST_PASS].table, analysis.passes[DEVICE_PASS].table
    # A and main are one node in both tables; B is parsed anew in each pass.
    assert host.struct("A") is device.struct("A")
    assert host.overloads("main")[0] is device.overloads("main")[0]
    assert spacecheck._differing([host, device]) == ({"B"}, {"only_device"})
    assert spacecheck._differing([host, host]) == (set(), set())
    assert spacecheck._differing([host]) == (set(), set())


def test_a_call_is_resolved_once_per_analyze_unless_a_read_differs(monkeypatch, walks):
    # A fanout unit's pass texts always differ, so each pass has a table
    # and a walk of its own; most calls are the same in both, and the walks
    # share one call memo.
    unit = gen.make_unit("fanout", ROOT, 1, 1)
    resolved = []  # the table of each overload resolution
    resolve_overload = spacecheck.resolve_overload

    def counting(*args, **kwargs):
        resolved.append(kwargs["table"])
        return resolve_overload(*args, **kwargs)

    memoized = []  # (walk, the entries made, the entries they replaced) per call resolved
    resolve_call = spacecheck._Walk._resolve_call

    def noting(walk, *args):
        before, count = dict(walk.calls), len(resolved)
        resolve_call(walk, *args)
        if len(resolved) > count:
            made = [k for k, v in walk.calls.items() if before.get(k) is not v]
            memoized.append((walk, made, [before[k] for k in made if k in before]))

    monkeypatch.setattr(spacecheck, "resolve_overload", counting)
    monkeypatch.setattr(spacecheck._Walk, "_resolve_call", noting)
    analyze(unit.text, unit.path, CompileProfile(), Mode(unit.mode))
    host, device = walks[HOST], walks[DEVICE]
    assert host is not device and host.table is not device.table
    assert host.calls is device.calls
    # The device walk reuses most of the host walk's calls.
    on_device = sum(table is device.table for table in resolved)
    assert on_device < len(resolved) / 4
    # It resolves each launch, which stays per site, and otherwise only calls
    # the memo lacks, or holds from a resolution that read a name the
    # device table answers differently.
    launches = sum(isinstance(x, n.LaunchStmt) for inst in device.instances.values()
                   if inst.decl.body is not None for x in n.walk(inst.decl.body))
    assert all(len(made) == 1 for _, made, _ in memoized)  # no call failed
    assert on_device == launches + sum(walk is device for walk, _, _ in memoized)
    assert all(table is host.table and touched
               for _, _, replaced in memoized for _, table, touched in replaced)


def test_shared_calls_check_and_run_as_calls_of_each_walk_alone(monkeypatch):
    # Split units, whose pass texts differ, and the one-sided units: their
    # outputs with one call memo per analyze equal those with one per walk,
    # which never reuses a resolution over another table.
    units = list(islice(equivalence.split_inputs(), 40))
    units += list(equivalence.one_sided_inputs())

    def outputs():
        return [block for _, path, text, profile in units
                for block in equivalence.outputs(path, text, profile)]

    shared = outputs()
    init = spacecheck._Walk.__init__

    def own_memo(walk, *args):
        init(walk, *args)
        walk.calls = {}

    monkeypatch.setattr(spacecheck._Walk, "__init__", own_memo)
    assert outputs() == shared


def test_the_split_and_one_sided_groups_keep_their_digests():
    # The groups where walks over tables of their own reuse memo entries
    # across tables; tests/equivalence.py --expect checks all three sets.
    assert equivalence.digest(equivalence.split_inputs()) == (
        equivalence.DIGESTS[1], {"split": 3000})
    assert equivalence.digest(equivalence.one_sided_inputs()) == (
        equivalence.DIGESTS[2], {"one-sided": 130})


# Prints the digests of the one-sided group and of the split group's 300 units.
_SEEDED_DIGESTS = ("import sys; from itertools import islice; sys.path.insert(0, {!r}); "
                   "import equivalence as e; print(e.digest(e.one_sided_inputs())[0], "
                   "e.digest(islice(e.split_inputs(), 300))[0])")


def test_the_digests_do_not_depend_on_the_hash_seed():
    # The order of a set or dict of strings follows PYTHONHASHSEED; no output may.
    probe = _SEEDED_DIGESTS.format(str(ROOT / "tests"))
    runs = [subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "4242")]
    (zero, _), (other, _) = (run.communicate(timeout=60) for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert zero == other
    assert zero.split()[0] == equivalence.DIGESTS[2]


# A member constant that needs its own value is E0105 where a requires
# clause reads it, and silent where nothing does; either way the candidate's
# env holds the error.
_SELF_MEMBER = ("struct S { static constexpr bool a = S::a; "
                "template< HDC h = HDC::Hst > %s__host__ __device__ void f() {} }; "
                "int main() { S{}.f(); return 0; }")


def _units_of_every_kind(corpus_dir):
    """(text, path, profile, mode): the first nine units of three pools,
    every corpus file in every mode, and the self-reading member constants."""
    for workload in ("chain", "fanout", "kernel"):
        for index in range(9):
            unit = gen.make_unit(workload, ROOT, 1, index)
            yield unit.text, unit.path, CompileProfile(), Mode(unit.mode)
    for path in sorted(corpus_dir.glob("*.mcu")):
        text = path.read_text(encoding="utf-8")
        for mode in Mode:
            profile = parse_header(text, mode, CompileProfile(), path.name).profile
            yield text, path.name, profile, mode
    for requires in ("requires( a ) ", ""):
        yield _SELF_MEMBER % requires, "e.mcu", CompileProfile(), Mode.CLASSIC


def test_analyze_keeps_no_walk(monkeypatch, corpus_dir):
    # With the collector off, a walk that anything the Analysis holds
    # reached, or that a cycle of its own kept, would outlive analyze.
    made = []
    run = spacecheck._Walk.run

    def recording(walk):
        made.append(weakref.ref(walk))
        run(walk)

    monkeypatch.setattr(spacecheck._Walk, "run", recording)
    codes = []
    gc.disable()
    try:
        for text, path, profile, mode in _units_of_every_kind(corpus_dir):
            del made[:]
            analysis = analyze(text, path, profile, mode)
            assert [ref() for ref in made] == [None] * len(made), (path, mode)
            assert not any(isinstance(w, spacecheck._Walk) for w in analysis.walks.values())
            codes.append([d.code for d in analysis.all_diagnostics])
    finally:
        gc.enable()
    assert codes[-2:] == [["E0105"], []]
    assert len(codes) == 27 + 5 * len(list(corpus_dir.glob("*.mcu"))) + 2
