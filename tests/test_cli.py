import errno
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from exspace import diagnostics
from exspace.cli import main
from exspace.diagnostics import (
    CODE_REGISTRY,
    MAX_SOURCE_BYTES,
    Diagnostic,
    SourceError,
    SrcLoc,
    format_diagnostic,
    read_source,
)

SRC = Path(__file__).resolve().parent.parent / "src"

PROBLEM_T = """struct H {
  __host__ int call() { return 3; }
};

struct D {
  __device__ int call() { return 2; }
};

template< typename T >
__host__ __device__
int wrap() {
  return T{}.call();
}

int main() {
  return wrap< H >();
}
"""

KERNEL = """__device__ void print() {
  printf( "." );
}
__global__ void kernel( int N ) {
  for( int n = 0; n < N; ++n ) {
    print();
  }
}
int main() {
  kernel<<< 4, 3 >>>( 2 );
  return cudaDeviceSynchronize();
}
"""


@pytest.fixture()
def problem_t(tmp_path):
    p = tmp_path / "problem_t.mcu"
    p.write_text(PROBLEM_T)
    return p


def test_check_warning_exits_zero(problem_t, capsys):
    rc = main(["check", "--mode=classic", str(problem_t)])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 1
    assert "warning[W1101]" in out[0]
    assert "is not allowed" in out[0]


def test_check_error_exits_one(problem_t, tmp_path, capsys):
    bad = tmp_path / "bad.mcu"
    bad.write_text(PROBLEM_T.replace("wrap< H >", "wrap< D >"))
    rc = main(["check", "--mode=sound", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "error[E1102]" in out


def test_check_unknown_flag_exits_two(problem_t, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bogus", str(problem_t)])
    assert exc.value.code == 2


def test_check_unreadable_file_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(tmp_path / "missing.mcu")])
    assert exc.value.code == 2


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 25: invalid start byte"


def _sparse(p):
    p.touch()
    os.truncate(p, MAX_SOURCE_BYTES + 1)  # no block is written


# Each source read_source refuses, and why.  None is /dev/zero, which a
# reader without a size bound would read until memory runs out.
_REFUSED = [
    pytest.param(os.mkfifo, "not a regular file", id="fifo"),
    pytest.param(lambda p: p.mkdir(), "not a regular file", id="directory"),
    pytest.param(lambda p: p.symlink_to(p.name), os.strerror(errno.ELOOP), id="symlink-loop"),
    pytest.param(lambda p: p.symlink_to("gone.mcu"), os.strerror(errno.ENOENT),
                 id="dangling-symlink"),
    pytest.param(lambda p: p.symlink_to(os.devnull), "not a regular file", id="device"),
    pytest.param(lambda p: p.write_bytes(b"int main() { return 0; }\n\xff\n"), _NOT_UTF8,
                 id="not-utf8"),
    pytest.param(_sparse, f"larger than {MAX_SOURCE_BYTES} bytes", id="over-budget"),
]


@pytest.mark.parametrize("command", ["check", "run"])
def test_a_source_that_is_not_utf8_is_unreadable(tmp_path, capsys, command):
    p = tmp_path / "latin.mcu"
    p.write_bytes(b"int main() { return 0; }\n\xff\n")
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"exspace: cannot read {p}: {_NOT_UTF8}\n")


def test_a_corpus_file_that_is_not_utf8_stops_the_corpus(tmp_path, capsys):
    p = tmp_path / "latin.mcu"
    p.write_bytes(b"int main() { return 0; }\n\xff\n")
    assert main(["corpus", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"exspace: cannot read {p}: {_NOT_UTF8}\n")


@pytest.mark.parametrize("make, reason", _REFUSED[1:4])  # a directory and two symlinks
def test_a_corpus_entry_that_cannot_be_read_stops_the_corpus(tmp_path, capsys, make, reason):
    p = tmp_path / "x.mcu"
    make(p)
    assert main(["corpus", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"exspace: cannot read {p}: {reason}\n")


@pytest.mark.parametrize("command", ["check", "run", "corpus"])
@pytest.mark.parametrize("make, reason", _REFUSED)
def test_every_command_refuses_a_source_in_one_form(tmp_path, capsys, make, reason, command):
    p = tmp_path / "x.mcu"
    make(p)
    target = str(tmp_path if command == "corpus" else p)
    if make is os.mkfifo:  # a reader that blocks on it fails here instead of hanging
        proc = _exspace(command, target, timeout=5)
        got = (proc.returncode, proc.stdout, proc.stderr)
    else:
        try:
            status = main([command, target])
        except SystemExit as e:
            status = e.code
        got = (status, *capsys.readouterr())
    assert got == (2, "", f"exspace: cannot read {p}: {reason}\n")


def test_a_source_over_the_budget_is_refused_before_any_of_it_is_read(tmp_path, monkeypatch):
    p = tmp_path / "x.mcu"
    _sparse(p)
    monkeypatch.setattr(diagnostics, "open", None, raising=False)  # a read raises TypeError
    with pytest.raises(SourceError):
        read_source(p)


def test_a_source_that_grows_past_the_budget_after_its_fstat_is_refused(tmp_path, monkeypatch):
    p = tmp_path / "x.mcu"
    _sparse(p)
    fstat = os.fstat  # the size it reports is the size before the growth, 0
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(fstat(fd)[:6] + (0, 0, 0, 0)))
    with pytest.raises(SourceError) as exc:
        read_source(p)
    assert str(exc.value) == f"cannot read {p}: larger than {MAX_SOURCE_BYTES} bytes"


def test_a_corpus_entry_that_expects_a_run_of_a_unit_without_main_fails(tmp_path, capsys):
    (tmp_path / "a.mcu").write_text("//! expect-exit: 0\n__host__ void f() {}\n")
    (tmp_path / "b.mcu").write_text("int main() { return 0; }\n")
    assert main(["corpus", str(tmp_path)]) == 1
    assert capsys.readouterr() == (
        f"FAIL {tmp_path / 'a.mcu'} (0 expectation(s) matched)\n"
        "     run: not run: the unit has no main function\n"
        f"ok   {tmp_path / 'b.mcu'} (0 expectation(s) matched)\n"
        "passed 1 / failed 1\n", "")


def test_flag_combination_validation(problem_t):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--profile=plain", "--relaxed-constexpr", str(problem_t)])
    assert exc.value.code == 2


def test_run_passes_program_exit_through(problem_t, capsys):
    rc = main(["run", str(problem_t)])
    assert rc == 3
    out = capsys.readouterr().out
    assert "W1101" in out  # the check phase still reports


@pytest.mark.parametrize("value, status", [
    ("357", 101), ("256", 0), ("1180591620717411303431", 7),  # 2**70 + 7
])
def test_run_exits_with_the_low_8_bits_of_mains_value(tmp_path, capsys, value, status):
    p = tmp_path / "exit.mcu"
    p.write_text(f"int main() {{ return {value}; }}\n")
    assert main(["run", str(p)]) == status
    assert capsys.readouterr() == ("", "")  # no note: not a halt


def test_run_prints_program_output(tmp_path, capsys):
    p = tmp_path / "kernel.mcu"
    p.write_text(KERNEL)
    rc = main(["run", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "." * 24


def test_run_refuses_errors_without_force(tmp_path, capsys):
    p = tmp_path / "bad.mcu"
    p.write_text("struct D { __device__ void call() {} };\nint main() { D{}.call(); return 0; }\n")
    rc = main(["run", str(p)])
    assert rc == 1
    rc = main(["run", "--force", str(p)])
    assert rc == 101


def test_run_without_main_exits_two(tmp_path, capsys):
    p = tmp_path / "nomain.mcu"
    p.write_text("void f() {}\n")
    assert main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "exspace: the unit has no main function\n")


def test_run_of_unbounded_recursion_prints_a_note_not_a_traceback(tmp_path, capsys):
    p = tmp_path / "rec.mcu"
    p.write_text("int f( int x ) { return f( x ); }\nint main() { return f( 1 ); }\n")
    assert main(["run", str(p)]) == 139
    captured = capsys.readouterr()
    assert captured.out == (f"{p}:2:5: note[N0002]: execution halted: "
                            "calls nest deeper than the interpreter's stack\n")
    assert "Traceback" not in captured.err


def test_a_member_constant_that_refers_to_itself_ends_in_a_diagnostic(tmp_path, capsys):
    p = tmp_path / "cycle.mcu"
    p.write_text("struct S { static constexpr bool a = S::a; };\n"
                 "int main() { if( S::a ) {} return 0; }\n")
    diag = f'{p}:1:34: error[E0105]: the value of "S::a" depends on itself'
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr() == (diag + "\n", "")
    assert main(["run", "--force", str(p)]) == 101
    assert capsys.readouterr() == (
        f"{diag}\n{p}:2:18: note[N0001]: execution halted on a stray call: "
        f'E0105 {p}:1:34: the value of "S::a" depends on itself\n', "")


def test_run_of_a_launch_over_the_thread_budget_halts_before_any_thread(tmp_path, capsys):
    p = tmp_path / "big.mcu"
    p.write_text('__global__ void k() { printf( "t" ); }\n'
                 'int main() {\n  printf( "a" );\n  k<<< 100000, 100000 >>>();\n'
                 '  return 0;\n}\n')
    start = time.perf_counter()
    assert main(["run", str(p)]) == 152
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == (f"a{p}:4:3: note[N0003]: execution halted: a launch of "
                            "10000000000 threads exceeds the budget of 1048576 threads "
                            "per launch\n")
    assert "Traceback" not in captured.err


def test_run_of_a_launch_over_the_output_budget_halts_before_the_replay(tmp_path, capsys):
    p = tmp_path / "wide.mcu"
    p.write_text(f'__global__ void k() {{ printf( "{"x" * 64}" ); }}\n'
                 'int main() {\n  printf( "a" );\n  k<<< 1024, 1024 >>>();\n'
                 '  return 0;\n}\n')
    assert main(["run", str(p)]) == 153
    captured = capsys.readouterr()
    assert captured.out == (f"a{p}:4:3: note[N0004]: execution halted: the output would "
                            "reach 67108865 bytes, over the budget of 16777216 bytes "
                            "per run\n")
    assert "Traceback" not in captured.err


def test_run_trap_exit_codes(tmp_path):
    p = tmp_path / "trap.mcu"
    p.write_text(
        "__global__ void k() { release_assert( false ); }\n"
        "int main() {\n  k<<< 1, 1 >>>();\n  return cudaDeviceSynchronize();\n}\n"
    )
    assert main(["run", str(p)]) == 207
    assert main(["run", "--cuda-version=9", str(p)]) == 4


def test_corpus_command(corpus_dir, capsys):
    rc = main(["corpus", str(corpus_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("failed 0")


def test_corpus_idempotence(corpus_dir, capsys):
    main(["corpus", str(corpus_dir)])
    first = capsys.readouterr().out
    main(["corpus", str(corpus_dir)])
    second = capsys.readouterr().out
    assert first == second


def test_corpus_empty_directory_exits_two(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == 2


def test_corpus_failure_reported(tmp_path, capsys):
    f = tmp_path / "broken.mcu"
    f.write_text("void f() { gone(); }\n")
    rc = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unexpected" in out
    assert "failed 1" in out


def test_corpus_prints_each_way_a_file_fails(tmp_path, capsys):
    # The expectation is on line 5 but not a warning; stdout is one byte short.
    f = tmp_path / "mixed.mcu"
    f.write_text(
        "//! force\n"
        "//! expect-stdout: ab\n"
        "struct D { __device__ void call() {} };\n"
        "void f() { D{}.call(); }\n"
        'int main() { printf( "a" ); D{}.call(); return 0; }  //~ warning E1001\n'
    )
    assert main(["corpus", str(tmp_path)]) == 1
    stray = "error[E1001]: calling a device function from a host function is not allowed"
    assert capsys.readouterr().out == (
        f"FAIL {f} (0 expectation(s) matched)\n"
        "     missing: line 5: warning[E1001]\n"
        f"     unexpected: 4:12: {stray}\n"
        f"     unexpected: 5:29: {stray}\n"
        "     run: stdout b'a', expected b'ab'\n"
        "passed 0 / failed 1\n"
    )


@pytest.mark.parametrize(
    "header, line, reason",
    [
        pytest.param("//! cuda-version: nine", 2, 'invalid value "nine" for //! cuda-version',
                     id="cuda-version"),
        pytest.param("//! mode: bogus", 2, 'invalid value "bogus" for //! mode', id="mode"),
        pytest.param("//! mode", 2, "//! mode needs a value", id="mode-without-value"),
        pytest.param("//! force: no", 2, "//! force takes no value", id="flag-with-value"),
        pytest.param("//! expect-exit: zero", 2, 'invalid value "zero" for //! expect-exit',
                     id="expect-exit"),
        pytest.param("//! colour: red", 2, "unknown corpus directive //! colour",
                     id="directive"),
        pytest.param("//! profile: plain\n//! relaxed-constexpr", 3,
                     "relaxed constexpr is an nvcc-only flag", id="profile"),
        pytest.param("//! profile: foo", 2, "unknown compiler 'foo'", id="compiler"),
    ],
)
def test_corpus_bad_header_exits_two(tmp_path, capsys, header, line, reason):
    f = tmp_path / "bad.mcu"
    f.write_text(f"int main() {{ return 0; }}\n{header}\n")
    assert main(["corpus", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"exspace: {f}:{line}: {reason}\n"
    assert captured.out == ""


# -- formatting ----------------------------------------------------------------


def test_machine_format_is_bit_exact():
    d = Diagnostic.make(
        "W1101",
        SrcLoc("problem_t.mcu", 12, 10),
        "calling a host function from a host device function is not allowed",
    )
    assert format_diagnostic(d) == (
        "problem_t.mcu:12:10: warning[W1101]: calling a host function "
        "from a host device function is not allowed"
    )


def test_suppressed_diagnostics_format_to_nothing():
    d = Diagnostic.make("N0001", SrcLoc("a.mcu", 1, 1), "note text")
    d.suppressed = True
    assert format_diagnostic(d) is None
    assert format_diagnostic(d, "human", source="x") is None


def test_human_format_adds_excerpt_and_caret():
    src = "line one\n  D{}.call();\n"
    d = Diagnostic.make("E1001", SrcLoc("a.mcu", 2, 3), "msg")
    text = format_diagnostic(d, "human", source=src)
    lines = text.splitlines()
    assert lines[0].endswith("msg")
    assert lines[1] == "  D{}.call();"
    assert lines[2] == "  ^"


@pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_human_excerpt_is_the_line_the_location_counts(tmp_path, capsys, separator):
    # Locations count lines at "\n" alone, so a comment holding another
    # line separator leaves the diagnostic's line where it is.
    p = tmp_path / "s.mcu"
    p.write_text(f"// a{separator}b\nint main() {{ return x; }}\n", encoding="utf-8")
    main(["check", "--emit=human", str(p)])
    out = capsys.readouterr().out.split("\n")
    assert out[0] == f'{p}:2:21: error[E0101]: undefined name "x"'
    assert out[1:3] == ["int main() { return x; }", " " * 20 + "^"]


_SEVERAL = """struct D { __device__ int call() { return 2; } };
int main() {
  D{}.call();
  gone();
  return x;
}
"""
_ONE = "__device__ void d() {}\nint main() {\n    d();\n  return 0;\n}\n"
_STRAY = "error[E1001]: calling a device function from a host function is not allowed"


def test_human_format_of_several_units_and_diagnostics(tmp_path, capsys, monkeypatch):
    # Each excerpt is its own unit's line, though a unit's source is split
    # once for all its diagnostics.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.mcu").write_text(_SEVERAL)
    (tmp_path / "b.mcu").write_text(_ONE)
    assert main(["check", "--emit=human", "a.mcu", "b.mcu"]) == 1
    several = [
        f"a.mcu:3:3: {_STRAY}", "  D{}.call();", "  ^",
        'a.mcu:4:3: error[E0101]: undefined name "gone"', "  gone();", "  ^",
        'a.mcu:5:10: error[E0101]: undefined name "x"', "  return x;", "         ^",
    ]
    one = [f"b.mcu:3:5: {_STRAY}", "    d();", "    ^"]
    assert capsys.readouterr().out.splitlines() == several + one
    assert main(["run", "--force", "--emit=human", "a.mcu"]) == 101
    assert capsys.readouterr().out.splitlines() == several + [
        'a.mcu:3:3: note[N0001]: execution halted on a stray call: '
        '"D::call" is not compiled for host code', "  D{}.call();", "  ^",
    ]


def test_emit_belongs_to_check_and_run_alone(tmp_path, capsys):
    (tmp_path / "a.mcu").write_text(_ONE)
    assert main(["check", "--emit=machine", str(tmp_path / "a.mcu")]) == 1
    assert main(["run", "--emit=machine", str(tmp_path / "a.mcu")]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--emit=human", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit=human" in capsys.readouterr().err


_MACHINE_RE = re.compile(
    r"^(?P<file>.+?):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<sev>error|warning|note)\[(?P<code>[EWN]\d{4})\]: (?P<msg>.*)$"
)


def test_machine_format_round_trips_for_every_code():
    for code, (severity, summary) in CODE_REGISTRY.items():
        d = Diagnostic.make(code, SrcLoc("unit.mcu", 3, 7), f"sample: {summary}")
        line = format_diagnostic(d)
        m = _MACHINE_RE.match(line)
        assert m, line
        assert m.group("file") == "unit.mcu"
        assert (int(m.group("line")), int(m.group("col"))) == (3, 7)
        assert m.group("sev") == severity.value
        assert m.group("code") == code
        assert m.group("msg") == f"sample: {summary}"


def test_color_env_toggle(problem_t, capsys, monkeypatch):
    monkeypatch.setenv("EXSPACE_COLOR", "1")
    main(["check", "--emit=human", str(problem_t)])
    colored = capsys.readouterr().out
    assert "\x1b[" in colored
    monkeypatch.setenv("EXSPACE_COLOR", "0")
    main(["check", "--emit=human", str(problem_t)])
    plain = capsys.readouterr().out
    assert "\x1b[" not in plain


def _exspace(*args, timeout=None) -> subprocess.CompletedProcess:
    """The CLI run in a child process, which finds the package under src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "exspace.cli", *args], capture_output=True,
                          text=True, encoding="utf-8", env={**os.environ, "PYTHONPATH": path},
                          timeout=timeout)


def test_importing_exspace_loads_neither_dataclasses_nor_inspect():
    # Its records are plain classes, so a start generates no code for them.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import exspace, exspace.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "k.mcu"
    p.write_text(KERNEL)
    proc = _exspace("run", str(p))
    assert proc.returncode == 0
    assert proc.stdout == "." * 24


_NOT_INTEGRAL = "the %d argument of printf must be integral"


@pytest.mark.parametrize(
    "statement, reason",
    [
        pytest.param('printf( "%d", hdc< S > );', _NOT_INTEGRAL, id="trait"),
        pytest.param('printf( "%d", f() );', _NOT_INTEGRAL, id="void"),
        pytest.param('printf( "%d", "x" );', _NOT_INTEGRAL, id="string"),
        pytest.param(
            'for( int i = 0; i < S{}; ++i ) { printf( "." ); }',
            "the start and bound of a for loop must be integral",
            id="loop",
        ),
    ],
)
def test_run_halts_on_a_non_integral_value(tmp_path, capsys, statement, reason):
    p = tmp_path / "value.mcu"
    p.write_text(f"struct S {{}};\nvoid f() {{}}\nint main() {{\n  {statement}\n  return 0;\n}}\n")
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["run", str(p)]) == 101
    out = capsys.readouterr().out
    assert out == f"{p}:4:3: note[N0001]: execution halted on a stray call: {reason}\n"


@pytest.mark.parametrize(
    "literal, col, message",
    [
        pytest.param("1\u00b2", 19, "unexpected character '\u00b2'", id="superscript"),
        pytest.param("9" * 5000, 18, "integer literal is too long", id="5000-digits"),
        pytest.param("(" * 3000 + "1" + ")" * 3000, 81, "nesting exceeds 64 levels",
                     id="3000-parens"),
    ],
)
def test_check_reports_a_bad_literal_without_a_traceback(tmp_path, literal, col, message):
    p = tmp_path / "lit.mcu"
    p.write_text(f"int f() {{ return {literal}; }}\n", encoding="utf-8")
    proc = _exspace("check", str(p))
    assert proc.returncode == 1
    assert proc.stdout == f"{p}:1:{col}: error[E0001]: {message}\n"
    assert proc.stderr == ""
