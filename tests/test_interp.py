import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from exspace import interp
from exspace.corpus import parse_header
from exspace.diagnostics import format_diagnostic
from exspace.interp import (
    ABORT_EXIT,
    BUDGET_EXIT,
    MAX_OUTPUT_BYTES,
    OUTPUT_EXIT,
    STACK_EXIT,
    UB_EXIT,
    Machine,
    RunResult,
    device_synchronize,
    run_program,
)
from exspace.spacecheck import Mode, analyze
from exspace.syntax.preprocess import CompileProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402

NVCC = CompileProfile()


def run(src, profile=NVCC, mode=Mode.CLASSIC, path="r.mcu"):
    return run_program(analyze(src, path, profile, mode))


KERNEL_SRC = """__device__ void print() {
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


def test_kernel_prints_one_dot_per_thread_iteration():
    result = run(KERNEL_SRC)
    assert result.stdout == b"." * 24
    assert result.exit_code == 0
    assert not result.ub_halt


def test_output_length_scales_with_grid_block_and_count():
    for grid in range(1, 5):
        for block in range(1, 5):
            for count in range(1, 5):
                src = KERNEL_SRC.replace("<<< 4, 3 >>>( 2 )",
                                         f"<<< {grid}, {block} >>>( {count} )")
                result = run(src)
                assert len(result.stdout) == grid * block * count


def test_return_value_of_main_is_the_exit_code():
    src = """struct H {
  __host__ int call() { return 3; }
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
    assert run(src).exit_code == 3


def test_fall_off_main_exits_zero():
    assert run("int main() { }").exit_code == 0


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_a_dropped_duplicate_structs_member_main_is_not_main(mode):
    # The dropped struct's members keep no owner, yet S::main is no main.
    src = """int main() { return 3; }
struct S { int main() { return 7; } };
struct S { int main() { return 9; } };
"""
    assert run(src, mode=mode).exit_code == 3


def test_dynamic_stray_call_is_a_ub_halt_never_a_value():
    src = """struct D {
  __device__ int call() { return 2; }
};
template< typename T >
__host__ __device__
int wrap() {
  return T{}.call();
}
int main() {
  return wrap< D >();
}
"""
    result = run(src, mode=Mode.FIDELITY)
    assert result.ub_halt
    assert result.exit_code == UB_EXIT
    assert result.exit_code != 1  # the observed hardware value is not replicated
    assert result.notes and result.notes[0].code == "N0001"


def test_run_result_invariant():
    with pytest.raises(ValueError):
        RunResult(0, b"", True, [])


TRAP_SRC = """struct S {
  __host__ __device__
  static void value() {
    release_assert( !cuda_arch );
  }
};

template< typename T >
__global__
void kernel( T t ) { t.value(); }

int main() {
  kernel<<< 1, 1 >>>( S{} );
  return cudaDeviceSynchronize();
}
"""


def test_trap_error_code_depends_on_cuda_version():
    assert run(TRAP_SRC, CompileProfile(cuda_version=12)).exit_code == 207
    assert run(TRAP_SRC, CompileProfile(cuda_version=11)).exit_code == 207
    assert run(TRAP_SRC, CompileProfile(cuda_version=10)).exit_code == 207
    assert run(TRAP_SRC, CompileProfile(cuda_version=9)).exit_code == 4


# Hand-traced oracle for two launches where the first traps:
#   launch 1: thread 0 prints "x" then traps -> sticky 207, threads 1..5 never run
#   launch 2: skipped because the error state is set -> output unchanged, one note
#   sync: returns 207
_TWO_LAUNCH = """__global__ void bad() {
  printf( "x" );
  release_assert( false );
}
__global__ void good() {
  printf( "." );
}
int main() {
  bad<<< 2, 3 >>>();
  good<<< 2, 2 >>>();
  return cudaDeviceSynchronize();
}
"""


def test_trap_abandons_threads_and_skips_later_launches():
    result = run(_TWO_LAUNCH)
    assert result.stdout == b"x"
    assert result.exit_code == 207
    skipped = [d for d in result.notes if "skipped" in d.message]
    assert len(skipped) == 1
    assert "207" in skipped[0].message


def test_empty_kernel_leaves_no_trace():
    src = """__global__ void k() {}
int main() {
  k<<< 1, 1 >>>();
  return cudaDeviceSynchronize();
}
"""
    result = run(src)
    assert result.stdout == b""
    assert result.exit_code == 0


def test_sticky_error_latches():
    m = Machine()
    assert device_synchronize(m) == 0
    m.sticky_error = 207
    assert device_synchronize(m) == 207
    assert device_synchronize(m) == 207


def test_release_assert_true_is_a_no_op():
    src = """int main() {
  release_assert( true );
  return 7;
}
"""
    assert run(src).exit_code == 7


def test_release_assert_false_on_host_aborts():
    src = """int main() {
  release_assert( false );
  return 7;
}
"""
    result = run(src)
    assert result.exit_code == ABORT_EXIT
    assert not result.ub_halt


def test_sync_without_trap_returns_zero():
    src = "int main() { return cudaDeviceSynchronize(); }"
    assert run(src).exit_code == 0


def test_hd_bodies_execute_per_side_variants():
    src = """__host__ __device__
int side_tag() {
  #ifdef __CUDA_ARCH__
  return 1;
  #else
  return 2;
  #endif
}
__global__ void k() {
  printf( "%d", side_tag() );
}
int main() {
  k<<< 1, 1 >>>();
  printf( "%d", side_tag() );
  return 0;
}
"""
    result = run(src, mode=Mode.SOUND)
    assert result.stdout == b"12"


def test_threads_run_in_ascending_order():
    src = """__global__ void k( int N ) {
  printf( "a" );
  printf( "b" );
}
int main() {
  k<<< 1, 3 >>>( 0 );
  return 0;
}
"""
    assert run(src).stdout == b"ababab"


def test_relaxed_constexpr_program_prints_value():
    src = """struct S {
  constexpr static int value() {
    return 42;
  }
};
template< typename T >
__global__
void kernel( T t ) {
    printf( "%d", t.value() );
}
int main() {
  kernel<<< 1, 1 >>>( S{} );
  return cudaDeviceSynchronize();
}
"""
    result = run(src, CompileProfile(relaxed_constexpr=True))
    assert result.stdout == b"42"
    assert result.exit_code == 0


def test_propagation_mode_program_runs():
    src = """struct S { void call() {} };
template< typename T >
void wrap() {
  T{}.call();
}
__global__ void kernel() {
  wrap< S >();
}
int main() {
  kernel<<< 1, 1 >>>();
  wrap< S >();
  return cudaDeviceSynchronize();
}
"""
    result = run(src, mode=Mode.PROPOSAL2)
    assert result.exit_code == 0


def test_run_without_main_raises():
    analysis = analyze("void f() {}", "n.mcu")
    with pytest.raises(ValueError):
        run_program(analysis)


def test_determinism_byte_identical():
    first = run(_TWO_LAUNCH)
    second = run(_TWO_LAUNCH)
    assert first.stdout == second.stdout
    assert first.exit_code == second.exit_code
    assert [d.message for d in first.notes] == [d.message for d in second.notes]


def test_launch_of_a_kernel_instance_only_the_host_pass_has_halts():
    # The device pass never sees main, so it never instantiates k<S>; nvcc
    # would not compile that kernel for the device either.
    src = """struct S {
  static constexpr HDC hdc = HDC::HstDev;
};
template< typename T >
__global__
void k( T t ) {
  printf( "x" );
}
#ifndef __CUDA_ARCH__
int main() {
  k< S ><<< 1, 2 >>>( S{} );
  return cudaDeviceSynchronize();
}
#endif
"""
    analysis = analyze(src, "h.mcu", NVCC, Mode.CLASSIC)
    assert not analysis.all_diagnostics
    result = run_program(analysis)
    assert result.ub_halt
    assert result.exit_code == UB_EXIT
    assert result.stdout == b""
    assert [(d.code, d.loc.line) for d in result.notes] == [("N0001", 11)]


COMPILE_TIME_SRC = """struct S {
  static constexpr HDC hdc = HDC::HstDev;
  static constexpr int n = 3;
  __host__ __device__ void call() {}
};

template< typename T, HDC P = HDC::HstDev >
__host__ __device__
void show() {
  T t;
  T{}.call();
  if( hdc< T > == HDC::HstDev ) { printf( "a" ); }
  if( T::hdc == HDC::HstDev ) { printf( "b" ); }
  if( P == HDC::HstDev ) { printf( "c" ); }
  printf( "%d", T::n );
}

template< typename T >
__global__
void kernel() {
  S x;
  show< T >();
}

int main() {
  kernel< S ><<< 1, 2 >>>();
  show< S >();
  return cudaDeviceSynchronize();
}
"""


def test_compile_time_expressions_run_on_host_and_device():
    result = run(COMPILE_TIME_SRC)
    assert result.stdout == b"abc3abc3abc3"  # two kernel threads, then the host call
    assert result.exit_code == 0
    assert not result.notes


@pytest.mark.parametrize(
    "statement, reason",
    [
        pytest.param(
            "if( T::missing == 1 ) {}", '"S" has no member "missing"', id="member"
        ),
        pytest.param(
            "Q{};", 'unresolvable type: E0101 f.mcu:7:3: undefined type "Q"', id="type"
        ),
        pytest.param(
            'if( R< ( "x" ) >::n == 1 ) {}', "a string literal is not a constant expression",
            id="string",
        ),
        pytest.param(
            "R< ( g< T >() ) >{};", "unresolvable type: not a constant expression", id="call"
        ),
    ],
)
def test_forced_run_halts_on_a_compile_time_failure(statement, reason):
    src = f"""struct S {{}}; template< HDC H > struct R {{ static constexpr int n = 1; }};
template< typename T >
void g() {{
  printf( "a" );
  T x;
  printf( "%d", hdc< T > == HDC::Hst );
  {statement}
}}
int main() {{
  g< S >();
  return 0;
}}
"""
    analysis = analyze(src, "f.mcu")
    assert [(d.code, d.loc.line) for d in analysis.diagnostics] == [("E0101", 7)]
    result = run_program(analysis)
    assert result.stdout == b"a1"
    assert result.exit_code == UB_EXIT
    assert [(d.code, d.loc.line) for d in result.notes] == [("N0001", 7)]
    assert result.notes[0].message == f"execution halted on a stray call: {reason}"


@pytest.mark.parametrize(
    "src, message, reason",
    [
        pytest.param(
            """template< HDC h >
void f() {
  if( hdc< h > == HDC::Hst ) {}
}
int main() {
  f< HDC::Hst >();
  return 0;
}
""",
            '"h" does not name a type here',
            "unresolvable type: h does not name a type",
            id="hdc-parameter",
        ),
        pytest.param(
            """int main() {
  if( hdc< void > == HDC::Hst ) {}
  return 0;
}
""",
            '"void" has no compatibility value',
            '"void" has no compatibility value',
            id="void",
        ),
    ],
)
def test_check_rejects_the_hdc_trait_where_a_forced_run_halts(src, message, reason):
    analysis = analyze(src, "h.mcu")
    assert [(d.code, d.message) for d in analysis.diagnostics] == [("E0101", message)]
    result = run_program(analysis)
    assert result.exit_code == UB_EXIT
    assert [d.message for d in result.notes] == [f"execution halted on a stray call: {reason}"]
    assert result.notes[0].loc == analysis.diagnostics[0].loc


@pytest.mark.parametrize(
    "src, profile, stdout, reason",
    [
        pytest.param(
            "int main() {\n  __trap();\n  return 0;\n}\n",
            NVCC, b"", '"__trap" is not available in host code', id="trap-on-host",
        ),
        pytest.param(
            """__device__ void d() {
  abort();
}
__global__ void k() {
  d();
}
int main() {
  k<<< 1, 1 >>>();
  return 0;
}
""",
            NVCC, b"", '"abort" is not available in device code', id="abort-on-device",
        ),
        pytest.param(
            "int main() {\n  return cudaDeviceSynchronize();\n}\n",
            CompileProfile(compiler="plain"), b"",
            'undefined name "cudaDeviceSynchronize"', id="sync-under-plain",
        ),
        pytest.param(
            'int main() {\n  gone( printf( "x" ) );\n  return 0;\n}\n',
            NVCC, b"x", 'undefined name "gone"', id="undefined-after-its-arguments",
        ),
        pytest.param(
            """__global__ void k() {}
__device__ void d() {
  k<<< 1, 1 >>>();
}
__global__ void g() {
  d();
}
int main() {
  g<<< 1, 1 >>>();
  return 0;
}
""",
            NVCC, b"", "a kernel launch from device code", id="launch-on-device",
        ),
    ],
)
def test_forced_run_halts_where_the_check_rejected_a_call(src, profile, stdout, reason):
    analysis = analyze(src, "b.mcu", profile)
    assert analysis.has_errors
    result = run_program(analysis)
    assert result.exit_code == UB_EXIT
    assert result.stdout == stdout
    assert [d.message for d in result.notes] == [f"execution halted on a stray call: {reason}"]


def test_type_parameter_used_as_a_value_is_rejected_and_halts():
    src = """struct S {};
template< typename T >
int g() {
  if( T == 1 ) {}
  return 0;
}
int main() {
  return g< S >();
}
"""
    analysis = analyze(src, "t.mcu")
    message = '"T" names a type, not a value'
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in analysis.diagnostics] == [
        ("E0101", 4, 7, message)
    ]
    result = run_program(analysis)
    assert result.exit_code == UB_EXIT
    assert [(d.loc.line, d.loc.col) for d in result.notes] == [(4, 7)]
    assert result.notes[0].message == f"execution halted on a stray call: {message}"


_STRUCT_VALUES = """struct S {};
struct T {};
template< HDC H > struct R {};
__global__ void k() {}
int main() {
  printf( "%d", S{} == S{} );
  printf( "%d", S{} == T{} );
  printf( "%d", S{} != T{} );
  printf( "%d", R< HDC::Dev >{} == R< HDC::Dev >{} );
  printf( "%d", R< HDC::Dev >{} == R< HDC::Hst >{} );
  printf( "%d", !S{} );
  printf( "%d", S{} && T{} );
  printf( "%d", S{} == 0 );
  S x;
  if( x == S{} ) { printf( "=" ); }
  if( x ) { printf( "t" ); }
  STATEMENT
}
"""


@pytest.mark.parametrize("statement, exit_code, note", [
    pytest.param("return S{};", 0, None, id="main-returns-a-struct"),
    pytest.param('printf( "%d", x );', UB_EXIT,
                 "the %d argument of printf must be integral", id="printf"),
    pytest.param("k<<< S{}, 1 >>>();", UB_EXIT,
                 "the launch configuration must be integral", id="launch"),
])
def test_a_struct_value_compares_by_type_and_is_no_integer(statement, exit_code, note):
    # A struct value equals a value of the same struct type only, is true,
    # and is no integer: not an exit code, a %d argument or a launch size.
    analysis = analyze(_STRUCT_VALUES.replace("STATEMENT", statement), "v.mcu")
    assert analysis.diagnostics == []
    result = run_program(analysis)
    assert result.exit_code == exit_code
    assert result.stdout == b"10110010=t"
    want = [] if note is None else [("N0001", 17, f"execution halted on a stray call: {note}")]
    assert [(d.code, d.loc.line, d.message) for d in result.notes] == want


# Resolution and compile-time evaluation belong to the check; the
# interpreter only reads what the walk recorded.
_CHECK_ONLY_NAMES = {
    "resolve_overload",
    "effective_spaces",
    "struct_bindings",
    "resolve_type",
    "compute_hdc",
    "eval_const_expr",
    "SymbolTable",
    "SemaError",
    "SubstFailure",
    "OverloadError",
    "builtin_spaces",
    "BUILTIN_FUNCTIONS",
}


def test_interpreter_imports_no_resolution_or_evaluation():
    import ast
    from pathlib import Path

    import exspace.interp

    tree = ast.parse(Path(exspace.interp.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & _CHECK_ONLY_NAMES


# -- the return protocol, call depth and the run's counts --------------------


def test_early_return_inside_a_loop_inside_an_if_ends_the_body():
    src = """int pick( int n ) {
  if( n == 2 ) {
    for( int i = 0; i < 4; ++i ) {
      printf( "%d", i );
      if( i == 1 ) {
        return 7;
      }
      printf( ";" );
    }
    printf( "after the loop" );
  }
  printf( "after the if" );
  return 0;
}
int main() {
  return pick( 2 );
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout) == (7, b"0;1")
    assert (result.calls, result.threads) == (1, 0)


def test_early_return_in_a_kernel_ends_only_its_thread():
    src = """__global__ void k( int n ) {
  if( n == 4 ) {
    for( int i = 0; i < n; ++i ) {
      printf( "%d", i );
      if( i == 1 ) {
        return;
      }
    }
  }
  printf( "!" );
}
int main() {
  k<<< 1, 3 >>>( 4 );
  printf( "|" );
  return cudaDeviceSynchronize();
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout) == (0, b"010101|")
    assert (result.calls, result.threads) == (0, 3)


def test_a_256_deep_host_chain_runs_to_its_value():
    unit = gen._deep_chain(random.Random(0), "deep.mcu", 256)
    result = run(unit.text, path=unit.path)
    assert (result.exit_code, result.stdout) == (0, unit.run.stdout)
    assert (result.calls, result.threads) == (256, 0)
    assert not result.notes


def test_unbounded_recursion_ends_in_a_note():
    result = run("int f( int x ) { return f( x ); }\nint main() { return f( 1 ); }\n")
    assert result.exit_code == STACK_EXIT
    assert not result.ub_halt
    assert [(d.code, str(d.loc)) for d in result.notes] == [("N0002", "r.mcu:2:5")]
    assert result.notes[0].message == (
        "execution halted: calls nest deeper than the interpreter's stack")
    assert result.calls > 256


def test_a_launch_runs_up_to_its_thread_budget_and_no_further():
    src = ('__global__ void k() { printf( "." ); }\nint main() {\n'
           '  k<<< 1024, 1024 >>>();\n  printf( "|" );\n  k<<< 1024, 1025 >>>();\n'
           '  printf( "never" );\n  return 0;\n}\n')
    result = run(src)
    assert (result.exit_code, result.stdout) == (BUDGET_EXIT, b"." * (1 << 20) + b"|")
    assert (result.calls, result.threads) == (0, 1 << 20)
    assert not result.ub_halt
    assert [(d.code, str(d.loc), d.message) for d in result.notes] == [(
        "N0003", "r.mcu:5:3",
        "execution halted: a launch of 1049600 threads exceeds the budget of "
        "1048576 threads per launch",
    )]


_WIDE_LAUNCH = """__global__ void k() { printf( "%s" ); }
int main() {
  printf( "a" );
  k<<< 1024, 1024 >>>();
  printf( "|" );
  return 0;
}
"""


def test_a_launch_prints_up_to_the_output_budget_and_no_further():
    one = run(_WIDE_LAUNCH % ".")
    assert (one.exit_code, one.stdout) == (0, b"a" + b"." * (1 << 20) + b"|")
    assert not one.notes
    # 64 bytes a thread would replay 64 MiB.  The launch halts before the
    # replay allocates, and leaves only what was printed before it.
    tracemalloc.start()
    try:
        wide = run(_WIDE_LAUNCH % ("x" * 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (wide.exit_code, wide.stdout) == (OUTPUT_EXIT, b"a")
    assert peak < MAX_OUTPUT_BYTES
    assert not wide.ub_halt
    assert [(d.code, str(d.loc), d.message) for d in wide.notes] == [(
        "N0004", "r.mcu:4:3",
        "execution halted: the output would reach 67108865 bytes, over the budget "
        "of 16777216 bytes per run",
    )]


def test_printf_halts_at_the_output_budget_before_it_appends(monkeypatch):
    # A loop in thread 0 prints as much as its bound says; printf bounds it.
    monkeypatch.setattr(interp, "MAX_OUTPUT_BYTES", 100)
    src = """__global__ void k() {
  for( int i = 0; i < 1000; ++i ) {
    printf( "ab" );
  }
}
int main() {
  printf( "0" );
  k<<< 1, 1 >>>();
  return 0;
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout) == (OUTPUT_EXIT, b"0" + b"ab" * 49)
    assert [(d.code, str(d.loc), d.message) for d in result.notes] == [(
        "N0004", "r.mcu:3:5",
        "execution halted: the output would reach 101 bytes, over the budget of 100 "
        "bytes per run",
    )]


def test_a_launch_replays_thread_zeros_output_and_calls_for_every_thread():
    src = """int g() {
  return 3;
}
__device__ void p( int n ) {
  printf( "%d", n );
}
__global__ void k( int n ) {
  p( n );
  p( 7 );
}
int main() {
  k<<< 2, 3 >>>( g() );
  printf( "|" );
  k<<< 1, 2 >>>( 9 );
  return cudaDeviceSynchronize();
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout) == (0, b"37" * 6 + b"|" + b"97" * 2)
    # g() once on the host, then two calls in each of 6 + 2 threads.
    assert (result.calls, result.threads) == (1 + 2 * 8, 8)
    assert not result.notes


def test_a_stray_call_in_thread_zero_halts_before_any_replay():
    src = """__host__ void h() {}
__global__ void k() {
  printf( "a" );
  h();
  printf( "b" );
}
int main() {
  printf( "<" );
  k<<< 2, 3 >>>();
  printf( "never" );
  return 0;
}
"""
    analysis = analyze(src, "r.mcu", NVCC, Mode.CLASSIC)
    assert analysis.has_errors  # only run --force executes it
    result = run_program(analysis)
    assert (result.exit_code, result.stdout, result.ub_halt) == (UB_EXIT, b"<a", True)
    assert (result.calls, result.threads) == (0, 1)
    assert [(d.code, str(d.loc)) for d in result.notes] == [("N0001", "r.mcu:4:3")]


def test_unbounded_recursion_on_the_device_ends_in_thread_zero():
    src = """__device__ int f( int x ) {
  return f( x );
}
__global__ void k() {
  printf( "." );
  f( 1 );
}
int main() {
  k<<< 4, 4 >>>();
  printf( "never" );
  return 0;
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout, result.ub_halt) == (STACK_EXIT, b".", False)
    assert result.threads == 1
    assert [(d.code, str(d.loc)) for d in result.notes] == [("N0002", "r.mcu:8:5")]


def test_a_zero_thread_launch_runs_nothing_and_later_launches_run():
    src = """__global__ void k() {
  printf( "t" );
}
int main() {
  k<<< 0, 4 >>>();
  k<<< 4, 0 >>>();
  printf( "|" );
  k<<< 1, 2 >>>();
  return cudaDeviceSynchronize();
}
"""
    result = run(src)
    assert (result.exit_code, result.stdout) == (0, b"|tt")
    assert (result.calls, result.threads) == (0, 2)
    assert not result.notes


# Seed 1 is the benchmark's timed seed and keeps the plain ids; seed 11 is
# its held-out check.
@pytest.mark.parametrize("workload, seed", [
    pytest.param(w, seed, id=w if seed == 1 else f"{w}-seed{seed}")
    for seed in (1, 11) for w in ("chain", "fanout", "kernel")
])
def test_every_bench_unit_runs_to_its_answer(workload, seed):
    for unit in gen.make_cycle(workload, ROOT, seed):
        result = run(unit.text, mode=Mode(unit.mode), path=unit.path)
        want = unit.run
        assert (result.exit_code, result.stdout, result.calls, result.threads) == (
            want.exit_code, want.stdout, want.calls, want.threads), unit.path
        assert [format_diagnostic(d, "machine") for d in result.notes] == want.notes


def test_every_corpus_run_counts_its_calls_and_threads(corpus_dir):
    for name, want in gen.CORPUS_RUNS.items():
        text = (corpus_dir / name).read_text(encoding="utf-8")
        cfg = parse_header(text, Mode.CLASSIC, NVCC, name)
        result = run(text, cfg.profile, cfg.mode, name)
        assert (result.exit_code, result.calls, result.threads) == (
            want.exit_code, want.calls, want.threads), name


# Forms no generated unit uses: uninitialised int and bool locals, || at
# run time, and an if with an else block, walked and run in every mode.
_UNGENERATED_FORMS = """struct D { __device__ void call() {} };
__host__ __device__ int hd( bool c ) {
  int n;
  bool b;
  if( c || b ) { printf( "t%d", n ); } else { D{}.call(); }
  return n;
}
int main() { hd( true ); return hd( false ); }
"""
_W1102 = ["W1102", "calling a device function from a host device function is not allowed"]
_STRAY_ELSE = {
    Mode.CLASSIC: _W1102,
    Mode.FIDELITY: [],
    Mode.SOUND: ["E1102", f"{_W1102[1]}; the host path is reachable from main"],
    Mode.PROPOSAL1: _W1102,
    Mode.PROPOSAL2: ["E1501", "stray call: calling a device function from a host device "
                     "function on a reachable host path"],
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_default_locals_or_and_else_check_and_run(mode):
    analysis = analyze(_UNGENERATED_FORMS, "c.mcu", NVCC, mode)
    want = _STRAY_ELSE[mode]
    assert [[d.code, d.message] for d in analysis.diagnostics] == ([want] if want else [])
    assert all(str(d.loc) == "c.mcu:5:47" for d in analysis.diagnostics)
    result = run_program(analysis)
    assert (result.exit_code, result.stdout) == (UB_EXIT, b"t0")
    assert [format_diagnostic(d, "machine") for d in result.notes] == [
        'c.mcu:5:47: note[N0001]: execution halted on a stray call: '
        '"D::call" is not compiled for host code'
    ]
