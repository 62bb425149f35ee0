from collections import Counter

import pytest

from exspace import spacecheck
from exspace.corpus import parse_header
from exspace.diagnostics import CODE_REGISTRY, Severity, format_diagnostic
from exspace.interp import run_program
from exspace.sema import DEVICE, HOST, ExecSpace, TraitConfig
from exspace.spacecheck import Mode, analyze, check_unit, legality
from exspace.syntax import nodes as n
from exspace.syntax.preprocess import CompileProfile

GLOBAL = ExecSpace.Global
HD = ExecSpace.HostDevice

NVCC = CompileProfile()


def codes(src, mode=Mode.CLASSIC, profile=NVCC):
    return [(d.code, d.loc.line) for d in check_unit(src, "u.mcu", profile, mode)]


# ---------------------------------------------------------------------------
# The legality matrix, checked against a hand-written table over every
# combination of caller side x callee space x call kind x relaxed flag.

_TABLE = {
    # (caller, callee, kind, relaxed): expected code or None for ok
    (HOST, HOST, "direct", False): None,
    (HOST, HOST, "direct", True): None,
    (HOST, DEVICE, "direct", False): "E1001",
    (HOST, DEVICE, "direct", True): None,
    (HOST, GLOBAL, "direct", False): "E1004",
    (HOST, GLOBAL, "direct", True): "E1004",
    (HOST, HD, "direct", False): None,
    (HOST, HD, "direct", True): None,
    (DEVICE, HOST, "direct", False): "E1002",
    (DEVICE, HOST, "direct", True): None,
    (DEVICE, DEVICE, "direct", False): None,
    (DEVICE, DEVICE, "direct", True): None,
    (DEVICE, GLOBAL, "direct", False): "E1004",
    (DEVICE, GLOBAL, "direct", True): "E1004",
    (DEVICE, HD, "direct", False): None,
    (DEVICE, HD, "direct", True): None,
    (HOST, HOST, "launch", False): "E1004",
    (HOST, HOST, "launch", True): "E1004",
    (HOST, DEVICE, "launch", False): "E1004",
    (HOST, DEVICE, "launch", True): "E1004",
    (HOST, GLOBAL, "launch", False): None,
    (HOST, GLOBAL, "launch", True): None,
    (HOST, HD, "launch", False): "E1004",
    (HOST, HD, "launch", True): "E1004",
    (DEVICE, HOST, "launch", False): "E1003",
    (DEVICE, HOST, "launch", True): "E1003",
    (DEVICE, DEVICE, "launch", False): "E1003",
    (DEVICE, DEVICE, "launch", True): "E1003",
    (DEVICE, GLOBAL, "launch", False): "E1003",
    (DEVICE, GLOBAL, "launch", True): "E1003",
    (DEVICE, HD, "launch", False): "E1003",
    (DEVICE, HD, "launch", True): "E1003",
}


def test_legality_matrix_matches_brute_force_table():
    seen = 0
    for caller in (HOST, DEVICE):
        for callee in (HOST, DEVICE, GLOBAL, HD):
            for kind in ("direct", "launch"):
                for relaxed in (False, True):
                    code = legality(
                        caller, callee, kind,
                        relaxed_constexpr=relaxed, callee_is_constexpr=relaxed,
                    )
                    if code is not None:
                        assert CODE_REGISTRY[code][0] in (Severity.ERROR, Severity.WARNING)
                    expected = _TABLE[(caller, callee, kind, relaxed)]
                    assert code == expected, (caller, callee, kind, relaxed)
                    seen += 1
    assert seen == 32


@pytest.mark.parametrize(
    "mode,callee,reachable,expected",
    [
        (Mode.CLASSIC, HOST, True, "W1101"),
        (Mode.CLASSIC, DEVICE, True, "W1102"),
        (Mode.FIDELITY, HOST, True, "W1101"),
        (Mode.FIDELITY, DEVICE, True, None),
        (Mode.SOUND, HOST, True, "E1101"),
        (Mode.SOUND, DEVICE, True, "E1102"),
        (Mode.SOUND, HOST, False, "W1101"),
        (Mode.SOUND, DEVICE, False, "W1102"),
        (Mode.PROPOSAL1, HOST, True, "W1101"),
        (Mode.PROPOSAL1, DEVICE, True, "W1102"),
        (Mode.PROPOSAL2, HOST, True, "E1501"),
        (Mode.PROPOSAL2, DEVICE, False, "W1502"),
    ],
)
def test_legality_for_host_device_callers(mode, callee, reachable, expected):
    caller = DEVICE if callee is HOST else HOST  # the mismatched side
    assert legality(caller, callee, mode=mode, hd_reachable=reachable) == expected


def test_legality_rejects_bad_caller():
    with pytest.raises(ValueError):
        legality(GLOBAL, HOST)


def test_every_instance_holds_one_execution_space(corpus_dir):
    checked = 0
    for path in sorted(corpus_dir.glob("*.mcu")):
        text = path.read_text(encoding="utf-8")
        for mode in Mode:
            profile = parse_header(text, mode, NVCC, path.name).profile
            walks = {id(w): w for w in analyze(text, path.name, profile, mode).walks.values()}
            for walk in walks.values():
                for inst in walk.instances.values():
                    assert type(inst.spaces) is ExecSpace, (path.name, mode, inst.display())
                    checked += 1
    assert checked


# ---------------------------------------------------------------------------
# check_unit behavior


def test_diagnostics_are_ordered_and_deterministic():
    src = """struct H { __host__ void call() {} };
struct D { __device__ void call() {} };
__device__ void z() { H{}.call(); }
void a() { D{}.call(); }
void b() { gone(); D{}.call(); }
"""
    first = check_unit(src, "o.mcu")
    second = check_unit(src, "o.mcu")
    assert [(d.code, d.loc, d.message) for d in first] == [
        (d.code, d.loc, d.message) for d in second
    ]
    keys = [(d.loc.file, d.loc.line, d.loc.col, d.code) for d in first]
    assert keys == sorted(keys)
    assert {d.code for d in first} == {"E1002", "E1001", "E0101"}


def test_check_aggregates_instead_of_stopping():
    src = """struct D { __device__ void call() {} };
void a() { D{}.call(); }
void b() { D{}.call(); }
"""
    assert [c for c, _ in codes(src)] == ["E1001", "E1001"]


def test_suppression_is_monotone_and_warning_only():
    with_pragma = """struct S { static void value() {} };
#pragma hd_warning_disable
template< typename T >
__host__ __device__
void func() { T::value(); }
int main() { func< S >(); }
"""
    without = with_pragma.replace("#pragma hd_warning_disable\n", "")
    suppressed = check_unit(with_pragma, "p.mcu")
    plain = check_unit(without, "p.mcu")
    assert {(d.code, d.message) for d in suppressed} <= {
        (d.code, d.message) for d in plain
    }
    diff = [d for d in plain if (d.code, d.message) not in
            {(s.code, s.message) for s in suppressed}]
    assert diff and all(d.severity is Severity.WARNING for d in diff)


def test_suppressed_diagnostics_are_marked_and_omitted():
    src = """struct S { static void value() {} };
#pragma nv_exec_check_disable
template< typename T >
__host__ __device__
void func() { T::value(); }
int main() { func< S >(); }
"""
    analysis = analyze(src, "s.mcu")
    assert analysis.diagnostics == []
    hidden = [d for d in analysis.all_diagnostics if d.suppressed]
    assert [d.code for d in hidden] == ["W1101"]


def test_suppression_does_not_reach_callees():
    src = """struct S { static void value() {} };
template< typename T >
__host__ __device__
void inner() { T::value(); }
#pragma hd_warning_disable
template< typename T >
__host__ __device__
void outer() { inner< T >(); }
int main() { outer< S >(); }
"""
    assert [c for c, _ in codes(src)] == ["W1101"]


def test_errors_are_never_suppressed():
    src = """struct D { __device__ void call() {} };
#pragma hd_warning_disable
void f() { D{}.call(); }
"""
    assert [c for c, _ in codes(src)] == ["E1001"]


def test_relaxed_constexpr_is_monotone():
    src = """struct S {
  constexpr static int value() { return 42; }
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
    strict = check_unit(src, "r.mcu", NVCC)
    relaxed = check_unit(src, "r.mcu", CompileProfile(relaxed_constexpr=True))
    assert relaxed == []
    assert [d.code for d in strict] == ["E1002"]


def test_unreachable_mismatch_stays_a_warning_in_sound_mode():
    src = """struct D { __device__ void call() {} };
__host__ __device__ void g() { D{}.call(); }
"""
    assert codes(src, Mode.SOUND) == [("W1102", 2)]
    called = src + "int main() { g(); return 0; }\n"
    assert codes(called, Mode.SOUND) == [("E1102", 2)]


def test_kernel_reachability_promotes_in_sound_mode():
    src = """struct H { __host__ void call() {} };
__host__ __device__ void g() { H{}.call(); }
__global__ void k() { g(); }
"""
    # the kernel is never launched: the device mismatch stays a warning
    assert codes(src, Mode.SOUND) == [("W1101", 2)]
    launched = src + "int main() { k<<< 1, 1 >>>(); return 0; }\n"
    assert codes(launched, Mode.SOUND) == [("E1101", 2)]


def test_fidelity_fixture_match_on_the_running_example():
    base = """struct H {
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
  return wrap< %s >();
}
"""
    host_variant = check_unit(base % "H", "t.mcu", NVCC, Mode.FIDELITY)
    assert [d.code for d in host_variant] == ["W1101"]
    assert "is not allowed" in host_variant[0].message
    assert check_unit(base % "D", "t.mcu", NVCC, Mode.FIDELITY) == []


def test_member_template_default_reads_a_member_constant():
    src = """template< HDC x >
struct S1 {
  static constexpr HDC hdc = x;
  template< HDC hdc_ = hdc >
  requires( hdc_ == HDC::Hst )
  __host__ void call() {}
  template< HDC hdc_ = hdc >
  requires( hdc_ == HDC::Dev )
  __device__ void call() {}
  template< HDC hdc_ = hdc >
  requires( hdc_ == HDC::HstDev )
  __host__ __device__ void call() {}
};
void g1() {
  S1< HDC::Hst > s;
  s.call();
}
__device__ void g1dev() {
  S1< HDC::Dev > s;
  s.call();
}
"""
    assert check_unit(src, "m1.mcu") == []


def test_divergent_signature_of_guarded_function():
    src = """#ifdef __CUDA_ARCH__
__device__ void only_device_pass() {}
#endif
"""
    sound = check_unit(src, "u.mcu", NVCC, Mode.SOUND)
    assert [d.code for d in sound] == ["E1201"]
    assert "must not depend" in sound[0].message
    assert codes(src, Mode.FIDELITY) == []
    assert codes(src, Mode.CLASSIC) == []


def test_body_only_directives_do_not_diverge():
    src = """__host__ __device__
void ra( bool flag ) {
  if( !flag ) {
    #ifdef __CUDA_ARCH__
    __trap();
    #else
    std::abort();
    #endif
  }
}
int main() { ra( true ); return 0; }
"""
    for mode in Mode:
        assert codes(src, mode) == []


def test_a_member_of_a_struct_template_instance_diverges_by_its_instance_name():
    src = """template< HDC h > struct S { __host__ __device__ void call() {} };
__host__ __device__ void g() {
#ifdef __CUDA_ARCH__
  S< HDC::Dev >{}.call();
#endif
}
int main() { g(); return 0; }
"""
    analysis = analyze(src, "u.mcu", NVCC, Mode.SOUND)
    assert [format_diagnostic(d, "machine") for d in analysis.all_diagnostics] == [
        'u.mcu:4:3: error[E1201]: the instantiation of "S<Dev>::call" must not depend '
        "on whether __CUDA_ARCH__ is defined"
    ]


def test_template_demand_inside_guarded_branch_diverges():
    src = """struct S {};
template< typename T > __host__ __device__ void w() { T{}; }
__host__ __device__ void g() {
  #ifdef __CUDA_ARCH__
  w< S >();
  #endif
}
int main() { g(); return 0; }
"""
    assert [c for c, _ in codes(src, Mode.SOUND)] == ["E1201"]


def test_proposal2_overloads_by_space():
    src = """__host__ void f() {}
__device__ void f() {}
__host__ __device__ void g() {
  f();
}
int main() { g(); return 0; }
"""
    assert codes(src, Mode.PROPOSAL2) == []
    # outside the propagation mode the pair is one definition too many;
    # recovery keeps the first f, so g's device side also warns
    classic = [c for c, _ in codes(src, Mode.CLASSIC)]
    assert classic[0] == "E0102"
    assert "E1302" not in classic


def test_proposal2_resolves_each_side_of_a_host_device_body_on_its_own():
    # The overload g's call selects depends on the calling side, so the
    # host and device instances of g must not share one resolution.
    src = """__host__ void f() { printf( "host;" ); }
__device__ void f() { printf( "device;" ); }
__host__ __device__ void g() { f(); }
__global__ void k() { g(); }
int main() {
  g();
  k<<< 1, 1 >>>();
  cudaDeviceSynchronize();
  g();
  return 0;
}
"""
    analysis = analyze(src, "p.mcu", NVCC, Mode.PROPOSAL2)
    assert analysis.diagnostics == []
    result = run_program(analysis)
    assert (result.exit_code, result.stdout) == (0, b"host;device;host;")


def test_proposal2_one_sided_stray_is_always_an_error():
    src = """__host__ struct H { void call() {} };
__global__ void k() { H{}.call(); }
"""
    assert [c for c, _ in codes(src, Mode.PROPOSAL2)] == ["E1501"]


def test_launch_rules():
    src = """__global__ void k() {}
__device__ void d() { k<<< 1, 1 >>>(); }
int main() { k(); return 0; }
"""
    got = codes(src)
    assert [c for c, _ in got] == ["E1003", "E1004"]
    non_global = "void f() {}\nint main() { f<<< 1, 1 >>>(); return 0; }\n"
    assert [c for c, _ in codes(non_global)] == ["E1004"]
    # From the device, a launch of a host function breaks both launch rules
    # at once; a launch of an unknown name is also undefined.
    both = "void h() {}\n__device__ void d() { h<<< 1, 1 >>>(); }\n"
    unknown = "__device__ void d() { nope<<< 1, 1 >>>(); }\n"
    for mode in Mode:
        got = [(d.code, d.loc.line, d.loc.col) for d in check_unit(both, "u.mcu", NVCC, mode)]
        assert got == [("E1003", 2, 23), ("E1004", 2, 23)], mode
        assert [c for c, _ in codes(unknown, mode)] == ["E0101", "E1003"], mode


def test_the_walk_takes_every_verdict_from_the_legality_matrix(monkeypatch):
    src = """__host__ void h() {}
__device__ void dv() {}
__global__ void k() {}
__device__ void d() { h<<< 1, 1 >>>(); k(); h(); abort(); }
__host__ void hh() { dv(); }
"""
    monkeypatch.setattr("exspace.spacecheck.legality", lambda *a, **kw: None)
    for mode in Mode:
        assert analyze(src, "u.mcu", NVCC, mode).all_diagnostics == [], mode


def test_a_body_is_resolved_once_per_demand_not_per_instance_and_pass(monkeypatch):
    # One text for both passes, so one symbol table; each walk has host and
    # device instances of mid< S > and leaf< S >.
    src = """struct S {};
template< typename T >
__host__ __device__ int leaf() { return 1; }
template< typename T >
__host__ __device__ int mid() {
  T x;
  T{};
  return leaf< T >();
}
__global__ void k() { mid< S >(); }
int main() {
  k<<< 1, 1 >>>();
  mid< bool >();
  return mid< S >();
}
"""
    overloads, spaces = Counter(), Counter()
    resolve_overload = spacecheck.resolve_overload
    effective_spaces = spacecheck.effective_spaces

    def count_overload(*args, **kwargs):
        overloads[args[4], frozenset(kwargs["env"].items())] += 1  # site, caller's demand
        return resolve_overload(*args, **kwargs)

    def count_spaces(decl, bindings, *args):
        if args[-2] != decl.pos:  # a call site, not a root
            spaces[args[-2], frozenset(bindings.items())] += 1
        return effective_spaces(decl, bindings, *args)

    monkeypatch.setattr(spacecheck, "resolve_overload", count_overload)
    monkeypatch.setattr(spacecheck, "effective_spaces", count_spaces)
    analysis = analyze(src, "c.mcu")
    assert analysis.diagnostics == []
    # main's three sites, k's one and one in each of mid< S > and mid< bool >
    assert len(overloads) == len(spaces) + 1 == 6  # a launch asks no spaces
    assert set(overloads.values()) == set(spaces.values()) == {1}
    walks = {id(w): w for w in analysis.walks.values()}.values()
    mids = [i for w in walks for i in w.instances.values() if i.display() == "mid<S>"]
    assert len(mids) == 2  # host and device instances in the one shared walk

    calls = (n.CallExpr, n.MemberCallExpr, n.StaticCallExpr, n.LaunchStmt)
    compared = 0
    for walk in walks:
        by_demand = {}
        for (demand, side), inst in walk.instances.items():
            by_demand.setdefault(demand, {})[side] = inst
        for sides in by_demand.values():
            if len(sides) < 2:
                continue
            call_ids = {id(x) for x in n.walk(sides[HOST].decl.body) if isinstance(x, calls)}
            host, device = (
                {k: v for k, v in sides[side].sites.items() if k not in call_ids}
                for side in (HOST, DEVICE)
            )
            assert host == device
            compared += len(host)
    assert compared


def _count_overloads(monkeypatch) -> list:
    calls = []  # the position of each resolution
    resolve_overload = spacecheck.resolve_overload

    def counting(*args, **kwargs):
        calls.append(args[4])
        return resolve_overload(*args, **kwargs)

    monkeypatch.setattr(spacecheck, "resolve_overload", counting)
    return calls


@pytest.mark.parametrize("mode", [Mode.CLASSIC, Mode.SOUND, Mode.PROPOSAL2])
def test_an_equal_call_is_resolved_once_per_walk(monkeypatch, mode):
    # Each of the N bodies calls T{}.call() on S: one member call, resolved
    # at its first site alone, though every site records its own callee.
    count = 12
    fns = "".join(
        f"template< typename T > __host__ __device__ int f{i}() {{ return T{{}}.call(); }}\n"
        for i in range(count)
    )
    calls = "".join(f"f{i}< S >(); " for i in range(count))
    src = (f"struct S {{ __host__ __device__ int call() {{ return 1; }} }};\n{fns}"
           f"__global__ void k() {{ {calls}}}\n"
           f"int main() {{ {calls}k<<< 1, 1 >>>(); return cudaDeviceSynchronize(); }}\n")
    resolved = _count_overloads(monkeypatch)
    analysis = analyze(src, "n.mcu", NVCC, mode)
    assert analysis.diagnostics == []
    walk = analysis.walks[HOST]
    assert walk is analysis.walks[DEVICE]  # one text, one walk
    # the N explicit calls of main and of k, the launch, and the member
    # call once (once per side under PROPOSAL2, whose key holds the side)
    assert len(resolved) == 2 * count + 1 + (2 if mode is Mode.PROPOSAL2 else 1)
    sites = [(x, inst) for inst in walk.instances.values() if inst.decl.body is not None
             for x in n.walk(inst.decl.body) if isinstance(x, n.MemberCallExpr)]
    assert len({id(x) for x, _ in sites}) == count
    callees = {inst.sites[id(x)].key for x, inst in sites}
    assert len(callees) == 2  # S::call on the host and on the device
    assert run_program(analysis).exit_code == 0


_TOUCHED_THROUGH_A_HIT = """#ifdef __CUDA_ARCH__
struct S { __device__ void f() {} };
#else
struct S { __host__ void f() {} };
#endif
template< typename T > __host__ __device__ void a() { T{}.f(); }
template< typename T > __host__ __device__ void b() { T{}.f(); }
__global__ void k() { a< S >(); b< S >(); }
int main() { a< S >(); b< S >(); k<<< 1, 1 >>>(); return cudaDeviceSynchronize(); }
"""


@pytest.mark.parametrize("mode", [Mode.CLASSIC, Mode.SOUND])
def test_a_call_resolved_once_keeps_its_body_from_other_tables(mode):
    # S differs between the passes, so b< S >'s body, whose S::f call
    # repeats a< S >'s, read a differing name: the device walk must resolve
    # it again over its own S rather than reuse the host's S::f.
    analysis = analyze(_TOUCHED_THROUGH_A_HIT, "t.mcu", NVCC, mode)
    assert analysis.walks[HOST] is not analysis.walks[DEVICE]
    assert analysis.all_diagnostics == []
    result = run_program(analysis)
    assert (result.exit_code, result.notes) == (0, [])


def test_proposal2_resolves_an_equal_call_once_per_calling_side():
    # S::g is undecorated, so under propagation it takes the calling side:
    # the device and host sites must not share one resolution.
    src = """struct S { void g() {} };
__device__ void d() { S{}.g(); }
void h() { S{}.g(); }
__global__ void k() { d(); }
int main() { h(); k<<< 1, 1 >>>(); return cudaDeviceSynchronize(); }
"""
    analysis = analyze(src, "p.mcu", NVCC, Mode.PROPOSAL2)
    assert analysis.all_diagnostics == []
    result = run_program(analysis)
    assert (result.exit_code, result.notes) == (0, [])


def test_a_failing_call_is_resolved_and_reported_at_each_site(monkeypatch, walks):
    src = """struct S { void f( int x ) {} };
void h() {
  S{}.f();
  S{}.f();
  S{}.g();
  S{}.g();
  S{}.f( 1 );
  S{}.f( 1 );
}
int main() { h(); return 0; }
"""
    resolved = _count_overloads(monkeypatch)
    analysis = analyze(src, "f.mcu")
    assert [(d.code, str(d.loc)) for d in analysis.all_diagnostics] == [
        ("E1301", "f.mcu:3:3"), ("E1301", "f.mcu:4:3"),
        ("E0101", "f.mcu:5:3"), ("E0101", "f.mcu:6:3"),
    ]
    assert len(resolved) == 2 + 1 + 1  # each S::f() site, one S::f( 1 ), main's h()
    # Each failing site records its own reason; each resolved one its callee.
    walk = walks[HOST]
    h = next(i for i in walk.instances.values() if i.decl.name == "h")
    sites = [x for x in n.walk(h.decl.body) if isinstance(x, n.MemberCallExpr)]
    assert [h.sites[id(x)] for x in sites[:4]] == [
        'unresolvable call: E1301 f.mcu:3:3: no viable candidate for call to "S::f"',
        'unresolvable call: E1301 f.mcu:4:3: no viable candidate for call to "S::f"',
        'type "S" has no member "g"', 'type "S" has no member "g"',
    ]
    assert [h.sites[id(x)].decl.name for x in sites[4:]] == ["f", "f"]
    assert len(walk.calls) == 2  # main's h() and S{}.f( 1 ): no failure is memoized


def _site_chain(pick: int) -> str:
    """Four host-device templates, each with a T{}.call() site that runs
    when n names it; main picks the site over a device-only struct."""
    fns = []
    for k in range(4):
        nxt = f"  f{k + 1}< T >( n );\n" if k < 3 else ""
        fns.append(f"template< typename T > __host__ __device__ void f{k}( int n ) {{\n"
                   f"  if( n == {k} ) {{ T{{}}.call(); }}\n{nxt}}}\n")
    return ("struct D { static constexpr HDC hdc = HDC::Dev; __device__ void call() {} };\n"
            + "".join(fns) + f"int main() {{ f0< D >( {pick} ); return 0; }}\n")


@pytest.mark.parametrize("pick", range(4))
def test_a_verdict_made_once_per_call_key_and_side_holds_at_each_site(pick, walks):
    analysis = analyze(_site_chain(pick), "v.mcu")
    walk = walks[HOST]
    # One verdict for D{}.call() per side, however many sites share its key;
    # the calls with explicit template arguments keep none.
    assert [(key[0], side) for key, side in walk.verdicts] == [
        ("member", HOST), ("member", DEVICE)]
    assert [format_diagnostic(d, "machine") for d in analysis.all_diagnostics] == [
        f"v.mcu:{line}:18: warning[W1102]: calling a device function from a host device "
        "function is not allowed" for line in (3, 7, 11, 15)
    ]
    # The run halts at the site it reaches, whichever instance made the verdict.
    result = run_program(analysis)
    assert result.exit_code == 101
    assert [format_diagnostic(d, "machine") for d in result.notes] == [
        f"v.mcu:{3 + 4 * pick}:18: note[N0001]: execution halted on a stray call: "
        '"D::call" is not compiled for host code'
    ]


def test_each_direct_call_of_a_kernel_reports_its_own_e1004(walks):
    src = "__global__ void k() {}\nint main() { k(); k(); return 0; }\n"
    analysis = analyze(src, "g.mcu")
    assert [(d.code, str(d.loc)) for d in analysis.all_diagnostics] == [
        ("E1004", "g.mcu:2:14"), ("E1004", "g.mcu:2:19"),
    ]
    assert walks[HOST].verdicts == {}


def test_fidelity_still_reports_host_pass_hard_errors():
    src = """int main() {
  #ifndef __CUDA_ARCH__
  gone();
  #endif
}
"""
    assert [c for c, _ in codes(src, Mode.FIDELITY)] == ["E0101"]
    # A member constant the host compiler cannot evaluate is one too.
    src = "struct S { static constexpr bool a = S::a; };\n" + "".join(
        f"struct T{i} {{ static constexpr bool a = T{i + 1}::a; }};\n" for i in range(201)
    ) + "struct T201 { static constexpr bool a = true; };\n" + """int main() {
  #ifndef __CUDA_ARCH__
  if( S::a ) {}
  if( T0::a ) {}
  #endif
  return 0;
}
"""
    assert codes(src, Mode.FIDELITY) == [("E0105", 1), ("E0106", 202)]


def test_fidelity_drops_host_pass_space_errors():
    src = """struct D { __device__ void call() {} };
int main() {
  #ifndef __CUDA_ARCH__
  D{}.call();
  #endif
}
"""
    assert codes(src, Mode.FIDELITY) == []
    assert [c for c, _ in codes(src, Mode.CLASSIC)] == ["E1001"]


# A one-sided caller whose side is not the walk's native side: only the
# host pass keeps d's call, and the host walk decides it all the same.
_E1002 = ("E1002", "calling a host function from a device function is not allowed")


@pytest.mark.parametrize("mode, expected", [
    (Mode.CLASSIC, [_E1002]),
    (Mode.SOUND, [_E1002]),
    (Mode.PROPOSAL2, [("E1501", "stray call: calling a host function from device code")]),
    (Mode.FIDELITY, []),
], ids=["classic", "sound", "proposal2", "fidelity"])
def test_a_host_pass_stray_call_of_a_device_function_is_decided(mode, expected):
    src = """__host__ void h() {}
__device__ void d() {
#ifndef __CUDA_ARCH__
  h();
#endif
}
int main() { return 0; }
"""
    analysis = analyze(src, "s.mcu", NVCC, mode)
    assert analysis.walks[HOST] is not analysis.walks[DEVICE]
    got = [(d.code, d.message) for d in analysis.diagnostics]
    assert got == expected
    assert all(str(d.loc) == "s.mcu:4:3" for d in analysis.diagnostics)


def test_plain_profile_erase_checks_single_pass():
    src = """__host__ __device__ void f() {}
int main() { f(); return 0; }
"""
    plain = CompileProfile("plain", erase_specifiers=True)
    assert check_unit(src, "p.mcu", plain) == []
    launch = """__global__ void k() {}
int main() { k<<< 1, 1 >>>(); return 0; }
"""
    assert [c for c, _ in codes(launch, profile=plain)] == ["E1004"]
    api = "int main() { return cudaDeviceSynchronize(); }\n"
    assert [c for c, _ in codes(api, profile=plain)] == ["E0101"]


def test_plain_profile_without_erasure_rejects_specifiers():
    plain = CompileProfile("plain")
    src = "__device__ void f() {}\n"
    assert [c for c, _ in codes(src, profile=plain)] == ["E0001"]


# Two definitions of f share one demand.  The device instance of the
# second f resolves its own body, not the first f's: its E1002 sits in the
# device f, on line 3.
_DUPLICATE_DEMAND_UNIT = """__host__ int h() { return 1; }
__host__ int f() { return h(); }
__device__ int f() { return h(); }
int main() { return f(); }
"""


@pytest.mark.parametrize("mode", [Mode.CLASSIC, Mode.SOUND, Mode.PROPOSAL1, Mode.FIDELITY])
def test_a_duplicate_definition_resolves_its_own_body(mode):
    got = [(d.code, d.loc.line, d.loc.col) for d in
           check_unit(_DUPLICATE_DEMAND_UNIT, "u.mcu", NVCC, mode)]
    assert got == [("E0102", 3, 16), ("E1002", 3, 29)]


# hd is one node in both passes, and the host walk resolves its calls
# first.  The device walk reuses a call only if the device table answers
# its reads alike; here one read differs, so the device pass must resolve
# the call in hd anew.  In the first unit the device pass adds an overload
# of g, which makes g( 1 ) ambiguous there; in the second, S's hdc member
# is Dev in the device pass, which selects the other f.  In the last two
# the call has explicit template arguments and its argument differs: R{}
# is R<Dev> in the device pass, and S names no type there.
_ADDED_OVERLOAD_UNIT = """__host__ __device__ void g( int x ) { printf( "g" ); }
#ifdef __CUDA_ARCH__
template< typename T > __host__ __device__ void g( T x ) { printf( "t" ); }
#endif
__host__ __device__ void hd() { g( 1 ); }
__global__ void k() { hd(); }
int main() { k<<< 1, 1 >>>(); hd(); return cudaDeviceSynchronize(); }
"""
_SPLIT_HDC_UNIT = """struct S {
#ifdef __CUDA_ARCH__
  static constexpr HDC hdc = HDC::Dev;
#else
  static constexpr HDC hdc = HDC::Hst;
#endif
};
template< typename T, HDC h = hdc< T > > requires( h == HDC::Hst )
__host__ __device__ void f( T t ) { printf( "h" ); }
template< typename T, HDC h = hdc< T > > requires( h == HDC::Dev )
__host__ __device__ void f( T t ) { printf( "d" ); }
__host__ __device__ void hd() { f( S{} ); }
__global__ void k() { hd(); }
int main() { k<<< 1, 1 >>>(); hd(); return cudaDeviceSynchronize(); }
"""
_SPLIT_DEFAULT_UNIT = """#ifdef __CUDA_ARCH__
template< HDC M = HDC::Dev > struct R {};
#else
template< HDC M = HDC::Hst > struct R {};
#endif
template< HDC H, typename U > __host__ __device__ void f( U u ) { printf( "f" ); }
__host__ __device__ void hd() { f< HDC::HstDev >( R{} ); }
__global__ void k() { hd(); }
int main() { k<<< 1, 1 >>>(); hd(); return cudaDeviceSynchronize(); }
"""
_HOST_STRUCT_UNIT = """#ifndef __CUDA_ARCH__
struct S {};
#endif
template< HDC H, typename U > __host__ __device__ void f( U u ) { printf( "f" ); }
__host__ __device__ void hd() { f< HDC::HstDev >( S{} ); }
__global__ void k() { hd(); }
int main() { k<<< 1, 1 >>>(); hd(); return cudaDeviceSynchronize(); }
"""
_NO_S = [("E1301", "s.mcu:5:33", 'no viable candidate for call to "f"'),
         ("E0101", "s.mcu:5:51", 'undefined type "S"')]
_AMBIGUOUS = ("E1302", "s.mcu:5:33", 'call to "g" is ambiguous (2 candidates survive)')


def _diverges(line: int, col: int, display: str) -> tuple:
    return ("E1201", f"s.mcu:{line}:{col}", f'the instantiation of "{display}" must '
            "not depend on whether __CUDA_ARCH__ is defined")


@pytest.mark.parametrize("src, mode, diags, run", [
    pytest.param(_ADDED_OVERLOAD_UNIT, Mode.CLASSIC, [_AMBIGUOUS],
                 (101, b"", [("N0001", "s.mcu:5:33")]), id="overload-classic"),
    pytest.param(_ADDED_OVERLOAD_UNIT, Mode.SOUND, [_diverges(3, 49, "g"), _AMBIGUOUS],
                 (101, b"", [("N0001", "s.mcu:5:33")]), id="overload-sound"),
    pytest.param(_SPLIT_HDC_UNIT, Mode.CLASSIC, [], (0, b"dh", []), id="hdc-classic"),
    pytest.param(_SPLIT_HDC_UNIT, Mode.SOUND,
                 [_diverges(12, 33, "f<S, Dev>"), _diverges(12, 33, "f<S, Hst>")],
                 (0, b"dh", []), id="hdc-sound"),
    pytest.param(_SPLIT_DEFAULT_UNIT, Mode.CLASSIC, [], (0, b"ff", []), id="targs-classic"),
    pytest.param(_SPLIT_DEFAULT_UNIT, Mode.SOUND,
                 [_diverges(7, 33, "f<HstDev, R<Dev>>"), _diverges(7, 33, "f<HstDev, R<Hst>>")],
                 (0, b"ff", []), id="targs-sound"),
    pytest.param(_HOST_STRUCT_UNIT, Mode.CLASSIC, _NO_S,
                 (101, b"", [("N0001", "s.mcu:5:51")]), id="targs-one-sided-classic"),
    pytest.param(_HOST_STRUCT_UNIT, Mode.SOUND, [_diverges(5, 33, "f<HstDev, S>"), *_NO_S],
                 (101, b"", [("N0001", "s.mcu:5:51")]), id="targs-one-sided-sound"),
])
def test_a_body_is_resolved_anew_where_a_table_read_differs(src, mode, diags, run):
    analysis = analyze(src, "s.mcu", NVCC, mode)
    assert analysis.walks[HOST] is not analysis.walks[DEVICE]
    assert [(d.code, str(d.loc), d.message) for d in analysis.all_diagnostics] == diags
    result = run_program(analysis)
    assert (result.exit_code, result.stdout,
            [(d.code, str(d.loc)) for d in result.notes]) == run


def test_e0001_diagnostic_from_parse_error():
    got = codes("void f( {}\n")
    assert got and all(c == "E0001" for c, _ in got)


def test_e0002_diagnostic_from_preprocessor():
    got = codes('#error "boom"\n')
    assert [c for c, _ in got] == ["E0002"]


# hdc< int > read by a static_assert, by a struct template default (Box), by
# a member constant in a requires clause (P::k), by overload selection (f)
# and by the run: one trait configuration governs all of them.
_INT_TRAIT_UNIT = """template< HDC x = hdc< int > >
struct Box { static constexpr HDC hdc = x; };
struct P {
  static constexpr HDC k = hdc< int >;
  template< HDC y >
  requires( k == y )
  __host__ __device__ void g() { printf( "k" ); }
};
static_assert( hdc< int > == HDC::HstDev );
template< typename T >
requires( hdc< T > == HDC::HstDev )
__host__ __device__ void f() { printf( "hd" ); }
template< typename T >
requires( hdc< T > == HDC::Hst )
__host__ void f() { printf( "h" ); }
int main() { f< int >(); f< Box >(); P{}.g< HDC::HstDev >(); return 0; }
"""


@pytest.mark.parametrize(
    "hstdev, diags, f_box, f_spaces, stdout",
    [
        pytest.param(True, [], "f<Box<HstDev>>", HD, b"hdhdk", id="hstdev"),
        pytest.param(
            False, [("E0104", 9), ("E1301", 16)], "f<Box<Hst>>", HOST, b"hh", id="default"
        ),
    ],
)
def test_one_trait_configuration_governs_every_evaluation(
    hstdev, diags, f_box, f_spaces, stdout
):
    analysis = analyze(_INT_TRAIT_UNIT, "c.mcu", cfg=TraitConfig(fundamentals_hstdev=hstdev))
    assert [(d.code, d.loc.line) for d in analysis.all_diagnostics] == diags
    chosen = {i.display(): i.spaces for i in analysis.walks[HOST].instances.values()}
    assert chosen["f<int>"] is chosen[f_box] is f_spaces
    assert run_program(analysis).stdout == stdout


@pytest.mark.parametrize("src, diag, note", [
    pytest.param("__global__ void k( int x ) {}\nint main() { k<<< 1, 1 >>>(); return 0; }\n",
                 'f.mcu:2:14: error[E1301]: no viable candidate for call to "k"',
                 'unresolvable call: E1301 f.mcu:2:14: no viable candidate for call to "k"',
                 id="launch-without-candidate"),
    pytest.param("struct S { void call() {} };\nS f() { return S{}; }\n"
                 "int main() { f().call(); return 0; }\n",
                 "f.mcu:3:14: error[E0001]: a member-call receiver must be a variable "
                 "or a temporary", "a member call needs a struct value", id="call-receiver"),
    pytest.param("int main() { (1).call(); return 0; }\n",
                 'f.mcu:1:15: error[E0101]: type "int" has no member "call"',
                 "a member call needs a struct value", id="builtin-receiver"),
    # A logical run sits at its last operator, whatever the nesting.
    pytest.param("int main() { bool a; (a && a && a).g(); return 0; }\n",
                 'f.mcu:1:30: error[E0101]: type "bool" has no member "g"',
                 "a member call needs a struct value", id="and-run-receiver"),
    pytest.param("int main() { bool a; (a || a && a).g(); return 0; }\n",
                 'f.mcu:1:25: error[E0101]: type "bool" has no member "g"',
                 "a member call needs a struct value", id="or-run-receiver"),
    pytest.param("int main() { x.call(); return 0; }\n",
                 'f.mcu:1:14: error[E0101]: undefined name "x"', 'undefined name "x"',
                 id="undefined-receiver"),
    pytest.param("int main() { U::f(); return 0; }\n",
                 'f.mcu:1:14: error[E0101]: undefined type "U"',
                 "the check resolved no callee here", id="undefined-static-owner"),
])
def test_a_failing_call_form_is_reported_and_halts_a_run(src, diag, note):
    analysis = analyze(src, "f.mcu")
    assert [format_diagnostic(d, "machine") for d in analysis.all_diagnostics] == [diag]
    result = run_program(analysis)
    assert result.exit_code == 101
    assert [format_diagnostic(d, "machine") for d in result.notes] == [
        f"{diag.split(': ')[0]}: note[N0001]: execution halted on a stray call: {note}"
    ]
