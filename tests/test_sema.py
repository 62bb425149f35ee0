import pytest

from exspace.sema import (
    DEVICE,
    HOST,
    HDC,
    ExecSpace,
    OverloadError,
    SemaError,
    SymbolTable,
    TraitConfig,
    Type,
    compute_hdc,
    declared_spaces,
    effective_spaces,
    evaluate_conditional_spec,
    resolve,
    resolve_overload,
)
from exspace.spacecheck import Mode, analyze
from exspace.syntax.nodes import NOPOS, HdcLit
from exspace.syntax.parser import parse
from exspace.syntax.preprocess import CompileProfile

NVCC = CompileProfile()


def build(src: str, mode=Mode.CLASSIC):
    ast = parse(src, "t.mcu")
    return resolve(ast, NVCC, mode)


# -- resolve -----------------------------------------------------------------


def test_resolve_empty_unit():
    table, diags = build("")
    assert diags == []
    assert table.structs == {} and table.functions == {}


def test_resolve_problem_t_candidates():
    src = """struct H { __host__ int call() { return 3; } };
template< typename T >
__host__ __device__
int wrap() { return T{}.call(); }
int main() { return wrap< H >(); }
"""
    table, diags = build(src)
    assert diags == []
    assert len(table.overloads("wrap")) == 1
    # the dependent member call resolves only at instantiation
    assert SymbolTable.member_functions(table.struct("H"), "call")


def test_undefined_free_call_is_reported():
    _, diags = build("void f() { gone(); }")
    assert [d.code for d in diags] == ["E0101"]


# The body goes into a function template and a member template; neither is
# ever instantiated, so every E0101 comes from resolve's traversal.
_UNINSTANTIATED = """__global__ void k( int a ) {}
int f( int a ) { return a; }
struct S { int g( int a ) { return a; } static int h( int a ) { return a; } };
template< typename T > void t() { %(body)s }
struct M { template< typename T > void m() { %(body)s } };
"""
_GONE = [("E0101", 'undefined name "gone"')] * 2


@pytest.mark.parametrize(
    "src, profile, expected",
    [
        *[
            pytest.param(_UNINSTANTIATED % {"body": body}, NVCC, _GONE, id=body)
            for body in [
                "if( gone() ) {}",
                "if( true ) { gone(); }",
                "if( true ) {} else { gone(); }",
                "for( int i = gone(); i < 1; ++i ) {}",
                "for( int i = 0; i < gone(); ++i ) {}",
                "for( int i = 0; i < 1; ++i ) { gone(); }",
                "k<<< gone(), 1 >>>( 0 );",
                "k<<< 1, gone() >>>( 0 );",
                "k<<< 1, 1 >>>( gone() );",
                "gone<<< 1, 1 >>>();",
                "f( gone() );",
                "gone().g( 0 );",
                "S{}.g( gone() );",
                "S::h( gone() );",
                "return !gone();",
                "return gone() == 1;",
            ]
        ],
        pytest.param(
            _UNINSTANTIATED % {"body": "printf<<< 1, 1 >>>();"}, NVCC,
            [("E0101", 'undefined name "printf"')] * 2, id="printf-launch",
        ),
        pytest.param(
            _UNINSTANTIATED % {"body": "__trap();"},
            CompileProfile("plain", erase_specifiers=True),
            [("E0101", 'undefined name "__trap"')] * 2, id="plain-trap",
        ),
        pytest.param(
            "template< HDC x > void f() {}\nvoid p() { f< (gone()) >(); }\n", NVCC,
            [("E1301", 'no viable candidate for call to "f"')], id="template-argument",
        ),
    ],
)
def test_undefined_names_are_found_wherever_a_body_evaluates(src, profile, expected):
    analysis = analyze(src, "u.mcu", profile)
    assert [(d.code, d.message) for d in analysis.all_diagnostics] == expected


def test_duplicate_definitions():
    _, diags = build("void f() {}\nvoid f() {}")
    assert [d.code for d in diags] == ["E0102"]
    _, diags = build("struct S {};\nstruct S {};")
    assert [d.code for d in diags] == ["E0102"]
    # The walk still sees the members of the struct that is dropped.
    src = "struct S { void f() {} };\nstruct S { void g() {} };\nint main() { return 0; }"
    for mode in Mode:
        assert [d.code for d in analyze(src, "d.mcu", NVCC, mode).diagnostics] == ["E0102"]
    # Its members have no owner, but a member main is no main: it keeps its space.
    src = """__device__ void d() {}
int main() { return 0; }
struct S { __device__ int main() { d(); return 7; } };
struct S { __device__ int main() { d(); return 9; } };
"""
    for mode in Mode:
        assert [d.code for d in analyze(src, "d.mcu", NVCC, mode).diagnostics] == ["E0102"]


_STRUCT_S = "template< HDC h > struct S {};\n"


@pytest.mark.parametrize(
    "first, second, mode, expected",
    [
        pytest.param("template< HDC x >\nrequires( x == HDC::Hst )\nvoid f() {}\n",
                     "template< HDC x >\nrequires( ( x==HDC::Hst ) )\nvoid f() {}\n",
                     Mode.CLASSIC, ["E0102"], id="parenthesized-requires"),
        pytest.param(_STRUCT_S + "void f( S< HDC::Hst > s ) {}\n",
                     "void f( S<HDC::Hst> t ) {}\n",
                     Mode.CLASSIC, ["E0102"], id="spaced-template-argument"),
        pytest.param("template< HDC x >\nrequires( x == HDC::Hst )\nvoid f() {}\n",
                     "template< HDC x >\nrequires( HDC::Hst == x )\nvoid f() {}\n",
                     Mode.CLASSIC, [], id="swapped-operands"),
        pytest.param("template< HDC x >\nrequires( !( x == HDC::Hst ) )\nvoid f() {}\n",
                     "template< HDC x >\nrequires( x != HDC::Hst )\nvoid f() {}\n",
                     Mode.CLASSIC, [], id="negation-not-inequality"),
        pytest.param("__host__ void f() {}\n", "__device__ void f() {}\n",
                     Mode.PROPOSAL2, [], id="spaces-under-proposal2"),
    ],
)
def test_signature_keys_compare_structure_not_spelling(first, second, mode, expected):
    _, diags = build(first + second, mode)
    assert [d.code for d in diags] == expected


def test_space_only_overloads_are_duplicates_outside_propagation_mode():
    src = "__host__ void f() {}\n__device__ void f() {}\nint main() { return 0; }"
    _, diags = build(src)
    assert [d.code for d in diags] == ["E0102"]
    _, diags = build(src, Mode.PROPOSAL2)
    assert diags == []


def test_requires_distinguishes_overloads():
    src = """template< HDC x >
requires( x == HDC::Hst )
void f() {}
template< HDC x >
requires( x == HDC::Dev )
void f() {}
"""
    _, diags = build(src)
    assert diags == []


def test_mode_gated_syntax():
    cond = "template< typename T >\n__host__( hdc<T> == HDC::Hst )\nvoid f() {}"
    _, diags = build(cond)
    assert [d.code for d in diags] == ["E0001"]
    _, diags = build(cond, Mode.PROPOSAL1)
    assert diags == []
    struct = "__device__ struct S { void call() {} };"
    _, diags = build(struct)
    assert [d.code for d in diags] == ["E0001"]
    _, diags = build(struct, Mode.PROPOSAL2)
    assert diags == []


# -- compute_hdc ----------------------------------------------------------------


def _table(src: str) -> SymbolTable:
    table, diags = build(src)
    assert diags == []
    return table


def test_hdc_of_declaring_struct():
    table = _table("struct D { static constexpr HDC hdc = HDC::Dev; };")
    assert compute_hdc(Type("D"), table) is HDC.Dev


def test_hdc_defaults_to_host_without_member():
    table = _table("struct S {};")
    assert compute_hdc(Type("S"), table) is HDC.Hst


def test_hdc_of_fundamentals():
    table = _table("")
    assert compute_hdc(Type("int"), table) is HDC.Hst
    assert compute_hdc(Type("bool"), table) is HDC.Hst
    both, diags = resolve(parse("", "t.mcu"), NVCC, Mode.CLASSIC,
                          TraitConfig(fundamentals_hstdev=True))
    assert diags == []
    assert compute_hdc(Type("int"), both) is HDC.HstDev


def test_hdc_member_of_wrong_type_is_an_error():
    table = _table("struct B { static constexpr bool hdc = true; };")
    with pytest.raises(SemaError) as exc:
        compute_hdc(Type("B"), table)
    assert exc.value.code == "E0103"


@pytest.mark.parametrize(
    "member, assertion",
    [
        pytest.param("HDC hdc = true", "hdc< S > == HDC::Hst", id="trait"),
        pytest.param("bool hdc = true", "hdc< S > == HDC::Hst", id="trait-of-bool-member"),
        pytest.param("HDC hdc = true", "S::hdc == HDC::Hst", id="member-hdc"),
        pytest.param("HDC mode = true", "S::mode == HDC::Hst", id="member-mode"),
    ],
)
def test_e0103_names_the_member_that_is_not_an_hdc_constant(member, assertion):
    name = member.split()[1]
    src = f"struct S {{ static constexpr {member}; }};\nstatic_assert( {assertion} );\n"
    diags = analyze(src, "t.mcu").diagnostics
    assert [(d.code, d.loc.line, d.loc.col, d.message) for d in diags] == [
        ("E0103", 1, src.index(f"{name} =") + 1, f'member "{name}" of "S" is not an HDC constant')
    ]


def test_hdc_member_bound_through_struct_parameter():
    table = _table("template< HDC x > struct S1 { static constexpr HDC hdc = x; };")
    assert compute_hdc(Type("S1", (HDC.Dev,)), table) is HDC.Dev
    assert compute_hdc(Type("S1", (HDC.HstDev,)), table) is HDC.HstDev


# -- overload resolution -------------------------------------------------------


_THREE_WAY = """template< HDC x >
requires( x == HDC::Hst )
__host__ void f1s() {}
template< HDC x >
requires( x == HDC::Dev )
__device__ void f1s() {}
template< HDC x >
requires( x == HDC::HstDev )
__host__ __device__ void f1s() {}
"""


def _resolve_call(table, name, targs, mode=Mode.CLASSIC, side=HOST, arg_types=()):
    return resolve_overload(
        name, table.overloads(name), targs, list(arg_types), NOPOS,
        env={}, table=table, mode=mode, context_side=side,
    )


def test_explicit_hdc_argument_selects_one_candidate():
    table = _table(_THREE_WAY)
    sel = _resolve_call(table, "f1s", [HdcLit("Hst")])
    assert sel.decl.spec.host and not sel.decl.spec.device
    sel = _resolve_call(table, "f1s", [HdcLit("Dev")])
    assert sel.decl.spec.device and not sel.decl.spec.host


# Oracle fixture: with two candidates gated on x == Hst and x == Dev, the
# survivor count across all three HDC values is exhaustively 1, 1, 0; adding
# an ungated pair makes it 2.
def test_survivor_counts_zero_one_two():
    two = """template< HDC x >
requires( x == HDC::Hst )
void g() {}
template< HDC x >
requires( x == HDC::Dev )
void g() {}
"""
    table = _table(two)
    assert _resolve_call(table, "g", [HdcLit("Hst")]).decl.requires is not None
    assert _resolve_call(table, "g", [HdcLit("Dev")]).decl is table.overloads("g")[1]
    with pytest.raises(OverloadError) as exc:
        _resolve_call(table, "g", [HdcLit("HstDev")])
    assert exc.value.code == "E1301"

    both_open = """template< HDC x >
requires( true )
void h() {}
template< HDC x >
requires( x == x )
void h() {}
"""
    table = _table(both_open)
    with pytest.raises(OverloadError) as exc:
        _resolve_call(table, "h", [HdcLit("Hst")])
    assert exc.value.code == "E1302"


def test_default_argument_via_trait():
    src = """struct D { static constexpr HDC hdc = HDC::Dev; };
template< typename T, HDC h = hdc<T> >
requires( h == HDC::Dev )
void f( T t ) {}
"""
    table = _table(src)
    sel = _resolve_call(table, "f", [], arg_types=[Type("D")])
    assert sel.bindings == {"T": Type("D"), "h": HDC.Dev}


def test_deduction_failure_discards_candidate():
    src = """template< typename T, HDC h = hdc<T> >
requires( h == HDC::Hst )
void f( T t ) {}
"""
    table = _table(src)
    with pytest.raises(OverloadError):
        _resolve_call(table, "f", [], arg_types=[None])


def test_member_absence_in_requires_is_sfinae_not_error():
    src = """struct Plain {};
template< typename T >
requires( T::hdc == HDC::Dev )
void f( T t ) {}
template< typename T >
requires( true )
void f( T t ) {}
"""
    table = _table(src)
    sel = _resolve_call(table, "f", [], arg_types=[Type("Plain")])
    assert sel.decl is table.overloads("f")[1]


def test_sfinae_silence_never_viable_overload_changes_nothing():
    base = """struct S {};
template< typename T, HDC h = hdc<T> >
requires( h == HDC::Hst )
__host__ void f( T t ) {}

int main() {
  f( S{} );
}
"""
    extra = base.replace(
        "int main()",
        """template< typename T, HDC h = hdc<T> >
requires( h == HDC::Dev && h == HDC::Hst )
__device__ void f( T t ) {}

int main()""",
    )
    d1 = analyze(base, "a.mcu").diagnostics
    d2 = analyze(extra, "b.mcu").diagnostics
    assert [(d.code, d.message) for d in d1] == [(d.code, d.message) for d in d2]


# -- effective spaces ---------------------------------------------------------


def test_declared_spaces_default_to_host():
    ast = parse("void f() {}\n__device__ void g() {}\n__host__ __device__ void h() {}", "d.mcu")
    f, g, h = ast.items
    assert declared_spaces(f.spec) is HOST
    assert declared_spaces(g.spec) is DEVICE
    assert declared_spaces(h.spec) is ExecSpace.HostDevice


def test_conditional_spec_filtering_and_empty_set():
    src = """struct D { static constexpr HDC hdc = HDC::Dev; };
template< typename T >
__host__( hdc<T> == HDC::Hst )
__device__( hdc<T> == HDC::Dev )
void wrap() {}
"""
    src = src.replace(
        "struct D", "struct HD { static constexpr HDC hdc = HDC::HstDev; };\nstruct D"
    )
    table, diags = build(src, Mode.PROPOSAL1)
    assert diags == []
    wrap = table.overloads("wrap")[0]
    spaces = evaluate_conditional_spec(
        wrap.spec, {"T": Type("D")}, table, NOPOS, "wrap")
    assert spaces is DEVICE
    assert evaluate_conditional_spec(
        wrap.spec, {"T": Type("int")}, table, NOPOS, "wrap") is HOST
    with pytest.raises(SemaError) as exc:
        evaluate_conditional_spec(
            wrap.spec, {"T": Type("HD")}, table, NOPOS, "wrap")
    assert exc.value.code == "E1401"


def test_propagation_mode_inheritance_and_distribution():
    src = """__device__ struct S1 { void call() {} };
void free_fn() {}
"""
    ast = parse(src, "p.mcu")
    table, diags = resolve(ast, NVCC, Mode.PROPOSAL2)
    assert diags == []
    s1 = table.struct("S1")
    member = s1.member_functions()[0]
    spaces = effective_spaces(member, {}, Mode.PROPOSAL2, HOST, table,
                              NOPOS, owner_struct=s1)
    assert spaces is DEVICE  # struct decoration distributes
    free = table.overloads("free_fn")[0]
    assert effective_spaces(free, {}, Mode.PROPOSAL2, DEVICE, table, NOPOS) is DEVICE
    assert effective_spaces(free, {}, Mode.PROPOSAL2, HOST, table, NOPOS) is HOST


# -- memoization ----------------------------------------------------------------


def test_instantiation_is_memoized_and_finite():
    src = """struct S {};
template< typename T >
__host__ __device__
void w() { T{}; }
__host__ __device__ void a() { w< S >(); }
__host__ __device__ void b() { w< S >(); }
int main() { a(); b(); return 0; }
"""
    analysis = analyze(src, "m.mcu")
    assert analysis.diagnostics == []
    for walk in analysis.walks.values():
        # one instance per (demand, side), not one per call site
        w_keys = [k for k, inst in walk.instances.items() if inst.decl.name == "w"]
        assert len({demand for demand, _ in w_keys}) == 1
        assert sorted(side.value for _, side in w_keys) == ["device", "host"]
        sides = {side for _, side in walk.instances}
        assert sides <= {HOST, DEVICE}


def test_instantiation_sets_agree_across_passes_without_directives():
    src = """struct S {};
struct D { static constexpr HDC hdc = HDC::Dev; };
template< typename T >
__host__ __device__
void w() { T{}; }
__device__ void dev_side() { w< D >(); }
int main() { w< S >(); return 0; }
"""
    for mode in (Mode.CLASSIC, Mode.SOUND):
        analysis = analyze(src, "i.mcu", mode=mode)
        host = set(analysis.walks[HOST].demands)
        device = set(analysis.walks[DEVICE].demands)
        assert host == device
