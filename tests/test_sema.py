import pytest

from exspace import sema
from exspace.sema import (
    DEVICE,
    HOST,
    HDC,
    MAX_CONST_DEPTH,
    ExecSpace,
    OverloadError,
    SemaError,
    SubstFailure,
    SymbolTable,
    TraitConfig,
    Type,
    _targ_as_hdc,
    _try_candidate,
    compute_hdc,
    declared_spaces,
    effective_spaces,
    evaluate_conditional_spec,
    resolve,
    resolve_overload,
    targ_as_type,
)
from exspace.diagnostics import format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import Mode, analyze
from exspace.syntax.nodes import NOPOS, HdcLit, StructDecl, TypeRef
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


# S::a is defined twice.  The second definition is E0102 and dropped, so the
# static_assert and the requires clause both read the first, and f is viable.
_DUPLICATE_MEMBER = (
    "struct S { static constexpr bool a = true; static constexpr bool a = false; "
    "template< HDC h = HDC::Hst > requires( a ) __host__ void f() {} };\n"
    "static_assert( S::a );\nint main() { S{}.f(); return 0; }\n"
)


def test_a_duplicate_member_constant_is_e0102_and_every_read_sees_the_first():
    analysis = analyze(_DUPLICATE_MEMBER, "u.mcu")
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [
        'u.mcu:1:66: error[E0102]: duplicate definition of "S::a"'
    ]
    struct = analysis.passes["host"].table.struct("S")
    assert struct.members == [struct.declared[0], struct.declared[2]]
    assert SymbolTable.member_var(struct, "a") is struct.declared[0]
    result = run_program(analysis)
    assert (result.exit_code, result.stdout, result.notes) == (0, b"", [])


def _members_unit(count: int) -> str:
    """A struct of count host-device members f<i>, each called once."""
    members = "".join(f"  __host__ __device__ int f{i}() {{ return {i}; }}\n"
                      for i in range(count))
    calls = "".join(f"  S{{}}.f{i}();\n" for i in range(count))
    return f"struct S {{\n{members}}};\nint main() {{\n{calls}  return 0;\n}}\n"


def test_member_lookups_examine_members_linearly_in_their_number(monkeypatch):
    # Every member list a struct filters, and every index entry a lookup
    # returns, counts as examined.
    examined = [0]
    member_functions = StructDecl.member_functions

    def scanning(struct):
        examined[0] += len(struct.members)
        return member_functions(struct)

    def returning(lookup, size):
        def look(struct, name):
            found = lookup(struct, name)
            examined[0] += size(found)
            return found
        return staticmethod(look)

    monkeypatch.setattr(StructDecl, "member_functions", scanning)
    monkeypatch.setattr(SymbolTable, "member_functions",
                        returning(SymbolTable.member_functions, len))
    monkeypatch.setattr(SymbolTable, "member_var",
                        returning(SymbolTable.member_var, lambda found: found is not None))
    counts = []
    for count in (500, 2000):
        examined[0] = 0
        assert analyze(_members_unit(count), "m.mcu").diagnostics == []
        counts.append(examined[0])
    assert counts[1] <= 4.5 * counts[0]


def _owner_constants_unit(count: int) -> str:
    """A struct of count HDC member constants c<i> and, for each, a pair of
    member templates f<i> whose default reads it by name, each called once."""
    constants = "".join(f"  static constexpr HDC c{i} = HDC::HstDev;\n" for i in range(count))
    templates = "".join(
        f"  template< HDC h = c{i} > requires( h == HDC::{hdc} ) "
        f"__host__ __device__ void f{i}() {{}}\n"
        for i in range(count) for hdc in ("HstDev", "Hst"))
    calls = "".join(f"  S{{}}.f{i}();\n" for i in range(count))
    return f"struct S {{\n{constants}{templates}}};\nint main() {{\n{calls}  return 0;\n}}\n"


def test_owner_member_constants_are_evaluated_linearly_in_their_number(monkeypatch):
    # A candidate reads only the member constants its default and requires
    # clause name, each through _member_value; at the parent every candidate
    # evaluated all of them (5,400 -> 81,600 rule calls, 15.1x).
    calls = [0]

    def counting(rule):
        def count(expr, env, table):
            calls[0] += 1
            return rule(expr, env, table)
        return count

    for cls, rule in list(sema._CONST_RULES.items()):
        monkeypatch.setitem(sema._CONST_RULES, cls, counting(rule))
    counts = []
    for count in (50, 200):
        calls[0] = 0
        assert analyze(_owner_constants_unit(count), "c.mcu").diagnostics == []
        counts.append(calls[0])
    assert counts[1] <= 4.5 * counts[0]


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


_RUN = "template< HDC x >\nrequires( {} )\nvoid f() {{}}\n"
_A, _B, _C = "x != HDC::Dev", "x != HDC::HstDev", "x == HDC::Hst"


# A parenthesized left operand joins a run of its own operator; a
# parenthesized right operand is a run of its own, so its key differs.
@pytest.mark.parametrize("clause, expected", [
    pytest.param(f"( {_A} && {_B} ) && {_C}", ["E0102"], id="left-and"),
    pytest.param(f"( {_A} || {_B} ) || {_C}", ["E0102"], id="left-or"),
    pytest.param(f"{_A} && ( {_B} && {_C} )", ["E1302"], id="right-and"),
    pytest.param(f"{_A} || ( {_B} || {_C} )", ["E1302"], id="right-or"),
])
def test_a_logical_run_keys_as_written_left_to_right(clause, expected):
    op = "||" if "||" in clause else "&&"
    flat = _RUN.format(f" {op} ".join((_A, _B, _C)))
    src = _RUN.format(clause) + flat + "int main() { f< HDC::Hst >(); return 0; }\n"
    assert [d.code for d in analyze(src, "k.mcu").all_diagnostics] == expected


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


def test_instantiation_sets_agree_across_passes_without_directives(walks):
    src = """struct S {};
struct D { static constexpr HDC hdc = HDC::Dev; };
template< typename T >
__host__ __device__
void w() { T{}; }
__device__ void dev_side() { w< D >(); }
int main() { w< S >(); return 0; }
"""
    for mode in (Mode.CLASSIC, Mode.SOUND):
        analyze(src, "i.mcu", mode=mode)
        host = set(walks[HOST].demands)
        device = set(walks[DEVICE].demands)
        assert host == device


# -- eval_const_expr -------------------------------------------------------------


# Each failure is pinned through a member constant that a body reads; the
# run halts where the check reported it.  Operands are evaluated left to
# right, and the first two before either is checked.
@pytest.mark.parametrize("value, reason", [
    ("true && HDC::Hst", "logical operands are not booleans"),
    ("HDC::Hst || true", "logical operands are not booleans"),
    ("1 == true", "comparison between unrelated kinds"),
    ("!1", "operand of ! is not a boolean"),
    ("true && q && 1", 'unbound name "q"'),
    ("true && 1 && q", "logical operands are not booleans"),
    ("1 && q", 'unbound name "q"'),
    ("false || true || 1", "logical operands are not booleans"),
    ("cuda_arch", "cuda_arch is not usable in constant expressions"),
])
def test_a_constant_expression_failure_is_reported_where_it_is_read(value, reason):
    src = (f"struct S {{ static constexpr bool f = {value}; }};\n"
           "int main() { if( S::f ) { } return 0; }\n")
    analysis = analyze(src, "u.mcu")
    diag = f"u.mcu:2:18: error[E0101]: {reason}"
    assert [format_diagnostic(d, "machine") for d in analysis.all_diagnostics] == [diag]
    result = run_program(analysis)
    assert result.exit_code == 101
    assert [format_diagnostic(d, "machine") for d in result.notes] == [
        f"u.mcu:2:18: note[N0001]: execution halted on a stray call: {reason}"
    ]


# -- member constants that refer to themselves or nest too deep -----------------


_HALT = "note[N0001]: execution halted on a stray call: "


def _cycle(loc: str, member: str) -> str:
    return f'u.mcu:{loc}: error[E0105]: the value of "{member}" depends on itself'


# Each form re-enters a member constant under evaluation, which is E0105 at
# that member's declaration.  It is a SemaError: in the requires form a
# SubstFailure would discard g silently and leave E1301 instead.
@pytest.mark.parametrize("src, diags, exit_code, notes", [
    pytest.param("struct S { static constexpr bool a = S::a; };\n"
                 "static_assert( S::a );\nint main() { if( S::a ) {} return 0; }\n",
                 [_cycle("1:34", "S::a")], 101,
                 [f'u.mcu:3:18: {_HALT}E0105 u.mcu:1:34: the value of "S::a" depends on itself'],
                 id="self"),
    pytest.param("struct A { static constexpr bool v = B::v; };\n"
                 "struct B { static constexpr bool v = A::v; };\n"
                 "static_assert( A::v );\nint main() { return B::v; }\n",
                 [_cycle("1:34", "A::v"), _cycle("2:34", "B::v")], 101,
                 [f'u.mcu:4:21: {_HALT}E0105 u.mcu:2:34: the value of "B::v" depends on itself'],
                 id="mutual"),
    pytest.param("struct S { static constexpr HDC hdc = hdc< S >; };\n"
                 "static_assert( hdc< S > == HDC::Hst );\nint main() { return 0; }\n",
                 [_cycle("1:33", "S::hdc")], 0, [], id="hdc"),
    pytest.param("struct S { static constexpr bool a = S::a; };\n"
                 "template< typename T > requires( T::a ) void g() {}\n"
                 "int main() { g< S >(); return 0; }\n",
                 [_cycle("1:34", "S::a")], 101,
                 [f"u.mcu:3:14: {_HALT}unresolvable call: E0105 u.mcu:1:34: "
                  'the value of "S::a" depends on itself'], id="requires"),
    pytest.param("template< HDC h > struct S { static constexpr bool a = S< h >::a; };\n"
                 "int main() { if( S< HDC::Dev >::a ) {} return 0; }\n",
                 [_cycle("1:52", "S<Dev>::a")], 101,
                 [f'u.mcu:2:18: {_HALT}E0105 u.mcu:1:52: the value of "S<Dev>::a" '
                  "depends on itself"], id="template"),
])
def test_a_member_constant_that_refers_to_itself_is_e0105(src, diags, exit_code, notes):
    analysis = analyze(src, "u.mcu")
    assert [format_diagnostic(d) for d in analysis.diagnostics] == diags
    assert analysis.passes["host"].table.evaluating == {}  # every failure unwound it
    result = run_program(analysis)
    assert result.exit_code == exit_code
    assert [format_diagnostic(d) for d in result.notes] == notes


def _member_chain(depth: int, shape: str) -> str:
    """depth member constants, each reading the next; the last is a literal."""
    if shape == "hdc":
        lines = [f"struct S{i} {{ static constexpr HDC hdc = hdc< S{i + 1} >; }};"
                 for i in range(depth - 1)]
        lines.append(f"struct S{depth - 1} {{ static constexpr HDC hdc = HDC::Dev; }};")
        read = "hdc< S0 > == HDC::Dev"
    else:
        lines = [f"struct S{i} {{ static constexpr bool v = S{i + 1}::v; }};"
                 for i in range(depth - 1)]
        lines.append(f"struct S{depth - 1} {{ static constexpr bool v = true; }};")
        read = "S0::v"
    return "\n".join(lines) + f"\nint main() {{ if( {read} ) {{}} return 0; }}\n"


@pytest.mark.parametrize("shape, col", [("member", 37), ("hdc", 36)])
def test_member_constants_nest_at_most_max_const_depth(shape, col):
    assert MAX_CONST_DEPTH == 200
    analysis = analyze(_member_chain(MAX_CONST_DEPTH, shape), "u.mcu")
    assert analysis.diagnostics == []
    assert run_program(analysis).exit_code == 0

    # One more level: the member that would nest past the limit is E0106.
    analysis = analyze(_member_chain(MAX_CONST_DEPTH + 1, shape), "u.mcu")
    diag = f"u.mcu:201:{col}: error[E0106]: member constants nest deeper than 200 levels"
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [diag]
    result = run_program(analysis)
    assert result.exit_code == 101
    assert [format_diagnostic(d) for d in result.notes] == [
        f"u.mcu:202:18: {_HALT}E0106 u.mcu:201:{col}: "
        "member constants nest deeper than 200 levels"
    ]


# -- a broken member constant of a member template's struct -----------------------


# Line 1 is Y, line 2 X, whose hdc is no HDC, lines 3-203 a chain of 201
# member constants, line 204 S and line 205 main.
_OWNER_PRELUDE = ("template< HDC k > struct Y {};\n"
                  "struct X { static constexpr bool hdc = true; };\n"
                  + _member_chain(MAX_CONST_DEPTH + 1, "member").rsplit("\n", 2)[0] + "\n")


# A member template's defaults and requires clause read its struct's member
# constants by name.  A member whose value is a SemaError reports it where
# it is read, as a read through T::a does, at the same place; one that
# nothing reads stays silent.
@pytest.mark.parametrize("value, at, code, message", [
    ("S::a", "204:33", "E0105", 'the value of "S::a" depends on itself'),
    ("S0::v", "202:37", "E0106", "member constants nest deeper than 200 levels"),
    ("hdc< X >", "2:34", "E0103", 'member "hdc" of "X" is not an HDC constant'),
], ids=["E0105", "E0106", "E0103"])
@pytest.mark.parametrize("tparam, requires, reads", [
    ("HDC h = HDC::Hst", "requires( a == HDC::Dev )", True),
    ("HDC h = a", "", True),
    ("HDC h = hdc< Y< a > >", "", True),
    ("HDC h = HDC::Hst", "requires( S::a == HDC::Dev )", True),
    ("HDC h = HDC::Hst", "", False),
], ids=["requires", "default", "struct-argument", "qualified", "unread"])
def test_a_broken_member_constant_is_reported_where_a_member_template_reads_it(
        value, at, code, message, tparam, requires, reads):
    src = (_OWNER_PRELUDE
           + f"struct S {{ static constexpr HDC a = {value}; "
             f"template< {tparam} > {requires} __host__ __device__ void f() {{}} }};\n"
           + "int main() { S{}.f(); return 0; }\n")
    analysis = analyze(src, "u.mcu")
    result = run_program(analysis)
    if not reads:
        assert (analysis.diagnostics, result.exit_code, result.notes) == ([], 0, [])
        return
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [
        f"u.mcu:{at}: error[{code}]: {message}"
    ]
    assert result.exit_code == 101
    assert [format_diagnostic(d) for d in result.notes] == [
        f"u.mcu:205:14: {_HALT}unresolvable call: {code} u.mcu:{at}: {message}"
    ]


_CALL_F = "int main() { S{}.f(); return 0; }\n"


# A read by name is a read through S::m: the same value, or the same
# failure at the same place.  At the parent the bare reads gave no E0103
# and, for the predicate, unbound name "b".
_NOT_HDC = ("struct S { static constexpr HDC a = true; template< HDC h = HDC::Hst > "
            "requires( %s ) __host__ void f() {} };\n")
_UNBOUND = "struct S { static constexpr bool b = q; __host__( %s ) __device__ void f() {} };\n"


@pytest.mark.parametrize("src, read, mode, diag", [
    (_NOT_HDC, "a", Mode.CLASSIC,
     'u.mcu:1:33: error[E0103]: member "a" of "S" is not an HDC constant'),
    (_NOT_HDC, "S::a", Mode.CLASSIC,
     'u.mcu:1:33: error[E0103]: member "a" of "S" is not an HDC constant'),
    (_UNBOUND, "b", Mode.PROPOSAL1, 'u.mcu:1:71: error[E0001]: unbound name "q"'),
    (_UNBOUND, "S::b", Mode.PROPOSAL1, 'u.mcu:1:74: error[E0001]: unbound name "q"'),
], ids=["E0103", "E0103-qualified", "proposal1", "proposal1-qualified"])
def test_a_member_constant_read_by_name_fails_as_a_qualified_read_does(src, read, mode, diag):
    analysis = analyze(src % read + _CALL_F, "u.mcu", mode=mode)
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [diag]


# Y< a > reads a in a template argument list, where the parser takes a
# name for a type: its value is read there before it is tested as an HDC.
@pytest.mark.parametrize("tparam, requires, instance", [
    ("HDC h = a", "", "S::f<Dev>"),
    ("HDC h = hdc< Y< a > >", "", "S::f<Dev>"),
    ("HDC h = HDC::Hst", "requires( a == HDC::Dev )", "S::f<Hst>"),
], ids=["default", "struct-argument", "requires"])
def test_a_member_template_reads_a_member_constant_of_its_struct_by_name(
        tparam, requires, instance):
    src = ("template< HDC k > struct Y { static constexpr HDC hdc = k; };\n"
           f"struct S {{ static constexpr HDC a = HDC::Dev; template< {tparam} > {requires} "
           "__host__ __device__ void f() {} };\n" + _CALL_F)
    analysis = analyze(src, "u.mcu")
    assert analysis.diagnostics == []
    walk = analysis.walks[HOST]
    assert sorted({inst.display() for inst in walk.instances.values()}) == [instance, "main"]
    assert run_program(analysis).exit_code == 0


# -- member constants computed once per table ----------------------------------


def _outputs(src: str) -> dict:
    """Per mode: the check's machine lines, and the forced run's exit code,
    stdout and notes."""
    outputs = {}
    for mode in Mode:
        analysis = analyze(src, "u.mcu", mode=mode)
        result = run_program(analysis)
        outputs[mode.value] = (
            [format_diagnostic(d, "machine") for d in analysis.diagnostics],
            result.exit_code, result.stdout,
            [format_diagnostic(d, "machine") for d in result.notes])
    return outputs


def _e1201(line: int, col: int, *instances: str) -> list:
    return [f'u.mcu:{line}:{col}: error[E1201]: the instantiation of "{i}" must not depend '
            "on whether __CUDA_ARCH__ is defined" for i in instances]


# S's hdc is Hst in the host pass and Dev in the device pass, and each pass's
# table answers hdc< S > with its own value, so g's default picks a
# different overload in each pass.
_SPLIT_HDC = """struct S {
#ifdef __CUDA_ARCH__
  static constexpr HDC hdc = HDC::Dev;
#else
  static constexpr HDC hdc = HDC::Hst;
#endif
};
template< typename T, HDC h = hdc< T > > requires( h == HDC::Hst )
__host__ __device__ int g( T t ) { return 1; }
template< typename T, HDC h = hdc< T > > requires( h == HDC::Dev )
__host__ __device__ int g( T t ) { return 2; }
__global__ void k() { g( S{} ); }
int main() { k<<< 1, 1 >>>(); return g( S{} ); }
"""


def test_each_pass_reads_the_member_constant_of_its_own_table():
    split = (_e1201(12, 23, "g<S, Dev>", "g<S, Hst>"), 1, b"", [])
    assert _outputs(_SPLIT_HDC) == {
        "classic": ([], 1, b"", []), "fidelity": ([], 1, b"", []),
        "sound": split, "proposal1": split, "proposal2": split,
    }


# X differs between the passes and S, shared by both, reads it.  main reads
# hdc< S > first, so the call g( S{} ) reads it through a kept value; that
# value touched the table, so the call memo's host entry for g( S{} ) is not
# reused by the device walk, which picks the __device__ g.  The
# static_assert keeps hdc< S > before the passes' differing names are known.
_TOUCHING_HDC = """#ifdef __CUDA_ARCH__
struct X { static constexpr HDC hdc = HDC::Dev; };
#else
struct X { static constexpr HDC hdc = HDC::Hst; };
#endif
struct S { static constexpr HDC hdc = hdc< X >; };
%s
template< typename T, HDC h = hdc< T > > requires( h == HDC::Hst ) __host__ int g( T t ) { return 1; }
template< typename T, HDC h = hdc< T > > requires( h == HDC::Dev ) __device__ int g( T t ) { return 2; }
int main() { if( hdc< S > == HDC::Hst ) {} return g( S{} ); }
"""


@pytest.mark.parametrize("assertion", [
    "", "static_assert( hdc< S > == HDC::Hst || hdc< S > == HDC::Dev );",
], ids=["walk", "static_assert"])
def test_a_call_that_reads_a_differing_struct_through_a_kept_value_resolves_per_walk(
        assertion):
    e1001 = "u.mcu:10:51: error[E1001]: calling a device function from a host function is not allowed"
    e1201 = _e1201(10, 51, "g<S, Dev>", "g<S, Hst>")
    e1501 = "u.mcu:10:51: error[E1501]: stray call: calling a device function from host code"
    assert _outputs(_TOUCHING_HDC % assertion) == {
        "classic": ([e1001], 1, b"", []), "fidelity": ([e1001], 1, b"", []),
        "sound": ([e1001, *e1201], 1, b"", []), "proposal1": ([e1001, *e1201], 1, b"", []),
        "proposal2": ([*e1201, e1501], 1, b"", []),
    }


def test_a_kept_value_does_not_hide_a_chain_too_deep_from_a_later_read():
    # S100::v is kept after its 150-member chain; S0::v, read second, nests
    # through S100 and past the limit, which a full evaluation finds at S200.
    lines = [f"struct S{i} {{ static constexpr bool v = S{i + 1}::v; }};" for i in range(249)]
    lines.append("struct S249 { static constexpr bool v = true; };")
    src = "\n".join(lines) + "\nint main() { if( S100::v ) {} if( S0::v ) {} return 0; }\n"
    analysis = analyze(src, "u.mcu")
    diag = "u.mcu:201:37: error[E0106]: member constants nest deeper than 200 levels"
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [diag]
    result = run_program(analysis)
    assert result.exit_code == 101
    assert [format_diagnostic(d) for d in result.notes] == [
        f"u.mcu:251:35: {_HALT}E0106 u.mcu:201:37: "
        "member constants nest deeper than 200 levels"
    ]


# -- discard reasons ------------------------------------------------------------


# resolve_overload drops a candidate for the first reason _try_candidate
# finds, in this order: too many explicit template arguments, each explicit
# argument of the wrong kind, the argument count, each template parameter
# that deduction left unbound with no default or a default that is no HDC
# constant, each parameter type that does not resolve or does not match its
# argument, and the requires clause.  The check reports only the E1301 that
# an empty set becomes.
@pytest.mark.parametrize("decl, call, arg_types, reason", [
    ("template< HDC h > void f() {}", "f< HDC::Hst, HDC::Dev >()", [],
     "too many template arguments"),
    ("template< typename T > void f() {}", "f< HDC::Hst >()", [], "expected a type argument"),
    ("template< HDC h > void f() {}", "f< true >()", [], "expected an HDC constant"),
    ("template< HDC h > void f() {}", "f< HDC::Hst >( 1 )", ["int"], "argument count mismatch"),
    ("template< typename T > void f() {}", "f()", [],
     'could not bind template parameter "T"'),
    ("template< HDC h = true > void f() {}", "f()", [], "default is not an HDC constant"),
    ("template< typename T > void f( T x, U y ) {}", "f( 1, 1 )", ["int", "int"],
     "parameter type does not resolve"),
    ("void f( bool b ) {}", "f( 1 )", ["int"], "argument type mismatch"),
    ("template< HDC h > requires( HDC::Hst ) void f() {}", "f< HDC::Hst >()", [],
     "requires clause is not boolean"),
    ("template< HDC h > requires( h == HDC::Dev ) void f() {}", "f< HDC::Hst >()", [],
     "requires clause is false"),
    ("template< typename T > requires( T ) void f() {}", "f< int >()", [],
     '"T" is a type, not a constant'),
])
def test_each_discard_reason_of_a_candidate(decl, call, arg_types, reason):
    src = f"{decl}\nint main() {{ {call}; return 0; }}\n"
    analysis = analyze(src, "d.mcu")
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [
        'd.mcu:2:14: error[E1301]: no viable candidate for call to "f"'
    ]
    table = analysis.passes["host"].table
    [candidate] = table.overloads("f")
    node = table.overloads("main")[0].body[0].expr
    with pytest.raises(SubstFailure) as exc:
        _try_candidate(candidate, node.targs, [Type(a) for a in arg_types], {}, table, None, None)
    assert str(exc.value) == reason


@pytest.mark.parametrize("targ, env, reason", [
    (TypeRef("X", [HdcLit("Hst")]), {}, "expected an HDC constant"),
    (TypeRef("T", []), {"T": Type("int")}, "expected an HDC constant"),
    (TypeRef("Foo", []), {}, '"Foo" is not an HDC constant'),
])
def test_each_reason_a_name_is_no_hdc_argument(targ, env, reason):
    table = _table("")
    with pytest.raises(SubstFailure) as exc:
        _targ_as_hdc(targ, env, table)
    assert str(exc.value) == reason
    assert _targ_as_hdc(TypeRef("h", []), {"h": HDC.Dev}, table) is HDC.Dev
    with pytest.raises(SubstFailure, match="^expected a type argument$"):
        targ_as_type(HdcLit("Hst"), {}, table)


_S = "template< HDC h > struct S {};\n"


# Units that check and run forms no other input reaches: a type that does
# not resolve, conditional and propagated spaces, a call with no body, and
# valid forms.  Each is checked, then run even when the check failed.
@pytest.mark.parametrize("src, mode, diags, exit_code, notes", [
    pytest.param("template< typename T > void f() { T< HDC::Hst > x; }\n"
                 "int main() { f< int >(); return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:1:35: error[E0101]: T is not a template'], 101,
                 [f"u.mcu:1:35: {_HALT}unresolvable type: T is not a template"],
                 id="not-a-template"),
    pytest.param(_S + "int main() { S{}; return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:2:14: error[E0001]: missing template arguments for "S"'], 101,
                 [f'u.mcu:2:14: {_HALT}unresolvable type: E0001 u.mcu:2:14: '
                  'missing template arguments for "S"'], id="missing-targs"),
    pytest.param(_S + "\nint main() { S< HDC::Hst, HDC::Dev >{}; return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:3:14: error[E0001]: too many template arguments for "S"'], 101,
                 [f'u.mcu:3:14: {_HALT}unresolvable type: E0001 u.mcu:3:14: '
                  'too many template arguments for "S"'], id="too-many-targs"),
    pytest.param(_S + "int main() { S< true >{}; return 0; }\n", Mode.CLASSIC,
                 ["u.mcu:2:14: error[E0101]: struct template arguments must be HDC constants"],
                 101, [f"u.mcu:2:14: {_HALT}unresolvable type: "
                       "struct template arguments must be HDC constants"], id="bool-targ"),
    pytest.param(_S + "struct X {};\nint main() { S< X< HDC::Hst > >{}; return 0; }\n",
                 Mode.CLASSIC, ["u.mcu:3:14: error[E0101]: expected an HDC constant"],
                 101, [f"u.mcu:3:14: {_HALT}unresolvable type: expected an HDC constant"],
                 id="template-targ"),
    pytest.param(_S + "template< typename T > void f() { S< T >{}; }\n"
                 "int main() { f< int >(); return 0; }\n", Mode.CLASSIC,
                 ["u.mcu:2:35: error[E0101]: expected an HDC constant"], 101,
                 [f"u.mcu:2:35: {_HALT}unresolvable type: expected an HDC constant"],
                 id="type-parameter-targ"),
    pytest.param(_S + "int main() { S< Foo >{}; return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:2:14: error[E0101]: "Foo" is not an HDC constant'], 101,
                 [f'u.mcu:2:14: {_HALT}unresolvable type: "Foo" is not an HDC constant'],
                 id="unknown-targ"),
    pytest.param("template< typename T > void f() { if( T::x == 1 ) {} }\n"
                 "int main() { f< int >(); return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:1:39: error[E0101]: "int" has no members'], 101,
                 [f'u.mcu:1:39: {_HALT}"int" has no members'], id="builtin-member"),
    pytest.param("__host__( HDC::Hst ) void g() {}\nint main() { g(); return 0; }\n",
                 Mode.PROPOSAL1,
                 ["u.mcu:1:27: error[E0001]: specifier predicate is not boolean"], 101,
                 [f"u.mcu:2:14: {_HALT}unresolvable execution space: "
                  "specifier predicate is not boolean"], id="hdc-predicate"),
    # A failing predicate is reported once, at the declaration, however
    # many sites call it.
    pytest.param("template< typename T > __host__( T::v ) void g() {}\n"
                 "struct S { static constexpr int v = 1; };\n"
                 "int main() { g< S >(); g< S >(); return 0; }\n", Mode.PROPOSAL1,
                 ["u.mcu:1:46: error[E0001]: specifier predicate is not boolean"], 101,
                 [f"u.mcu:3:14: {_HALT}unresolvable execution space: "
                  "specifier predicate is not boolean"], id="predicate-called-twice"),
    pytest.param("int main() { if( hdc< Foo > == HDC::Hst ) {} return 0; }\n", Mode.CLASSIC,
                 ['u.mcu:1:23: error[E0101]: undefined type "Foo"'], 101,
                 [f'u.mcu:1:18: {_HALT}E0101 u.mcu:1:23: undefined type "Foo"'],
                 id="hdc-undefined-type"),
    pytest.param("__host__( false ) __device__( false ) void g() {}\n"
                 "int main() { return 0; }\n", Mode.PROPOSAL1,
                 ['u.mcu:1:44: error[E1401]: all execution-space predicates of "g" are false; '
                  "the instance has no execution space"], 0, [], id="no-space-root"),
    pytest.param("template< typename T > __host__( false ) __device__( false ) void g() {}\n"
                 "int main() { g< int >(); return 0; }\n", Mode.PROPOSAL1,
                 ['u.mcu:2:14: error[E1401]: all execution-space predicates of "g" are false; '
                  "the instance has no execution space"], 101,
                 [f'u.mcu:2:14: {_HALT}unresolvable execution space: E1401 u.mcu:2:14: '
                  'all execution-space predicates of "g" are false; '
                  "the instance has no execution space"], id="no-space-template"),
    # Neither viable overload has code on the host: both stay, and tie.
    pytest.param("__device__ void f( int x ) {}\n"
                 "template< typename T > __device__ void f( T x ) {}\n"
                 "int main() { f( 1 ); return 0; }\n", Mode.PROPOSAL2,
                 ['u.mcu:3:14: error[E1302]: call to "f" is ambiguous (2 candidates survive)'],
                 101, [f'u.mcu:3:14: {_HALT}unresolvable call: E1302 u.mcu:3:14: '
                       'call to "f" is ambiguous (2 candidates survive)'],
                 id="proposal2-tie-off-side"),
    pytest.param("void g();\nint main() { g(); return 0; }\n", Mode.CLASSIC, [], 101,
                 [f'u.mcu:2:14: {_HALT}"g" has no body to execute'], id="declared-only"),
    pytest.param(_S + "template< HDC g > void f() { S< g >{}; }\n"
                 "int main() { f< HDC::Dev >(); return 0; }\n", Mode.CLASSIC, [], 0, [],
                 id="hdc-parameter-targ"),
    pytest.param("struct B {};\ntemplate< typename T, HDC h > void f() {}\n"
                 "int main() { f< B, HDC::Dev >(); return 0; }\n", Mode.CLASSIC, [], 0, [],
                 id="two-explicit-targs"),
    # A member constant no body reads may fail to evaluate.
    pytest.param("struct S { static constexpr bool b = y; __host__ __device__ void g() {} };\n"
                 "int main() { S{}.g(); return 0; }\n", Mode.CLASSIC, [], 0, [],
                 id="unread-member-constant"),
    pytest.param("__host__ __device__( true ) int g() { return 3; }\n"
                 "int main() { return g(); }\n", Mode.PROPOSAL1, [], 3, [],
                 id="one-predicate"),
    pytest.param("struct S { static constexpr static int n = 4; };\n"
                 "int main() { return S::n; }\n", Mode.CLASSIC, [], 4, [],
                 id="repeated-static"),
])
def test_check_and_forced_run_of_rare_forms(src, mode, diags, exit_code, notes):
    analysis = analyze(src, "u.mcu", NVCC, mode)
    assert [format_diagnostic(d) for d in analysis.diagnostics] == diags
    result = run_program(analysis)
    assert result.exit_code == exit_code
    assert [format_diagnostic(d) for d in result.notes] == notes
