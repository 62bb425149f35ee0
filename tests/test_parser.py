import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exspace.cli import main
from exspace.diagnostics import format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import analyze
from exspace.syntax import nodes as n
from exspace.syntax.parser import MAX_NESTING, ParseError, parse
from exspace.syntax.preprocess import CompileProfile, prepare, preprocess
from exspace.syntax import tokenize

KERNEL_UNIT = """__device__ void print() {
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


def prep(text: str) -> str:
    return preprocess(text, CompileProfile().passes()[0])


def test_kernel_unit_shape():
    ast = parse(prep(KERNEL_UNIT), "k.mcu")
    names = [it.name for it in ast.items]
    assert names == ["print", "kernel", "main"]
    kernel = ast.items[1]
    assert kernel.spec.global_
    assert not kernel.spec.host and not kernel.spec.device
    assert isinstance(kernel.body[0], n.ForStmt)
    launch = ast.items[2].body[0]
    assert isinstance(launch, n.LaunchStmt)
    assert launch.grid == n.IntLit(4)
    assert launch.block == n.IntLit(3)


def test_empty_unit():
    ast = parse("", "e.mcu")
    assert ast.items == []


def test_nodes_compare_and_show_their_fields_but_not_their_positions():
    call = n.CallExpr("f", [n.HdcLit("Dev", pos=4)], [n.IntLit(1, pos=9)], pos=2)
    assert call == n.CallExpr("f", [n.HdcLit("Dev")], [n.IntLit(1)])
    assert call.pos == 2 and n.IntLit(1).pos == n.NOPOS
    assert call != n.CallExpr("f", [n.HdcLit("Hst")], [n.IntLit(1)])
    assert n.IntLit(1) != n.BoolLit(1)  # a node equals only a node of its class
    assert repr(call) == "CallExpr(name='f', targs=[HdcLit(value='Dev')], args=[IntLit(value=1)])"
    assert repr(n.CudaArchRef(pos=3)) == "CudaArchRef()"
    # A list field left out is a fresh empty list.
    assert n.CallExpr("g").targs == n.CallExpr("g").args == []
    assert n.CallExpr("g").args is not n.CallExpr("g").args
    # A struct's members as parsed are no field of it.
    struct = parse("struct S { static constexpr bool a = true; };", "s.mcu").items[0]
    struct.declared = []
    assert struct == parse("struct S {\n  static constexpr bool a = true;\n};", "t.mcu").items[0]
    assert "declared" not in repr(struct) and "pos" not in repr(struct)


# Oracle: enumerate every subset of the three specifiers; the valid ones
# are {}, {H}, {D}, {H,D}, and {G}.
_VALID = [(), ("__host__",), ("__device__",), ("__host__", "__device__"), ("__global__",)]


@pytest.mark.parametrize(
    "combo",
    [c for k in range(4) for c in itertools.combinations(
        ("__host__", "__device__", "__global__"), k)],
)
def test_specifier_combination_table(combo):
    ret = "void" if "__global__" in combo else "int"
    body = "{}" if ret == "void" else "{ return 0; }"
    src = f"{' '.join(combo)} {ret} f() {body}\n"
    if combo in _VALID:
        parse(src, "s.mcu")
    else:
        with pytest.raises(ParseError):
            parse(src, "s.mcu")


def test_global_host_combination_is_rejected():
    with pytest.raises(ParseError):
        parse("__global__ __host__ void f(){}", "g.mcu")


def test_global_must_return_void():
    with pytest.raises(ParseError):
        parse("__global__ int f(){ return 0; }", "g.mcu")


def test_main_constraints():
    with pytest.raises(ParseError):
        parse("__device__ int main() { return 0; }", "m.mcu")
    with pytest.raises(ParseError):
        parse("void main() {}", "m.mcu")
    with pytest.raises(ParseError):
        parse("template< typename T > int main() { return 0; }", "m.mcu")


def test_every_item_kind_parses():
    fixtures = [
        ("""struct D {
  static constexpr HDC hdc = HDC::Dev;
  __device__ int call() { return 2; }
};
#pragma hd_warning_disable
template< typename T, HDC h = hdc<T> >
requires( h == HDC::Dev )
__device__ void f( T t ) { t.call(); }
__global__ void kern( int N ) {
  for( int i = 0; i < N; ++i ) {
    f( D{} );
  }
  if( cuda_arch ) {
    printf( "%d", 1 );
  } else {
    release_assert( true );
  }
}
int main() {
  kern<<< 2, 2 >>>( 3 );
  return cudaDeviceSynchronize();
}
""", [(n.StructDecl, "D"), (n.FunctionDecl, "f"), (n.FunctionDecl, "kern"),
      (n.FunctionDecl, "main")]),
        ("""enum class HDC { Hst, Dev, HstDev };
static_assert( hdc<S> == HDC::Hst || true );
struct S {};
template< typename T >
__host__( hdc<T> == HDC::Hst )
__device__( !(hdc<T> == HDC::Hst) )
void wrap() { T{}.call(); }
""", [(n.EnumHdcDecl, None), (n.StaticAssertDecl, None), (n.StructDecl, "S"),
      (n.FunctionDecl, "wrap")]),
    ]
    for src, kinds in fixtures:
        items = parse(prep(src), "r.mcu").items
        assert [(type(it), getattr(it, "name", None)) for it in items] == kinds


def test_member_constant_forms():
    ast = parse("struct D { static constexpr HDC hdc = HDC::Dev; };", "m.mcu")
    mv = ast.items[0].members[0]
    assert mv.type_name == "HDC"
    assert mv.value == n.HdcLit("Dev")
    # both keyword orders are accepted
    parse("struct B { constexpr static bool hdc = true; };", "m.mcu")
    with pytest.raises(ParseError):
        parse("struct X { HDC hdc = HDC::Dev; };", "m.mcu")


# A member's specifiers are one run, whether or not static splits it: a
# specifier repeated across static is a duplicate, and one side on each
# side of static gives both.
@pytest.mark.parametrize("specs, col, message", [
    ("__host__ static __host__ int", 28, "duplicate specifier __host__"),
    ("__host__(true) static __host__(false) int", 34, "duplicate specifier __host__"),
    ("__host__ static __global__ void", 39, "__global__ excludes __host__ and __device__"),
    ("__global__ static void", 30, "__global__ is not allowed on member functions"),
    ("__host__ static __device__ int", None, None),
])
def test_member_specifiers_split_by_static_are_one_run(specs, col, message):
    src = f"struct S {{ {specs} f() {{ return 1; }} }};"
    if message is None:
        spec = parse(src, "s.mcu").items[0].members[0].spec
        assert spec.host and spec.device
        return
    with pytest.raises(ParseError) as exc:
        parse(src, "s.mcu")
    assert exc.value.message == message
    assert (exc.value.loc.line, exc.value.loc.col) == (1, col)


def test_static_on_a_free_declaration_is_not_a_type():
    for src in ("static int f() { return 1; }", "static struct S {};"):
        with pytest.raises(ParseError) as exc:
            parse(src, "s.mcu")
        assert exc.value.message == "expected type name, found 'static'"
        assert (exc.value.loc.line, exc.value.loc.col) == (1, 1)


def test_struct_templates_take_hdc_parameters_only():
    parse("template< HDC x > struct S { };", "t.mcu")
    with pytest.raises(ParseError):
        parse("template< typename T > struct S { };", "t.mcu")


def test_one_type_and_one_hdc_parameter_at_most():
    with pytest.raises(ParseError):
        parse("template< typename T, typename U > void f() {}", "t.mcu")
    with pytest.raises(ParseError):
        parse("template< HDC a, HDC b > void f() {}", "t.mcu")
    parse("template< typename T, HDC h = hdc<T> > void f() {}", "t.mcu")


def test_requires_clause_needs_template():
    with pytest.raises(ParseError):
        parse("requires( true ) void f() {}", "r.mcu")


def test_printf_format_subset():
    parse('void f() { printf( "hi" ); }', "p.mcu")
    parse('void f() { printf( "%d", 1 ); }', "p.mcu")
    with pytest.raises(ParseError):
        parse('void f() { printf( "%s", 1 ); }', "p.mcu")
    with pytest.raises(ParseError):
        parse('void f() { printf( "%d" ); }', "p.mcu")
    with pytest.raises(ParseError):
        parse('void f() { printf( "%d%d", 1, 2 ); }', "p.mcu")
    with pytest.raises(ParseError):
        parse("void f() { printf( 1 ); }", "p.mcu")


def test_builtin_arity_is_checked():
    with pytest.raises(ParseError):
        parse("void f() { release_assert(); }", "b.mcu")
    with pytest.raises(ParseError):
        parse("void f() { cudaDeviceSynchronize( 1 ); }", "b.mcu")


def test_pragma_attaches_to_next_function():
    ast = parse("#pragma hd_warning_disable\nvoid f() {}", "p.mcu")
    assert ast.items[0].spec.pragma == "hd_warning_disable"
    with pytest.raises(ParseError):
        parse("#pragma hd_warning_disable\nstruct S {};", "p.mcu")
    with pytest.raises(ParseError):
        parse("#pragma something_else\nvoid f() {}", "p.mcu")


def test_enum_declaration_must_be_canonical():
    parse("enum class HDC { Hst, Dev, HstDev };", "e.mcu")
    with pytest.raises(ParseError):
        parse("enum class HDC { Hst, Dev };", "e.mcu")
    with pytest.raises(ParseError):
        parse("enum class Other { A };", "e.mcu")


def test_erase_mode_discards_specifiers():
    src = "__host__ __device__ void f( int x ) {}"
    ast = parse(src, "e.mcu", specifier_mode="erase")
    assert ast.items[0].spec.undecorated
    ast2 = parse("template< typename T > __host__( hdc<T> == HDC::Hst ) void g() {}",
                 "e.mcu", specifier_mode="erase")
    assert ast2.items[0].spec.undecorated


def test_reject_mode_errors_on_specifiers():
    with pytest.raises(ParseError) as exc:
        parse("__device__ void f() {}", "r.mcu", specifier_mode="reject")
    assert "not recognized" in exc.value.message


def test_launch_with_explicit_template_arguments():
    ast = parse("__global__ void k() {}\nint main() { k<<< 1, 1 >>>(); return 0; }", "l.mcu")
    launch = ast.items[1].body[0]
    assert isinstance(launch, n.LaunchStmt)
    src = "template< typename T > __global__ void k( T t ) {}\nstruct S {};\nint main() { k< S ><<< 1, 2 >>>( S{} ); return 0; }"
    launch = parse(src, "l.mcu").items[2].body[0]
    assert isinstance(launch, n.LaunchStmt)
    assert launch.targs and launch.targs[0].name == "S"


def test_variable_declaration_of_struct_template():
    src = "template< HDC x > struct S1d {};\n__device__ void g() { S1d< HDC::Dev > v; }"
    ast = parse(src, "v.mcu")
    stmt = ast.items[1].body[0]
    assert isinstance(stmt, n.VarDeclStmt)
    assert stmt.type.name == "S1d"
    assert stmt.type.targs == [n.HdcLit("Dev")]


def test_qualified_std_abort_call():
    ast = parse("void f() { std::abort(); }", "q.mcu")
    call = ast.items[0].body[0].expr
    assert isinstance(call, n.CallExpr)
    assert call.name == "std::abort"


def test_parse_error_reports_expected_token():
    with pytest.raises(ParseError) as exc:
        parse("struct S { void f() {}\n", "x.mcu")
    assert "expected" in exc.value.message
    assert exc.value.loc.line == 2


def test_only_ascii_digits_lex_as_integers():
    with pytest.raises(ParseError) as exc:
        parse("int f() { return 1\u00b2; }", "d.mcu")
    assert exc.value.message == "unexpected character '\u00b2'"
    assert (exc.value.loc.line, exc.value.loc.col) == (1, 19)


@pytest.mark.parametrize("src, at, message", [
    ("#pragma hd_warning_disable\nstatic_assert( true );\n", "2:1",
     "a pragma must precede a function"),
    ("template< HDC h > requires( true ) struct S {};\n", "1:36",
     "a requires clause cannot constrain a struct"),
    ("template< int N > void f() {}\n", "1:11",
     "expected 'typename' or 'HDC' template parameter"),
    ("constexpr struct S {};\n", "1:18", "invalid specifier on a struct"),
    ("struct S { template< HDC h > static constexpr int n = 1; };\n", "1:51",
     "invalid declaration of a member constant"),
    ("struct S { static constexpr S n = 1; };\n", "1:31",
     "member constants must have type HDC, bool, or int"),
    ("struct S { __host__ static constexpr int n = 1; };\n", "1:42",
     "invalid specifier on a member constant"),
    ("void f() { for( int i = 0; j < 1; ++i ) {} }\n", "1:12",
     "the loop condition and increment must use the loop variable"),
    ("int f() { return x< HDC::Hst >; }\n", "1:31", "unexpected template arguments on 'x'"),
])
def test_declaration_and_statement_errors(src, at, message):
    assert [format_diagnostic(d) for d in analyze(src, "p.mcu").diagnostics] == [
        f"p.mcu:{at}: error[E0001]: {message}"
    ]


def test_integer_literal_beyond_int_conversion_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("int f() { return " + "9" * 5000 + "; }", "d.mcu")
    assert exc.value.message == "integer literal is too long"
    assert (exc.value.loc.line, exc.value.loc.col) == (1, 18)


# Each shape nests one construct k deep in main.  The deepest k the parser
# accepts depends on the levels the shape opens per step (two for a
# template argument holding hdc<>) and on those around it (main's body, and
# the statement's expression or block).
_NESTED = {
    "parens": (62, lambda k: "int main() { return " + "(" * k + "1" + ")" * k + "; }"),
    "not": (62, lambda k: "int main() { if( " + "!" * k + "true ) {} return 0; }"),
    "if": (63, lambda k: "int main() { " + "if( true ) { " * k + "}" * k + " return 0; }"),
    "for": (63, lambda k: "int main() { " + "".join(
        f"for( int i{j} = 0; i{j} < 1; ++i{j} ) {{ " for j in range(k)) + "}" * k
        + " return 0; }"),
    "call": (62, lambda k: "__host__ __device__ int f( int x ) { return x; }\n"
             "int main() { return " + "f( " * k + "0" + " )" * k + "; }"),
    "member-call": (62, lambda k: "struct S { __host__ __device__ int g( int x ) "
                    "{ return x; } };\nint main() { return " + "S{}.g( " * k + "0"
                    + " )" * k + "; }"),
    "template-args": (31, lambda k: "template< HDC H > struct S "
                      "{ static constexpr int n = 1; };\nint main() { return "
                      + "S< hdc< " * k + "int" + " > >" * k + "::n; }"),
    # Each link after the first opens a level.  A chain of two or more links
    # is an E0001 wherever a walk reaches it, so it sits in a template that
    # main does not call.
    "member-chain": (63, lambda k: "template< typename T > void f() { T{}" + ".g()" * k
                     + "; }\nint main() { return 0; }"),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_limit_holds_for_every_later_stage(shape):
    deepest, make = _NESTED[shape]
    with pytest.raises(ParseError) as exc:
        parse(make(deepest + 1), "n.mcu")
    assert exc.value.message == f"nesting exceeds {MAX_NESTING} levels"
    # The deepest accepted unit also resolves, walks and runs.
    analysis = analyze(make(deepest), "n.mcu")
    assert analysis.diagnostics == []
    run_program(analysis)


@pytest.mark.parametrize("links", [64, 10_000])
def test_a_long_member_call_chain_is_a_nesting_error_in_every_stage(links, tmp_path, capsys):
    src = ("struct S { __host__ __device__ S g() { return S{}; } };\n"
           "int main() { S{}" + ".g()" * links + "; return 0; }\n")
    # main's body and the statement's expression are levels 1 and 2; link
    # 64 opens level 65, at its dot.
    error = "c.mcu:2:269: error[E0001]: nesting exceeds 64 levels"
    analysis = analyze(src, "c.mcu")
    assert [format_diagnostic(d) for d in analysis.diagnostics] == [error]
    with pytest.raises(ValueError, match="the unit has no main function"):
        run_program(analysis)
    unit = tmp_path / "c.mcu"
    unit.write_text(src)
    assert main(["check", str(unit)]) == 1
    assert capsys.readouterr().out == error.replace("c.mcu", str(unit)) + "\n"


def test_a_template_argument_list_at_the_limit_fails_where_the_expression_does():
    # The statement is tried as a declaration first; when its template
    # argument list passes the limit, the parser backtracks, and the error
    # comes from the expression parse, whose own level is open: two columns
    # before where the declaration parse would have put it.
    src = ("template< HDC H > struct S { static constexpr int n = 1; };\nint main() { "
           + "S< hdc< " * 32 + "int" + " > >" * 32 + "::n; return 0; }\n")
    assert [format_diagnostic(d) for d in analyze(src, "t.mcu").diagnostics] == [
        "t.mcu:2:263: error[E0001]: nesting exceeds 64 levels"
    ]


def test_nesting_error_sits_at_the_token_that_passes_the_limit():
    with pytest.raises(ParseError) as exc:
        parse("int main() {\n  return " + "(" * 3000 + "1" + ")" * 3000 + ";\n}", "n.mcu")
    # main's body is level 1, and the return expression opens level 2 at the
    # first parenthesis, so parenthesis MAX_NESTING opens one level too many.
    assert (exc.value.loc.line, exc.value.loc.col) == (2, 10 + MAX_NESTING - 1)


def test_closed_levels_do_not_count_toward_the_limit():
    stmt = ("if( !( f< S< hdc< int > > >( S{}.g( 1 ) ) == 1 ) ) { "
            "for( int i = 0; i < 1; ++i ) { } }\n")
    parse("int main() {\n" + stmt * (2 * MAX_NESTING) + "return 0; }\n", "n.mcu")


def _shape(e, lines):
    """An expression tree as nested tuples, each operator with its column."""
    if isinstance(e, n.LogicalExpr):
        return (e.op, lines.loc(e.pos).col, *(_shape(o, lines) for o in e.operands))
    if isinstance(e, n.BinaryExpr):
        return (e.op, lines.loc(e.pos).col, _shape(e.lhs, lines), _shape(e.rhs, lines))
    if isinstance(e, n.UnaryExpr):
        return (e.op, lines.loc(e.pos).col, _shape(e.operand, lines))
    return e.name


def _return_expr(expr: str):
    """The return expression, and the LineTable that locates its positions."""
    src = f"bool f( bool a, bool b, bool c, bool d ) {{ return {expr}; }}"
    ast = parse(src, "o.mcu")
    return ast.items[0].body[0].expr, ast.lines


# The return expression starts at column 51.  A run of one logical operator
# is one node, at its last operator.
@pytest.mark.parametrize("expr, tree", [
    ("a || b && c", ("||", 53, "a", ("&&", 58, "b", "c"))),
    ("a && b || c && d", ("||", 58, ("&&", 53, "a", "b"), ("&&", 63, "c", "d"))),
    ("a || b || c", ("||", 58, "a", "b", "c")),
    ("a && b && c", ("&&", 58, "a", "b", "c")),
    ("!a == b", ("==", 54, ("!", 51, "a"), "b")),
    ("a != b && !c", ("&&", 58, ("!=", 53, "a", "b"), ("!", 61, "c"))),
    ("(a || b) && c", ("&&", 60, ("||", 54, "a", "b"), "c")),
    ("!!a", ("!", 51, ("!", 52, "a"))),
    ("(a && b) && c", ("&&", 60, "a", "b", "c")),
    ("a && (b && c)", ("&&", 53, "a", ("&&", 59, "b", "c"))),
    ("(a || b) || c && d", ("||", 60, "a", "b", ("&&", 65, "c", "d"))),
    ("a && b || c || d", ("||", 63, ("&&", 53, "a", "b"), "c", "d")),
])
def test_operator_trees(expr, tree):
    assert _shape(*_return_expr(expr)) == tree


@pytest.mark.parametrize("expr, col, message", [
    # A comparison takes two unary operands and does not chain.
    ("a == b == c", 58, "expected ';', found '=='"),
    ("a ||", 55, "expected an expression, found ';'"),
    ("a && b !", 58, "expected ';', found '!'"),
    # A string token is shown in its quotes, unlike the keyword it spells.
    ('a "true"', 53, "expected ';', found '\"true\"'"),
])
def test_operator_errors(expr, col, message):
    with pytest.raises(ParseError) as exc:
        _return_expr(expr)
    assert (exc.value.loc.line, exc.value.loc.col) == (1, col)
    assert exc.value.message == message


@pytest.mark.parametrize("text", ["(", "true", "x"])
def test_a_string_is_not_a_template_argument(text):
    # A string whose text spells a keyword or punctuator is still a string.
    src = ("template< HDC H > struct S { static constexpr int n = 1; };\n"
           f'int main() {{ return S< "{text}" >::n; }}\n')
    [d] = analyze(src, "s.mcu").diagnostics
    assert (d.code, d.loc.line, d.loc.col) == ("E0001", 2, 24)
    quoted = f'"{text}"'
    assert d.message == f"expected template argument, found {quoted!r}"


def test_a_string_is_not_an_hdc_value():
    with pytest.raises(ParseError) as exc:
        parse('bool f() { return HDC::"Hst" == HDC::Hst; }', "s.mcu")
    assert (exc.value.loc.col, exc.value.message) == (24, "unknown HDC value 'Hst'")


CORPUS = [p.read_text(encoding="utf-8")
          for p in sorted((Path(__file__).parent.parent / "corpus").glob("*.mcu"))]
# Characters MiniCU uses, and some it does not.
MUTATION_CHARS = "aZ_09 \n\t{}()<>,;.!=:&|+\"#%/\\²é"


@st.composite
def mutated_corpus_units(draw):
    """A corpus file after a few line and character mutations."""
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(
            ("drop", "copy", "swap", "insert", "delete", "replace", "truncate")))
        if op == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif op in ("drop", "copy", "swap"):
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if op == "drop":
                del lines[i]
            elif op == "copy":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
        else:
            at = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from(MUTATION_CHARS)) if op != "delete" else ""
            text = text[:at] + char + text[at + (op != "insert"):]
    return text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_corpus_units(), st.sampled_from(("keep", "erase", "reject")))
def test_parse_is_total_on_mutated_corpus_units(text, specifier_mode):
    prepared = prepare(text)
    try:
        ast = parse(tokenize(prepared, "m.mcu"), "m.mcu", specifier_mode)
    except ParseError as e:
        lines = prepared.split("\n")
        assert e.loc.file == "m.mcu"
        assert 1 <= e.loc.line <= len(lines)
        assert 1 <= e.loc.col <= len(lines[e.loc.line - 1]) + 1
    else:
        assert isinstance(ast, n.Ast)
