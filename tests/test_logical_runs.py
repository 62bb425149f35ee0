"""Runs of && and || operands: any length, in every place a condition sits.

A run is one node, so no stage recurses once per operand.  An answer-known
property compares the check and the run with a Python oracle.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspace.diagnostics import format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import analyze

N = 10_000


def _run(op: str, operand: str, last: str) -> str:
    """N operands joined by op: N - 1 copies of operand, then last."""
    return f" {op} ".join([operand] * (N - 1) + [last])


_DEVICE_D = "__device__ bool d() { return true; }\n"
_STRAY_D = ("error[E1001]: calling a device function from a host function is not allowed",
            'note[N0001]: execution halted on a stray call: "d" is not compiled for host code')
_NO_F = ('error[E1301]: no viable candidate for call to "f"',
         "note[N0001]: execution halted on a stray call: unresolvable call: "
         'E1301 r.mcu:4:14: no viable candidate for call to "f"')
_NOT_BOOL = ("error[E0101]: logical operands are not booleans",
             "note[N0001]: execution halted on a stray call: logical operands are not booleans")


def _requires(clause: str) -> str:
    return (f"template< HDC x >\nrequires( {clause} )\nvoid f() {{ printf( \"f\" ); }}\n"
            "int main() { f< HDC::Hst >(); return 0; }\n")


def _member(value: str) -> str:
    return (f"struct S {{ static constexpr bool f = {value}; }};\n"
            'int main() { if( S::f ) { printf( "s" ); } return 0; }\n')


# Each case: the unit, the check's diagnostics and the run's notes as
# (location, text after the location), its exit code and its stdout.
_CASES = {
    "body-and": (
        _DEVICE_D + "int main() { if( " + _run("&&", "true", "d()")
        + ' ) { printf( "x" ); } return 0; }\n',
        [("2:80010", _STRAY_D[0])], [("2:80010", _STRAY_D[1])], 101, b""),
    "body-or": (
        _DEVICE_D + "int main() { if( " + _run("||", "false", "d()")
        + ' ) { printf( "x" ); } return 0; }\n',
        [("2:90009", _STRAY_D[0])], [("2:90009", _STRAY_D[1])], 101, b""),
    "static-assert-and": (
        "static_assert( " + _run("&&", "true", "!true") + " );\nint main() { return 0; }\n",
        [("1:1", "error[E0104]: static assertion failed")], [], 0, b""),
    "static-assert-or": (
        "static_assert( " + _run("||", "false", "q") + " );\nint main() { return 0; }\n",
        [("1:1", 'error[E0104]: static assertion cannot be evaluated: unbound name "q"')],
        [], 0, b""),
    "requires-and": (_requires(_run("&&", "true", "x == HDC::Hst")), [], [], 0, b"f"),
    "requires-or": (
        _requires(_run("||", "false", "x == HDC::Dev")),
        [("4:14", _NO_F[0])], [("4:14", _NO_F[1])], 101, b""),
    "member-and": (_member(_run("&&", "true", "!false")), [], [], 0, b"s"),
    "member-or": (
        _member(_run("||", "false", "1")),
        [("2:18", _NOT_BOOL[0])], [("2:18", _NOT_BOOL[1])], 101, b""),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_a_run_of_ten_thousand_operands_is_checked_and_run(case):
    src, diags, notes, exit_code, stdout = _CASES[case]
    analysis = analyze(src, "r.mcu")
    assert [format_diagnostic(d, "machine") for d in analysis.all_diagnostics] == [
        f"r.mcu:{loc}: {text}" for loc, text in diags
    ]
    result = run_program(analysis)
    assert (result.exit_code, result.stdout) == (exit_code, stdout)
    assert [format_diagnostic(d, "machine") for d in result.notes] == [
        f"r.mcu:{loc}: {text}" for loc, text in notes
    ]


# -- an answer-known property ---------------------------------------------------
#
# An expression is a tuple tree: ("lit", value), ("call", value), ("not", e),
# ("paren", e), ("cmp", op, lhs, rhs) or ("run", op, operands).  A call prints
# a marker and returns its value, so stdout shows which operands ran.

_PREC = {"||": 1, "&&": 2, "cmp": 3}  # and 4 for a unary operand


@st.composite
def expressions(draw, calls: bool):
    leaves = [draw(st.integers(2, 400))]  # the operands left to draw, roughly
    leaf_kinds = ("lit", "call") if calls else ("lit",)

    def expr(depth, keep):
        # keep is the value that lets the enclosing run go on, or None; most
        # leaves take it, so that long runs are not decided at once.
        kinds = leaf_kinds
        if depth and leaves[0] > 1:
            kinds += ("not", "paren", "cmp", "run")
        kind = draw(st.sampled_from(kinds))
        if kind in ("lit", "call"):
            leaves[0] -= 1
            if keep is None:
                return (kind, draw(st.booleans()))
            return (kind, keep is (draw(st.integers(0, 63)) > 0))
        if kind == "not":
            return (kind, expr(depth - 1, None if keep is None else not keep))
        if kind == "paren":
            return (kind, expr(depth - 1, keep))
        if kind == "cmp":
            op = draw(st.sampled_from(("==", "!=")))
            return (kind, op, expr(depth - 1, None), expr(depth - 1, None))
        size = draw(st.integers(2, max(2, min(300, leaves[0]))))
        op = draw(st.sampled_from(("&&", "||")))
        return (kind, op, [expr(depth - 1, op == "&&") for _ in range(size)])

    return expr(5, None)


def _source(e, need: int, marks: dict) -> str:
    """e as MiniCU, in parentheses if it binds looser than need; marks gets
    each call's number, by id, in source order."""
    kind = e[0]
    if kind == "lit":
        return "true" if e[1] else "false"
    if kind == "call":
        marks[id(e)] = len(marks) + 1
        return f"{'t' if e[1] else 'f'}( {marks[id(e)]} )"
    if kind == "not":
        return "!" + _source(e[1], 4, marks)
    if kind == "paren":
        return "( " + _source(e[1], 0, marks) + " )"
    if kind == "cmp":
        prec = _PREC["cmp"]
        text = f"{_source(e[2], 4, marks)} {e[1]} {_source(e[3], 4, marks)}"
    else:
        prec = _PREC[e[1]]
        text = f" {e[1]} ".join(_source(o, prec + 1, marks) for o in e[2])
    return text if prec >= need else f"( {text} )"


def _oracle(e, marks: dict, out: list) -> bool:
    """The value of e; out gets the marker of each call that runs."""
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "call":
        out.append(f"[{marks[id(e)]}]")
        return e[1]
    if kind == "not":
        return not _oracle(e[1], marks, out)
    if kind == "paren":
        return _oracle(e[1], marks, out)
    if kind == "cmp":
        lhs, rhs = _oracle(e[2], marks, out), _oracle(e[3], marks, out)
        return lhs == rhs if e[1] == "==" else lhs != rhs
    decides = e[1] == "||"
    return decides if any(_oracle(o, marks, out) is decides for o in e[2]) else not decides


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(expressions(calls=False))
def test_static_assert_fails_exactly_when_the_oracle_says_false(e):
    marks = {}
    src = f"static_assert( {_source(e, 0, marks)} );\nint main() {{ return 0; }}\n"
    expected = [] if _oracle(e, marks, []) else [("E0104", "static assertion failed")]
    assert [(d.code, d.message) for d in analyze(src, "p.mcu").all_diagnostics] == expected


_MARKERS = "".join(
    f'__host__ __device__ bool {name}( int k ) {{ printf( "[%d]", k ); return {value}; }}\n'
    for name, value in (("t", "true"), ("f", "false"))
)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(expressions(calls=True))
def test_a_run_prints_what_the_oracle_says(e):
    marks = {}
    cond = _source(e, 0, marks)
    src = _MARKERS + f'int main() {{ if( {cond} ) {{ printf( "1" ); }} return 0; }}\n'
    out = []
    value = _oracle(e, marks, out)
    analysis = analyze(src, "p.mcu")
    assert analysis.all_diagnostics == []
    result = run_program(analysis)
    assert result.exit_code == 0
    assert result.stdout.decode() == "".join(out) + ("1" if value else "")
