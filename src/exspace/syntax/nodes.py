"""AST node types and the body traversal.

Each node carries its source position as an int, ``pos``: the offset in
the unit's prepared text of the token its diagnostics point at, such as a
declaration's name or a binary operator.  The Ast holds the unit's
LineTable, which turns a position into a SrcLoc when a diagnostic needs
one.  Positions are excluded from equality so that two parses of
differently formatted but structurally identical units compare equal.

Every node class derives from Node, a diagnostics.Record, and is a plain
class with __slots__ and a constructor whose parameters are its fields,
pos keyword-only.  Its _compared tuple names the fields equality and repr
read, in constructor order: all but pos, a StructDecl's declared and
member index, and an Ast's lines.  sema._shape reads it too.
"""
from __future__ import annotations

from typing import Optional, Union

from ..diagnostics import LineTable, Record


NOPOS = 0  # the position of a node built without one


class Node(Record):
    """An AST node."""

    __slots__ = ()


# --------------------------------------------------------------------------
# Types and expressions


class TypeRef(Node):
    """A syntactic type: builtin, struct, or template parameter name."""

    __slots__ = ("name", "targs", "pos")
    _compared = ("name", "targs")

    def __init__(self, name: str, targs: Optional[list] = None, *, pos: int = NOPOS):
        self.name = name
        self.targs = [] if targs is None else targs  # HDC-valued expressions
        self.pos = pos


class IntLit(Node):
    __slots__ = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value: int, *, pos: int = NOPOS):
        self.value = value
        self.pos = pos


class StringLit(Node):
    """A double-quoted literal; only printf format strings use these."""

    __slots__ = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value: str, *, pos: int = NOPOS):
        self.value = value
        self.pos = pos


class BoolLit(Node):
    __slots__ = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value: bool, *, pos: int = NOPOS):
        self.value = value
        self.pos = pos


class HdcLit(Node):
    __slots__ = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value: str, *, pos: int = NOPOS):
        self.value = value  # Hst | Dev | HstDev
        self.pos = pos


class CudaArchRef(Node):
    """The builtin constant that is true only in device code."""

    __slots__ = ("pos",)

    def __init__(self, *, pos: int = NOPOS):
        self.pos = pos


class NameRef(Node):
    __slots__ = ("name", "pos")
    _compared = ("name",)

    def __init__(self, name: str, *, pos: int = NOPOS):
        self.name = name
        self.pos = pos


class TempObj(Node):
    """A value-constructed temporary, ``T{}``."""

    __slots__ = ("type", "pos")
    _compared = ("type",)

    def __init__(self, type: TypeRef, *, pos: int = NOPOS):
        self.type = type
        self.pos = pos


class HdcTrait(Node):
    """The compatibility trait applied to a type, ``hdc< T >``."""

    __slots__ = ("type", "pos")
    _compared = ("type",)

    def __init__(self, type: TypeRef, *, pos: int = NOPOS):
        self.type = type
        self.pos = pos


class MemberConst(Node):
    """A direct member-constant reference, ``T::hdc`` (requires clauses)."""

    __slots__ = ("type", "name", "pos")
    _compared = ("type", "name")

    def __init__(self, type: TypeRef, name: str, *, pos: int = NOPOS):
        self.type = type
        self.name = name
        self.pos = pos


class CallExpr(Node):
    __slots__ = ("name", "targs", "args", "pos")
    _compared = ("name", "targs", "args")

    def __init__(self, name: str, targs: Optional[list] = None,
                 args: Optional[list] = None, *, pos: int = NOPOS):
        self.name = name
        self.targs = [] if targs is None else targs
        self.args = [] if args is None else args
        self.pos = pos


class MemberCallExpr(Node):
    __slots__ = ("recv", "name", "targs", "args", "pos")
    _compared = ("recv", "name", "targs", "args")

    def __init__(self, recv: "Expr", name: str, targs: Optional[list] = None,
                 args: Optional[list] = None, *, pos: int = NOPOS):
        self.recv = recv
        self.name = name
        self.targs = [] if targs is None else targs
        self.args = [] if args is None else args
        self.pos = pos


class StaticCallExpr(Node):
    __slots__ = ("type", "name", "targs", "args", "pos")
    _compared = ("type", "name", "targs", "args")

    def __init__(self, type: TypeRef, name: str, targs: Optional[list] = None,
                 args: Optional[list] = None, *, pos: int = NOPOS):
        self.type = type
        self.name = name
        self.targs = [] if targs is None else targs
        self.args = [] if args is None else args
        self.pos = pos


class UnaryExpr(Node):
    __slots__ = ("op", "operand", "pos")
    _compared = ("op", "operand")

    def __init__(self, op: str, operand: "Expr", *, pos: int = NOPOS):
        self.op = op  # !
        self.operand = operand
        self.pos = pos


class BinaryExpr(Node):
    __slots__ = ("op", "lhs", "rhs", "pos")
    _compared = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr", *, pos: int = NOPOS):
        self.op = op  # == !=
        self.lhs = lhs
        self.rhs = rhs
        self.pos = pos


class LogicalExpr(Node):
    __slots__ = ("op", "operands", "pos")
    _compared = ("op", "operands")

    def __init__(self, op: str, operands: list, *, pos: int = NOPOS):
        self.op = op  # && ||, one node per run of one operator
        self.operands = operands  # in source order
        self.pos = pos  # the last operator's


Expr = Union[
    IntLit,
    StringLit,
    BoolLit,
    HdcLit,
    CudaArchRef,
    NameRef,
    TempObj,
    HdcTrait,
    MemberConst,
    CallExpr,
    MemberCallExpr,
    StaticCallExpr,
    UnaryExpr,
    BinaryExpr,
    LogicalExpr,
]


# --------------------------------------------------------------------------
# Statements


class ExprStmt(Node):
    __slots__ = ("expr", "pos")
    _compared = ("expr",)

    def __init__(self, expr: Expr, *, pos: int = NOPOS):
        self.expr = expr
        self.pos = pos


class ReturnStmt(Node):
    __slots__ = ("expr", "pos")
    _compared = ("expr",)

    def __init__(self, expr: Optional[Expr], *, pos: int = NOPOS):
        self.expr = expr
        self.pos = pos


class VarDeclStmt(Node):
    __slots__ = ("type", "name", "pos")
    _compared = ("type", "name")

    def __init__(self, type: TypeRef, name: str, *, pos: int = NOPOS):
        self.type = type
        self.name = name
        self.pos = pos


class IfStmt(Node):
    __slots__ = ("cond", "then", "orelse", "pos")
    _compared = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: list, orelse: Optional[list], *, pos: int = NOPOS):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.pos = pos


class ForStmt(Node):
    """Counting loop: ``for( int v = init; v < bound; ++v )``."""

    __slots__ = ("var", "init", "bound", "body", "pos")
    _compared = ("var", "init", "bound", "body")

    def __init__(self, var: str, init: Expr, bound: Expr, body: list, *, pos: int = NOPOS):
        self.var = var
        self.init = init
        self.bound = bound
        self.body = body
        self.pos = pos


class LaunchStmt(Node):
    """Triple-chevron kernel launch."""

    __slots__ = ("name", "targs", "grid", "block", "args", "pos")
    _compared = ("name", "targs", "grid", "block", "args")

    def __init__(self, name: str, targs: list, grid: Expr, block: Expr, args: list,
                 *, pos: int = NOPOS):
        self.name = name
        self.targs = targs
        self.grid = grid
        self.block = block
        self.args = args
        self.pos = pos


Stmt = Union[ExprStmt, ReturnStmt, VarDeclStmt, IfStmt, ForStmt, LaunchStmt]


# --------------------------------------------------------------------------
# Declarations


class TemplateParam(Node):
    __slots__ = ("kind", "name", "default", "pos")
    _compared = ("kind", "name", "default")

    def __init__(self, kind: str, name: str, default: Optional[Expr], *, pos: int = NOPOS):
        self.kind = kind  # type | hdc
        self.name = name
        self.default = default
        self.pos = pos


class SpecifierSet(Node):
    """Execution-space specifiers attached to a declaration.

    host/device predicates are the optional boolean arguments of the
    conditional-specifier extension; None means unconditional.
    """

    __slots__ = _compared = (
        "host", "host_pred", "device", "device_pred", "global_", "constexpr", "pragma",
    )

    def __init__(
        self,
        host: bool = False,
        host_pred: Optional[Expr] = None,
        device: bool = False,
        device_pred: Optional[Expr] = None,
        global_: bool = False,
        constexpr: bool = False,
        pragma: Optional[str] = None,
    ):
        self.host = host
        self.host_pred = host_pred
        self.device = device
        self.device_pred = device_pred
        self.global_ = global_
        self.constexpr = constexpr
        self.pragma = pragma

    @property
    def pragma_suppress(self) -> bool:
        return self.pragma is not None

    @property
    def undecorated(self) -> bool:
        return not (self.host or self.device or self.global_)

    def has_conditionals(self) -> bool:
        return self.host_pred is not None or self.device_pred is not None


class Param(Node):
    __slots__ = ("type", "name", "pos")
    _compared = ("type", "name")

    def __init__(self, type: TypeRef, name: str, *, pos: int = NOPOS):
        self.type = type
        self.name = name
        self.pos = pos


class FunctionDecl(Node):
    __slots__ = ("name", "tparams", "requires", "spec", "ret", "params", "body", "owner", "pos")
    _compared = ("name", "tparams", "requires", "spec", "ret", "params", "body", "owner")

    def __init__(
        self,
        name: str,
        tparams: list,
        requires: Optional[Expr],
        spec: SpecifierSet,
        ret: TypeRef,
        params: list,
        body: Optional[list],
        owner: Optional[str] = None,
        *,
        pos: int = NOPOS,
    ):
        self.name = name
        self.tparams = tparams
        self.requires = requires
        self.spec = spec
        self.ret = ret
        self.params = params
        self.body = body  # None for a declaration without a body
        self.owner = owner
        self.pos = pos

    def display_name(self) -> str:
        base = f"{self.owner}::{self.name}" if self.owner else self.name
        return base


class MemberVar(Node):
    """A static constexpr member constant (HDC, bool, or int)."""

    __slots__ = ("name", "type_name", "value", "pos")
    _compared = ("name", "type_name", "value")

    def __init__(self, name: str, type_name: str, value: Expr, *, pos: int = NOPOS):
        self.name = name
        self.type_name = type_name
        self.value = value
        self.pos = pos


class StructDecl(Node):
    __slots__ = ("name", "tparams", "spec", "members", "declared", "functions", "constants",
                 "pos")
    _compared = ("name", "tparams", "spec", "members")

    def __init__(self, name: str, tparams: list, spec: SpecifierSet, members: list,
                 *, pos: int = NOPOS):
        self.name = name
        self.tparams = tparams
        self.spec = spec  # struct-level decoration (propagation extension)
        self.members = members  # as parsed; resolve() drops duplicate members
        # The members as parsed, which resolve() reads, so that it may run
        # once per compile pass on an item both passes share.
        self.declared = members
        # The index of members by name that resolve() builds beside members:
        # name -> [FunctionDecl], and name -> MemberVar.
        self.functions: dict = {}
        self.constants: dict = {}
        self.pos = pos

    def member_functions(self) -> list:
        return [m for m in self.members if isinstance(m, FunctionDecl)]


class EnumHdcDecl(Node):
    """The canonical compatibility enum declaration; a no-op item."""

    __slots__ = ("pos",)

    def __init__(self, *, pos: int = NOPOS):
        self.pos = pos


class StaticAssertDecl(Node):
    __slots__ = ("expr", "pos")
    _compared = ("expr",)

    def __init__(self, expr: Expr, *, pos: int = NOPOS):
        self.expr = expr
        self.pos = pos


Item = Union[StructDecl, FunctionDecl, EnumHdcDecl, StaticAssertDecl]


class Ast(Node):
    __slots__ = ("items", "lines")
    _compared = ("items",)

    def __init__(self, items: list, lines: LineTable):
        self.items = items
        self.lines = lines  # the unit's positions

    def decls(self):
        """Every function declaration with its struct, None for a free function."""
        for item in self.items:
            if isinstance(item, FunctionDecl):
                yield item, None
            elif isinstance(item, StructDecl):
                for m in item.member_functions():
                    yield m, item


# What each node evaluates, in source order; other nodes evaluate nothing.
_CHILDREN = {
    ExprStmt: lambda s: [s.expr],
    ReturnStmt: lambda s: [] if s.expr is None else [s.expr],
    IfStmt: lambda s: [s.cond, *s.then, *(s.orelse or ())],
    ForStmt: lambda s: [s.init, s.bound, *s.body],
    LaunchStmt: lambda s: [s.grid, s.block, *s.args],
    CallExpr: lambda e: e.args,
    StaticCallExpr: lambda e: e.args,
    MemberCallExpr: lambda e: [e.recv, *e.args],
    UnaryExpr: lambda e: [e.operand],
    BinaryExpr: lambda e: [e.lhs, e.rhs],
    LogicalExpr: lambda e: e.operands,
}


def walk(stmts: list):
    """Pre-order over statements and the expressions they evaluate.

    Types and template arguments are not entered: they are resolved, not
    evaluated.
    """
    stack = stmts[::-1]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(type(node))
        if children is not None:
            stack.extend(reversed(children(node)))
