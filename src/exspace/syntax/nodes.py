"""AST node types and the body traversal.

Each node carries its source position as an int, ``pos``: the offset in
the unit's prepared text of the token its diagnostics point at, such as a
declaration's name or a binary operator.  The Ast holds the unit's
LineTable, which turns a position into a SrcLoc when a diagnostic needs
one.  Positions are excluded from equality so that two parses of
differently formatted but structurally identical units compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..diagnostics import LineTable


NOPOS = 0  # the position of a node built without one


def _pos_field():
    return field(compare=False, kw_only=True, default=NOPOS)


# --------------------------------------------------------------------------
# Types and expressions


@dataclass
class TypeRef:
    """A syntactic type: builtin, struct, or template parameter name."""

    name: str
    targs: list = field(default_factory=list)  # HDC-valued expressions
    pos: int = _pos_field()


@dataclass
class IntLit:
    value: int
    pos: int = _pos_field()


@dataclass
class StringLit:
    """A double-quoted literal; only printf format strings use these."""

    value: str
    pos: int = _pos_field()


@dataclass
class BoolLit:
    value: bool
    pos: int = _pos_field()


@dataclass
class HdcLit:
    value: str  # Hst | Dev | HstDev
    pos: int = _pos_field()


@dataclass
class CudaArchRef:
    """The builtin constant that is true only in device code."""

    pos: int = _pos_field()


@dataclass
class NameRef:
    name: str
    pos: int = _pos_field()


@dataclass
class TempObj:
    """A value-constructed temporary, ``T{}``."""

    type: TypeRef
    pos: int = _pos_field()


@dataclass
class HdcTrait:
    """The compatibility trait applied to a type, ``hdc< T >``."""

    type: TypeRef
    pos: int = _pos_field()


@dataclass
class MemberConst:
    """A direct member-constant reference, ``T::hdc`` (requires clauses)."""

    type: TypeRef
    name: str
    pos: int = _pos_field()


@dataclass
class CallExpr:
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    pos: int = _pos_field()


@dataclass
class MemberCallExpr:
    recv: "Expr"
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    pos: int = _pos_field()


@dataclass
class StaticCallExpr:
    type: TypeRef
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    pos: int = _pos_field()


@dataclass
class UnaryExpr:
    op: str  # !
    operand: "Expr"
    pos: int = _pos_field()


@dataclass
class BinaryExpr:
    op: str  # == !=
    lhs: "Expr"
    rhs: "Expr"
    pos: int = _pos_field()


@dataclass
class LogicalExpr:
    op: str  # && ||, one node per run of one operator
    operands: list  # in source order
    pos: int = _pos_field()  # the last operator's


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


@dataclass
class ExprStmt:
    expr: Expr
    pos: int = _pos_field()


@dataclass
class ReturnStmt:
    expr: Optional[Expr]
    pos: int = _pos_field()


@dataclass
class VarDeclStmt:
    type: TypeRef
    name: str
    pos: int = _pos_field()


@dataclass
class IfStmt:
    cond: Expr
    then: list
    orelse: Optional[list]
    pos: int = _pos_field()


@dataclass
class ForStmt:
    """Counting loop: ``for( int v = init; v < bound; ++v )``."""

    var: str
    init: Expr
    bound: Expr
    body: list
    pos: int = _pos_field()


@dataclass
class LaunchStmt:
    """Triple-chevron kernel launch."""

    name: str
    targs: list
    grid: Expr
    block: Expr
    args: list
    pos: int = _pos_field()


Stmt = Union[ExprStmt, ReturnStmt, VarDeclStmt, IfStmt, ForStmt, LaunchStmt]


# --------------------------------------------------------------------------
# Declarations


@dataclass
class TemplateParam:
    kind: str  # type | hdc
    name: str
    default: Optional[Expr]
    pos: int = _pos_field()


@dataclass
class SpecifierSet:
    """Execution-space specifiers attached to a declaration.

    host/device predicates are the optional boolean arguments of the
    conditional-specifier extension; None means unconditional.
    """

    host: bool = False
    host_pred: Optional[Expr] = None
    device: bool = False
    device_pred: Optional[Expr] = None
    global_: bool = False
    constexpr: bool = False
    pragma: Optional[str] = None

    @property
    def pragma_suppress(self) -> bool:
        return self.pragma is not None

    @property
    def undecorated(self) -> bool:
        return not (self.host or self.device or self.global_)

    def has_conditionals(self) -> bool:
        return self.host_pred is not None or self.device_pred is not None


@dataclass
class Param:
    type: TypeRef
    name: str
    pos: int = _pos_field()


@dataclass
class FunctionDecl:
    name: str
    tparams: list
    requires: Optional[Expr]
    spec: SpecifierSet
    ret: TypeRef
    params: list
    body: Optional[list]  # None for a declaration without a body
    owner: Optional[str] = None
    pos: int = _pos_field()

    @property
    def is_template(self) -> bool:
        return bool(self.tparams)

    def display_name(self) -> str:
        base = f"{self.owner}::{self.name}" if self.owner else self.name
        return base


@dataclass
class MemberVar:
    """A static constexpr member constant (HDC, bool, or int)."""

    name: str
    type_name: str
    value: Expr
    pos: int = _pos_field()


@dataclass
class StructDecl:
    name: str
    tparams: list
    spec: SpecifierSet  # struct-level decoration (propagation extension)
    members: list  # as parsed; resolve() drops duplicate member functions
    # The members as parsed, which resolve() reads, so that it may run once
    # per compile pass on an item both passes share.
    declared: list = field(init=False, compare=False, repr=False)
    pos: int = _pos_field()

    def __post_init__(self):
        self.declared = self.members

    def member_functions(self) -> list:
        return [m for m in self.members if isinstance(m, FunctionDecl)]

    def member_vars(self) -> list:
        return [m for m in self.members if isinstance(m, MemberVar)]


@dataclass
class EnumHdcDecl:
    """The canonical compatibility enum declaration; a no-op item."""

    pos: int = _pos_field()


@dataclass
class StaticAssertDecl:
    expr: Expr
    pos: int = _pos_field()


Item = Union[StructDecl, FunctionDecl, EnumHdcDecl, StaticAssertDecl]


@dataclass
class Ast:
    items: list
    lines: LineTable = field(compare=False, repr=False)  # the unit's positions

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
