"""AST node types and the canonical printer.

Source locations are excluded from equality so that two parses of
differently formatted but structurally identical units compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..diagnostics import SrcLoc


NOLOC = SrcLoc("<synthetic>", 1, 1)


def _loc_field():
    return field(compare=False, kw_only=True, default=NOLOC)


# --------------------------------------------------------------------------
# Types and expressions


@dataclass
class TypeRef:
    """A syntactic type: builtin, struct, or template parameter name."""

    name: str
    targs: list = field(default_factory=list)  # HDC-valued expressions
    loc: SrcLoc = _loc_field()


@dataclass
class IntLit:
    value: int
    loc: SrcLoc = _loc_field()


@dataclass
class StringLit:
    """A double-quoted literal; only printf format strings use these."""

    value: str
    loc: SrcLoc = _loc_field()


@dataclass
class BoolLit:
    value: bool
    loc: SrcLoc = _loc_field()


@dataclass
class HdcLit:
    value: str  # Hst | Dev | HstDev
    loc: SrcLoc = _loc_field()


@dataclass
class CudaArchRef:
    """The builtin constant that is true only in device code."""

    loc: SrcLoc = _loc_field()


@dataclass
class NameRef:
    name: str
    loc: SrcLoc = _loc_field()


@dataclass
class TempObj:
    """A value-constructed temporary, ``T{}``."""

    type: TypeRef
    loc: SrcLoc = _loc_field()


@dataclass
class HdcTrait:
    """The compatibility trait applied to a type, ``hdc< T >``."""

    type: TypeRef
    loc: SrcLoc = _loc_field()


@dataclass
class MemberConst:
    """A direct member-constant reference, ``T::hdc`` (requires clauses)."""

    type: TypeRef
    name: str
    loc: SrcLoc = _loc_field()


@dataclass
class CallExpr:
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    loc: SrcLoc = _loc_field()


@dataclass
class MemberCallExpr:
    recv: "Expr"
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    loc: SrcLoc = _loc_field()


@dataclass
class StaticCallExpr:
    type: TypeRef
    name: str
    targs: list = field(default_factory=list)
    args: list = field(default_factory=list)
    loc: SrcLoc = _loc_field()


@dataclass
class UnaryExpr:
    op: str  # !
    operand: "Expr"
    loc: SrcLoc = _loc_field()


@dataclass
class BinaryExpr:
    op: str  # == != && ||
    lhs: "Expr"
    rhs: "Expr"
    loc: SrcLoc = _loc_field()


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
]


# --------------------------------------------------------------------------
# Statements


@dataclass
class ExprStmt:
    expr: Expr
    loc: SrcLoc = _loc_field()


@dataclass
class ReturnStmt:
    expr: Optional[Expr]
    loc: SrcLoc = _loc_field()


@dataclass
class VarDeclStmt:
    type: TypeRef
    name: str
    loc: SrcLoc = _loc_field()


@dataclass
class IfStmt:
    cond: Expr
    then: list
    orelse: Optional[list]
    loc: SrcLoc = _loc_field()


@dataclass
class ForStmt:
    """Counting loop: ``for( int v = init; v < bound; ++v )``."""

    var: str
    init: Expr
    bound: Expr
    body: list
    loc: SrcLoc = _loc_field()


@dataclass
class LaunchStmt:
    """Triple-chevron kernel launch."""

    name: str
    targs: list
    grid: Expr
    block: Expr
    args: list
    loc: SrcLoc = _loc_field()


Stmt = Union[ExprStmt, ReturnStmt, VarDeclStmt, IfStmt, ForStmt, LaunchStmt]


# --------------------------------------------------------------------------
# Declarations


@dataclass
class TemplateParam:
    kind: str  # type | hdc
    name: str
    default: Optional[Expr]
    loc: SrcLoc = _loc_field()


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
    loc: SrcLoc = _loc_field()


@dataclass
class FunctionDecl:
    name: str
    tparams: list
    requires: Optional[Expr]
    spec: SpecifierSet
    ret: TypeRef
    params: list
    body: Optional[list]  # None for a declaration without a body
    is_static: bool = False
    owner: Optional[str] = None
    loc: SrcLoc = _loc_field()

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
    loc: SrcLoc = _loc_field()


@dataclass
class StructDecl:
    name: str
    tparams: list
    spec: SpecifierSet  # struct-level decoration (propagation extension)
    members: list  # as parsed; resolve() drops duplicate member functions
    keyword: str = "struct"
    # The members as parsed, which resolve() reads, so that it may run once
    # per compile pass on an item both passes share.
    declared: list = field(default=None, compare=False, repr=False)
    loc: SrcLoc = _loc_field()

    def __post_init__(self):
        if self.declared is None:
            self.declared = self.members

    def member_functions(self) -> list:
        return [m for m in self.members if isinstance(m, FunctionDecl)]

    def member_vars(self) -> list:
        return [m for m in self.members if isinstance(m, MemberVar)]


@dataclass
class EnumHdcDecl:
    """The canonical compatibility enum declaration; a no-op item."""

    loc: SrcLoc = _loc_field()


@dataclass
class StaticAssertDecl:
    expr: Expr
    loc: SrcLoc = _loc_field()


Item = Union[StructDecl, FunctionDecl, EnumHdcDecl, StaticAssertDecl]


@dataclass
class Ast:
    items: list
    has_main: bool
    file: str = field(default="<unit>", compare=False)

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


# --------------------------------------------------------------------------
# Canonical printer


def _p_type(t: TypeRef) -> str:
    if t.targs:
        inner = ", ".join(_p_expr(a) if not isinstance(a, TypeRef) else _p_type(a) for a in t.targs)
        return f"{t.name}< {inner} >"
    return t.name


def _p_targs(targs: list) -> str:
    if not targs:
        return ""
    inner = ", ".join(_p_type(a) if isinstance(a, TypeRef) else _p_expr(a) for a in targs)
    return f"< {inner} >"


def _p_args(args: list) -> str:
    return ", ".join(_p_expr(a) for a in args)


def _p_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StringLit):
        return f'"{e.value}"'
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, HdcLit):
        return f"HDC::{e.value}"
    if isinstance(e, CudaArchRef):
        return "cuda_arch"
    if isinstance(e, NameRef):
        return e.name
    if isinstance(e, TempObj):
        return f"{_p_type(e.type)}{{}}"
    if isinstance(e, HdcTrait):
        return f"hdc< {_p_type(e.type)} >"
    if isinstance(e, MemberConst):
        return f"{_p_type(e.type)}::{e.name}"
    if isinstance(e, CallExpr):
        return f"{e.name}{_p_targs(e.targs)}({_p_args(e.args)})"
    if isinstance(e, MemberCallExpr):
        return f"{_p_expr(e.recv)}.{e.name}{_p_targs(e.targs)}({_p_args(e.args)})"
    if isinstance(e, StaticCallExpr):
        return f"{_p_type(e.type)}::{e.name}{_p_targs(e.targs)}({_p_args(e.args)})"
    if isinstance(e, UnaryExpr):
        return f"{e.op}{_p_expr(e.operand)}"
    if isinstance(e, BinaryExpr):
        return f"({_p_expr(e.lhs)} {e.op} {_p_expr(e.rhs)})"
    raise TypeError(f"unknown expression {e!r}")


def _p_stmt(s: Stmt, indent: str) -> list:
    if isinstance(s, ExprStmt):
        return [f"{indent}{_p_expr(s.expr)};"]
    if isinstance(s, ReturnStmt):
        return [f"{indent}return {_p_expr(s.expr)};" if s.expr else f"{indent}return;"]
    if isinstance(s, VarDeclStmt):
        return [f"{indent}{_p_type(s.type)} {s.name};"]
    if isinstance(s, IfStmt):
        out = [f"{indent}if( {_p_expr(s.cond)} ) {{"]
        for sub in s.then:
            out.extend(_p_stmt(sub, indent + "  "))
        if s.orelse is not None:
            out.append(f"{indent}}} else {{")
            for sub in s.orelse:
                out.extend(_p_stmt(sub, indent + "  "))
        out.append(f"{indent}}}")
        return out
    if isinstance(s, ForStmt):
        head = f"for( int {s.var} = {_p_expr(s.init)}; {s.var} < {_p_expr(s.bound)}; ++{s.var} )"
        out = [f"{indent}{head} {{"]
        for sub in s.body:
            out.extend(_p_stmt(sub, indent + "  "))
        out.append(f"{indent}}}")
        return out
    if isinstance(s, LaunchStmt):
        head = f"{s.name}{_p_targs(s.targs)}<<< {_p_expr(s.grid)}, {_p_expr(s.block)} >>>({_p_args(s.args)});"
        return [f"{indent}{head}"]
    raise TypeError(f"unknown statement {s!r}")


def _p_spec(spec: SpecifierSet) -> str:
    parts = []
    if spec.host:
        parts.append("__host__" + (f"( {_p_expr(spec.host_pred)} )" if spec.host_pred else ""))
    if spec.device:
        parts.append("__device__" + (f"( {_p_expr(spec.device_pred)} )" if spec.device_pred else ""))
    if spec.global_:
        parts.append("__global__")
    if spec.constexpr:
        parts.append("constexpr")
    return " ".join(parts)


def _p_tparams(tparams: list) -> str:
    parts = []
    for tp in tparams:
        if tp.kind == "type":
            parts.append(f"typename {tp.name}")
        else:
            s = f"HDC {tp.name}"
            if tp.default is not None:
                s += f" = {_p_expr(tp.default)}"
            parts.append(s)
    return f"template< {', '.join(parts)} >"


def _p_function(fn: FunctionDecl, indent: str = "") -> list:
    out = []
    if fn.spec.pragma:
        out.append(f"{indent}#pragma {fn.spec.pragma}")
    if fn.tparams:
        out.append(f"{indent}{_p_tparams(fn.tparams)}")
    if fn.requires is not None:
        out.append(f"{indent}requires( {_p_expr(fn.requires)} )")
    lead = []
    spec = _p_spec(fn.spec)
    if spec:
        lead.append(spec)
    if fn.is_static:
        lead.append("static")
    lead.append(_p_type(fn.ret))
    params = ", ".join(f"{_p_type(p.type)} {p.name}" for p in fn.params)
    head = f"{indent}{' '.join(lead)} {fn.name}({params})"
    if fn.body is None:
        out.append(head + ";")
    else:
        out.append(head + " {")
        for s in fn.body:
            out.extend(_p_stmt(s, indent + "  "))
        out.append(f"{indent}}}")
    return out


def unparse(ast: Ast) -> str:
    """Print a unit in canonical form; reparsing yields an equal AST."""
    out = []
    for item in ast.items:
        if isinstance(item, EnumHdcDecl):
            out.append("enum class HDC { Hst, Dev, HstDev };")
        elif isinstance(item, StaticAssertDecl):
            out.append(f"static_assert( {_p_expr(item.expr)} );")
        elif isinstance(item, StructDecl):
            if item.tparams:
                out.append(_p_tparams(item.tparams))
            spec = _p_spec(item.spec)
            head = f"{spec} {item.keyword}" if spec else item.keyword
            out.append(f"{head} {item.name} {{")
            for m in item.members:
                if isinstance(m, MemberVar):
                    out.append(f"  static constexpr {m.type_name} {m.name} = {_p_expr(m.value)};")
                else:
                    out.extend(_p_function(m, "  "))
            out.append("};")
        elif isinstance(item, FunctionDecl):
            out.extend(_p_function(item))
        else:
            raise TypeError(f"unknown item {item!r}")
        out.append("")
    return "\n".join(out)
