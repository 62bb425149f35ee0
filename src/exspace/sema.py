"""Name resolution, the compatibility trait, and overload selection."""
from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Optional

from .diagnostics import Diagnostic, Failure, FrozenRecord, SrcLoc
from .syntax import nodes as n


class HDC(Enum):
    """Host-device compatibility attached to types via a static member."""

    Hst = "Hst"
    Dev = "Dev"
    HstDev = "HstDev"

    # Members are singletons: identity is their equality, and an identity
    # hash keeps Enum's Python-level __hash__ out of bindings and keys.
    __hash__ = object.__hash__


class ExecSpace(Enum):
    Host = "host"
    Device = "device"
    Global = "global"
    HostDevice = "host device"

    __hash__ = object.__hash__  # as for HDC


# Code that runs per call site reads enum members as these module
# constants: on CPython 3.11 a read through the class, such as
# ExecSpace.Host, runs EnumType.__getattr__, about ten times a global read.
HOST = ExecSpace.Host
DEVICE = ExecSpace.Device
HOST_DEVICE = ExecSpace.HostDevice
GLOBAL = ExecSpace.Global

# The sides each space has code on; a kernel's code is on the device.
SIDES = {
    HOST: (HOST,),
    DEVICE: (DEVICE,),
    HOST_DEVICE: (HOST, DEVICE),
    GLOBAL: (DEVICE,),
}


class Mode(Enum):
    CLASSIC = "classic"
    FIDELITY = "fidelity"
    SOUND = "sound"
    PROPOSAL1 = "proposal1"
    PROPOSAL2 = "proposal2"


CLASSIC = Mode.CLASSIC
FIDELITY = Mode.FIDELITY
SOUND = Mode.SOUND
PROPOSAL1 = Mode.PROPOSAL1
PROPOSAL2 = Mode.PROPOSAL2


class Type(FrozenRecord):
    """A fully resolved type: builtin or struct with bound HDC arguments."""

    __slots__ = ()
    _fields = ("name", "targs")

    def __new__(cls, name: str, targs: tuple = ()):
        return tuple.__new__(cls, (name, targs))

    def display(self) -> str:
        if self.targs:
            return f"{self.name}<{', '.join(a.value for a in self.targs)}>"
        return self.name


INT = Type("int")
BOOL = Type("bool")
_KEYWORD_TYPES = {"int": INT, "bool": BOOL, "void": Type("void")}


class TraitConfig(FrozenRecord):
    """Configuration of the compatibility trait.

    fundamentals_hstdev makes int/bool report HstDev instead of the
    default Hst.
    """

    __slots__ = ()
    _fields = ("fundamentals_hstdev",)

    def __new__(cls, fundamentals_hstdev: bool = False):
        return tuple.__new__(cls, (fundamentals_hstdev,))


class SemaError(Failure):
    """A hard semantic error carrying a diagnostic code."""


class SubstFailure(Exception):
    """A substitution failure: the candidate is discarded, never diagnosed."""


class OverloadError(SemaError):
    pass


# Builtin callables and the space each is usable from.  The plain profile
# lacks the runtime-API entry points.
BUILTIN_FUNCTIONS = {
    "printf": HOST_DEVICE,
    "release_assert": HOST_DEVICE,
    "__trap": DEVICE,
    "abort": HOST,
    "std::abort": HOST,
    "cudaDeviceSynchronize": HOST,
}
_NVCC_ONLY_BUILTINS = frozenset({"__trap", "cudaDeviceSynchronize"})


def builtin_spaces(name: str, profile) -> Optional[ExecSpace]:
    if name in _NVCC_ONLY_BUILTINS and profile.compiler != "nvcc":
        return None
    return BUILTIN_FUNCTIONS.get(name)


# --------------------------------------------------------------------------
# Symbol table


class SymbolTable:
    __slots__ = ("ast", "cfg", "structs", "functions", "keys", "differing", "touched",
                 "evaluating", "values")

    def __init__(self, ast: n.Ast, cfg: TraitConfig):
        self.ast = ast
        self.cfg = cfg  # the one trait configuration every evaluation reads
        self.structs: dict = {}
        self.functions: dict = {}  # name -> [FunctionDecl]
        self.keys: dict = {}  # id(FunctionDecl) -> its signature_key
        # The struct names and the function names another table of the analyze
        # answers differently (_differing); struct and overloads touch on reading one.
        self.differing: tuple = ((), ())
        self.touched = False
        # The member constants being evaluated, innermost last, and the
        # values of those read at top level (_member_value).
        self.evaluating: dict = {}
        self.values: dict = {}

    def loc(self, pos: int) -> SrcLoc:
        """The SrcLoc of a position in the unit this table was resolved from."""
        return self.ast.lines.loc(pos)

    def struct(self, name: str) -> Optional[n.StructDecl]:
        if name in self.differing[0]:
            self.touched = True
        return self.structs.get(name)

    def overloads(self, name: str) -> list:
        if name in self.differing[1]:
            self.touched = True
        return self.functions.get(name, [])

    @staticmethod
    def member_functions(struct: n.StructDecl, name: str):
        """The member functions of struct named name, from its index."""
        return struct.functions.get(name, ())

    @staticmethod
    def member_var(struct: n.StructDecl, name: str) -> Optional[n.MemberVar]:
        """struct's member constant named name, or None.

        It reads the name -> member index resolve() builds, which holds the
        first definition of each name, so a lookup costs the same at any
        number of members.
        """
        return struct.constants.get(name)


def _differing(tables: list) -> tuple:
    """The struct names and the function names some two tables answer with
    different nodes, which comparing each table with the next finds; each
    table's differing is set to them.  A resolution that read none of them
    is the resolution over every table, since the tables of one analyze
    share cfg and the unit loc locates in, and keys is a function of a node.
    """
    structs, functions = set(), set()
    for one, other in zip(tables, tables[1:]):
        for name in one.structs.keys() | other.structs.keys():
            if one.structs.get(name) is not other.structs.get(name):
                structs.add(name)
        for name in one.functions.keys() | other.functions.keys():
            a, b = one.functions.get(name, []), other.functions.get(name, [])
            if len(a) != len(b) or any(x is not y for x, y in zip(a, b)):
                functions.add(name)
    for table in tables:
        table.differing = (structs, functions)
        # A value kept before the differing names were known noted no touch.
        table.values.clear()
    return structs, functions


def _shape(node):
    """node as a hashable tuple of its class and compared fields, recursively.

    Nodes that are equal as nodes.py defines, locations aside, have one shape.
    """
    if isinstance(node, n.Node):
        return (type(node), *[_shape(getattr(node, name)) for name in node._compared])
    if isinstance(node, list):
        return tuple(map(_shape, node))
    return node


def signature_key(decl: n.FunctionDecl, include_spaces: bool) -> tuple:
    """Identity of one declaration, stable across compile passes: its owner,
    name, parameter types, requires clause and, with include_spaces, spaces."""
    spec = decl.spec
    spaces = (
        (spec.host, _shape(spec.host_pred), spec.device, _shape(spec.device_pred), spec.global_)
        if include_spaces else None
    )
    return (decl.owner, decl.name, _shape([p.type for p in decl.params]),
            _shape(decl.requires), spaces)


def _unowned(struct: n.StructDecl) -> n.StructDecl:
    """A copy of struct whose member functions have no owner."""
    members = [
        n.FunctionDecl(m.name, m.tparams, m.requires, m.spec, m.ret, m.params, m.body,
                       pos=m.pos)
        if isinstance(m, n.FunctionDecl) else m
        for m in struct.declared
    ]
    return n.StructDecl(struct.name, struct.tparams, struct.spec, members, pos=struct.pos)


def resolve(
    ast: n.Ast, profile, mode, cfg: TraitConfig = TraitConfig()
) -> tuple[SymbolTable, list]:
    """Build the symbol table, diagnosing duplicates and undefined names.

    An item node may belong to the Ast of each compile pass; resolve writes
    to it only what it writes in every pass.
    """
    table = SymbolTable(ast, cfg)
    diags: list[Diagnostic] = []
    include_spaces = mode is PROPOSAL2
    seen: set = set()  # the signature keys declared so far

    def duplicate(name: str, pos: int):
        diags.append(Diagnostic.make("E0102", table.loc(pos), f'duplicate definition of "{name}"'))

    def is_duplicate(decl: n.FunctionDecl) -> bool:
        key = table.keys[id(decl)] = signature_key(decl, include_spaces)
        if key in seen:
            duplicate(decl.display_name(), decl.pos)
            return True
        seen.add(key)
        return False

    for i, item in enumerate(ast.items):
        if isinstance(item, n.StructDecl):
            if item.name in table.structs:
                duplicate(item.name, item.pos)
                # Ast.decls() still yields the members of a dropped struct,
                # all of them and with no owner.  The node may be another
                # pass's kept struct, so this Ast gets a copy of its own.
                item = ast.items[i] = _unowned(item)
                for m in item.member_functions():
                    table.keys[id(m)] = signature_key(m, include_spaces)
                continue
            table.structs[item.name] = item
            # Later phases see the first definition only, and look members
            # up by name in the index built here.  Reading the members as
            # parsed makes these the same writes in every pass.
            members, functions, constants = [], {}, {}
            for m in item.declared:
                if isinstance(m, n.FunctionDecl):
                    if is_duplicate(m):
                        continue
                    functions.setdefault(m.name, []).append(m)
                elif m.name in constants:
                    duplicate(f"{item.name}::{m.name}", m.pos)
                    continue
                else:
                    constants[m.name] = m
                members.append(m)
            item.members, item.functions, item.constants = members, functions, constants
        elif isinstance(item, n.FunctionDecl):
            if not is_duplicate(item):
                table.functions.setdefault(item.name, []).append(item)

    diags.extend(_check_mode_gated_syntax(ast, mode))
    diags.extend(_check_free_call_names(ast, table, profile))

    for item in ast.items:
        if isinstance(item, n.StaticAssertDecl):
            try:
                value = eval_const_expr(item.expr, {}, table)
            except SubstFailure as e:
                diags.append(Diagnostic.make(
                    "E0104", table.loc(item.pos), f"static assertion cannot be evaluated: {e}"
                ))
            except SemaError as e:
                diags.append(e.diagnostic())
            else:
                if value is not True:
                    diags.append(
                        Diagnostic.make("E0104", table.loc(item.pos), "static assertion failed")
                    )
    return table, diags


def _check_mode_gated_syntax(ast: n.Ast, mode) -> list:
    diags = []
    if mode is not PROPOSAL2:
        for item in ast.items:
            if isinstance(item, n.StructDecl) and not item.spec.undecorated:
                diags.append(
                    Diagnostic.make(
                        "E0001",
                        ast.lines.loc(item.pos),
                        "struct-level execution-space specifiers require --mode=proposal2",
                    )
                )
    if mode is not PROPOSAL1:
        for fn, _ in ast.decls():
            if fn.spec.has_conditionals():
                diags.append(
                    Diagnostic.make(
                        "E0001",
                        ast.lines.loc(fn.pos),
                        "conditional execution-space specifiers require --mode=proposal1",
                    )
                )
    return diags


def _check_free_call_names(ast: n.Ast, table: SymbolTable, profile) -> list:
    """E0101 for every launch or free call of an unknown name in any body."""
    diags = []
    for decl, _ in ast.decls():
        for node in n.walk(decl.body or []):
            if isinstance(node, n.LaunchStmt):
                known = table.overloads(node.name)
            elif isinstance(node, n.CallExpr):
                known = table.overloads(node.name) or builtin_spaces(node.name, profile)
            else:
                continue
            if not known:
                diags.append(
                    Diagnostic.make("E0101", table.loc(node.pos), f'undefined name "{node.name}"')
                )
    return diags


# --------------------------------------------------------------------------
# Types, traits, constant evaluation

# name -> Type | HDC; a candidate's env also binds its struct's member
# constants, each to a partial that reads it with _member_value given the
# table (_candidate_env).
Bindings = dict

# How deep member constants may nest in one evaluation, T::m and hdc< T >
# alike: a chain S0::v = S1::v = ... ends in E0106 past it, well inside
# Python's default recursion limit.
MAX_CONST_DEPTH = 200


def struct_bindings(struct: n.StructDecl, t: Type) -> Bindings:
    return {tp.name: v for tp, v in zip(struct.tparams, t.targs)}


def resolve_type(tref: n.TypeRef, env: Bindings, table: SymbolTable) -> Type:
    keyword = _KEYWORD_TYPES.get(tref.name)  # the parser gives keywords no targs
    if keyword is not None:
        return keyword
    if tref.name in env:
        bound = env[tref.name]
        if isinstance(bound, Type):
            if tref.targs:
                raise SubstFailure(f"{tref.name} is not a template")
            return bound
        raise SubstFailure(f"{tref.name} does not name a type")
    struct = table.struct(tref.name)
    if struct is None:
        raise SemaError("E0101", table.loc(tref.pos), f'undefined type "{tref.name}"')
    values = []
    for i, tp in enumerate(struct.tparams):
        if i < len(tref.targs):
            values.append(_targ_as_hdc(tref.targs[i], env, table))
        elif tp.default is not None:
            values.append(eval_const_expr(tp.default, env, table))
        else:
            raise SemaError(
                "E0001", table.loc(tref.pos), f'missing template arguments for "{tref.name}"'
            )
    if len(tref.targs) > len(struct.tparams):
        raise SemaError("E0001", table.loc(tref.pos),
                        f'too many template arguments for "{tref.name}"')
    for v in values:
        if not isinstance(v, HDC):
            raise SubstFailure("struct template arguments must be HDC constants")
    return Type(tref.name, tuple(values))


def _targ_as_hdc(targ, env: Bindings, table: SymbolTable):
    if isinstance(targ, n.TypeRef):
        if targ.targs:
            raise SubstFailure("expected an HDC constant")
        if targ.name in env:
            val = env[targ.name]
            if type(val) is partial:  # as in _name
                val = val(table)
            if isinstance(val, HDC):
                return val
            raise SubstFailure("expected an HDC constant")
        raise SubstFailure(f'"{targ.name}" is not an HDC constant')
    return eval_const_expr(targ, env, table)


def targ_as_type(targ, env: Bindings, table: SymbolTable) -> Type:
    if isinstance(targ, n.TypeRef):
        return resolve_type(targ, env, table)
    raise SubstFailure("expected a type argument")


def compute_hdc(t: Type, table: SymbolTable) -> HDC:
    """The compatibility trait: the value of a static `hdc` member, else Hst."""
    if t.name in ("int", "bool"):
        return HDC.HstDev if table.cfg.fundamentals_hstdev else HDC.Hst
    struct = table.struct(t.name)
    if struct is None:
        raise SubstFailure(f'"{t.name}" has no compatibility value')
    mv = SymbolTable.member_var(struct, "hdc")
    if mv is None:
        return HDC.Hst
    if mv.type_name != "HDC":
        raise SemaError(
            "E0103", table.loc(mv.pos), f'member "hdc" of "{t.name}" is not an HDC constant'
        )
    return _member_value(struct, mv, t, table)


def _member_value(struct: n.StructDecl, mv: n.MemberVar, t: Type, table: SymbolTable):
    """The value of struct's member constant mv in t; E0103 if an HDC one is not an HDC.

    table.evaluating holds the member constants being evaluated, by their
    node and t's arguments.  Re-entering one is E0105, and entering one more
    than MAX_CONST_DEPTH deep is E0106, both at mv.  They are SemaErrors,
    not substitution failures, so a requires clause that reads such a
    member reports it rather than discarding its candidate.

    A read at top level, with nothing being evaluated, is computed once per
    table: table.values keeps its value under the same key, with whether
    computing it touched the table (SymbolTable.touched), and a later read
    returns it and touches the table if that did.  A nested read evaluates
    in full, so every read finds a cycle or too deep a chain, whichever
    member it starts from.  A failure is never kept.
    """
    key = (id(mv), t.targs)
    evaluating = table.evaluating
    top = not evaluating
    if top:
        kept = table.values.get(key)
        if kept is not None:
            if kept[1]:
                table.touched = True
            return kept[0]
        touched = table.touched
        table.touched = False  # to note what this value's computation reads
    elif key in evaluating:
        raise SemaError("E0105", table.loc(mv.pos),
                        f'the value of "{t.display()}::{mv.name}" depends on itself')
    elif len(evaluating) == MAX_CONST_DEPTH:
        raise SemaError("E0106", table.loc(mv.pos),
                        f"member constants nest deeper than {MAX_CONST_DEPTH} levels")
    evaluating[key] = None
    try:
        # The rule is called here, not through eval_const_expr: one Python
        # frame less per nesting level.
        value = _CONST_RULES.get(type(mv.value), _not_constant)(
            mv.value, struct_bindings(struct, t), table)
        if mv.type_name == "HDC" and not isinstance(value, HDC):
            raise SemaError("E0103", table.loc(mv.pos),
                            f'member "{mv.name}" of "{t.name}" is not an HDC constant')
        if top:
            table.values[key] = (value, table.touched)
    finally:
        del evaluating[key]
        if top:
            table.touched |= touched
    return value


def eval_const_expr(expr, env: Bindings, table: SymbolTable):
    """Evaluate a compile-time expression to an HDC, bool, or int value.

    The rule _CONST_RULES maps the node's class to evaluates it; a class
    with no rule is not a constant expression.  Unbound names and absent
    members raise SubstFailure so overload filtering stays silent;
    malformed constructs raise SemaError.
    """
    return _CONST_RULES.get(type(expr), _not_constant)(expr, env, table)


def _literal(expr, env, table):
    return expr.value


_HDC_NAMED = {h.name: h for h in HDC}


def _hdc_literal(expr: n.HdcLit, env, table):
    return _HDC_NAMED[expr.value]  # the parser admits HDC names alone


def _cuda_arch(expr, env, table):
    raise SubstFailure("cuda_arch is not usable in constant expressions")


def _string(expr, env, table):
    raise SubstFailure("a string literal is not a constant expression")


def _not_constant(expr, env, table):
    raise SubstFailure("not a constant expression")


def _name(expr: n.NameRef, env, table):
    if expr.name not in env:
        raise SubstFailure(f'unbound name "{expr.name}"')
    val = env[expr.name]
    if type(val) is partial:  # a member constant of the candidate's struct
        return val(table)
    if isinstance(val, Type):
        raise SubstFailure(f'"{expr.name}" is a type, not a constant')
    return val


def _hdc_trait(expr: n.HdcTrait, env, table):
    return compute_hdc(resolve_type(expr.type, env, table), table)


def _member_const(expr: n.MemberConst, env, table):
    t = resolve_type(expr.type, env, table)
    struct = table.struct(t.name)
    if struct is None:
        raise SubstFailure(f'"{t.name}" has no members')
    mv = SymbolTable.member_var(struct, expr.name)
    if mv is None:
        raise SubstFailure(f'"{t.name}" has no member "{expr.name}"')
    return _member_value(struct, mv, t, table)


def _not(expr: n.UnaryExpr, env, table):
    val = eval_const_expr(expr.operand, env, table)
    if not isinstance(val, bool):
        raise SubstFailure("operand of ! is not a boolean")
    return not val


def _compare(expr: n.BinaryExpr, env, table):
    lhs = eval_const_expr(expr.lhs, env, table)
    rhs = eval_const_expr(expr.rhs, env, table)
    if type(lhs) is not type(rhs):
        raise SubstFailure("comparison between unrelated kinds")
    return (lhs == rhs) == (expr.op == "==")


def _logical(expr: n.LogicalExpr, env, table):
    # Every operand, left to right; the first is checked with the second.
    values = [eval_const_expr(expr.operands[0], env, table)]
    for operand in expr.operands[1:]:
        values.append(eval_const_expr(operand, env, table))
        if not isinstance(values[0], bool) or not isinstance(values[-1], bool):
            raise SubstFailure("logical operands are not booleans")
    return all(values) if expr.op == "&&" else any(values)


_CONST_RULES = {
    n.IntLit: _literal,
    n.BoolLit: _literal,
    n.HdcLit: _hdc_literal,
    n.CudaArchRef: _cuda_arch,
    n.StringLit: _string,
    n.NameRef: _name,
    n.HdcTrait: _hdc_trait,
    n.MemberConst: _member_const,
    n.UnaryExpr: _not,
    n.BinaryExpr: _compare,
    n.LogicalExpr: _logical,
}


# --------------------------------------------------------------------------
# Overload resolution


class Selected:
    __slots__ = ("decl", "bindings", "env")

    def __init__(self, decl: n.FunctionDecl, bindings: Bindings, env: Bindings):
        self.decl = decl
        self.bindings = bindings
        self.env = env  # the owner struct's bindings overlaid with bindings


def _candidate_env(bindings: Bindings, owner_struct, owner_bindings):
    """Names visible to defaults and requires clauses of one candidate.

    Member constants of the enclosing struct are usable by name, each bound
    to a read through _member_value that runs where the name is read, so a
    read by name is a read through S::m: its value, or its failure, there;
    a member nothing reads stays silent.
    """
    env = dict(owner_bindings or {})
    if owner_struct is not None:
        owner = Type(owner_struct.name,
                     tuple(owner_bindings[tp.name] for tp in owner_struct.tparams))
        for name, mv in owner_struct.constants.items():
            env[name] = partial(_member_value, owner_struct, mv, owner)
    env.update(bindings)
    return env


def resolve_overload(
    name: str,
    candidates: list,
    explicit_targs: list,
    arg_types: list,
    pos: int,
    *,
    env: Bindings,
    table: SymbolTable,
    mode,
    context_side: ExecSpace,
    owner_struct: Optional[n.StructDecl] = None,
    owner_bindings: Optional[Bindings] = None,
) -> Selected:
    """Select exactly one viable candidate, SFINAE-discarding the rest.

    Candidates whose requires clause is false or whose substitution fails
    are dropped silently.  Under the propagation mode, space-incompatible
    candidates are dropped too, unless that would empty the set (the call
    then binds and the stray is reported by the caller).
    """
    viable: list[Selected] = []
    for decl in candidates:
        try:
            sel = _try_candidate(
                decl, explicit_targs, arg_types, env, table,
                owner_struct, owner_bindings,
            )
        except SubstFailure:
            continue
        viable.append(sel)
    if mode is PROPOSAL2 and len(viable) > 1:
        compatible = [
            s for s in viable
            if _space_compatible(s.decl, context_side, owner_struct)
        ]
        if compatible:
            viable = compatible
    if not viable:
        raise OverloadError("E1301", table.loc(pos), f'no viable candidate for call to "{name}"')
    if len(viable) > 1:
        raise OverloadError(
            "E1302",
            table.loc(pos),
            f'call to "{name}" is ambiguous ({len(viable)} candidates survive)',
        )
    return viable[0]


def _try_candidate(
    decl: n.FunctionDecl,
    explicit_targs: list,
    arg_types: list,
    env: Bindings,
    table: SymbolTable,
    owner_struct,
    owner_bindings,
) -> Selected:
    tps = decl.tparams
    if len(explicit_targs) > len(tps):
        raise SubstFailure("too many template arguments")
    bindings: Bindings = {}
    for tp, targ in zip(tps, explicit_targs):
        if tp.kind == "type":
            bindings[tp.name] = targ_as_type(targ, env, table)
        else:
            value = _targ_as_hdc(targ, env, table)
            if not isinstance(value, HDC):
                raise SubstFailure("expected an HDC constant")
            bindings[tp.name] = value
    if len(arg_types) != len(decl.params):
        raise SubstFailure("argument count mismatch")
    # Deduce the type parameter from a directly matching argument slot.
    for tp in tps:
        if tp.kind != "type" or tp.name in bindings:
            continue
        for p, at in zip(decl.params, arg_types):
            if p.type.name == tp.name and not p.type.targs and at is not None:
                bindings[tp.name] = at
                break
    cand_env = _candidate_env(bindings, owner_struct, owner_bindings)
    for tp in tps:
        if tp.name in bindings:
            continue
        if tp.kind == "hdc" and tp.default is not None:
            value = eval_const_expr(tp.default, cand_env, table)
            if not isinstance(value, HDC):
                raise SubstFailure("default is not an HDC constant")
            bindings[tp.name] = value
            cand_env[tp.name] = value
        else:
            raise SubstFailure(f'could not bind template parameter "{tp.name}"')
    # Check arguments against the resolved parameter types.
    full_env = {**owner_bindings, **bindings} if owner_bindings else bindings
    for p, at in zip(decl.params, arg_types):
        if at is None:
            continue
        try:
            want = resolve_type(p.type, full_env, table)
        except SemaError:
            raise SubstFailure("parameter type does not resolve")
        if want != at:
            raise SubstFailure("argument type mismatch")
    if decl.requires is not None:
        ok = eval_const_expr(decl.requires, cand_env, table)
        if not isinstance(ok, bool):
            raise SubstFailure("requires clause is not boolean")
        if not ok:
            raise SubstFailure("requires clause is false")
    return Selected(decl, bindings, full_env)


def _space_compatible(decl: n.FunctionDecl, side: ExecSpace, owner_struct) -> bool:
    spec = member_spec(decl, owner_struct)
    return spec.undecorated or spec.global_ or side in SIDES[declared_spaces(spec)]


# --------------------------------------------------------------------------
# Effective execution spaces


def member_spec(decl: n.FunctionDecl, owner_struct) -> n.SpecifierSet:
    """The specifiers that place decl: an undecorated member takes its struct's."""
    if owner_struct is not None and decl.spec.undecorated and not owner_struct.spec.undecorated:
        return owner_struct.spec
    return decl.spec


def _space(host: bool, device: bool) -> ExecSpace:
    """The space with code on the sides given; neither means host."""
    if device:
        return HOST_DEVICE if host else DEVICE
    return HOST


def declared_spaces(spec: n.SpecifierSet) -> ExecSpace:
    return GLOBAL if spec.global_ else _space(spec.host, spec.device)


def evaluate_conditional_spec(
    spec: n.SpecifierSet, bindings: Bindings, table: SymbolTable,
    at_pos: int, name: str,
) -> ExecSpace:
    """Filter declared spaces through their predicates (conditional mode).

    An absent predicate counts as true; an empty result is E1401.
    """
    host = spec.host and _pred_true(spec.host_pred, bindings, table)
    device = spec.device and _pred_true(spec.device_pred, bindings, table)
    if not (host or device):
        raise SemaError(
            "E1401",
            table.loc(at_pos),
            f'all execution-space predicates of "{name}" are false; '
            "the instance has no execution space",
        )
    return _space(host, device)


def _pred_true(pred, bindings, table) -> bool:
    if pred is None:
        return True
    value = eval_const_expr(pred, bindings, table)
    if not isinstance(value, bool):
        raise SubstFailure("specifier predicate is not boolean")
    return value


def effective_spaces(
    decl: n.FunctionDecl,
    bindings: Bindings,
    mode,
    context_side: ExecSpace,
    table: SymbolTable,
    at_pos: int,
    owner_struct: Optional[n.StructDecl] = None,
) -> ExecSpace:
    """The space an instance is compiled for.

    Classic-family modes use the declared space with undecorated meaning
    host.  The conditional mode filters by predicate.  The propagation
    mode lets undecorated callables inherit the calling space and struct
    decorations distribute to undecorated members.
    """
    spec = decl.spec
    if mode is PROPOSAL1 and spec.has_conditionals():
        env = _candidate_env(bindings, owner_struct, bindings)
        return evaluate_conditional_spec(spec, env, table, at_pos, decl.display_name())
    if mode is PROPOSAL2:
        if decl.name == "main" and owner_struct is None:
            return HOST
        spec = member_spec(decl, owner_struct)
        if spec.undecorated:
            return context_side
    return declared_spaces(spec)
