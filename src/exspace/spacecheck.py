"""Execution-space checking over all reachable instantiations.

One walk runs per symbol table.  Its natives are the sides of the
preprocessing passes that share that table: both sides when the two pass
texts parse to one Ast, which is most units, and one side per walk when
they differ.  Bodies come from the table's pass text, and mismatches
inside host-device callers are attributed to the walk whose natives
contain the caller's side.  That split reproduces the real two-step
compilation: host-side bodies are what the host compiler sees, device-side
bodies what the device front end sees.

Each instance's body is walked with its own bindings and side, which
decide its site entries, call verdicts, the callees it demands, and the
launches and stray calls it records; _Walk._resolve_pending decides each
stray call once the walk ends.  One call memo per analyze, shared by its
walks, holds each call that resolved (_Walk._resolve_call), so an equal
call is resolved once.  Every sema call reads the walk's own SymbolTable,
which notes a read of a name that another table of the analyze answers
differently (sema._differing); an entry made over one table is reused
over another only if its resolution read no such name.  Beside the memo,
each walk keeps the verdict of each call key on each calling side
(_Walk.verdicts): the site entry, and the edge or stray call a site with
that key adds at its own position.  A call with explicit template
arguments keeps none, since its key holds its node.

A walk's demands hold the declaration or the first instance of each
signature and template demand; detect_arch_divergence formats the names
of the few that E1201 reports.  The memo, the verdicts and the demands
live only while analyze runs: it keeps a Walked record of each walk's
instances, main and edges, and drops the walk.
"""
from __future__ import annotations

from collections import deque
from typing import Optional

from .diagnostics import Diagnostic, Failure, LineTable, finish_diagnostics
from .sema import (  # Mode is re-exported from here
    DEVICE,
    HOST,
    SIDES,
    ExecSpace,
    Mode,
    Selected,
    SemaError,
    SubstFailure,
    SymbolTable,
    TraitConfig,
    Type,
    _differing,
    builtin_spaces,
    declared_spaces,
    effective_spaces,
    eval_const_expr,
    member_spec,
    resolve,
    resolve_overload,
    resolve_type,
    struct_bindings,
)
from .syntax import nodes as n
from .syntax.lexer import pass_tokens, tokenize
from .syntax.parser import ParsedItems, parse
from .syntax.preprocess import DEVICE_PASS, HOST_PASS, CompileProfile, prepare, preprocess


# Modes replicating the real compiler's habit of instantiating both sides
# of a host-device template whenever it is called.
_NVCC_INSTANTIATION = (Mode.CLASSIC, Mode.FIDELITY, Mode.PROPOSAL1)
_DIVERGENCE_MODES = (Mode.SOUND, Mode.PROPOSAL1, Mode.PROPOSAL2)

# Codes the plain host compiler can produce; everything space-related is
# invisible to it, which is what the fidelity mode replicates.
_HARD_CODES = frozenset(
    {"E0001", "E0002", "E0101", "E0102", "E0103", "E0104", "E0105", "E0106", "E1301",
     "E1302"}
)


def legality(
    caller_side: ExecSpace,
    callee_space: ExecSpace,
    kind: str = "direct",
    *,
    relaxed_constexpr: bool = False,
    callee_is_constexpr: bool = False,
    mode: Mode = Mode.CLASSIC,
    hd_reachable: Optional[bool] = None,
) -> Optional[str]:
    """The call-legality matrix; total over every argument combination.

    A verdict is the code of its diagnostic, whose severity CODE_REGISTRY
    holds, or None when the call is legal.  The walk takes every call and
    launch verdict from here.  caller_side is the side the call occurs on.
    A host-device caller is checked once per side, with hd_reachable set
    to whether that side of it is reachable; None is a one-sided caller.
    Launches are legal only host-to-global; the walk asks a launch as two
    questions, whether its side may launch at all and whether the target
    is launchable from the host.  The relaxed-constexpr flag makes
    constexpr callees callable from either side.
    """
    if caller_side not in (HOST, DEVICE):
        raise ValueError("the caller side must be host or device")
    if kind == "launch":
        if caller_side is DEVICE:
            return "E1003"
        return None if callee_space is ExecSpace.Global else "E1004"
    if callee_space is ExecSpace.Global:
        return "E1004"
    if relaxed_constexpr and callee_is_constexpr:
        return None
    if callee_space is ExecSpace.HostDevice or callee_space is caller_side:
        return None
    # A one-sided callee on the mismatched side.
    if hd_reachable is None:
        if mode is Mode.PROPOSAL2:
            return "E1501"
        return "E1001" if caller_side is HOST else "E1002"
    host_only_callee = callee_space is HOST
    if mode is Mode.FIDELITY and not host_only_callee:
        return None  # replicated inconsistency: no warning for this direction
    if mode is Mode.SOUND and hd_reachable:
        return "E1101" if host_only_callee else "E1102"
    if mode is Mode.PROPOSAL2:
        return "E1501" if hd_reachable else "W1502"
    return "W1101" if host_only_callee else "W1102"


def _stray_message(code: str, caller_side: ExecSpace, callee_space: ExecSpace,
                   from_hd: bool) -> str:
    callee = callee_space.value
    if code == "E1501":
        where = (
            f"a host device function on a reachable {caller_side.value} path"
            if from_hd else f"{caller_side.value} code"
        )
        return f"stray call: calling a {callee} function from {where}"
    caller = "a host device function" if from_hd else f"a {caller_side.value} function"
    if code == "W1502":
        return f"calling a {callee} function from {caller}"
    reason = {
        "E1101": "; the device path is reachable from a kernel launch",
        "E1102": "; the host path is reachable from main",
    }.get(code, "")
    return f"calling a {callee} function from {caller} is not allowed{reason}"


# --------------------------------------------------------------------------
# Instances


class Instance:
    __slots__ = ("decl", "bindings", "env", "side", "spaces", "owner_type", "key", "sites")

    def __init__(self, decl: n.FunctionDecl, bindings: dict, env: dict, side: ExecSpace,
                 spaces: ExecSpace, owner_type: Optional[Type], key: tuple):
        self.decl = decl
        self.bindings = bindings
        self.env = env  # the receiver struct's bindings overlaid with bindings
        self.side = side
        self.spaces = spaces  # the space it is compiled for
        self.owner_type = owner_type
        self.key = key  # (demand number, side), equal across the walks of one analyze
        # The site table: id(node) -> what a run of this instance finds there,
        # or the reason (a str; no recorded value is a str) it halts there.
        # Call sites map to the callee Instance, and a free call of a builtin
        # with code on the instance's side to None.  TempObj and VarDeclStmt
        # map to their Type, HdcTrait and MemberConst to their value, and a
        # NameRef that is not a local to the value of its template parameter.
        # The walk of this instance's body writes every entry.
        self.sites: dict = {}

    def display(self) -> str:
        name = self.decl.display_name()
        if self.owner_type is not None and self.owner_type.targs:
            name = f"{self.owner_type.display()}::{self.decl.name}"
        if self.bindings:
            args = ", ".join(
                v.display() if isinstance(v, Type) else v.value
                for _, v in sorted(self.bindings.items())
            )
            name = f"{name}<{args}>"
        return name

    @property
    def from_hd(self) -> bool:
        return self.spaces is ExecSpace.HostDevice


def _bindings_key(bindings: dict) -> tuple:
    return tuple(sorted(bindings.items()))  # the names are distinct


class _Walk:
    """One analysis over one symbol table, attributed to its natives.

    natives are the sides of the passes that share the table.  Each
    instance's body is walked with its own bindings and side.  The walks of
    one analyze share the interned demands and the call memo, calls (see
    _resolve_call).  analyze keeps only a Walked record of each walk.
    """

    def __init__(self, table: SymbolTable, natives: tuple,
                 mode: Mode, profile: CompileProfile, interned: dict, calls: dict):
        self.table = table
        self.natives = natives
        # The sides the nvcc instantiation adds a called host-device template
        # on: each native side, but not the host under FIDELITY.  There the
        # host compiler reports no space error, and an instance only the
        # host-side instantiation makes could add nothing but those.
        self.nvcc_sides = tuple(
            s for s in natives
            if mode in _NVCC_INSTANTIATION and not (s is HOST and mode is Mode.FIDELITY)
        )
        self.mode = mode
        self.profile = profile
        self.interned = interned  # (signature key, bindings, owner type) -> demand
        # call key -> (the _call tail of its resolution, the table it read,
        # whether it touched that table)
        self.calls = calls
        # (call key, side) -> what _call decided there, for the calls
        # without explicit template arguments (_resolve_call)
        self.verdicts: dict = {}
        self.diags: list[Diagnostic] = []
        self.pending: list[tuple] = []  # (caller, callee space, position)
        self.instances: dict[tuple, Instance] = {}
        self.queue: deque = deque()
        # ("decl", signature key) -> (FunctionDecl, position), and
        # demand -> (Instance, position); detect_arch_divergence names them
        self.demands: dict = {}
        self.edges: dict[tuple, list] = {}
        self.launch_seeds: list[tuple] = []
        self.main_key: Optional[tuple] = None

    # -- diagnostics helpers -------------------------------------------------

    def _emit(self, code: str, pos: int, message: str):
        self.diags.append(Diagnostic.make(code, self.table.loc(pos), message))

    # -- entry ----------------------------------------------------------------

    def run(self):
        """Walk every demanded instance."""
        self._seed_roots()
        while self.queue:
            inst = self.queue.popleft()
            self._walk_instance(inst)
        self._resolve_pending()

    def _seed_roots(self):
        """Demand every declaration, and instantiate each that is a root."""
        for decl, owner in self.table.ast.decls():
            self.demands.setdefault(("decl", self.table.keys[id(decl)]), (decl, decl.pos))
            if decl.is_template or (owner is not None and owner.tparams):
                continue
            if decl.body is None:
                continue
            if self.mode is Mode.PROPOSAL2 and not self._p2_rooted(decl, owner):
                continue
            # A root's spaces never depend on the calling side: undecorated
            # roots under propagation are main or take their struct's spaces.
            spaces = self._spaces(decl, {}, HOST, owner, decl.pos)
            if spaces is None:
                continue
            owner_type = Type(owner.name) if owner is not None else None
            demand = self._demand(decl, {}, owner_type)
            for side in SIDES[spaces]:
                inst = self._instantiate(demand, decl, {}, side, spaces, {}, owner_type, decl.pos)
            # Only here is the owner known: a dropped duplicate struct's
            # members keep none (sema._unowned), yet they are no main.
            if decl.name == "main" and owner is None:
                self.main_key = inst.key

    def _p2_rooted(self, decl: n.FunctionDecl, owner) -> bool:
        # Undecorated callables behave like templates under propagation:
        # they are instantiated on demand, in the calling space.
        if decl.name == "main" and owner is None:
            return True
        return not member_spec(decl, owner).undecorated

    def _sema(self, inst, node, halt: str, failure: tuple, fn, *args, **kwargs):
        """fn(*args, **kwargs) with its failure diagnosed; None on failure.

        A SemaError is reported as it is; a SubstFailure with its own text,
        as the diagnostic failure names, (code, position).  Given node, the
        reason a run halts there (halt followed by the failure) goes into
        inst's site entries; a site that records a value records it itself.
        """
        try:
            return fn(*args, **kwargs)
        except (SemaError, SubstFailure) as err:
            if isinstance(err, SemaError):
                self.diags.append(err.diagnostic())
            else:
                self._emit(*failure, str(err))
            if node is not None:
                inst.sites[id(node)] = f"{halt}{err}"
            return None

    def _spaces(self, decl, bindings, side, owner_struct, pos, inst=None, node=None):
        # A failing predicate is reported once, at decl; an empty space at pos.
        return self._sema(
            inst, node, "unresolvable execution space: ", ("E0001", decl.pos),
            effective_spaces, decl, bindings, self.mode, side, self.table, pos, owner_struct,
        )

    # -- instantiation ---------------------------------------------------------

    def _demand(self, decl: n.FunctionDecl, bindings: dict,
                owner_type: Optional[Type]) -> int:
        """The number of (decl, bindings, owner_type), the same in every pass.

        Numbered once per analyze, a demand keys instances and memo entries
        without hashing a Type or an enum in Python.
        """
        key = (self.table.keys[id(decl)], _bindings_key(bindings), owner_type)
        return self.interned.setdefault(key, len(self.interned))

    def _instantiate(
        self,
        demand: int,
        decl: n.FunctionDecl,
        bindings: dict,
        side: ExecSpace,
        spaces,
        owner_bindings: dict,
        owner_type: Optional[Type],
        at_pos: int,
    ) -> Instance:
        """The instance of demand for side, made on first demand.

        The caller has computed its spaces; only undecorated callees under
        propagation take them from the calling side, and those are always
        demanded on that side.
        """
        key = (demand, side)
        inst = self.instances.get(key)
        if inst is not None:
            return inst
        env = {**owner_bindings, **bindings}
        inst = Instance(decl, bindings, env, side, spaces, owner_type, key)
        self.instances[key] = inst
        if (decl.is_template or owner_type is not None) and demand not in self.demands:
            self.demands[demand] = (inst, at_pos)
        if decl.body is not None:
            self.queue.append(inst)
        return inst

    # -- instance bodies -------------------------------------------------------

    def _walk_instance(self, inst: Instance):
        locals_: dict[str, Optional[Type]] = {}
        for p in inst.decl.params:
            locals_[p.name] = self._resolve_type_soft(inst, p.type, p.pos)
        self._walk_stmts(inst, inst.decl.body, locals_)

    def _resolve_type_soft(self, inst, tref: n.TypeRef, pos, node=None) -> Optional[Type]:
        t = self._sema(inst, node, "unresolvable type: ", ("E0101", pos),
                       resolve_type, tref, inst.env, self.table)
        if node is not None and t is not None:
            inst.sites[id(node)] = t
        return t

    def _walk_stmts(self, inst, stmts, locals_):
        for s in stmts:
            if isinstance(s, n.ExprStmt):
                self._walk_expr(inst, s.expr, locals_)
            elif isinstance(s, n.ReturnStmt):
                if s.expr is not None:
                    self._walk_expr(inst, s.expr, locals_)
            elif isinstance(s, n.VarDeclStmt):
                locals_[s.name] = self._resolve_type_soft(inst, s.type, s.pos, s)
            elif isinstance(s, n.IfStmt):
                self._walk_expr(inst, s.cond, locals_)
                self._walk_stmts(inst, s.then, dict(locals_))
                if s.orelse is not None:
                    self._walk_stmts(inst, s.orelse, dict(locals_))
            elif isinstance(s, n.ForStmt):
                self._walk_expr(inst, s.init, locals_)
                self._walk_expr(inst, s.bound, locals_)
                inner = dict(locals_)
                inner[s.var] = Type("int")
                self._walk_stmts(inst, s.body, inner)
            else:  # the last Stmt class, LaunchStmt
                self._walk_launch(inst, s, locals_)

    def _walk_launch(self, inst, s: n.LaunchStmt, locals_):
        self._walk_expr(inst, s.grid, locals_)
        self._walk_expr(inst, s.block, locals_)
        arg_types = [self._walk_expr(inst, a, locals_) for a in s.args]
        code = legality(inst.side, ExecSpace.Global, "launch")
        if code is not None:
            self._emit(code, s.pos, "a kernel launch is not allowed from device code")
        candidates = self.table.overloads(s.name)
        if not candidates:
            inst.sites[id(s)] = f'no kernel named "{s.name}"'
            return  # E0101 was already reported by resolve
        sel = self._select(inst, s, s.name, candidates, arg_types, context_side=DEVICE)
        if sel is None:
            return
        code = legality(HOST, declared_spaces(sel.decl.spec), "launch")
        if code is not None:
            inst.sites[id(s)] = f'"{s.name}" is not a __global__ function'
            self._emit(code, s.pos, "only __global__ functions can be launched with <<< >>>")
            return
        target = self._instantiate(
            self._demand(sel.decl, sel.bindings, None), sel.decl, sel.bindings,
            DEVICE, ExecSpace.Global, {}, None, s.pos,
        )
        inst.sites[id(s)] = target
        if inst.side is HOST:
            self.launch_seeds.append(target.key)

    def _select(self, inst, node, name, candidates, arg_types, *,
                context_side, owner_struct=None, owner_bindings=None) -> Optional[Selected]:
        """The selected candidate, or None with the reason a run halts at node."""
        return self._sema(
            inst, node, "unresolvable call: ", None,  # it raises SemaErrors alone
            resolve_overload, name, candidates, node.targs, arg_types, node.pos,
            env=inst.env, table=self.table, mode=self.mode, context_side=context_side,
            owner_struct=owner_struct, owner_bindings=owner_bindings,
        )

    def _walk_expr(self, inst, e, locals_) -> Optional[Type]:
        # The calls and temporaries first: they are most of a body's nodes.
        if isinstance(e, n.CallExpr):
            return self._walk_free_call(inst, e, locals_)
        if isinstance(e, n.MemberCallExpr):
            return self._walk_member_call(inst, e, locals_)
        if isinstance(e, n.LogicalExpr):
            for operand in e.operands:
                self._walk_expr(inst, operand, locals_)
            return Type("bool")
        if isinstance(e, n.TempObj):
            return self._resolve_type_soft(inst, e.type, e.pos, e)
        if isinstance(e, n.IntLit):
            return Type("int")
        if isinstance(e, (n.BoolLit, n.CudaArchRef)):
            return Type("bool")
        if isinstance(e, (n.StringLit, n.HdcLit)):
            return None
        if isinstance(e, n.NameRef):
            if e.name in locals_:
                return locals_[e.name]
            bound = inst.env.get(e.name)
            if bound is None:
                reason = f'undefined name "{e.name}"'
            elif isinstance(bound, Type):
                reason = f'"{e.name}" names a type, not a value'
            else:
                inst.sites[id(e)] = bound  # an HDC parameter used as a value
                return None
            self._emit("E0101", e.pos, reason)
            inst.sites[id(e)] = reason
            return None
        if isinstance(e, (n.HdcTrait, n.MemberConst)):
            self._constant(inst, e, eval_const_expr, e, inst.env, self.table)
            return None
        if isinstance(e, n.UnaryExpr):
            self._walk_expr(inst, e.operand, locals_)
            return Type("bool")
        if isinstance(e, n.BinaryExpr):
            self._walk_expr(inst, e.lhs, locals_)
            self._walk_expr(inst, e.rhs, locals_)
            return Type("bool")
        return self._walk_static_call(inst, e, locals_)  # the last Expr class

    def _constant(self, inst, e, fn, *args):
        """Record at e the compile-time value fn(*args), or why a run halts there."""
        value = self._sema(inst, e, "", ("E0101", e.pos), fn, *args)
        if value is not None:
            inst.sites[id(e)] = value

    def _walk_free_call(self, inst, e: n.CallExpr, locals_):
        arg_types = [self._walk_expr(inst, a, locals_) for a in e.args]
        if self.table.overloads(e.name):
            self._resolve_call(inst, e, ("free", e.name, *arg_types),
                               self._free_dispatch, arg_types)
            return None
        spaces = builtin_spaces(e.name, self.profile)
        if spaces is None:  # resolve reported the E0101
            inst.sites[id(e)] = f'undefined name "{e.name}"'
            return None
        self._builtin(inst, e, spaces)
        return Type("int") if e.name == "cudaDeviceSynchronize" else None

    def _free_dispatch(self, inst, e: n.CallExpr, arg_types):
        # overloads() is read again here, where the memo notes its touch.
        candidates = self.table.overloads(e.name)
        sel = self._select(inst, e, e.name, candidates, arg_types, context_side=inst.side)
        return None if sel is None else self._dispatch(inst, e, sel)

    def _receiver_type(self, inst, recv, locals_) -> Optional[Type]:
        t = self._walk_expr(inst, recv, locals_)
        if t is None and not isinstance(recv, (n.TempObj, n.NameRef)):
            self._emit("E0001", recv.pos,
                       "a member-call receiver must be a variable or a temporary")
        return t

    def _walk_member_call(self, inst, e: n.MemberCallExpr, locals_):
        recv_type = self._receiver_type(inst, e.recv, locals_)
        arg_types = [self._walk_expr(inst, a, locals_) for a in e.args]
        if recv_type is None:
            inst.sites[id(e)] = "a member call needs a struct value"
            return None
        self._resolve_call(inst, e, ("member", recv_type, e.name, *arg_types),
                           self._member_dispatch, recv_type, arg_types)
        return None

    def _walk_static_call(self, inst, e: n.StaticCallExpr, locals_):
        arg_types = [self._walk_expr(inst, a, locals_) for a in e.args]
        t = self._resolve_type_soft(inst, e.type, e.pos)
        if t is None:
            return None
        self._resolve_call(inst, e, ("member", t, e.name, *arg_types),
                           self._member_dispatch, t, arg_types)
        return None

    def _resolve_call(self, inst, node, key, dispatch, *args):
        """Resolve node by dispatch(inst, node, *args) once per key, and check
        it once per key and side.

        A call without explicit template arguments resolves alike wherever
        it has key, its callee set and argument types; one with them
        resolves in inst.env, which the demand fixes, so its key adds
        (id(node), demand).  Under PROPOSAL2 either key adds the calling
        side.  dispatch returns the tail of the _call it resolved to; an
        entry made over another table is reused only if its resolution
        touched no name the tables answer differently.  The argument types,
        resolved before the reset, are in every key, so what they read
        shows there.  A failure returns None and records nothing, so it is
        reported at each site.

        What _call decides from the resolution and the calling side, the
        site entry and the edge or the stray call, is kept per walk in
        verdicts, since the callee instances are the walk's.  An E1004
        keeps no verdict, so each site reports its own; nor does a call
        with explicit template arguments, whose key no other site of its
        side shares.
        """
        if node.targs:
            key += (id(node), inst.key[0])
        if self.mode is Mode.PROPOSAL2:
            key += (inst.side,)
        verdict_key = None if node.targs else (key, inst.side)
        verdict = self.verdicts.get(verdict_key)
        if verdict is None:
            table = self.table
            hit = self.calls.get(key)
            if hit is not None and (hit[1] is table or not hit[2]):
                tail = hit[0]
            else:
                table.touched = False  # before every table read the entry depends on
                tail = dispatch(inst, node, *args)
                if tail is None:
                    return
                self.calls[key] = (tail, table, table.touched)
            verdict = self._call(inst, node, *tail)
            if verdict is None:
                return
            if verdict_key is not None:
                self.verdicts[verdict_key] = verdict
        site, stray_space = verdict
        inst.sites[id(node)] = site
        if stray_space is None:
            self.edges.setdefault(inst.key, []).append(site.key)
        else:
            self.pending.append((inst, stray_space, node.pos))

    def _member_dispatch(self, inst, node, recv_type: Type, arg_types):
        struct = self.table.struct(recv_type.name)
        candidates = [] if struct is None else SymbolTable.member_functions(struct, node.name)
        if not candidates:
            missing = f'type "{recv_type.display()}" has no member "{node.name}"'
            self._emit("E0101", node.pos, missing)
            # Only builtin types name no struct.
            inst.sites[id(node)] = (
                missing if struct is not None else "a member call needs a struct value"
            )
            return None
        owner_bindings = struct_bindings(struct, recv_type)
        sel = self._select(
            inst, node, f"{recv_type.display()}::{node.name}", candidates, arg_types,
            context_side=inst.side, owner_struct=struct, owner_bindings=owner_bindings,
        )
        if sel is None:
            return None
        return self._dispatch(inst, node, sel, owner_struct=struct,
                              owner_bindings=owner_bindings, owner_type=recv_type)

    def _dispatch(self, inst, node, sel: Selected, *,
                  owner_struct=None, owner_bindings=None, owner_type=None):
        owner_bindings = owner_bindings or {}
        merged = {**owner_bindings, **sel.bindings}
        spaces = self._spaces(sel.decl, merged, inst.side, owner_struct, node.pos, inst, node)
        if spaces is None:
            return None
        return (sel, spaces, owner_bindings, owner_type,
                self._demand(sel.decl, sel.bindings, owner_type))

    # -- call legality and demand ----------------------------------------------

    def _builtin(self, inst, e: n.CallExpr, space: ExecSpace):
        if legality(inst.side, space) is None:
            inst.sites[id(e)] = None
        else:
            inst.sites[id(e)] = f'"{e.name}" is not available in {inst.side.value} code'
            self.pending.append((inst, space, e.pos))

    def _call(self, inst, node, sel: Selected, spaces, owner_bindings, owner_type, demand):
        """The verdict of a call from inst's side, (site entry, None) for a
        legal call, whose entry is the callee instance, and (site entry,
        callee space) for a stray one; None after an E1004, which it
        reports.  It demands the callee's instances."""
        pos = node.pos
        code = legality(
            inst.side, spaces, relaxed_constexpr=self.profile.relaxed_constexpr,
            callee_is_constexpr=sel.decl.spec.constexpr,
        )
        if code == "E1004":
            self._emit(code, pos,
                       "a __global__ function must be launched with <<< >>>, not called directly")
            inst.sites[id(node)] = "a __global__ function was called directly"
            return None
        demanded_side = inst.side if code is None else SIDES[spaces][0]
        callee = self._instantiate(
            demand, sel.decl, sel.bindings, demanded_side, spaces, owner_bindings, owner_type, pos,
        )
        if code is None:
            verdict = (callee, None)
        else:
            verdict = (f'"{sel.decl.display_name()}" is not compiled for {inst.side.value} code',
                       spaces)
        if (
            self.nvcc_sides
            and spaces is ExecSpace.HostDevice
            and (sel.decl.is_template or owner_type is not None)
        ):
            for side in self.nvcc_sides:
                if side is demanded_side:
                    continue  # demanded above
                self._instantiate(
                    demand, sel.decl, sel.bindings, side, spaces, owner_bindings, owner_type, pos,
                )
        return verdict

    # -- stray calls and reachability -------------------------------------------

    def _reachable(self) -> set:
        """Instance keys reachable on a native side.

        The host side is reached from main, which has host code only, and
        the device side from host launches.
        """
        seeds = []
        if HOST in self.natives and self.main_key is not None:
            seeds.append(self.main_key)
        if DEVICE in self.natives:
            seeds.extend(self.launch_seeds)
        seen = set(seeds)
        work = deque(seeds)
        while work:
            for nxt in self.edges.get(work.popleft(), ()):  # edges stay on one side
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return seen

    def _resolve_pending(self):
        """Decide every call to a callee without code on its caller's side.

        A host-device caller's verdict depends on reachability, and the
        pass compiling its side reports it; any other caller's is the
        mode-aware row of the matrix, which ignores reachability.
        """
        reach = self._reachable()
        for caller, callee_space, pos in self.pending:
            if caller.from_hd and caller.side not in self.natives:
                continue  # the other pass compiles that side
            self._emit_stray(caller, callee_space, pos, caller.key in reach)

    def _emit_stray(self, inst, callee_space, pos, reachable):
        code = legality(inst.side, callee_space, mode=self.mode,
                        hd_reachable=reachable if inst.from_hd else None)
        if code is None:
            return
        message = _stray_message(code, inst.side, callee_space, inst.from_hd)
        d = Diagnostic.make(code, self.table.loc(pos), message)
        if not d.is_error and inst.decl.spec.pragma_suppress:
            d.suppressed = True
        self.diags.append(d)


# --------------------------------------------------------------------------
# Unit-level driver


class PassArtifacts:
    __slots__ = ("text", "ast", "table")

    def __init__(self, text: str, ast: n.Ast, table: SymbolTable):
        self.text = text
        self.ast = ast
        self.table = table


class Walked:
    """What analyze keeps of one walk: its instances by key, main's key
    (None if it has no main), and its call edges.

    A run reads instances and main_key; edges, caller key -> callee keys,
    stays only because bench/run.py's traced run sums it.
    """
    __slots__ = ("instances", "main_key", "edges")

    def __init__(self, walk: _Walk):
        self.instances = walk.instances
        self.main_key = walk.main_key
        self.edges = walk.edges


class Analysis:
    __slots__ = ("path", "profile", "mode", "lines", "diagnostics", "all_diagnostics",
                 "passes", "walks")

    def __init__(self, path: str, profile: CompileProfile, mode: Mode, lines: LineTable,
                 diagnostics: list, all_diagnostics: list, passes: dict, walks: dict):
        self.path = path
        self.profile = profile
        self.mode = mode
        self.lines = lines  # turns the positions nodes carry into SrcLocs
        self.diagnostics = diagnostics  # ordered, suppression applied
        self.all_diagnostics = all_diagnostics  # suppressed ones included
        self.passes = passes  # pass kind -> PassArtifacts
        # side -> the Walked of the walk whose natives hold it; the sides of
        # one walk share one record.
        self.walks = walks

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)


_PASS_SIDE = {HOST_PASS: HOST, DEVICE_PASS: DEVICE}


def _front_end(text: str, path: str, profile: CompileProfile, mode: Mode,
               cfg: TraitConfig, diags: list) -> tuple[dict, LineTable]:
    """PassArtifacts by pass kind, for each pass that preprocesses and parses,
    and the unit's LineTable.

    The front end runs once per unit and once per item, not once per pass:
    the unit is prepared and lexed once, each pass keeps the tokens on the
    lines it keeps, and a pass reuses each top-level item node an earlier
    pass parsed from the same tokens.  Passes that share every item share
    one Ast, symbol table and resolve(); so does a parse failure both
    passes reach from the same tokens, which is reported once.  resolve()
    writes to a shared item only what it writes in every pass, and the
    walks key what they record by node identity per instance (its site
    table) and in the call memo, whose entries a walk reuses only when its
    table answers their reads with the same nodes, so they can share nodes.
    The tokens are dropped before the walks.
    """
    specifier_mode = "keep"
    if profile.compiler == "plain":
        specifier_mode = "erase" if profile.erase_specifiers else "reject"
    prepared = prepare(text)
    tokens = tokenize(prepared, path)
    seen = ParsedItems()
    passes: dict[str, PassArtifacts] = {}
    last = None  # the last pass's PassArtifacts, or the Failure it failed with
    for pp in profile.passes():
        try:
            ptext = preprocess(prepared, pp, path)
            ast = parse(pass_tokens(tokens, prepared, ptext), path, specifier_mode, seen)
        except Failure as e:
            if e is not last:
                diags.append(e.diagnostic())
            last = e
            continue
        if isinstance(last, PassArtifacts) and last.ast is ast:
            table = last.table
        else:
            table, rdiags = resolve(ast, profile, mode, cfg)
            diags.extend(rdiags)
        last = passes[pp.kind] = PassArtifacts(ptext, ast, table)
    return passes, tokens.lines


def analyze(
    text: str,
    path: str = "<unit>",
    profile: CompileProfile = CompileProfile(),
    mode: Mode = Mode.CLASSIC,
    cfg: TraitConfig = TraitConfig(),
) -> Analysis:
    """Preprocess, parse, resolve, and space-check one unit for all passes.

    See _front_end for how the passes share the front end; passes that
    share a symbol table share one walk.
    """
    diags: list[Diagnostic] = []
    passes, lines = _front_end(text, path, profile, mode, cfg, diags)

    tables: dict = {}  # id(symbol table) -> (PassArtifacts, sides of the passes sharing it)
    for kind, art in passes.items():
        tables.setdefault(id(art.table), (art, []))[1].append(_PASS_SIDE[kind])
    interned: dict = {}  # demand numbers, one table per analyze so the walks agree
    calls: dict = {}  # the call memo, shared by the walks (_Walk._resolve_call)
    _differing([art.table for art, _ in tables.values()])
    walks: dict = {}  # side -> Walked
    demands: dict = {}  # side -> the demands of the walk whose natives hold it
    for art, sides in tables.values():
        walk = _Walk(art.table, tuple(sides), mode, profile, interned, calls)
        walk.run()
        walks.update(dict.fromkeys(sides, Walked(walk)))
        demands.update(dict.fromkeys(sides, walk.demands))
        if mode is Mode.FIDELITY and sides == [HOST]:
            diags.extend(d for d in walk.diags if d.code in _HARD_CODES)
        else:
            diags.extend(walk.diags)

    if mode in _DIVERGENCE_MODES and HOST in demands and DEVICE in demands:
        diags.extend(detect_arch_divergence(demands[HOST], demands[DEVICE], lines))

    ordered = finish_diagnostics(diags)
    return Analysis(path, profile, mode, lines, [d for d in ordered if not d.suppressed],
                    ordered, passes, walks)


def check_unit(
    text: str,
    path: str = "<unit>",
    profile: CompileProfile = CompileProfile(),
    mode: Mode = Mode.CLASSIC,
    cfg: TraitConfig = TraitConfig(),
) -> list:
    """The ordered diagnostic list for one unit (suppressed entries omitted)."""
    return analyze(text, path, profile, mode, cfg).diagnostics


def detect_arch_divergence(host_demands: dict, device_demands: dict,
                           lines: LineTable) -> list:
    """Report every signature or instantiation present in exactly one pass.

    A demand maps to its FunctionDecl or Instance, which this names, and
    the position lines locates.
    """
    diags = []
    for key in set(host_demands) ^ set(device_demands):
        demanded, pos = host_demands.get(key) or device_demands.get(key)
        display = (demanded.display() if isinstance(demanded, Instance)
                   else demanded.display_name())
        diags.append(
            Diagnostic.make(
                "E1201",
                lines.loc(pos),
                f'the instantiation of "{display}" must not depend on whether '
                "__CUDA_ARCH__ is defined",
            )
        )
    diags.sort(key=Diagnostic.sort_key)
    return diags


def struct_member_spaces(struct: n.StructDecl) -> dict:
    """Declared member spaces with struct-level decoration distributed."""
    return {m.name: declared_spaces(member_spec(m, struct)) for m in struct.member_functions()}
