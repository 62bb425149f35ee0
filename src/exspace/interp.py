"""Deterministic execution of checked units.

Host statements run top to bottom; kernel launches run grid*block logical
threads sequentially in thread order.  A trap latches a version-dependent
sticky error that later launches observe.  A dynamically executed stray
call never produces a value: it halts the run with a reserved exit code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import Diagnostic, SrcLoc
from .sema import (
    DEVICE,
    HOST,
    HDC,
    ExecSpace,
    SemaError,
    SubstFailure,
    SymbolTable,
    Type,
    builtin_spaces,
    compute_hdc,
    eval_const_expr,
    resolve_type,
)
from .spacecheck import Analysis, Instance
from .syntax import nodes as n

UB_EXIT = 101
ABORT_EXIT = 134


@dataclass
class Machine:
    sticky_error: int = 0
    out: bytearray = field(default_factory=bytearray)
    exit_status: Optional[int] = None
    side: ExecSpace = HOST
    thread_id: Optional[int] = None


@dataclass
class RunResult:
    exit_code: int
    stdout: bytes
    ub_halt: bool
    notes: list

    def __post_init__(self):
        if self.ub_halt and self.exit_code != UB_EXIT:
            raise ValueError("a UB halt always exits with the reserved code")


@dataclass(frozen=True)
class StructVal:
    """A stateless struct instance; only the type tag matters."""

    type: Type


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Trap(Exception):
    pass


class _Abort(Exception):
    pass


class UbHalt(Exception):
    """A stray call was dynamically executed; no value is produced."""

    def __init__(self, loc: SrcLoc, reason: str):
        super().__init__(f"{loc}: {reason}")
        self.loc = loc
        self.reason = reason


def device_synchronize(m: Machine) -> int:
    """The host-side error check; zero means success."""
    return m.sticky_error


class Interpreter:
    """Executes the instances the check chose, one walk per side.

    Host code runs the host walk's instances and device code the device
    walk's.  Every call site executes the callee its instance recorded
    during the walk; a site recorded as stray, or not recorded, is a UB
    halt.
    """

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.profile = analysis.profile
        self.machine = Machine()
        self.notes: list[Diagnostic] = []
        self.calls: dict = {}  # the call-site table of the executing instance

    # -- plumbing ---------------------------------------------------------

    def _walk(self, side: ExecSpace):
        walk = self.analysis.walks.get(side)
        if walk is None:
            raise UbHalt(
                SrcLoc(self.analysis.path, 1, 1),
                "no compiled code exists for this side",
            )
        return walk

    def _table(self) -> SymbolTable:
        return self._walk(self.machine.side).table

    # -- entry --------------------------------------------------------------

    def run(self) -> RunResult:
        host = self.analysis.walks.get(HOST)
        main = host and host.instances.get(host.main_key)
        if main is None or main.decl.body is None:
            raise ValueError("the unit has no main function")
        ub = False
        code = 0
        try:
            value = self._exec_instance(main, [], main.decl.loc)
            if isinstance(value, bool):
                code = int(value)
            elif isinstance(value, int):
                code = value
        except _Return:
            raise AssertionError("return escaped a function body")
        except _Abort:
            code = ABORT_EXIT
        except _Trap:
            code = ABORT_EXIT
        except UbHalt as u:
            self.notes.append(
                Diagnostic.make(
                    "N0001", u.loc, f"execution halted on a stray call: {u.reason}"
                )
            )
            ub = True
            code = UB_EXIT
        self.machine.exit_status = code
        return RunResult(code, bytes(self.machine.out), ub, self.notes)

    # -- functions ------------------------------------------------------------

    def _exec_instance(self, inst: Instance, args, loc):
        decl = inst.decl
        if decl.body is None:
            raise UbHalt(loc, f'"{decl.display_name()}" has no body to execute')
        env = {**inst.owner_bindings, **inst.bindings}
        locals_ = {p.name: a for p, a in zip(decl.params, args)}
        outer, self.calls = self.calls, inst.calls
        try:
            self._exec_stmts(decl.body, env, locals_)
        except _Return as r:
            return r.value
        finally:
            self.calls = outer
        return None

    def _exec_stmts(self, stmts, env, locals_):
        for s in stmts:
            self._exec_stmt(s, env, locals_)

    def _exec_stmt(self, s, env, locals_):
        if isinstance(s, n.ExprStmt):
            self._eval(s.expr, env, locals_)
        elif isinstance(s, n.ReturnStmt):
            raise _Return(self._eval(s.expr, env, locals_) if s.expr else None)
        elif isinstance(s, n.VarDeclStmt):
            locals_[s.name] = self._default_value(s.type, env, s.loc)
        elif isinstance(s, n.IfStmt):
            if self._eval(s.cond, env, locals_):
                self._exec_stmts(s.then, env, dict(locals_))
            elif s.orelse is not None:
                self._exec_stmts(s.orelse, env, dict(locals_))
        elif isinstance(s, n.ForStmt):
            v = self._eval(s.init, env, locals_)
            while v < self._eval(s.bound, env, locals_):
                inner = dict(locals_)
                inner[s.var] = v
                self._exec_stmts(s.body, env, inner)
                v += 1
        elif isinstance(s, n.LaunchStmt):
            self.launch_kernel(s, env, locals_)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def _default_value(self, tref, env, loc):
        t = self._resolve_type(tref, env, loc)
        if t.name == "int":
            return 0
        if t.name == "bool":
            return False
        return StructVal(t)

    def _resolve_type(self, tref, env, loc) -> Type:
        try:
            return resolve_type(tref, env, self._table())
        except (SemaError, SubstFailure) as e:
            raise UbHalt(loc, f"unresolvable type: {e}") from None

    # -- kernel launches ---------------------------------------------------------

    def launch_kernel(self, s: n.LaunchStmt, env, locals_):
        m = self.machine
        if m.side is not HOST:
            raise UbHalt(s.loc, "a kernel launch from device code")
        grid = self._eval(s.grid, env, locals_)
        block = self._eval(s.block, env, locals_)
        args = [self._eval(a, env, locals_) for a in s.args]
        if m.sticky_error != 0:
            self.notes.append(
                Diagnostic.make(
                    "N0001",
                    s.loc,
                    f"kernel launch skipped: the device error state is {m.sticky_error}",
                )
            )
            return
        device = self._walk(DEVICE)
        target = self._callee(s)
        kernel = device.instances.get(target.key)
        if kernel is None:
            raise UbHalt(
                s.loc, f'the device pass has no instance of "{target.display()}"'
            )
        if not isinstance(grid, int) or not isinstance(block, int):
            raise UbHalt(s.loc, "the launch configuration must be integral")
        m.side = DEVICE
        try:
            for tid in range(max(grid, 0) * max(block, 0)):
                m.thread_id = tid
                try:
                    self._exec_instance(kernel, args, s.loc)
                except _Trap:
                    m.sticky_error = self.profile.trap_error_code()
                    break  # the trap abandons all remaining threads
        finally:
            m.side = HOST
            m.thread_id = None

    # -- calls ----------------------------------------------------------------------

    def _callee(self, node) -> Instance:
        """The instance the check chose at this call site, else a UB halt."""
        target = self.calls.get(id(node))
        if isinstance(target, Instance):
            return target
        raise UbHalt(node.loc, target or "the check resolved no callee here")

    def _call(self, e, env, locals_):
        args = [self._eval(a, env, locals_) for a in e.args]
        return self._exec_instance(self._callee(e), args, e.loc)

    # -- expression evaluation --------------------------------------------------------

    def _eval(self, e, env, locals_):
        if isinstance(e, n.IntLit):
            return e.value
        if isinstance(e, n.BoolLit):
            return e.value
        if isinstance(e, n.StringLit):
            return e.value
        if isinstance(e, n.HdcLit):
            return HDC[e.value]
        if isinstance(e, n.CudaArchRef):
            return self.machine.side is DEVICE
        if isinstance(e, n.NameRef):
            if e.name in locals_:
                return locals_[e.name]
            if e.name in env and not isinstance(env[e.name], Type):
                return env[e.name]
            raise UbHalt(e.loc, f'undefined name "{e.name}"')
        if isinstance(e, n.TempObj):
            return StructVal(self._resolve_type(e.type, env, e.loc))
        if isinstance(e, n.HdcTrait):
            t = self._resolve_type(e.type, env, e.loc)
            try:
                return compute_hdc(t, self._table(), self.analysis.cfg)
            except (SemaError, SubstFailure) as err:
                raise UbHalt(e.loc, str(err)) from None
        if isinstance(e, n.MemberConst):
            try:
                return eval_const_expr(e, env, self._table(), self.analysis.cfg)
            except (SemaError, SubstFailure) as err:
                raise UbHalt(e.loc, str(err)) from None
        if isinstance(e, n.UnaryExpr):
            return not self._eval(e.operand, env, locals_)
        if isinstance(e, n.BinaryExpr):
            lhs = self._eval(e.lhs, env, locals_)
            if e.op == "&&":
                return bool(lhs) and bool(self._eval(e.rhs, env, locals_))
            if e.op == "||":
                return bool(lhs) or bool(self._eval(e.rhs, env, locals_))
            rhs = self._eval(e.rhs, env, locals_)
            if e.op == "==":
                return lhs == rhs
            if e.op == "!=":
                return lhs != rhs
            if e.op == "<":
                return lhs < rhs
        if isinstance(e, n.CallExpr):
            if id(e) not in self.calls:  # the walk records user calls only
                return self._eval_builtin(e, env, locals_)
            return self._call(e, env, locals_)
        if isinstance(e, n.MemberCallExpr):
            self._eval(e.recv, env, locals_)  # for its halts; the walk chose the callee
            return self._call(e, env, locals_)
        if isinstance(e, n.StaticCallExpr):
            return self._call(e, env, locals_)
        raise TypeError(f"unknown expression {e!r}")

    # -- builtins ---------------------------------------------------------------------

    def _eval_builtin(self, e: n.CallExpr, env, locals_):
        m = self.machine
        name = e.name
        spaces = builtin_spaces(name, self.profile)
        if spaces is None:
            raise UbHalt(e.loc, f'undefined name "{name}"')
        args = [self._eval(a, env, locals_) for a in e.args]
        if m.side not in spaces:
            raise UbHalt(
                e.loc,
                f'"{name}" is not available in '
                f"{'host' if m.side is HOST else 'device'} code",
            )
        if name == "printf":
            fmt = args[0]
            if len(args) > 1:
                fmt = fmt.replace("%d", str(int(args[1])), 1)
            m.out.extend(fmt.encode())
            return len(fmt)
        if name == "release_assert":
            self.release_assert(bool(args[0]))
            return None
        if name == "__trap":
            raise _Trap()
        if name in ("abort", "std::abort"):
            raise _Abort()
        if name == "cudaDeviceSynchronize":
            return device_synchronize(m)
        raise AssertionError(f"unhandled builtin {name}")

    def release_assert(self, flag: bool):
        """No-op when true; a device trap or a host abort when false."""
        if flag:
            return
        if self.machine.side is DEVICE:
            raise _Trap()
        raise _Abort()


def run_program(analysis: Analysis) -> RunResult:
    """Execute a previously analyzed unit and capture its output.

    Callers gate on the check result; running an erroneous unit is allowed
    for exploration, and any dynamically reached stray call becomes a UB
    halt with the reserved exit code rather than an arbitrary value.
    """
    return Interpreter(analysis).run()
