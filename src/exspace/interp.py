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
from .sema import DEVICE, HOST, HDC, ExecSpace, Type, builtin_spaces
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


def _default_value(t: Type):
    if t.name == "int":
        return 0
    if t.name == "bool":
        return False
    return StructVal(t)


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
    halt.  The run evaluates no type, trait or constant itself: a
    temporary, a variable declaration, hdc< T >, T::member and a template
    parameter used as a value read what the walk recorded in the site
    table, and a failure recorded there is a UB halt.
    """

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.profile = analysis.profile
        self.machine = Machine()
        self.notes: list[Diagnostic] = []
        self.sites: dict = {}  # the site table of the executing instance

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
        locals_ = {p.name: a for p, a in zip(decl.params, args)}
        outer, self.sites = self.sites, inst.sites
        try:
            self._exec_stmts(decl.body, locals_)
        except _Return as r:
            return r.value
        finally:
            self.sites = outer
        return None

    def _exec_stmts(self, stmts, locals_):
        for s in stmts:
            self._exec_stmt(s, locals_)

    def _exec_stmt(self, s, locals_):
        if isinstance(s, n.ExprStmt):
            self._eval(s.expr, locals_)
        elif isinstance(s, n.ReturnStmt):
            raise _Return(self._eval(s.expr, locals_) if s.expr else None)
        elif isinstance(s, n.VarDeclStmt):
            locals_[s.name] = _default_value(self._site(s))
        elif isinstance(s, n.IfStmt):
            if self._eval(s.cond, locals_):
                self._exec_stmts(s.then, dict(locals_))
            elif s.orelse is not None:
                self._exec_stmts(s.orelse, dict(locals_))
        elif isinstance(s, n.ForStmt):
            v = self._loop_bound(s, s.init, locals_)
            while v < self._loop_bound(s, s.bound, locals_):
                inner = dict(locals_)
                inner[s.var] = v
                self._exec_stmts(s.body, inner)
                v += 1
        elif isinstance(s, n.LaunchStmt):
            self.launch_kernel(s, locals_)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def _loop_bound(self, s: n.ForStmt, e, locals_) -> int:
        value = self._eval(e, locals_)
        if not isinstance(value, int):
            raise UbHalt(s.loc, "the start and bound of a for loop must be integral")
        return value

    # -- kernel launches ---------------------------------------------------------

    def launch_kernel(self, s: n.LaunchStmt, locals_):
        m = self.machine
        if m.side is not HOST:
            raise UbHalt(s.loc, "a kernel launch from device code")
        grid = self._eval(s.grid, locals_)
        block = self._eval(s.block, locals_)
        args = [self._eval(a, locals_) for a in s.args]
        if m.sticky_error != 0:
            self.notes.append(
                Diagnostic.make(
                    "N0001",
                    s.loc,
                    f"kernel launch skipped: the device error state is {m.sticky_error}",
                )
            )
            return
        device = self.analysis.walks.get(DEVICE)
        if device is None:
            raise UbHalt(
                SrcLoc(self.analysis.path, 1, 1),
                "no compiled code exists for this side",
            )
        target = self._site(s)
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

    # -- the site table ---------------------------------------------------------------

    def _site(self, node):
        """What the walk recorded at node: a callee, type or value, else a UB halt."""
        recorded = self.sites.get(id(node), "the check resolved no callee here")
        if isinstance(recorded, str):
            raise UbHalt(node.loc, recorded)
        return recorded

    def _call(self, e, locals_):
        args = [self._eval(a, locals_) for a in e.args]
        return self._exec_instance(self._site(e), args, e.loc)

    # -- expression evaluation --------------------------------------------------------

    def _eval(self, e, locals_):
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
            return self._site(e)
        if isinstance(e, n.TempObj):
            return StructVal(self._site(e))
        if isinstance(e, (n.HdcTrait, n.MemberConst)):
            return self._site(e)
        if isinstance(e, n.UnaryExpr):
            return not self._eval(e.operand, locals_)
        if isinstance(e, n.BinaryExpr):
            lhs = self._eval(e.lhs, locals_)
            if e.op == "&&":
                return bool(lhs) and bool(self._eval(e.rhs, locals_))
            if e.op == "||":
                return bool(lhs) or bool(self._eval(e.rhs, locals_))
            rhs = self._eval(e.rhs, locals_)
            if e.op == "==":
                return lhs == rhs
            if e.op == "!=":
                return lhs != rhs
        if isinstance(e, n.CallExpr):
            if id(e) not in self.sites:  # the walk records user calls only
                return self._eval_builtin(e, locals_)
            return self._call(e, locals_)
        if isinstance(e, n.MemberCallExpr):
            self._eval(e.recv, locals_)  # for its halts; the walk chose the callee
            return self._call(e, locals_)
        if isinstance(e, n.StaticCallExpr):
            return self._call(e, locals_)
        raise TypeError(f"unknown expression {e!r}")

    # -- builtins ---------------------------------------------------------------------

    def _eval_builtin(self, e: n.CallExpr, locals_):
        m = self.machine
        name = e.name
        spaces = builtin_spaces(name, self.profile)
        if spaces is None:
            raise UbHalt(e.loc, f'undefined name "{name}"')
        args = [self._eval(a, locals_) for a in e.args]
        if m.side not in spaces:
            raise UbHalt(
                e.loc,
                f'"{name}" is not available in '
                f"{'host' if m.side is HOST else 'device'} code",
            )
        if name == "printf":
            fmt = args[0]
            if len(args) > 1:
                if not isinstance(args[1], int):
                    raise UbHalt(e.loc, "the %d argument of printf must be integral")
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
