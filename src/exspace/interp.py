"""Deterministic execution of checked units.

Host statements run top to bottom; kernel launches run grid*block logical
threads sequentially in thread order.  A trap latches a version-dependent
sticky error that later launches observe.  Code runs on the side of the
instance it belongs to.  A dynamically executed stray call never produces a
value: it halts the run with a reserved exit code.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, SrcLoc
from .sema import DEVICE, HOST, HDC, Type
from .spacecheck import Analysis, Instance
from .syntax import nodes as n

UB_EXIT = 101
ABORT_EXIT = 134


@dataclass
class Machine:
    sticky_error: int = 0
    out: bytearray = field(default_factory=bytearray)


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
    """__trap, abort or a false release_assert stops the executing thread.

    Each builtin runs only on the side the check allows it on, so on the
    device this is a trap, which its launch latches, and on the host an
    abort, which ends the run.
    """


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
    during the walk, or the builtin the walk found available there; a site
    recorded as stray, or not recorded, is a UB halt.  The run evaluates no
    type, trait or constant itself: a temporary, a variable declaration,
    hdc< T >, T::member and a template parameter used as a value read what
    the walk recorded in the site table, and a failure recorded there is a
    UB halt.
    """

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.machine = Machine()
        self.notes: list[Diagnostic] = []
        self.inst = None  # the executing Instance
        self.sites: dict = {}  # its site table

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
        return RunResult(code, bytes(self.machine.out), ub, self.notes)

    # -- functions ------------------------------------------------------------

    def _exec_instance(self, inst: Instance, args, loc):
        decl = inst.decl
        if decl.body is None:
            raise UbHalt(loc, f'"{decl.display_name()}" has no body to execute')
        locals_ = {p.name: a for p, a in zip(decl.params, args)}
        outer = self.inst, self.sites
        self.inst, self.sites = inst, inst.sites
        try:
            self._exec_stmts(decl.body, locals_)
        except _Return as r:
            return r.value
        finally:
            self.inst, self.sites = outer
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
        if self.inst.side is not HOST:
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
        for _ in range(max(grid, 0) * max(block, 0)):
            try:
                self._exec_instance(kernel, args, s.loc)
            except _Trap:
                m.sticky_error = self.analysis.profile.trap_error_code()
                break  # the trap abandons all remaining threads

    # -- the site table ---------------------------------------------------------------

    def _site(self, node):
        """What the walk recorded at node: a callee, type or value, else a UB halt."""
        recorded = self.sites.get(id(node), "the check resolved no callee here")
        if isinstance(recorded, str):
            raise UbHalt(node.loc, recorded)
        return recorded

    def _call(self, e, locals_):
        args = [self._eval(a, locals_) for a in e.args]
        callee = self._site(e)
        if callee is None:
            return self._eval_builtin(e, args)
        return self._exec_instance(callee, args, e.loc)

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
            return self.inst.side is DEVICE
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
        if isinstance(e, (n.CallExpr, n.StaticCallExpr)):
            return self._call(e, locals_)
        if isinstance(e, n.MemberCallExpr):
            self._eval(e.recv, locals_)  # for its halts; the walk chose the callee
            return self._call(e, locals_)
        raise TypeError(f"unknown expression {e!r}")

    # -- builtins ---------------------------------------------------------------------

    def _eval_builtin(self, e: n.CallExpr, args):
        m = self.machine
        name = e.name
        if name == "printf":
            fmt = args[0]
            if len(args) > 1:
                if not isinstance(args[1], int):
                    raise UbHalt(e.loc, "the %d argument of printf must be integral")
                fmt = fmt.replace("%d", str(int(args[1])), 1)
            m.out.extend(fmt.encode())
            return len(fmt)
        if name == "cudaDeviceSynchronize":
            return device_synchronize(m)
        if name == "release_assert" and args[0]:
            return None
        if name in ("release_assert", "__trap", "abort", "std::abort"):
            raise _Trap()
        raise AssertionError(f"unhandled builtin {name}")


def run_program(analysis: Analysis) -> RunResult:
    """Execute a previously analyzed unit and capture its output.

    Callers gate on the check result; running an erroneous unit is allowed
    for exploration, and any dynamically reached stray call becomes a UB
    halt with the reserved exit code rather than an arbitrary value.
    """
    return Interpreter(analysis).run()
