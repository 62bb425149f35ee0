"""Deterministic execution of checked units.

Host statements run top to bottom.  A kernel launch of grid*block logical
threads runs thread 0 and replays its effect for the rest.  That is exact:
every thread runs the same instance on the same arguments, and device code
reads nothing a thread writes (output is only written, the error state is
read only by host code, and device code cannot launch).  So a trap in
thread 0 abandons every thread; it latches a version-dependent sticky error
that later launches observe.  Code runs on the side of the instance it
belongs to.  A dynamically executed stray call never produces a value: it
halts the run with a reserved exit code.  Calls nested deeper than the
Python stack allows, a launch of more threads than its budget, and output
past its budget halt it with a note and a reserved code of their own.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, Failure, SrcLoc
from .sema import DEVICE, HOST, HDC, Type
from .spacecheck import Analysis, Instance
from .syntax import nodes as n

UB_EXIT = 101
ABORT_EXIT = 134
STACK_EXIT = 139  # calls nested deeper than the interpreter's stack
BUDGET_EXIT = 152  # a launch over its thread budget (128 + SIGXCPU)
OUTPUT_EXIT = 153  # output over its budget (128 + SIGXFSZ)

# Threads one launch may run, grid * block, checked before the first runs.
# The largest literal launch in the reference corpus and the benchmark's
# pools runs 2,872.
MAX_LAUNCH_THREADS = 1 << 20

# Bytes one run may print, checked before they are written: by printf as
# it appends, and by a launch before it replays thread 0's output.
MAX_OUTPUT_BYTES = 1 << 24


class Machine:
    __slots__ = ("sticky_error", "out")

    def __init__(self):
        self.sticky_error = 0
        self.out = bytearray()


class RunResult:
    __slots__ = ("exit_code", "stdout", "ub_halt", "notes", "calls", "threads")

    def __init__(self, exit_code: int, stdout: bytes, ub_halt: bool, notes: list,
                 calls: int = 0, threads: int = 0):
        if ub_halt and exit_code != UB_EXIT:
            raise ValueError("a UB halt always exits with the reserved code")
        self.exit_code = exit_code
        self.stdout = stdout
        self.ub_halt = ub_halt
        self.notes = notes
        self.calls = calls  # user bodies entered from a call site; main and threads excluded
        self.threads = threads  # logical threads launched, replayed ones included


def _default_value(t: Type):
    """int and bool start at zero; a struct value is stateless, so its Type is it."""
    if t.name == "int":
        return 0
    if t.name == "bool":
        return False
    return t


class _Trap(Exception):
    """__trap, abort or a false release_assert stops the executing thread.

    Each builtin runs only on the side the check allows it on, so on the
    device this is a trap, which its launch latches, and on the host an
    abort, which ends the run.
    """


class Halt(Failure):
    """A run stopped early: the note it leaves and the run's exit code.

    N0001 (UB_EXIT) a stray call was executed, and no value is produced;
    N0003 (BUDGET_EXIT) a launch asked for more threads than
    MAX_LAUNCH_THREADS;
    N0004 (OUTPUT_EXIT) the run's output would pass MAX_OUTPUT_BYTES.
    """

    def __init__(self, code: str, loc: SrcLoc, message: str, exit_code: int):
        super().__init__(code, loc, message)
        self.exit_code = exit_code

    @classmethod
    def stray(cls, loc: SrcLoc, reason: str) -> "Halt":
        return cls("N0001", loc, f"execution halted on a stray call: {reason}", UB_EXIT)

    @classmethod
    def output(cls, loc: SrcLoc, size: int) -> "Halt":
        message = (f"execution halted: the output would reach {size} bytes, "
                   f"over the budget of {MAX_OUTPUT_BYTES} bytes per run")
        return cls("N0004", loc, message, OUTPUT_EXIT)


def device_synchronize(m: Machine) -> int:
    """The host-side error check; zero means success."""
    return m.sticky_error


class Interpreter:
    """Executes the instances the check chose.

    Host code runs the instances analysis.walks keeps for the host, and
    device code those it keeps for the device: the Walked record of the walk
    whose natives hold that side, one record for passes that share a symbol
    table.  Every call site executes the callee its instance recorded during
    the walk, or the builtin the walk found available there; a site recorded
    as stray, or not recorded, is a UB halt.  The run evaluates no type,
    trait or constant itself: a temporary, a variable declaration, hdc< T >,
    T::member and a template parameter used as a value read what the walk
    recorded in the site table, and a failure recorded there is a UB halt.

    Statements and expressions are executed by the handlers that _STMT and
    _EVAL map their node class to.  Each handler takes the executing
    Instance and the locals of its block; a statement handler returns
    (value,) when a return statement ran and None otherwise.
    """

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.machine = Machine()
        self.notes: list[Diagnostic] = []
        self.calls = 0  # user bodies entered from a call site
        self.threads = 0  # logical threads launched, replayed ones included

    # -- entry --------------------------------------------------------------

    def run(self) -> RunResult:
        host = self.analysis.walks.get(HOST)
        main = host and host.instances.get(host.main_key)
        if main is None:  # _Walk._seed_roots roots no main without a body
            raise ValueError("the unit has no main function")
        ub = False
        code = 0
        try:
            value = self._body(main, [], main.decl.pos)
            if isinstance(value, int):  # a bool too
                code = int(value)
        except _Trap:
            code = ABORT_EXIT
        except Halt as h:
            self.notes.append(h.diagnostic())
            ub = h.exit_code == UB_EXIT
            code = h.exit_code
        except RecursionError:
            message = "execution halted: calls nest deeper than the interpreter's stack"
            self.notes.append(Diagnostic.make("N0002", self.loc(main.decl.pos), message))
            code = STACK_EXIT
        return RunResult(
            code, bytes(self.machine.out), ub, self.notes, self.calls, self.threads
        )

    def loc(self, pos: int) -> SrcLoc:
        """The SrcLoc of a node's position, for a halt or a note."""
        return self.analysis.lines.loc(pos)

    # -- bodies and statements ------------------------------------------------

    def _body(self, inst: Instance, args, pos):
        # Bodies and blocks run their statements inline: each Python frame
        # saved per call level is more levels of MiniCU calls before N0002.
        decl = inst.decl
        if decl.body is None:
            raise Halt.stray(self.loc(pos), f'"{decl.display_name()}" has no body to execute')
        locals_ = {}
        for p, a in zip(decl.params, args):
            locals_[p.name] = a
        for s in decl.body:
            r = _STMT[type(s)](self, s, inst, locals_)
            if r is not None:
                return r[0]
        return None

    def _expr_stmt(self, s: n.ExprStmt, inst, locals_):
        e = s.expr
        _EVAL[type(e)](self, e, inst, locals_)

    def _return(self, s: n.ReturnStmt, inst, locals_):
        e = s.expr
        return (None if e is None else _EVAL[type(e)](self, e, inst, locals_),)

    def _var_decl(self, s: n.VarDeclStmt, inst, locals_):
        locals_[s.name] = _default_value(self._site(s, inst))

    def _if(self, s: n.IfStmt, inst, locals_):
        c = s.cond
        if _EVAL[type(c)](self, c, inst, locals_):
            block = s.then
        elif s.orelse is not None:
            block = s.orelse
        else:
            return None
        inner = dict(locals_)
        for st in block:
            r = _STMT[type(st)](self, st, inst, inner)
            if r is not None:
                return r
        return None

    def _for(self, s: n.ForStmt, inst, locals_):
        v = self._loop_bound(s, s.init, inst, locals_)
        while v < self._loop_bound(s, s.bound, inst, locals_):
            inner = dict(locals_)
            inner[s.var] = v
            for st in s.body:
                r = _STMT[type(st)](self, st, inst, inner)
                if r is not None:
                    return r
            v += 1
        return None

    def _loop_bound(self, s: n.ForStmt, e, inst, locals_) -> int:
        value = _EVAL[type(e)](self, e, inst, locals_)
        if not isinstance(value, int):
            raise Halt.stray(self.loc(s.pos), "the start and bound of a for loop must be integral")
        return value

    # -- kernel launches ---------------------------------------------------------

    def launch_kernel(self, s: n.LaunchStmt, inst: Instance, locals_):
        m = self.machine
        if inst.side is not HOST:
            raise Halt.stray(self.loc(s.pos), "a kernel launch from device code")
        grid = _EVAL[type(s.grid)](self, s.grid, inst, locals_)
        block = _EVAL[type(s.block)](self, s.block, inst, locals_)
        args = [_EVAL[type(a)](self, a, inst, locals_) for a in s.args]
        if m.sticky_error != 0:
            self.notes.append(
                Diagnostic.make(
                    "N0001",
                    self.loc(s.pos),
                    f"kernel launch skipped: the device error state is {m.sticky_error}",
                )
            )
            return
        device = self.analysis.walks.get(DEVICE)
        if device is None:
            raise Halt.stray(
                SrcLoc(self.analysis.path, 1, 1),
                "no compiled code exists for this side",
            )
        target = self._site(s, inst)
        kernel = device.instances.get(target.key)
        if kernel is None:
            raise Halt.stray(
                self.loc(s.pos), f'the device pass has no instance of "{target.display()}"'
            )
        if not isinstance(grid, int) or not isinstance(block, int):
            raise Halt.stray(self.loc(s.pos), "the launch configuration must be integral")
        threads = max(grid, 0) * max(block, 0)
        if threads > MAX_LAUNCH_THREADS:
            message = (f"execution halted: a launch of {threads} threads exceeds "
                       f"the budget of {MAX_LAUNCH_THREADS} threads per launch")
            raise Halt("N0003", self.loc(s.pos), message, BUDGET_EXIT)
        if threads == 0:
            return
        out, calls = len(m.out), self.calls
        self.threads += 1
        try:
            self._body(kernel, args, s.pos)
        except _Trap:
            m.sticky_error = self.analysis.profile.trap_error_code()
            return  # the trap abandons all remaining threads
        # The other threads repeat thread 0's effect (see the module docstring).
        size = len(m.out) + (threads - 1) * (len(m.out) - out)
        if size > MAX_OUTPUT_BYTES:
            del m.out[out:]  # the launch halts whole, as over the thread budget
            raise Halt.output(self.loc(s.pos), size)
        m.out += m.out[out:] * (threads - 1)
        self.calls += (self.calls - calls) * (threads - 1)
        self.threads += threads - 1

    # -- the site table ---------------------------------------------------------------

    def _site(self, node, inst: Instance, locals_=None):
        """What the walk recorded at node: a callee, type or value, else a UB halt.

        It is also the handler of a temporary, whose value is its Type, and of
        hdc< T > and T::member, hence locals_.
        """
        recorded = inst.sites.get(id(node), "the check resolved no callee here")
        if isinstance(recorded, str):
            raise Halt.stray(self.loc(node.pos), recorded)
        return recorded

    def _call(self, e, inst: Instance, locals_):
        args = []
        for a in e.args:
            args.append(_EVAL[type(a)](self, a, inst, locals_))
        callee = self._site(e, inst)
        if callee is None:
            return self._builtin(e, args)
        self.calls += 1
        return self._body(callee, args, e.pos)

    def _member_call(self, e: n.MemberCallExpr, inst, locals_):
        r = e.recv
        _EVAL[type(r)](self, r, inst, locals_)  # for its halts; the walk chose the callee
        return self._call(e, inst, locals_)

    # -- expressions ------------------------------------------------------------------

    def _literal(self, e, inst, locals_):
        return e.value

    def _hdc_literal(self, e: n.HdcLit, inst, locals_):
        return HDC[e.value]

    def _cuda_arch(self, e: n.CudaArchRef, inst: Instance, locals_):
        return inst.side is DEVICE

    def _name(self, e: n.NameRef, inst, locals_):
        if e.name in locals_:
            return locals_[e.name]
        return self._site(e, inst)

    def _not(self, e: n.UnaryExpr, inst, locals_):
        return not _EVAL[type(e.operand)](self, e.operand, inst, locals_)

    def _compare(self, e: n.BinaryExpr, inst, locals_):
        lhs = _EVAL[type(e.lhs)](self, e.lhs, inst, locals_)
        rhs = _EVAL[type(e.rhs)](self, e.rhs, inst, locals_)
        return lhs == rhs if e.op == "==" else lhs != rhs

    def _logical(self, e: n.LogicalExpr, inst, locals_):
        # The run stops at the first operand that decides it.
        decides = e.op == "||"
        for operand in e.operands:
            if bool(_EVAL[type(operand)](self, operand, inst, locals_)) is decides:
                return decides
        return not decides

    # -- builtins ---------------------------------------------------------------------

    def _builtin(self, e: n.CallExpr, args):
        m = self.machine
        name = e.name
        if name == "printf":
            fmt = args[0]
            if len(args) > 1:
                if not isinstance(args[1], int):
                    raise Halt.stray(self.loc(e.pos), "the %d argument of printf must be integral")
                fmt = fmt.replace("%d", str(int(args[1])), 1)
            data = fmt.encode()
            if len(m.out) + len(data) > MAX_OUTPUT_BYTES:
                raise Halt.output(self.loc(e.pos), len(m.out) + len(data))
            m.out.extend(data)
            return len(fmt)
        if name == "cudaDeviceSynchronize":
            return device_synchronize(m)
        if name == "release_assert" and args[0]:
            return None
        raise _Trap()  # release_assert( false ), __trap, abort or std::abort


_STMT = {
    n.ExprStmt: Interpreter._expr_stmt,
    n.ReturnStmt: Interpreter._return,
    n.VarDeclStmt: Interpreter._var_decl,
    n.IfStmt: Interpreter._if,
    n.ForStmt: Interpreter._for,
    # Looked up on the class at each launch, so that a wrapper installed
    # there sees every launch statement, skipped launches included.
    n.LaunchStmt: lambda self, s, inst, locals_: self.launch_kernel(s, inst, locals_),
}

_EVAL = {
    n.IntLit: Interpreter._literal,
    n.BoolLit: Interpreter._literal,
    n.StringLit: Interpreter._literal,
    n.HdcLit: Interpreter._hdc_literal,
    n.CudaArchRef: Interpreter._cuda_arch,
    n.NameRef: Interpreter._name,
    n.TempObj: Interpreter._site,
    n.HdcTrait: Interpreter._site,
    n.MemberConst: Interpreter._site,
    n.UnaryExpr: Interpreter._not,
    n.BinaryExpr: Interpreter._compare,
    n.LogicalExpr: Interpreter._logical,
    n.CallExpr: Interpreter._call,
    n.StaticCallExpr: Interpreter._call,
    n.MemberCallExpr: Interpreter._member_call,
}


def run_program(analysis: Analysis) -> RunResult:
    """Execute a previously analyzed unit and capture its output.

    Callers gate on the check result; running an erroneous unit is allowed
    for exploration, and any dynamically reached stray call becomes a UB
    halt with the reserved exit code rather than an arbitrary value.
    """
    return Interpreter(analysis).run()
