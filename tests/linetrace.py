"""List every executable line and one-sided condition of src/exspace that no
test ran, and fail the session if one is outside the allow-list.

An opt-in pytest plugin built on sys.settrace alone.  Run from the root of
the repository, which ``python -m`` puts on the path before pytest loads
plugins (tests/ is added only later):

    python -m pytest -p tests.linetrace

It records the lines run, and each step from one line to the next within
a frame, while each test's body runs and while the modules are imported.
Tests that use hypothesis are not traced, so a line shows up as run only
if a direct, repeatable input reaches it.  A condition is the test of an
``if``, ``elif`` or ``while`` statement; it is one-sided when its test ran
but control never went from it into its body, or never went anywhere else.
Lines that run only after a RecursionError, or in a subprocess, are not
recorded; ALLOWED names those, each with what runs it.  It names each
by statement, not by line number, so an edit elsewhere in the file leaves
it in place.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exspace"

# Blocks the trace cannot see run: (path under src/exspace, the qualified
# name of the function enclosing the statement or "<module>", the
# statement's head as ast.unparse writes it).  The lines allowed are an
# if's body and an except clause whole.  Keep each entry's comment: it says
# what runs the lines.
ALLOWED = {
    # The module's __main__ guard body; test_cli's
    # test_console_script_entry_point runs it as `python -m exspace.cli`.
    ("cli.py", "<module>", "if __name__ == '__main__'"),
    # Interpreter.run's RecursionError arm.  Tracing stops when the trace
    # function itself overflows the stack, so the arm is never recorded;
    # test_interp's test_unbounded_recursion_ends_in_a_note pins its note.
    ("interp.py", "Interpreter.run", "except RecursionError"),
}

_LEAVE = 0  # the line a step out of the frame goes to


def _code_lines(code, out: set):
    out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)


def _allowed_lines(tree, function: str, head: str) -> range:
    """The lines of the block ALLOWED names by function and head."""
    scope = tree
    for name in [] if function == "<module>" else function.split("."):
        scope = next(x for x in ast.iter_child_nodes(scope)
                     if isinstance(x, (ast.ClassDef, ast.FunctionDef)) and x.name == name)
    for node in ast.walk(scope):
        if isinstance(node, ast.If) and head == f"if {ast.unparse(node.test)}":
            return range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        if isinstance(node, ast.ExceptHandler) and head == f"except {ast.unparse(node.type)}":
            return range(node.lineno, node.end_lineno + 1)
    raise LookupError(f"{function} has no statement {head!r}")


def _conditions(tree) -> list:
    """(first test line, last test line, body's first statement lines) of
    each if, elif and while whose test is not a constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)) and not isinstance(node.test, ast.Constant):
            first = node.body[0]
            found.append((node.lineno, node.test.end_lineno,
                          range(first.lineno, first.end_lineno + 1)))
    return found


class LineTrace:
    def __init__(self):
        self.executable, self.conditions, self.allowed = {}, {}, {}
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            self.executable[str(path)] = found = set()
            _code_lines(compile(text, str(path), "exec"), found)
            tree = ast.parse(text)
            self.conditions[str(path)] = _conditions(tree)
            self.allowed[str(path)] = {
                line for file, function, head in ALLOWED
                if file == path.relative_to(SRC).as_posix()
                for line in _allowed_lines(tree, function, head)
            }
        self.ran = {path: set() for path in self.executable}
        self.arcs = {path: set() for path in self.executable}  # (line, next line)
        self.report = []

    def trace_calls(self, frame, event, arg):
        path = frame.f_code.co_filename
        ran = self.ran.get(path)
        if ran is None:
            return None
        arcs = self.arcs[path]
        prev = frame.f_lineno
        ran.add(prev)

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                arcs.add((prev, line))
                prev = line
            elif event == "return":
                arcs.add((prev, _LEAVE))
            elif event == "exception":
                prev = None  # a test that raises took neither side
            return local
        return local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        # Installed anew for each test, in case an earlier one replaced it.
        hypothesis = getattr(getattr(item, "obj", None), "is_hypothesis_test", False)
        sys.settrace(None if hypothesis else self.trace_calls)
        yield
        sys.settrace(self.trace_calls)

    def _allowed(self, path: str, line: int) -> bool:
        return line in self.allowed[path]

    def _one_sided(self, path: str) -> list:
        """(test line, the side never taken) of each one-sided condition
        outside the allow-list; a body side is allowed with its first line."""
        ran, arcs, found = self.ran[path], self.arcs[path], []
        for first, last, body in self.conditions[path]:
            if first not in ran:
                continue  # listed among the lines never run
            span = range(first, last + 1)
            steps = [to for at, to in arcs if at in span and to not in span]
            if not any(to in body for to in steps) and not self._allowed(path, body[0]):
                found.append((first, "body"))
            if all(to in body for to in steps) and not self._allowed(path, first):
                found.append((first, "skip"))
        return found

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        root = SRC.parent.parent
        for path, lines in self.executable.items():
            missed = [x for x in sorted(lines - self.ran[path]) if not self._allowed(path, x)]
            sides = self._one_sided(path)
            if missed or sides:
                self.report.append((Path(path).relative_to(root), missed, sides))
        if self.report and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        lines = sum(len(missed) for _, missed, _ in self.report)
        sides = sum(len(s) for _, _, s in self.report)
        terminalreporter.write_sep(
            "-", f"linetrace: {lines} executable lines never ran, "
                 f"{sides} conditions one-sided, outside the allow-list")
        for rel, missed, one_sided in self.report:
            if missed:
                terminalreporter.write_line(f"{rel}: {_ranges(missed)}")
            for line, side in one_sided:
                terminalreporter.write_line(f"{rel}:{line}: the {side} side never ran")


def _ranges(lines: list) -> str:
    """Sorted line numbers as "3, 7-9"."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_configure(config):
    trace = LineTrace()
    config.pluginmanager.register(trace, "linetrace-state")
    sys.settrace(trace.trace_calls)
