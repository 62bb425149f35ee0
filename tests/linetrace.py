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
recorded; ALLOWED names those, each with what runs it.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exspace"

# Lines the trace cannot see run, by path under src/exspace and first and
# last line.  Keep each entry's comment: it says what runs the lines.
ALLOWED = {
    # The module's __main__ guard body; test_cli's
    # test_console_script_entry_point runs it as `python -m exspace.cli`.
    ("cli.py", 146, 146),
    # Interpreter.run's RecursionError arm.  Tracing stops when the trace
    # function itself overflows the stack, so the arm is never recorded;
    # test_interp's test_unbounded_recursion_ends_in_a_note pins its note.
    ("interp.py", 153, 156),
}

_LEAVE = 0  # the line a step out of the frame goes to


def _code_lines(code, out: set):
    out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)


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
        self.executable, self.conditions = {}, {}
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            self.executable[str(path)] = found = set()
            _code_lines(compile(text, str(path), "exec"), found)
            self.conditions[str(path)] = _conditions(ast.parse(text))
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
        name = Path(path).relative_to(SRC).as_posix()
        return any(name == f and a <= line <= b for f, a, b in ALLOWED)

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
