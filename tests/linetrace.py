"""List every executable line of src/exspace that no test ran.

An opt-in pytest plugin built on sys.settrace alone.  Run from the root of
the repository, which ``python -m`` puts on the path before pytest loads
plugins (tests/ is added only later):

    python -m pytest -p tests.linetrace

It records the lines run while each test's body runs, and the lines run
when the modules are imported.  Tests that use hypothesis are not traced,
so a line shows up as run only if a direct, repeatable input reaches it.
Lines that run only after a RecursionError, or in a subprocess, are not
recorded.  Treat the list as a lead and confirm each line with an input.
"""
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exspace"


def _code_lines(code, out: set):
    out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)


def executable_lines() -> dict:
    """Each source file's executable line numbers, by path."""
    lines = {}
    for path in sorted(SRC.rglob("*.py")):
        lines[str(path)] = found = set()
        _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"), found)
    return lines


class LineTrace:
    def __init__(self):
        self.executable = executable_lines()
        self.ran = {path: set() for path in self.executable}

    def trace_calls(self, frame, event, arg):
        ran = self.ran.get(frame.f_code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def local(frame, event, arg):
            ran.add(frame.f_lineno)
            return local
        return local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        # Installed anew for each test, in case an earlier one replaced it.
        hypothesis = getattr(getattr(item, "obj", None), "is_hypothesis_test", False)
        sys.settrace(None if hypothesis else self.trace_calls)
        yield
        sys.settrace(self.trace_calls)

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        root = SRC.parent.parent
        missed = {
            path: sorted(lines - self.ran[path])
            for path, lines in self.executable.items()
        }
        total = sum(map(len, missed.values()))
        terminalreporter.write_sep("-", f"linetrace: {total} executable lines never ran")
        for path, lines in missed.items():
            if lines:
                rel = Path(path).relative_to(root)
                terminalreporter.write_line(f"{rel}: {_ranges(lines)}")


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
