"""The benchmark's answers, checked on one small unit per generated workload.

bench/gen.py builds each unit together with its expected diagnostics and
run outcome, without running exspace.  A change that breaks those answers
fails here, not only in the benchmark's own `correct` check.
"""
import sys
from pathlib import Path

import pytest

from exspace.diagnostics import format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import Mode, analyze
from exspace.syntax.preprocess import CompileProfile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402


@pytest.mark.parametrize("workload", ["chain", "fanout", "kernel"])
def test_bench_unit_zero_matches_its_answer(workload):
    unit = gen.make_unit(workload, ROOT, 1, 0)
    analysis = analyze(unit.text, unit.path, CompileProfile(), Mode(unit.mode))
    lines = [line for d in analysis.diagnostics
             if (line := format_diagnostic(d, "machine")) is not None]
    assert lines == unit.diags
    result = run_program(analysis)
    assert (result.exit_code, result.stdout) == (unit.run.exit_code, unit.run.stdout)
    assert [format_diagnostic(d, "machine") for d in result.notes] == unit.run.notes
