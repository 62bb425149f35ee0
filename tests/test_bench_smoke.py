"""The benchmark's answers, checked on one small unit per generated workload.

bench/gen.py builds each unit together with its expected diagnostics and
run outcome, without running exspace.  A change that breaks those answers
fails here, not only in the benchmark's own `correct` check.
"""
import gc
import sys
from pathlib import Path

import pytest

from exspace.diagnostics import SrcLoc, format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import Mode, analyze
from exspace.syntax.lexer import tokenize
from exspace.syntax.preprocess import CompileProfile, prepare

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


def test_the_chain_cycle_lexes_its_token_count():
    # The benchmark's lexer.tokens is the len() of what tokenize returns,
    # the end of input included: one stream per unit.
    cycle = gen.make_cycle("chain", ROOT, 1)
    assert sum(len(tokenize(prepare(u.text), u.path)) for u in cycle) == 36224


def test_the_chain_cycle_resolves_each_distinct_call_once_per_walk(monkeypatch):
    # The benchmark's spacecheck.overload.calls: a chain function's
    # T{}.call() sites repeat a few distinct calls.
    from exspace import spacecheck

    resolved = []
    resolve_overload = spacecheck.resolve_overload

    def counting(*args, **kwargs):
        resolved.append(args[0])
        return resolve_overload(*args, **kwargs)

    monkeypatch.setattr(spacecheck, "resolve_overload", counting)
    for unit in gen.make_cycle("chain", ROOT, 1):
        analyze(unit.text, unit.path, CompileProfile(), Mode(unit.mode))
    assert len(resolved) == 1937


@pytest.mark.parametrize("workload, evaluations", [("chain", 33), ("fanout", 627)])
def test_a_pool_cycle_evaluates_each_member_constant_once_per_table_and_arguments(
        monkeypatch, workload, evaluations):
    # Each evaluation of a member constant binds its struct's arguments
    # once; a read at top level names its (table, member, arguments).
    from exspace import sema

    evaluated, read = [0], set()
    struct_bindings, member_value = sema.struct_bindings, sema._member_value

    def binding(struct, t):
        evaluated[0] += 1
        return struct_bindings(struct, t)

    def reading(struct, mv, t, table):
        if not table.evaluating:
            read.add((id(table), id(mv), t.targs))
        return member_value(struct, mv, t, table)

    monkeypatch.setattr(sema, "struct_bindings", binding)
    monkeypatch.setattr(sema, "_member_value", reading)
    # Kept, so that no table's id is reused.
    analyses = [analyze(u.text, u.path, CompileProfile(), Mode(u.mode))
                for u in gen.make_cycle(workload, ROOT, 1)]
    assert len(analyses) > 1
    assert evaluated[0] == len(read) == evaluations


def test_an_analysis_keeps_no_srcloc_but_its_diagnostics_locations():
    # Nodes, demands and pending strays hold int positions; a SrcLoc is
    # built only for a diagnostic.
    unit = max(gen.make_cycle("chain", ROOT, 1), key=lambda u: u.fns)
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) is SrcLoc]  # kept alive
    analysis = analyze(unit.text, unit.path)
    gc.collect()
    old = set(map(id, before))
    kept = {id(o) for o in gc.get_objects() if type(o) is SrcLoc and id(o) not in old}
    assert analysis.all_diagnostics
    assert kept == {id(d.loc) for d in analysis.all_diagnostics}
