"""The SrcLoc contract (1-based, immutable, hashable, ordered, printable),
the record contract SrcLoc shares with Type, TraitConfig, PpPass and
CompileProfile, Diagnostic equality, and the Failure contract (one
diagnostic per failure)."""
import copy
import pickle

import pytest

from exspace import (
    HDC, CompileProfile, Diagnostic, PpPass, Severity, SrcLoc, TraitConfig, Type, parse,
    preprocess,
)
from exspace.diagnostics import Failure, format_diagnostic
from exspace.interp import BUDGET_EXIT, OUTPUT_EXIT, UB_EXIT, Halt
from exspace.sema import SemaError
from exspace.syntax import HOST_PASS


@pytest.mark.parametrize("line, col", [(0, 1), (1, 0), (-1, 5)])
def test_positions_are_one_based(line, col):
    with pytest.raises(ValueError, match="1-based"):
        SrcLoc("f.mcu", line, col)


def test_fields_cannot_be_assigned():
    loc = SrcLoc("f.mcu", 2, 3)
    for name, value in (("file", "g.mcu"), ("line", 4), ("col", 5)):
        with pytest.raises(AttributeError):
            setattr(loc, name, value)
    assert (loc.file, loc.line, loc.col) == ("f.mcu", 2, 3)


def test_equal_locations_hash_equal_and_key_dicts():
    a, b = SrcLoc("f.mcu", 2, 3), SrcLoc("f.mcu", 2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != SrcLoc("f.mcu", 2, 4)
    seen = {a: "first"}
    seen.setdefault(b, "second")
    assert seen == {SrcLoc("f.mcu", 2, 3): "first"}


def test_sorting_is_by_file_then_line_then_column():
    locs = [SrcLoc("b", 1, 1), SrcLoc("a", 2, 1), SrcLoc("a", 1, 9), SrcLoc("a", 1, 2)]
    assert sorted(locs) == [
        SrcLoc("a", 1, 2), SrcLoc("a", 1, 9), SrcLoc("a", 2, 1), SrcLoc("b", 1, 1),
    ]
    assert SrcLoc("a", 1, 10) > SrcLoc("a", 1, 9)


def test_str_is_file_line_col():
    assert str(SrcLoc("dir/f.mcu", 12, 7)) == "dir/f.mcu:12:7"


def test_copies_and_pickles_are_equal_locations():
    loc = SrcLoc("f.mcu", 2, 3)
    for twin in (copy.copy(loc), pickle.loads(pickle.dumps(loc))):
        assert type(twin) is SrcLoc and twin == loc and twin.col == 3
    assert repr(loc) == "SrcLoc(file='f.mcu', line=2, col=3)"


# Each record is the tuple of its fields: immutable, hashable, equal by
# value, and shown by its fields.  The profile's repr is part of
# tests/equivalence.py's output, so it stays as it reads.
@pytest.mark.parametrize("record, shown", [
    (Type("S", (HDC.Dev,)), "Type(name='S', targs=(<HDC.Dev: 'Dev'>,))"),
    (TraitConfig(fundamentals_hstdev=True), "TraitConfig(fundamentals_hstdev=True)"),
    (PpPass(kind=HOST_PASS, defined=frozenset()), "PpPass(kind='host', defined=frozenset())"),
    (CompileProfile(), "CompileProfile(compiler='nvcc', cuda_version=12, "
                       "relaxed_constexpr=False, erase_specifiers=False)"),
    (CompileProfile("plain", 9, erase_specifiers=True),
     "CompileProfile(compiler='plain', cuda_version=9, "
     "relaxed_constexpr=False, erase_specifiers=True)"),
], ids=["Type", "TraitConfig", "PpPass", "CompileProfile", "plain-CompileProfile"])
def test_records_are_immutable_values_shown_by_their_fields(record, shown):
    assert repr(record) == str(record) == shown
    twin = type(record)(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for copied in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
    for i, name in enumerate(type(record)._fields):
        assert getattr(record, name) is record[i]
        with pytest.raises(AttributeError):
            setattr(record, name, record[i])


def test_diagnostics_are_equal_by_every_field_and_shown_by_them():
    loc = SrcLoc("f.mcu", 1, 2)
    d = Diagnostic.make("E0101", loc, 'undefined name "g"')
    assert d == Diagnostic("E0101", Severity.ERROR, loc, 'undefined name "g"', False)
    assert d != Diagnostic("E0101", Severity.ERROR, loc, 'undefined name "g"', True)
    assert d != ("E0101", Severity.ERROR, loc, 'undefined name "g"', False)
    assert repr(d) == ("Diagnostic(code='E0101', severity=<Severity.ERROR: 'error'>, "
                       "loc=SrcLoc(file='f.mcu', line=1, col=2), "
                       "message='undefined name \"g\"', suppressed=False)")
    with pytest.raises(TypeError):
        hash(d)  # it is mutable: suppression is set after it is made


def test_a_location_past_the_source_formats_without_an_excerpt():
    d = Diagnostic.make("E0001", SrcLoc("f.mcu", 3, 1), "parse error")
    line = "f.mcu:3:1: error[E0001]: parse error"
    assert format_diagnostic(d, "human", source="one\ntwo") == line
    assert format_diagnostic(d, "human", source="one\ntwo\n") == f"{line}\n\n^"
    d.suppressed = True
    assert format_diagnostic(d, "human", source="one\ntwo") is None



def _raised(fn, *args):
    try:
        fn(*args)
    except Failure as e:
        return e
    raise AssertionError("no failure raised")


_HOST_PASS = CompileProfile().passes()[0]


# Every failure becomes its diagnostic through Failure.diagnostic(); a
# run's halt also carries the run's exit code.
@pytest.mark.parametrize("make, code, exit_code", [
    pytest.param(lambda: _raised(preprocess, "#endif\n", _HOST_PASS, "f.mcu"),
                 "E0002", None, id="preprocess"),
    pytest.param(lambda: _raised(parse, "int f( {", "f.mcu"), "E0001", None, id="parse"),
    pytest.param(lambda: SemaError("E0104", SrcLoc("f.mcu", 3, 1), "static assertion failed"),
                 "E0104", None, id="sema"),
    pytest.param(lambda: Halt.stray(SrcLoc("f.mcu", 2, 5), "no body"),
                 "N0001", UB_EXIT, id="stray"),
    pytest.param(lambda: Halt("N0003", SrcLoc("f.mcu", 4, 3), "too many threads", BUDGET_EXIT),
                 "N0003", BUDGET_EXIT, id="budget"),
    pytest.param(lambda: Halt.output(SrcLoc("f.mcu", 4, 3), 1 << 26),
                 "N0004", OUTPUT_EXIT, id="output"),
])
def test_a_failure_is_one_diagnostic(make, code, exit_code):
    failure = make()
    assert isinstance(failure, Failure) and failure.code == code
    assert failure.diagnostic() == Diagnostic.make(code, failure.loc, failure.message)
    assert str(failure) == f"{code} {failure.loc}: {failure.message}"
    assert getattr(failure, "exit_code", None) == exit_code
