"""The SrcLoc contract (1-based, immutable, hashable, ordered, printable)
and the Failure contract (one diagnostic per failure)."""
import copy
import pickle

import pytest

from exspace import CompileProfile, Diagnostic, SrcLoc, parse, preprocess
from exspace.diagnostics import Failure, format_diagnostic
from exspace.interp import BUDGET_EXIT, OUTPUT_EXIT, UB_EXIT, Halt
from exspace.sema import SemaError


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
