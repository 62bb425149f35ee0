"""The SrcLoc contract: 1-based, immutable, hashable, ordered, printable."""
import pytest

from exspace import SrcLoc


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
