"""The scanner: what it accepts, where its tokens sit, and how it fails."""
import pytest
from hypothesis import given, settings, strategies as st

from exspace.syntax.lexer import Token, tokenize
from exspace.syntax.parser import ParseError, parse

# Every character MiniCU uses, plus characters that probe the edges: a
# superscript digit and a Roman numeral (numeric, not alphabetic), a
# letter outside ASCII, and the quote, hash, carriage return and tab.
ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz_ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \n{}()<>,;.!=:&|+%" + "²Ⅻé\"#\r\t"
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=120))
def test_tokens_sit_where_they_were_read(text):
    toks = tokenize(text, "t")
    assert all(isinstance(t, Token) for t in toks)
    assert toks[-1].kind == "eof"
    assert [t.kind for t in toks].count("eof") == 1
    lines = text.split("\n")
    assert [(t.line, t.col) for t in toks] == sorted((t.line, t.col) for t in toks)
    for t in toks:
        if t.kind in ("ident", "int", "punct"):
            assert lines[t.line - 1][t.col - 1:].startswith(t.text), t
            assert (t.loc.file, t.loc.line, t.loc.col) == ("t", t.line, t.col)


def test_identifiers_start_with_a_letter_or_underscore():
    assert [(t.kind, t.text) for t in tokenize("é1 _x2 y²")[:-1]] == [
        ("ident", "é1"), ("ident", "_x2"), ("ident", "y²"),
    ]


@pytest.mark.parametrize("text, col, message", [
    ("a ²", 3, "unexpected character '²'"),
    ("Ⅻ", 1, "unexpected character 'Ⅻ'"),
    ("f( 1 + 2 );", 6, "unexpected character '+'"),
    ('printf( "ab\n" );', 9, "unterminated string literal"),
    ('x "ab', 3, "unterminated string literal"),
    ("#pragma", 1, "malformed #pragma directive"),
    ("  #pragma a b", 3, "malformed #pragma directive"),
    ("#include x", 1, "malformed #pragma directive"),
])
def test_lex_errors_name_the_first_bad_character(text, col, message):
    # The scan records the error as a token and goes on; a parse reports
    # the first one.
    first = next(t for t in tokenize(text, "t") if t.kind == "error")
    assert (first.loc.line, first.loc.col, first.text) == (1, col, message)
    with pytest.raises(ParseError) as info:
        parse(text, "t")
    assert (info.value.loc.line, info.value.loc.col) == (1, col)
    assert info.value.message == message


def test_pragma_string_and_punctuators():
    toks = tokenize('#pragma hd_warning_disable\nk<<< 1, 2 >>>( "a//b" ) :: == != && || ++')
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("pragma", "hd_warning_disable", 1, 1),
        ("ident", "k", 2, 1), ("punct", "<<<", 2, 2), ("int", "1", 2, 6),
        ("punct", ",", 2, 7), ("int", "2", 2, 9), ("punct", ">>>", 2, 11),
        ("punct", "(", 2, 14), ("string", "a//b", 2, 16), ("punct", ")", 2, 23),
        ("punct", "::", 2, 25), ("punct", "==", 2, 28), ("punct", "!=", 2, 31),
        ("punct", "&&", 2, 34), ("punct", "||", 2, 37), ("punct", "++", 2, 40),
        ("eof", "", 2, 42),
    ]


@pytest.mark.parametrize("text, line, col", [
    ("", 1, 1),
    ("x", 1, 2),
    ("x\n", 2, 1),
    ("x\r\n\t", 2, 2),
])
def test_end_of_input_location(text, line, col):
    eof = tokenize(text, "t")[-1]
    assert (eof.kind, eof.text) == ("eof", "")
    assert (eof.loc.line, eof.loc.col) == (line, col)
