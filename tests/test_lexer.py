"""The scanner: what it accepts, where its tokens sit, and how it fails.

A token stream is parallel lists; a token is an index into them, and its
position an offset into the text that the stream's LineTable locates.
"""
import types

import pytest
from hypothesis import given, settings, strategies as st

from exspace import syntax
from exspace.syntax import lexer, parser
from exspace.syntax.lexer import pass_tokens, tokenize
from exspace.syntax.parser import ParseError, parse
from exspace.syntax.preprocess import CompileProfile, prepare, preprocess

# Every character MiniCU uses, plus characters that probe the edges: a
# superscript digit and a Roman numeral (numeric, not alphabetic), a
# letter outside ASCII, and the quote, hash, carriage return and tab.
ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz_ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " \n{}()<>,;.!=:&|+%" + "²Ⅻé\"#\r\t"
)


def _tokens(toks):
    """(kind, text, line, col) of every token of a stream."""
    locs = [toks.lines.loc(pos) for pos in toks.positions]
    return [(kind, text, loc.line, loc.col)
            for kind, text, loc in zip(toks.kinds, toks.texts, locs)]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=120))
def test_tokens_sit_where_they_were_read(text):
    toks = tokenize(text, "t")
    n = len(toks)
    assert [len(toks.kinds), len(toks.texts), len(toks.tags), len(toks.positions)] == [n] * 4
    assert toks.kinds[-1] == "eof"
    assert toks.kinds.count("eof") == 1
    lines = text.split("\n")
    locs = [toks.lines.loc(pos) for pos in toks.positions]
    assert all(loc.file == "t" for loc in locs)
    # Offsets are distinct, since a position is a token's identity, and
    # order exactly as (line, col) does.
    assert all(a < b for a, b in zip(toks.positions, toks.positions[1:]))
    assert [(loc.line, loc.col) for loc in locs] == sorted((loc.line, loc.col) for loc in locs)
    for kind, token_text, tag, pos, loc in zip(
            toks.kinds, toks.texts, toks.tags, toks.positions, locs):
        assert tag == (token_text if kind in ("ident", "punct") else None)
        if kind in ("ident", "int", "punct"):
            assert text[pos:].startswith(token_text)
            assert lines[loc.line - 1][loc.col - 1:].startswith(token_text), loc


def test_identifiers_start_with_a_letter_or_underscore():
    toks = tokenize("é1 _x2 y²")
    assert list(zip(toks.kinds, toks.texts))[:-1] == [
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
    toks = tokenize(text, "t")
    first = toks.kinds.index("error")
    loc = toks.lines.loc(toks.positions[first])
    assert (loc.line, loc.col, toks.texts[first]) == (1, col, message)
    with pytest.raises(ParseError) as info:
        parse(text, "t")
    assert (info.value.loc.line, info.value.loc.col) == (1, col)
    assert info.value.message == message


def test_pragma_string_and_punctuators():
    toks = tokenize('#pragma hd_warning_disable\nk<<< 1, 2 >>>( "a//b" ) :: == != && || ++')
    assert _tokens(toks) == [
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
    toks = tokenize(text, "t")
    assert _tokens(toks)[-1] == ("eof", "", line, col)
    assert toks.positions[-1] == len(text)


def test_a_pass_keeps_the_tokens_of_its_lines_and_their_ids():
    prepared = prepare("int a;\n#ifdef __CUDA_ARCH__\nint b;\n#else\nint c;\n#endif\nint d;\n")
    toks = tokenize(prepared, "p.mcu")
    host = pass_tokens(toks, prepared, preprocess(prepared, CompileProfile().passes()[0]))
    assert [(text, line) for _, text, line, _ in _tokens(host)] == [
        ("int", 1), ("a", 1), (";", 1), ("int", 5), ("c", 5), (";", 5),
        ("int", 7), ("d", 7), (";", 7), ("", 8),
    ]
    # Each kept token keeps its position in the unit's stream as its id.
    kept = [0, 1, 2, 8, 9, 10, 12, 13, 14, 15]
    assert host.positions == [toks.positions[i] for i in kept]
    assert [toks.texts[i] for i in kept] == host.texts
    assert host.lines is toks.lines
    assert pass_tokens(toks, prepared, prepared) is toks


@pytest.mark.parametrize("tail, eof, moved", [
    ("#endif", (5, 1), True),  # a last line the pass blanks
    ("#endif\n", (6, 1), False),  # an empty last line
    ("#endif\n  ", (6, 3), False),  # a last line the pass keeps
])
def test_a_pass_that_blanks_the_last_line_ends_at_its_start(tail, eof, moved):
    prepared = f"int a;\nvoid f() {{\n#ifdef __CUDA_ARCH__\n}}\n{tail}"
    toks = tokenize(prepared, "e.mcu")
    host = pass_tokens(toks, prepared, preprocess(prepared, CompileProfile().passes()[0]))
    assert _tokens(host)[-1][2:] == eof
    # A moved end of input sits at the start of the blanked directive, a
    # position at which no pass keeps a token.
    line_start = prepared.rfind("\n") + 1
    assert host.positions[-1] == (line_start if moved else toks.positions[-1])
    for pp in CompileProfile().passes():
        kept = pass_tokens(toks, prepared, preprocess(prepared, pp))
        assert line_start not in kept.positions[:-1]


def test_tokenize_and_parse_stay_public_module_functions():
    # Tracers find the front end's entry points by these names.
    for module, name in ((lexer, "tokenize"), (parser, "parse"), (parser, "tokenize"),
                         (syntax, "tokenize"), (syntax, "parse")):
        assert isinstance(vars(module)[name], types.FunctionType), (module, name)
    assert "Token" not in syntax.__all__
    prepared = prepare("int main() { return 0; }\n")
    toks = tokenize(prepared, "m.mcu")
    assert len(toks) == 10  # the end of input included
    for mode in ("keep", "erase", "reject"):
        assert parse(toks, "m.mcu", mode) == parse(prepared, "m.mcu", mode)
