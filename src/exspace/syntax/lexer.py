"""Tokenizer for prepared MiniCU text.

A token stream is parallel lists, one entry per token, and a token is its
index; no object is built per token.  Its position is the offset of its
first character in the prepared text, which the stream's LineTable turns
into a SrcLoc when a diagnostic needs one.  Each match of one compiled
pattern over the whole text is a token together with the blanks before
it, so the scan never stops on whitespace alone, and each distinct token
text is classified once per unit.  A unit is lexed once for all its
compile passes: a pass's tokens are those on the lines it keeps
(pass_tokens).  A lex error becomes an ``error`` token rather than an
exception, so it fails only the passes that keep its line.
"""
from __future__ import annotations

import re
from bisect import bisect_left

from ..diagnostics import LineTable


class Tokens:
    """A token stream: token i is entry i of kinds, texts, tags and positions.

    A kind is ident | int | string | punct | pragma | eof, or error, whose
    text is the message.  A tag is the text of an ident or punct token and
    None for every other kind: the parser matches keywords and punctuators
    by comparing tags alone.  A position is also the token's identity
    across the passes of the unit (see pass_tokens).  lines is the unit's
    LineTable.  The stream ends in its end of input.
    """

    __slots__ = ("kinds", "texts", "tags", "positions", "lines")

    def __init__(self, kinds: list, texts: list, tags: list, positions: list,
                 lines: LineTable):
        self.kinds = kinds
        self.texts = texts
        self.tags = tags
        self.positions = positions
        self.lines = lines

    def __len__(self):
        return len(self.kinds)


# Longer punctuators come before their prefixes.
_PUNCT = ("<<<", ">>>", "::", "==", "!=", "&&", "||", "++", *"{}()<>,;.!=")

# Blanks, then one token: an identifier, a punctuator, an integer, a
# string, a pragma, or any other character but a blank.  No token crosses
# a newline.  The identifier start [^\W\d] also admits characters such as
# superscripts and Roman numerals, which are numeric but not alphabetic;
# _classify rejects those.  Only ASCII digits form integers: int() rejects
# the other characters str.isdigit() accepts.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*)([^\W\d]\w*|%s|[0-9]+|\"[^\"\n]*\"|\#[\w \t]*|[^ \t\r\n])"
    % "|".join(map(re.escape, _PUNCT))
)


def _classify(text: str) -> tuple:
    """(kind, token text, tag) of one matched token text."""
    c = text[0]
    if c.isalpha() or c == "_":
        return "ident", text, text
    if text in _PUNCT:
        return "punct", text, text
    if "0" <= c <= "9":
        return "int", text, None
    if c == '"':
        if len(text) == 1:
            return "error", "unterminated string literal", None
        return "string", text[1:-1], None
    if c == "#":
        # Only #pragma survives preprocessing.
        words = text[1:].split()
        if len(words) != 2 or words[0] != "pragma":
            return "error", "malformed #pragma directive", None
        return "pragma", words[1], None
    return "error", f"unexpected character {c!r}", None


def tokenize(text: str, file: str = "<unit>") -> Tokens:
    """Every token of text, then the end of input, at the offset len(text).

    Each lex error is an ``error`` token at its first bad character; the
    scan goes on after it.
    """
    kinds: list = []
    texts: list = []
    tags: list = []
    positions: list = []
    kind, token_text, tag, position = kinds.append, texts.append, tags.append, positions.append
    classes: dict = {}  # token text -> (*_classify(text), len(text))
    known = classes.get
    pos = 0
    # Trailing blanks are cut first: every match ends in a token, so the
    # scan would only try them again from each of their positions.
    for blanks, value in _TOKEN_RE.findall(text.rstrip(" \t\r\n")):
        pos += len(blanks)
        cls = known(value)
        if cls is None:
            cls = classes[value] = (*_classify(value), len(value))
        kind(cls[0])
        token_text(cls[1])
        tag(cls[2])
        position(pos)
        pos += cls[3]
    kind("eof")
    token_text("")
    tag(None)
    position(len(text))
    return Tokens(kinds, texts, tags, positions, LineTable(file, text))


def pass_tokens(tokens: Tokens, prepared: str, text: str) -> Tokens:
    """The tokens one compile pass keeps, ending in its own end of input.

    tokens is tokenize(prepared) and text that pass's preprocessed text,
    which has the lines of prepared with the lines the pass drops blanked.
    The pass keeps the tokens of each run of lines it does not drop, a
    range of indices found by bisecting the positions at the run's ends.
    The end of input is the one of tokens unless the pass blanked a last
    line that is not empty; it then sits at that line's start.  That line
    is a directive other than #pragma, since an inactive region ends in a
    later #endif, and every pass blanks it: no pass keeps a token there.
    """
    if text == prepared:
        return tokens
    positions = tokens.positions
    last = len(positions) - 1  # the end of input
    ranges = []
    begin = 0  # where the current run of kept lines starts, or None in a dropped run
    offset = 0
    for line, kept in zip(prepared.split("\n"), text.split("\n")):
        dropped = line and not kept
        if dropped and begin is not None:
            ranges.append((begin, offset))
            begin = None
        elif not dropped and begin is None:
            begin = offset
        offset += len(line) + 1
    if begin is not None:
        ranges.append((begin, offset))
    kinds, texts, tags, kept_positions = [], [], [], []
    for start, end in ranges:
        a = bisect_left(positions, start, 0, last)
        b = bisect_left(positions, end, a, last)
        kinds += tokens.kinds[a:b]
        texts += tokens.texts[a:b]
        tags += tokens.tags[a:b]
        kept_positions += positions[a:b]
    eof = positions[last]
    if begin is None:  # the last line is dropped
        eof = prepared.rfind("\n") + 1
    kinds.append("eof")
    texts.append("")
    tags.append(None)
    kept_positions.append(eof)
    return Tokens(kinds, texts, tags, kept_positions, tokens.lines)
