"""Tokenizer for prepared MiniCU text.

The scan goes line by line, since no token crosses a newline.  Each match
of one compiled pattern is a token together with the blanks before it, so
the scan never stops on whitespace alone, and each distinct token text is
classified once per unit.  A unit is lexed once for all its compile
passes: a pass's tokens are those on the lines it keeps (pass_tokens).  A
lex error becomes an ``error`` token rather than an exception, so it fails
only the passes that keep its line.
"""
from __future__ import annotations

import re

from ..diagnostics import SrcLoc


class Token:
    """One token; its SrcLoc is built only when .loc is read."""

    __slots__ = ("kind", "text", "line", "col", "file", "tag")

    def __init__(self, kind: str, text: str, line: int, col: int, file: str,
                 tag: str | None):
        # ident | int | string | punct | pragma | eof, or error, whose text
        # is the message.  tag is the text of an ident or punct token and
        # None for every other kind: the parser matches keywords and
        # punctuators by comparing tags alone.
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.file = file
        self.tag = tag

    @property
    def loc(self) -> SrcLoc:
        return SrcLoc(self.file, self.line, self.col)

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


# Longer punctuators come before their prefixes.
_PUNCT = ("<<<", ">>>", "::", "==", "!=", "&&", "||", "++", *"{}()<>,;.!=")

# Blanks, then one token: an identifier, a punctuator, an integer, a
# string, a pragma, or any other character but a blank.  The identifier
# start [^\W\d] also admits characters such as superscripts and Roman
# numerals, which are numeric but not alphabetic; _classify rejects those.
# Only ASCII digits form integers: int() rejects the other characters
# str.isdigit() accepts.
_TOKEN_RE = re.compile(
    r"([ \t\r]*)([^\W\d]\w*|%s|[0-9]+|\"[^\"]*\"|\#[\w \t]*|[^ \t\r])"
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


def tokenize(text: str, file: str = "<unit>") -> list[Token]:
    """Every token of text, then the end of input.

    Each lex error is an ``error`` token at its first bad character; the
    scan goes on after it.
    """
    toks: list[Token] = []
    append = toks.append
    findall = _TOKEN_RE.findall
    classes: dict = {}  # token text -> _classify(text)
    lines = text.split("\n")
    for line, body in enumerate(lines, 1):
        col = 1
        # Trailing blanks are cut first: every match ends in a token, so the
        # scan would only try them again from each of their positions.
        for blanks, value in findall(body.rstrip(" \t\r")):
            col += len(blanks)
            cls = classes.get(value)
            if cls is None:
                cls = classes[value] = _classify(value)
            append(Token(cls[0], cls[1], line, col, file, cls[2]))
            col += len(value)
    append(Token("eof", "", len(lines), len(lines[-1]) + 1, file, None))
    return toks


def pass_tokens(tokens: list[Token], prepared: str, text: str) -> list[Token]:
    """The tokens one compile pass keeps, ending in its own end of input.

    tokens is tokenize(prepared) and text that pass's preprocessed text,
    which has the lines of prepared with the lines the pass drops blanked.
    A line with tokens is kept exactly when it is not blank.  The end of
    input is the one of tokens unless the pass blanked the last line.
    """
    if text == prepared:
        return tokens
    lines = text.split("\n")
    *body, eof = tokens
    kept = [t for t in body if lines[t.line - 1]]
    if eof.col > 1 and not lines[-1]:
        eof = Token("eof", "", eof.line, 1, eof.file, None)
    kept.append(eof)
    return kept
