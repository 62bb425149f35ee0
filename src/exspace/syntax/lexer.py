"""Tokenizer for prepared MiniCU text.

One compiled master pattern scans the text, after the "Writing a Tokenizer"
recipe in the documentation of Python's ``re`` module.  A unit is lexed
once for all its compile passes: every token lies on one line, so a pass's
tokens are those on the lines it keeps (pass_tokens).  A lex error becomes
an ``error`` token rather than an exception, so it fails only the passes
that keep its line.
"""
from __future__ import annotations

import re

from ..diagnostics import SrcLoc


class Token:
    """One token; its SrcLoc is built only when .loc is read."""

    __slots__ = ("kind", "text", "line", "col", "file")

    def __init__(self, kind: str, text: str, line: int, col: int, file: str):
        # ident | int | string | punct | pragma | eof, or error, whose text
        # is the message
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.file = file

    @property
    def loc(self) -> SrcLoc:
        return SrcLoc(self.file, self.line, self.col)

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line}:{self.col})"


# Alternatives are tried in order: longer punctuators before their prefixes.
# The identifier start [^\W\d] also admits characters such as superscripts
# and Roman numerals, which are numeric but not alphabetic; tokenize rejects
# those after the match.  Only ASCII digits form integers: int() rejects the
# other characters str.isdigit() accepts.  No token but space crosses a
# newline.
_TOKEN_RE = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<ident>[^\W\d]\w*)
    | (?P<punct><<<|>>>|::|==|!=|&&|\|\||\+\+|[{}()<>,;.!=])
    | (?P<int>[0-9]+)
    | (?P<string>"[^"\n]*")
    | (?P<pragma>\#[\w \t]*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str, file: str = "<unit>") -> list[Token]:
    """Every token of text, then the end of input.

    Each lex error is an ``error`` token at its first bad character; the
    scan goes on after it.
    """
    toks: list[Token] = []
    append = toks.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start()
        value = m.group()
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "ident":
            c = value[0]
            if not (c.isalpha() or c == "_"):
                kind, value = "error", f"unexpected character {c!r}"
        elif kind == "string":
            value = value[1:-1]
        elif kind == "pragma":
            # Only #pragma survives preprocessing.
            words = value[1:].split()
            if len(words) != 2 or words[0] != "pragma":
                kind, value = "error", "malformed #pragma directive"
            else:
                value = words[1]
        elif kind == "bad":
            kind = "error"
            if value == '"':
                value = "unterminated string literal"
            else:
                value = f"unexpected character {value!r}"
        append(Token(kind, value, line, col, file))
    append(Token("eof", "", line, len(text) - line_start + 1, file))
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
        eof = Token("eof", "", eof.line, 1, eof.file)
    kept.append(eof)
    return kept
