"""Tokenizer for preprocessed MiniCU text.

One compiled master pattern scans the text, after the "Writing a Tokenizer"
recipe in the documentation of Python's ``re`` module.
"""
from __future__ import annotations

import re

from ..diagnostics import SrcLoc


class LexError(Exception):
    def __init__(self, loc: SrcLoc, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message


class Token:
    """One token; its SrcLoc is built only when .loc is read."""

    __slots__ = ("kind", "text", "line", "col", "file")

    def __init__(self, kind: str, text: str, line: int, col: int, file: str):
        self.kind = kind  # ident | int | string | punct | pragma | eof
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
# other characters str.isdigit() accepts.
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
                raise LexError(SrcLoc(file, line, col), f"unexpected character {c!r}")
        elif kind == "string":
            value = value[1:-1]
        elif kind == "pragma":
            # Only #pragma survives preprocessing.
            words = value[1:].split()
            if len(words) != 2 or words[0] != "pragma":
                raise LexError(SrcLoc(file, line, col), "malformed #pragma directive")
            value = words[1]
        elif kind == "bad":
            if value == '"':
                raise LexError(SrcLoc(file, line, col), "unterminated string literal")
            raise LexError(SrcLoc(file, line, col), f"unexpected character {value!r}")
        append(Token(kind, value, line, col, file))
    append(Token("eof", "", line, len(text) - line_start + 1, file))
    return toks
