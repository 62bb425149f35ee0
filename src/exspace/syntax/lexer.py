"""Tokenizer for preprocessed MiniCU text."""
from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import SrcLoc


class LexError(Exception):
    def __init__(self, loc: SrcLoc, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | pragma | eof
    text: str
    loc: SrcLoc


_PUNCT = (
    "<<<",
    ">>>",
    "::",
    "==",
    "!=",
    "&&",
    "||",
    "++",
    "{",
    "}",
    "(",
    ")",
    "<",
    ">",
    ",",
    ";",
    ".",
    "!",
    "=",
)

# str.isdigit() also accepts characters such as superscripts that int() rejects.
_DIGITS = frozenset("0123456789")


def tokenize(text: str, file: str = "<unit>") -> list[Token]:
    toks: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)

    def loc():
        return SrcLoc(file, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            # Only #pragma survives preprocessing.
            start = loc()
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_" or text[j] in " \t"):
                j += 1
            words = text[i + 1 : j].split()
            if not words or words[0] != "pragma" or len(words) != 2:
                raise LexError(start, "malformed #pragma directive")
            toks.append(Token("pragma", words[1], start))
            col += j - i
            i = j
            continue
        if c == '"':
            start = loc()
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise LexError(start, "unterminated string literal")
            toks.append(Token("string", text[i + 1 : j], start))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _DIGITS:
            start = loc()
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], start))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            start = loc()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], start))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, loc()))
                col += len(p)
                i += len(p)
                break
        else:
            raise LexError(loc(), f"unexpected character {c!r}")
    toks.append(Token("eof", "", SrcLoc(file, line, col)))
    return toks
