"""Diagnostic codes, source locations, output formatting, and the source reader."""
from __future__ import annotations

import os
import stat
from bisect import bisect_right
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


ERROR = Severity.ERROR  # per-diagnostic code reads it so, as sema.HOST


# Stable code registry: code -> (default severity, summary).
CODE_REGISTRY: dict[str, tuple[Severity, str]] = {
    "E0001": (Severity.ERROR, "parse error"),
    "E0002": (Severity.ERROR, "preprocessor error"),
    "E0101": (Severity.ERROR, "undefined name"),
    "E0102": (Severity.ERROR, "duplicate definition"),
    "E0103": (Severity.ERROR, "hdc member is not an HDC constant"),
    "E0104": (Severity.ERROR, "static assertion failed"),
    "E0105": (Severity.ERROR, "member constant depends on itself"),
    "E0106": (Severity.ERROR, "member constants nest too deep"),
    "E1001": (Severity.ERROR, "host code calls a device function"),
    "E1002": (Severity.ERROR, "device code calls a host function"),
    "E1003": (Severity.ERROR, "kernel launch from device code"),
    "E1004": (Severity.ERROR, "misused __global__ function"),
    "W1101": (Severity.WARNING, "host device function calls a host-only function"),
    "W1102": (Severity.WARNING, "host device function calls a device-only function"),
    "E1101": (Severity.ERROR, "reachable stray call to a host-only function"),
    "E1102": (Severity.ERROR, "reachable stray call to a device-only function"),
    "E1201": (Severity.ERROR, "instantiation depends on the compile pass"),
    "E1301": (Severity.ERROR, "no viable overload candidate"),
    "E1302": (Severity.ERROR, "ambiguous call"),
    "E1401": (Severity.ERROR, "empty execution-space set"),
    "E1501": (Severity.ERROR, "stray call"),
    "W1502": (Severity.WARNING, "host device function calls a one-sided function"),
    "N0001": (Severity.NOTE, "kernel launch skipped after device error"),
    "N0002": (Severity.NOTE, "run halted: calls nest too deep"),
    "N0003": (Severity.NOTE, "run halted: a launch exceeds the thread budget"),
    "N0004": (Severity.NOTE, "run halted: the output exceeds its budget"),
}


class Record:
    """A mutable record, equal to a record of its class whose fields named
    in _compared are equal, and shown by its class and those fields."""

    __slots__ = ()
    _compared: tuple = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._compared)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(tuple):
    """An immutable record: the tuple of the fields _fields names.

    Being a tuple, a record is hashable and equal by value (to the plain
    tuple of its values too), and ordered as its fields are.  Each field
    is also an attribute of its name.  A subclass declares empty
    __slots__, lists _fields and builds itself in __new__.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class SrcLoc(FrozenRecord):
    """1-based position in a source file: the record (file, line, col)."""

    __slots__ = ()
    _fields = ("file", "line", "col")

    def __new__(cls, file: str, line: int, col: int):
        if line < 1 or col < 1:
            raise ValueError(f"source positions are 1-based: {line}:{col}")
        return tuple.__new__(cls, (file, line, col))

    def __str__(self):
        return f"{self[0]}:{self[1]}:{self[2]}"


class LineTable:
    """One unit's path and where each line of its text starts.

    The front end holds a source position as an int: the offset of a
    character in the unit's prepared text, which keeps the lines and
    columns of the source.  Within one unit, offsets order exactly as
    (line, col) does.  loc() turns a position into its SrcLoc, which is
    built only for a diagnostic or a failure; the line starts are found on
    the first call.
    """

    __slots__ = ("path", "text", "starts")

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.starts: list | None = None

    def loc(self, pos: int) -> SrcLoc:
        starts = self.starts
        if starts is None:
            lengths = (len(line) + 1 for line in self.text.split("\n"))
            starts = self.starts = list(accumulate(lengths, initial=0))
        line = bisect_right(starts, pos)
        return SrcLoc(self.path, line, pos - starts[line - 1] + 1)


class Diagnostic(Record):
    __slots__ = _compared = ("code", "severity", "loc", "message", "suppressed")

    def __init__(self, code: str, severity: Severity, loc: SrcLoc, message: str,
                 suppressed: bool = False):
        self.code = code
        self.severity = severity
        self.loc = loc
        self.message = message
        self.suppressed = suppressed

    @classmethod
    def make(cls, code: str, loc: SrcLoc, message: str) -> "Diagnostic":
        severity = CODE_REGISTRY[code][0]
        return cls(code, severity, loc, message)

    @property
    def is_error(self) -> bool:
        return self.severity is ERROR

    def sort_key(self):
        return (self.loc.file, self.loc.line, self.loc.col, self.code, self.message)

    def dedup_key(self):
        return (self.loc, self.code, self.message)


class Failure(Exception):
    """A failure that becomes one diagnostic; str() is "CODE loc: message"."""

    def __init__(self, code: str, loc: SrcLoc, message: str):
        self.code, self.loc, self.message = code, loc, message

    def __str__(self):
        return f"{self.code} {self.loc}: {self.message}"

    def diagnostic(self) -> Diagnostic:
        return Diagnostic.make(self.code, self.loc, self.message)


_COLORS = {
    Severity.ERROR: "\x1b[31;1m",
    Severity.WARNING: "\x1b[35;1m",
    Severity.NOTE: "\x1b[36m",
}
_RESET = "\x1b[0m"
_split = lru_cache(maxsize=1)(str.split)


def format_diagnostic(
    d: Diagnostic,
    style: str = "machine",
    source: str | None = None,
    color: bool = False,
) -> str | None:
    """Render one diagnostic, or None if it is suppressed.

    The machine style is the stable one-line format
    ``<path>:<line>:<col>: <severity>[<CODE>]: <message>``; the human style
    appends the offending source line and a caret.
    """
    if d.suppressed:
        return None
    word = d.severity.value
    if color:
        word = f"{_COLORS[d.severity]}{word}{_RESET}"
    line = f"{d.loc.file}:{d.loc.line}:{d.loc.col}: {word}[{d.code}]: {d.message}"
    if style == "machine" or source is None:
        return line
    # Lines are counted at "\n" alone, as locations count them.  A unit's
    # diagnostics are formatted one after another: its source splits once.
    lines = _split(source, "\n")
    if 1 <= d.loc.line <= len(lines):
        excerpt = lines[d.loc.line - 1]
        caret = " " * (d.loc.col - 1) + "^"
        return f"{line}\n{excerpt}\n{caret}"
    return line


def finish_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deduplicate and order diagnostics by (file, line, col, code)."""
    seen = {}
    for d in diags:
        seen.setdefault(d.dedup_key(), d)
    return sorted(seen.values(), key=Diagnostic.sort_key)


MAX_SOURCE_BYTES = 1 << 24  # the largest source any command reads


class SourceError(Exception):
    """A source read_source refuses, as "cannot read <path>: <reason>"."""


def read_source(path) -> str:
    """The text of the regular UTF-8 file at path, of at most MAX_SOURCE_BYTES.
    A FIFO opens without blocking; the file opened is the file checked."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                reason = "not a regular file"
            elif st.st_size > MAX_SOURCE_BYTES:
                reason = f"larger than {MAX_SOURCE_BYTES} bytes"
            elif len(data := open(fd, "rb", buffering=0, closefd=False).read()) > MAX_SOURCE_BYTES:
                reason = f"larger than {MAX_SOURCE_BYTES} bytes"  # it grew after the fstat
            else:
                return data.decode("utf-8")
        finally:
            os.close(fd)
    except OSError as e:  # such as ENOENT or ELOOP
        reason = e.strerror
    except UnicodeDecodeError as e:
        reason = str(e)
    raise SourceError(f"cannot read {path}: {reason}")
