"""Conditional preprocessing over the fixed built-in macro set.

The preprocessor knows exactly three macros (__CUDACC__, __CUDA_ARCH__,
__CUDACC_RELAXED_CONSTEXPR__) and the directives #ifdef/#ifndef/#else/#endif
plus #error.  #pragma lines pass through untouched.  Output preserves the
line/column structure of the input so later diagnostics stay accurate.
"""
from __future__ import annotations

import re

from ..diagnostics import Failure, FrozenRecord, SrcLoc

BUILTIN_MACROS = frozenset(
    {"__CUDACC__", "__CUDA_ARCH__", "__CUDACC_RELAXED_CONSTEXPR__"}
)

HOST_PASS = "host"
DEVICE_PASS = "device"


class PreprocessorError(Failure):
    """E0002: a bad directive or a triggered #error."""

    def __init__(self, loc: SrcLoc, message: str):
        super().__init__("E0002", loc, message)


class PpPass(FrozenRecord):
    """One compile pass: the device pass defines __CUDA_ARCH__."""

    __slots__ = ()
    _fields = ("kind", "defined")

    def __new__(cls, kind: str, defined: frozenset):
        if kind not in (HOST_PASS, DEVICE_PASS):
            raise ValueError(f"unknown pass kind {kind!r}")
        unknown = set(defined) - BUILTIN_MACROS
        if unknown:
            raise ValueError(f"not built-in macros: {sorted(unknown)}")
        return tuple.__new__(cls, (kind, defined))


class CompileProfile(FrozenRecord):
    """Compiler identity and flags a check/run is performed under."""

    __slots__ = ()
    _fields = ("compiler", "cuda_version", "relaxed_constexpr", "erase_specifiers")

    def __new__(cls, compiler: str = "nvcc", cuda_version: int = 12,
                relaxed_constexpr: bool = False, erase_specifiers: bool = False):
        if compiler not in ("nvcc", "plain"):
            raise ValueError(f"unknown compiler {compiler!r}")
        if cuda_version not in (9, 10, 11, 12):
            raise ValueError(f"unsupported cuda version {cuda_version}")
        if relaxed_constexpr and compiler != "nvcc":
            raise ValueError("relaxed constexpr is an nvcc-only flag")
        if erase_specifiers and compiler != "plain":
            raise ValueError("specifier erasure applies to the plain profile only")
        return tuple.__new__(cls, (compiler, cuda_version, relaxed_constexpr, erase_specifiers))

    def passes(self) -> list[PpPass]:
        if self.compiler == "plain":
            return [PpPass(HOST_PASS, frozenset())]
        base = {"__CUDACC__"}
        if self.relaxed_constexpr:
            base.add("__CUDACC_RELAXED_CONSTEXPR__")
        return [
            PpPass(HOST_PASS, frozenset(base)),
            PpPass(DEVICE_PASS, frozenset(base | {"__CUDA_ARCH__"})),
        ]

    def trap_error_code(self) -> int:
        # __trap produced 4 under Cuda 9 and 207 under Cuda 10 through 12.
        return 4 if self.cuda_version == 9 else 207


def join_continuations(text: str) -> str:
    """Splice backslash-newline before directive scanning, keeping line count."""
    if "\\\n" not in text:
        return text
    lines = text.split("\n")
    out = []
    i = 0
    while i < len(lines):
        line = lines[i]
        blanks = 0
        while line.endswith("\\") and i + blanks + 1 < len(lines):
            line = line[:-1] + lines[i + blanks + 1]
            blanks += 1
        out.append(line)
        out.extend([""] * blanks)
        i += blanks + 1
    return "\n".join(out)


# A string literal (ended by its quote or by the end of its line), a line
# comment, or a block comment that runs to */ or to the end of the text.
# Strings are matched only so that comment markers inside them survive.
_COMMENT_RE = re.compile(r'"[^"\n]*"?|//[^\n]*|/\*.*?(?:\*/|\Z)', re.DOTALL)


def _blank(m: re.Match) -> str:
    s = m.group()
    if s[0] == '"':
        return s
    return "\n".join(" " * len(part) for part in s.split("\n"))


def strip_comments(text: str) -> str:
    """Blank out // and block comments, preserving lines and columns."""
    if "//" not in text and "/*" not in text:
        return text
    return _COMMENT_RE.sub(_blank, text)


def prepare(text: str) -> str:
    """The text every compile pass of a unit starts from.

    Continuations are spliced and comments blanked, with lines and columns
    kept.  Prepared text prepares to itself, at the cost of a scan for
    continuation and comment markers when none is left outside a string
    literal, so a caller that runs several passes prepares once and hands
    the result to preprocess.
    """
    return strip_comments(join_continuations(text))


_CONDITIONALS = ("ifdef", "ifndef")


def preprocess(text: str, pp: PpPass, file: str = "<unit>") -> str:
    """Resolve conditional directives for one pass of raw or prepared text.

    Inactive regions and directive lines become blank lines.  A #error in an
    active region raises PreprocessorError carrying its message text, as do
    unbalanced or unknown directives and unknown macro names.  Prepared text
    that holds no # at all comes back as it is: every line of it is active
    and kept, as the line loop would find.
    """
    prepared = prepare(text)
    if "#" not in prepared:
        return prepared
    out = []
    # Stack entries: (parent_active, taken_branch, else_seen, open_loc).
    stack: list[list] = []
    active = True
    for lineno, line in enumerate(prepared.split("\n"), start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            out.append(line if active else "")
            continue
        loc = SrcLoc(file, lineno, 1)
        words = stripped[1:].split(None, 1)
        name = words[0] if words else ""
        rest = words[1].strip() if len(words) > 1 else ""
        if name == "pragma":
            out.append(line if active else "")
            continue
        if name in _CONDITIONALS:
            if not rest or len(rest.split()) != 1:
                raise PreprocessorError(loc, f"#{name} expects exactly one macro name")
            if rest not in BUILTIN_MACROS:
                raise PreprocessorError(loc, f'unknown macro "{rest}" in #{name}')
            cond = (rest in pp.defined) == (name == "ifdef")
            stack.append([active, cond, False, loc])
            active = active and cond
        elif name == "else":
            if not stack:
                raise PreprocessorError(loc, "#else without matching #ifdef/#ifndef")
            if stack[-1][2]:
                raise PreprocessorError(loc, "second #else in one conditional")
            stack[-1][2] = True
            stack[-1][1] = not stack[-1][1]
            active = stack[-1][0] and stack[-1][1]
        elif name == "endif":
            if not stack:
                raise PreprocessorError(loc, "#endif without matching #ifdef/#ifndef")
            active = stack.pop()[0]
        elif name == "error":
            if active:
                raise PreprocessorError(loc, f"#error: {rest}")
        else:
            raise PreprocessorError(loc, f"unknown preprocessor directive #{name}")
        out.append("")
    if stack:
        raise PreprocessorError(stack[-1][3], "unterminated #ifdef/#ifndef")
    return "\n".join(out)
