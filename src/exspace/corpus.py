"""Expected-diagnostics corpus harness.

Corpus files annotate offending lines with ``//~ <severity> <CODE> ["substr"]``
(or ``//~@<line> ...`` for a different line) and may carry ``//!`` header
directives selecting the mode, profile, and an expected run outcome.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

from .diagnostics import read_source
from .interp import run_program
from .spacecheck import Mode, analyze
from .syntax.preprocess import CompileProfile

_EXPECT_RE = re.compile(
    r"//~(?:@(?P<line>\d+))?\s+(?P<sev>error|warning|note)\s+"
    r"(?P<code>[EWN]\d{4})(?:\s+\"(?P<substr>[^\"]*)\")?"
)
_HEADER_RE = re.compile(r"^\s*//!\s*(?P<key>[a-z-]+)(?:\s*:\s*(?P<value>.*?))?\s*$")


class Expectation:
    __slots__ = ("line", "severity", "code", "substring")

    def __init__(self, line: int, severity: str, code: str, substring: Optional[str]):
        self.line = line
        self.severity = severity
        self.code = code
        self.substring = substring

    def describe(self) -> str:
        extra = f' "{self.substring}"' if self.substring else ""
        return f"line {self.line}: {self.severity}[{self.code}]{extra}"

    def matches(self, diag) -> bool:
        if diag.loc.line != self.line or diag.code != self.code:
            return False
        if diag.severity.value != self.severity:
            return False
        return self.substring is None or self.substring in diag.message


class FileConfig:
    __slots__ = ("mode", "profile", "force", "expect_exit", "expect_stdout")

    def __init__(self, mode: Mode, profile: CompileProfile, force: bool = False,
                 expect_exit: Optional[int] = None, expect_stdout: Optional[bytes] = None):
        self.mode = mode
        self.profile = profile
        self.force = force
        self.expect_exit = expect_exit
        self.expect_stdout = expect_stdout


class CorpusResult:
    __slots__ = ("file", "matched", "unmatched_expectations", "unexpected_diagnostics",
                 "run_check")

    def __init__(self, file: str):
        self.file = file
        self.matched = 0
        self.unmatched_expectations: list = []
        self.unexpected_diagnostics: list = []
        self.run_check: Optional[str] = None  # failure description, None if ok/absent

    @property
    def passed(self) -> bool:
        return (
            not self.unmatched_expectations
            and not self.unexpected_diagnostics
            and self.run_check is None
        )


def _decode_stdout(value: str) -> bytes:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        value = value[1:-1]
    return value.replace("\\n", "\n").replace('\\"', '"').encode()


def parse_expectations(text: str) -> list:
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for m in _EXPECT_RE.finditer(line):
            target = int(m.group("line")) if m.group("line") else lineno
            out.append(
                Expectation(target, m.group("sev"), m.group("code"), m.group("substr"))
            )
    return out


class HeaderError(ValueError):
    """A //! directive that cannot be applied, as "<path>:<line>: <reason>"."""


# Each //! directive and the reader of its value, or None for a flag.
_DIRECTIVES = {
    "mode": Mode,
    "profile": str,
    "cuda-version": int,
    "relaxed-constexpr": None,
    "erase-specifiers": None,
    "force": None,
    "expect-exit": int,
    "expect-stdout": _decode_stdout,
}
# The directives that set a CompileProfile field, in the order of its fields.
_PROFILE_KEYS = ("profile", "cuda-version", "relaxed-constexpr", "erase-specifiers")


def parse_header(
    text: str, default_mode: Mode, default_profile: CompileProfile, path: str = "<unit>"
) -> FileConfig:
    got = dict(zip(_PROFILE_KEYS, default_profile))  # a profile is the tuple of its fields
    got.update({"mode": default_mode, "force": False, "expect-exit": None, "expect-stdout": None})
    profile_line = 0  # the last directive that set a profile field
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _HEADER_RE.match(line)
        if not m:
            continue
        key, value = m.group("key"), m.group("value")
        where = f"{path}:{lineno}"
        if key not in _DIRECTIVES:
            raise HeaderError(f"{where}: unknown corpus directive //! {key}")
        read = _DIRECTIVES[key]
        if read is not None and value is None:
            raise HeaderError(f"{where}: //! {key} needs a value")
        if read is None and value is not None:
            raise HeaderError(f"{where}: //! {key} takes no value")
        if key in _PROFILE_KEYS:
            profile_line = lineno
        try:
            got[key] = True if read is None else read(value)
        except ValueError:
            raise HeaderError(f'{where}: invalid value "{value}" for //! {key}') from None
    try:
        profile = CompileProfile(*(got[k] for k in _PROFILE_KEYS))
    except ValueError as e:
        raise HeaderError(f"{path}:{profile_line}: {e}") from None
    return FileConfig(got["mode"], profile, got["force"], got["expect-exit"], got["expect-stdout"])


def run_corpus_file(
    path: Path, default_mode: Mode, default_profile: CompileProfile
) -> CorpusResult:
    """One entry's result; a SourceError if its file cannot be read."""
    text = read_source(path)
    cfg = parse_header(text, default_mode, default_profile, str(path))
    expectations = parse_expectations(text)
    result = CorpusResult(str(path))

    analysis = analyze(text, str(path), cfg.profile, cfg.mode)
    unclaimed = list(analysis.diagnostics)
    for exp in expectations:
        hit = next((d for d in unclaimed if exp.matches(d)), None)
        if hit is None:
            result.unmatched_expectations.append(exp.describe())
        else:
            unclaimed.remove(hit)
            result.matched += 1
    result.unexpected_diagnostics = [
        f"{d.loc.line}:{d.loc.col}: {d.severity.value}[{d.code}]: {d.message}"
        for d in unclaimed
    ]

    if cfg.expect_exit is None and cfg.expect_stdout is None:
        return result
    if analysis.has_errors and not cfg.force:
        result.run_check = "not run: the check reported errors"
        return result
    try:
        run = run_program(analysis)
    except ValueError as e:  # the unit has no main function
        result.run_check = f"not run: {e}"
        return result
    problems = []
    if cfg.expect_exit is not None and run.exit_code != cfg.expect_exit:
        problems.append(f"exit {run.exit_code}, expected {cfg.expect_exit}")
    if cfg.expect_stdout is not None and run.stdout != cfg.expect_stdout:
        problems.append(f"stdout {run.stdout!r}, expected {cfg.expect_stdout!r}")
    result.run_check = "; ".join(problems) or None
    return result


def run_corpus(
    directory: Path,
    default_mode: Mode = Mode.CLASSIC,
    default_profile: CompileProfile = CompileProfile(),
) -> tuple[list, str]:
    """Check every .mcu file in path order; the summary counts failures."""
    files = sorted(Path(directory).glob("*.mcu"))
    if not files:
        raise FileNotFoundError(f"no .mcu files under {directory}")
    results = [run_corpus_file(f, default_mode, default_profile) for f in files]
    failed = sum(1 for r in results if not r.passed)
    summary = f"passed {len(results) - failed} / failed {failed}"
    return results, summary
