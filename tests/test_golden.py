"""Byte-level golden output of the corpus in every mode.

For each corpus file and each of the five modes, under the profile its
header selects, the golden file holds the machine-format diagnostics,
suppressed ones included and marked.  For the files with a run directive it
also holds the exit code, stdout and notes of a forced run.  A change meant
to keep behaviour leaves it byte-identical.  Regenerate it with:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

from pathlib import Path

from exspace.corpus import parse_header
from exspace.diagnostics import Diagnostic, format_diagnostic
from exspace.interp import run_program
from exspace.spacecheck import Mode, analyze
from exspace.syntax.preprocess import CompileProfile

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.txt"


def _line(d) -> str:
    shown = format_diagnostic(Diagnostic(d.code, d.severity, d.loc, d.message))
    return shown + " [suppressed]" if d.suppressed else shown


def render() -> str:
    out = []
    for path in sorted((ROOT / "corpus").glob("*.mcu")):
        text = path.read_text(encoding="utf-8")
        cfg = parse_header(text, Mode.CLASSIC, CompileProfile(), path.name)
        runs = cfg.expect_exit is not None or cfg.expect_stdout is not None
        for mode in Mode:
            out.append(f"== {path.name} --mode={mode.value}")
            analysis = analyze(text, path.name, cfg.profile, mode)
            out.extend(_line(d) for d in analysis.all_diagnostics)
            if runs:
                result = run_program(analysis)
                out.append(f"-- exit {result.exit_code} stdout {result.stdout!r}")
                out.extend(_line(d) for d in result.notes)
    return "\n".join(out) + "\n"


def test_corpus_output_matches_golden_file():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
