import pytest

from exspace.corpus import (
    parse_expectations,
    parse_header,
    run_corpus,
    run_corpus_file,
)
from exspace.spacecheck import Mode
from exspace.syntax.preprocess import CompileProfile

NVCC = CompileProfile()


def test_expectation_parsing_on_line_and_remote():
    text = (
        'a();  //~ error E1001 "is not allowed"\n'
        "b();  //~@7 warning W1101\n"
        "c();\n"
    )
    exps = parse_expectations(text)
    assert len(exps) == 2
    assert (exps[0].line, exps[0].severity, exps[0].code) == (1, "error", "E1001")
    assert exps[0].substring == "is not allowed"
    assert (exps[1].line, exps[1].code, exps[1].substring) == (7, "W1101", None)


def test_header_directives():
    text = (
        "//! mode: sound\n"
        "//! profile: nvcc\n"
        "//! cuda-version: 9\n"
        "//! relaxed-constexpr\n"
        "//! force\n"
        "//! expect-exit: 207\n"
        '//! expect-stdout: "ab\\ncd"\n'
    )
    cfg = parse_header(text, Mode.CLASSIC, NVCC)
    assert cfg.mode is Mode.SOUND
    assert cfg.profile.cuda_version == 9
    assert cfg.profile.relaxed_constexpr
    assert cfg.force
    assert cfg.expect_exit == 207
    assert cfg.expect_stdout == b"ab\ncd"


def test_an_unquoted_expected_stdout_is_read_as_written():
    cfg = parse_header('//! expect-stdout: say "hi"\\n\n', Mode.CLASSIC, NVCC)
    assert cfg.expect_stdout == b'say "hi"\n'


def test_unknown_directive_rejected():
    with pytest.raises(ValueError):
        parse_header("//! what: ever\n", Mode.CLASSIC, NVCC)


def test_header_defaults_pass_through():
    cfg = parse_header("int main() {}\n", Mode.FIDELITY, NVCC)
    assert cfg.mode is Mode.FIDELITY
    assert cfg.profile == NVCC
    assert cfg.expect_exit is None and cfg.expect_stdout is None


def test_matching_and_unexpected(tmp_path):
    ok = tmp_path / "ok.mcu"
    ok.write_text(
        "struct D { __device__ void call() {} };\n"
        'void f() { D{}.call(); }  //~ error E1001 "is not allowed"\n'
    )
    r = run_corpus_file(ok, Mode.CLASSIC, NVCC)
    assert r.passed and r.matched == 1

    extra = tmp_path / "extra.mcu"
    extra.write_text("struct D { __device__ void call() {} };\nvoid f() { D{}.call(); }\n")
    r = run_corpus_file(extra, Mode.CLASSIC, NVCC)
    assert not r.passed
    assert len(r.unexpected_diagnostics) == 1

    missing = tmp_path / "missing.mcu"
    missing.write_text('void f() {}  //~ error E1001 "is not allowed"\n')
    r = run_corpus_file(missing, Mode.CLASSIC, NVCC)
    assert not r.passed
    assert len(r.unmatched_expectations) == 1


def test_run_check_success_and_mismatch(tmp_path):
    good = tmp_path / "good.mcu"
    good.write_text("//! expect-exit: 3\nint main() { return 3; }\n")
    assert run_corpus_file(good, Mode.CLASSIC, NVCC).passed

    wrong = tmp_path / "wrong.mcu"
    wrong.write_text("//! expect-exit: 4\nint main() { return 3; }\n")
    r = run_corpus_file(wrong, Mode.CLASSIC, NVCC)
    assert not r.passed
    assert "exit 3, expected 4" in r.run_check


def test_run_check_requires_clean_or_force(tmp_path):
    f = tmp_path / "err.mcu"
    f.write_text(
        "//! expect-exit: 101\n"
        "struct D { __device__ void call() {} };\n"
        "int main() { D{}.call(); return 0; }  //~ error E1001\n"
    )
    r = run_corpus_file(f, Mode.CLASSIC, NVCC)
    assert not r.passed and "not run" in r.run_check
    forced = tmp_path / "forced.mcu"
    forced.write_text(f.read_text().replace("//! expect-exit: 101",
                                            "//! force\n//! expect-exit: 101"))
    assert run_corpus_file(forced, Mode.CLASSIC, NVCC).passed


def test_full_corpus_passes(corpus_dir):
    results, summary = run_corpus(corpus_dir)
    failing = [r for r in results if not r.passed]
    assert not failing, [(r.file, r.unmatched_expectations,
                          r.unexpected_diagnostics, r.run_check) for r in failing]
    assert summary == f"passed {len(results)} / failed 0"
    assert len(results) >= 30


def test_empty_corpus_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_corpus(tmp_path)
