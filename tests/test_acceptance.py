"""Acceptance criteria, one test per criterion, each printing a verdict line."""
import random
from contextlib import contextmanager

from exspace.corpus import parse_header, run_corpus_file
from exspace.diagnostics import Severity
from exspace.interp import run_program
from exspace.sema import (
    DEVICE,
    HOST,
    HDC,
    Type,
    compute_hdc,
    resolve,
)
from exspace.spacecheck import (
    Mode,
    analyze,
    check_unit,
    struct_member_spaces,
)
from exspace.syntax.parser import parse
from exspace.syntax.preprocess import CompileProfile

NVCC = CompileProfile()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def _run(corpus_dir, name, mode=None, profile=None, force=False):
    path = corpus_dir / name
    text = path.read_text()
    cfg = parse_header(text, mode or Mode.CLASSIC, profile or NVCC)
    analysis = analyze(text, str(path), cfg.profile, mode or cfg.mode)
    assert not analysis.has_errors or force
    return run_program(analysis)


def _check(corpus_dir, name, mode=Mode.CLASSIC, profile=None):
    path = corpus_dir / name
    text = path.read_text()
    cfg = parse_header(text, mode, profile or NVCC)
    return check_unit(text, str(path), cfg.profile, mode)


def test_criterion_1_kernel_prints_24_dots(corpus_dir):
    with criterion(1, "run emits exactly 24 dots and exit 0"):
        result = _run(corpus_dir, "listing2.mcu")
        assert result.stdout == b"." * 24
        assert result.exit_code == 0


def test_criterion_2_hd_template_host_callee(corpus_dir):
    with criterion(2, "classic: exactly one W1101 containing 'is not allowed'; run exits 3"):
        diags = _check(corpus_dir, "problem_t.mcu", Mode.CLASSIC)
        assert len(diags) == 1
        assert diags[0].code == "W1101"
        assert diags[0].severity is Severity.WARNING
        assert "is not allowed" in diags[0].message
        assert _run(corpus_dir, "problem_t.mcu").exit_code == 3


def test_criterion_3_device_variant_modes(corpus_dir):
    with criterion(3, "device variant: fidelity silent, sound errors, forced run UB-halts at 101"):
        assert _check(corpus_dir, "problem_t_dev.mcu", Mode.FIDELITY) == []
        sound = _check(corpus_dir, "problem_t_dev.mcu", Mode.SOUND)
        assert any(d.severity is Severity.ERROR for d in sound)
        result = _run(corpus_dir, "problem_t_dev.mcu", Mode.FIDELITY, force=True)
        assert result.ub_halt
        assert result.exit_code == 101
        assert result.exit_code != 1


def test_criterion_4_trap_error_codes(corpus_dir):
    with criterion(4, "runtime trap reports 207 under v12 and 4 under v9"):
        v12 = _run(corpus_dir, "listing7.mcu")
        assert v12.exit_code == 207
        v9 = _run(corpus_dir, "listing7_cuda9.mcu")
        assert v9.exit_code == 4


def test_criterion_5_pragma_suppression_witness(corpus_dir):
    with criterion(5, "pragma silences the unit; removing it yields exactly one W1101"):
        assert _check(corpus_dir, "listing11.mcu", Mode.CLASSIC) == []
        bare = _check(corpus_dir, "listing11_nopragma.mcu", Mode.CLASSIC)
        assert [d.code for d in bare] == ["W1101"]


def test_criterion_6_pass_divergence(corpus_dir):
    with criterion(6, "guarded instantiation: sound reports exactly one E1201, fidelity none"):
        sound = _check(corpus_dir, "listing10.mcu", Mode.SOUND)
        assert [d.code for d in sound] == ["E1201"]
        assert _check(corpus_dir, "listing10.mcu", Mode.FIDELITY) == []


def test_criterion_7_requires_dispatch_corpus(corpus_dir):
    with criterion(7, "requires-clause corpus: marked lines error, unmarked lines are clean"):
        for clean in ("listing13.mcu", "listing14.mcu", "listing18.mcu",
                      "listing19.mcu", "listing20.mcu"):
            assert _check(corpus_dir, clean, Mode.CLASSIC) == [], clean
        for strays in ("listing19_strays.mcu", "listing20_strays.mcu"):
            result = run_corpus_file(corpus_dir / strays, Mode.CLASSIC, NVCC)
            assert result.passed, strays
            assert result.matched == 2
            diags = _check(corpus_dir, strays, Mode.CLASSIC)
            assert all(d.severity is Severity.ERROR for d in diags)


def test_criterion_8_language_extension_modes(corpus_dir):
    with criterion(8, "extension modes reproduce the marked lines; decorated structs match"):
        for name, mode in (
            ("listing101.mcu", Mode.PROPOSAL1),
            ("listing101_dev.mcu", Mode.PROPOSAL1),
            ("listing102.mcu", Mode.PROPOSAL2),
            ("listing102_dev.mcu", Mode.PROPOSAL2),
        ):
            result = run_corpus_file(corpus_dir / name, mode, NVCC)
            assert result.passed, (name, result)
        text = (corpus_dir / "listing103.mcu").read_text()
        assert check_unit(text, "listing103.mcu", NVCC, Mode.PROPOSAL2) == []
        from exspace.syntax.preprocess import preprocess

        ast = parse(preprocess(text, NVCC.passes()[0], "l103.mcu"), "l103.mcu")
        structs = [it for it in ast.items if hasattr(it, "members")]
        s1, s2 = structs
        assert struct_member_spaces(s1) == struct_member_spaces(s2)
        assert struct_member_spaces(s1) == {
            "call": DEVICE,
            "init": HOST,
        }


def test_criterion_9_property_suites(corpus_dir):
    import test_properties
    import test_spacecheck

    with criterion(9, "legality table, monotonicity, determinism, latching, soundness"):
        test_spacecheck.test_legality_matrix_matches_brute_force_table()
        test_properties.test_pragma_suppression_is_monotone_over_100_units()
        test_properties.test_relaxed_constexpr_is_monotone_over_100_units()
        test_properties.test_check_is_deterministic_byte_for_byte()
        test_properties.test_run_is_deterministic_byte_for_byte()
        test_properties.test_sticky_error_latching_over_random_trap_schedules()
        test_properties.test_sound_mode_clean_programs_never_ub_halt_generated()
        test_properties.test_sound_mode_clean_corpus_programs_never_ub_halt(corpus_dir)


def test_criterion_10_compatibility_trait():
    with criterion(10, "the trait matches the declared constants and defaults to Hst"):
        src = """struct S {};
struct D {
  static constexpr HDC hdc = HDC::Dev;
};
"""
        table, diags = resolve(parse(src, "t.mcu"), NVCC, Mode.CLASSIC)
        assert diags == []
        assert compute_hdc(Type("S"), table) is HDC.Hst
        assert compute_hdc(Type("D"), table) is HDC.Dev
        rng = random.Random(7)
        for _ in range(50):
            name = "G" + "".join(rng.choices("abcdefghij", k=6))
            t2, d2 = resolve(parse(f"struct {name} {{}};", "g.mcu"), NVCC, Mode.CLASSIC)
            assert d2 == []
            assert compute_hdc(Type(name), t2) is HDC.Hst
