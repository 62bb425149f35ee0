import random

from genprog import gen_trap_schedule, gen_unit

from exspace.corpus import parse_header
from exspace.diagnostics import format_diagnostic
from exspace.interp import run_program
from exspace.sema import DEVICE, HOST
from exspace.spacecheck import Mode, analyze, check_unit
from exspace.syntax.preprocess import CompileProfile, preprocess

NVCC = CompileProfile()
RELAXED = CompileProfile(relaxed_constexpr=True)


def _keys(diags):
    return {(d.loc.line, d.loc.col, d.code, d.message) for d in diags}


def test_pragma_suppression_is_monotone_over_100_units():
    for seed in range(100):
        unit = gen_unit(random.Random(seed))
        with_p = check_unit(unit.with_pragmas, "g.mcu")
        without_p = check_unit(unit.without_pragmas, "g.mcu")
        assert _keys(with_p) <= _keys(without_p), seed
        dropped = _keys(without_p) - _keys(with_p)
        for line, col, code, message in dropped:
            assert code.startswith("W"), (seed, code)


def test_relaxed_constexpr_is_monotone_over_100_units():
    for seed in range(100):
        unit = gen_unit(random.Random(seed))
        strict = check_unit(unit.without_pragmas, "g.mcu", NVCC)
        relaxed = check_unit(unit.without_pragmas, "g.mcu", RELAXED)
        assert _keys(relaxed) <= _keys(strict), seed


def test_check_is_deterministic_byte_for_byte():
    for seed in range(20):
        unit = gen_unit(random.Random(seed))
        for mode in (Mode.CLASSIC, Mode.SOUND, Mode.FIDELITY):
            a = check_unit(unit.with_pragmas, "g.mcu", NVCC, mode)
            b = check_unit(unit.with_pragmas, "g.mcu", NVCC, mode)
            assert [format_diagnostic(d) for d in a] == [
                format_diagnostic(d) for d in b
            ]


def test_run_is_deterministic_byte_for_byte():
    for seed in range(20):
        sched = gen_trap_schedule(random.Random(seed))
        analysis = analyze(sched.text, "t.mcu")
        assert not analysis.has_errors
        first = run_program(analysis)
        second = run_program(analyze(sched.text, "t.mcu"))
        assert first.stdout == second.stdout
        assert first.exit_code == second.exit_code


def test_sticky_error_latching_over_random_trap_schedules():
    for seed in range(50):
        sched = gen_trap_schedule(random.Random(seed))
        analysis = analyze(sched.text, "t.mcu")
        assert not analysis.has_errors, seed
        result = run_program(analysis)
        assert result.stdout == sched.expected_stdout, seed
        expected_exit = NVCC.trap_error_code() if sched.traps else 0
        assert result.exit_code == expected_exit, seed
        skipped = [d for d in result.notes if "skipped" in d.message]
        assert len(skipped) == sched.skipped_launches, seed


def test_sound_mode_clean_programs_never_ub_halt_generated():
    ran = 0
    for seed in range(100):
        unit = gen_unit(random.Random(seed))
        analysis = analyze(unit.without_pragmas, "g.mcu", NVCC, Mode.SOUND)
        if analysis.has_errors:
            continue
        result = run_program(analysis)
        assert not result.ub_halt, seed
        ran += 1
    assert ran > 10  # the property must actually exercise runs


def test_sound_mode_clean_corpus_programs_never_ub_halt(corpus_dir):
    ran = 0
    for path in sorted(corpus_dir.glob("*.mcu")):
        text = path.read_text()
        cfg = parse_header(text, Mode.CLASSIC, NVCC)
        analysis = analyze(text, str(path), cfg.profile, Mode.SOUND)
        if analysis.has_errors:
            continue
        if not analysis.passes and not analysis.walks:
            continue
        host = analysis.passes.get("host")
        if host is None or not any(
            d.name == "main" and owner is None for d, owner in host.ast.decls()
        ):
            continue
        result = run_program(analysis)
        assert not result.ub_halt, path.name
        ran += 1
    assert ran >= 8


def test_preprocess_idempotent_over_generated_and_corpus(corpus_dir):
    from exspace.syntax.preprocess import PreprocessorError

    texts = [gen_unit(random.Random(s)).with_pragmas for s in range(20)]
    texts += [p.read_text() for p in sorted(corpus_dir.glob("*.mcu"))]
    for pp in NVCC.passes():
        for text in texts:
            try:
                once = preprocess(text, pp)
            except PreprocessorError:
                continue  # a triggered #error aborts; nothing to re-feed
            assert preprocess(once, pp) == once


def test_instantiation_sets_agree_without_directives(walks):
    for seed in range(30):
        unit = gen_unit(random.Random(seed))
        for mode in Mode:
            analyze(unit.without_pragmas, "g.mcu", NVCC, mode)
            host = set(walks[HOST].demands)
            device = set(walks[DEVICE].demands)
            assert host == device, seed


def test_every_stray_halt_sits_at_a_check_diagnostic():
    # Fidelity drops space diagnostics by design, so it is left out.  Pragmas
    # only suppress, and all_diagnostics keeps suppressed entries.
    halts = 0
    for seed in range(300):
        unit = gen_unit(random.Random(seed))
        for mode in (Mode.CLASSIC, Mode.SOUND, Mode.PROPOSAL2):
            for profile in (NVCC, RELAXED):
                analysis = analyze(unit.with_pragmas, "g.mcu", profile, mode)
                result = run_program(analysis)
                if not result.ub_halt:
                    continue
                halts += 1
                where = {(d.loc.line, d.loc.col) for d in analysis.all_diagnostics}
                loc = result.notes[-1].loc
                assert (loc.line, loc.col) in where, (seed, mode, profile)
    assert halts > 500  # the property must actually exercise halts
