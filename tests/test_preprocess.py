import pytest

from exspace.syntax.preprocess import (
    CompileProfile,
    DEVICE_PASS,
    HOST_PASS,
    PpPass,
    PreprocessorError,
    join_continuations,
    preprocess,
    strip_comments,
)

HOST = PpPass(HOST_PASS, frozenset({"__CUDACC__"}))
DEV = PpPass(DEVICE_PASS, frozenset({"__CUDACC__", "__CUDA_ARCH__"}))

RELEASE_ASSERT_BODY = """__host__ __device__
void release_assert( bool flag ) {
  if( !flag ) {
    #ifdef __CUDA_ARCH__
    __trap();
    #else
    std::abort();
    #endif
  }
}
"""


def test_device_pass_keeps_trap_branch():
    out = preprocess(RELEASE_ASSERT_BODY, DEV)
    assert "__trap" in out
    assert "abort" not in out


def test_host_pass_keeps_abort_branch():
    out = preprocess(RELEASE_ASSERT_BODY, HOST)
    assert "abort" in out
    assert "__trap" not in out


def test_blanked_regions_preserve_line_numbers():
    out = preprocess(RELEASE_ASSERT_BODY, DEV)
    assert len(out.split("\n")) == len(RELEASE_ASSERT_BODY.split("\n"))
    assert out.split("\n")[4].strip() == "__trap();"


def test_error_directive_triggers_with_message():
    guard = (
        '#ifndef __CUDACC_RELAXED_CONSTEXPR__\n'
        '#error "Must be compiled with:" \\\n'
        '  "--expt-relaxed-constexpr"\n'
        "#endif\n"
    )
    with pytest.raises(PreprocessorError) as exc:
        preprocess(guard, HOST)
    assert "Must be compiled with" in exc.value.message
    relaxed = PpPass(HOST_PASS, frozenset({"__CUDACC__", "__CUDACC_RELAXED_CONSTEXPR__"}))
    assert "#error" not in preprocess(guard, relaxed)


def test_text_without_directives_is_pass_independent():
    text = "int main() {\n  return 0;\n}\n"
    assert preprocess(text, HOST) == preprocess(text, DEV)


def test_idempotent_on_own_output():
    for pp in (HOST, DEV):
        once = preprocess(RELEASE_ASSERT_BODY, pp)
        assert preprocess(once, pp) == once


def test_nested_conditionals():
    text = (
        "#ifdef __CUDACC__\n"
        "#ifdef __CUDA_ARCH__\n"
        "a();\n"
        "#else\n"
        "b();\n"
        "#endif\n"
        "#endif\n"
    )
    assert "a()" in preprocess(text, DEV)
    assert "b()" in preprocess(text, HOST)


def test_unknown_macro_is_an_error():
    with pytest.raises(PreprocessorError) as exc:
        preprocess("#ifdef NOT_A_MACRO\n#endif\n", HOST)
    assert "unknown macro" in exc.value.message


def test_unbalanced_and_stray_directives():
    with pytest.raises(PreprocessorError):
        preprocess("#ifdef __CUDACC__\n", HOST)
    with pytest.raises(PreprocessorError):
        preprocess("#endif\n", HOST)
    with pytest.raises(PreprocessorError):
        preprocess("#else\n", HOST)
    with pytest.raises(PreprocessorError):
        preprocess("#include <cstdio>\n", HOST)


@pytest.mark.parametrize("text, line, message", [
    ("#ifdef\n#endif\n", 1, "#ifdef expects exactly one macro name"),
    ("#ifndef __CUDACC__ __CUDA_ARCH__\n#endif\n", 1,
     "#ifndef expects exactly one macro name"),
    ("#ifdef __CUDACC__\n#else\n#else\n#endif\n", 3, "second #else in one conditional"),
])
def test_malformed_conditionals(text, line, message):
    with pytest.raises(PreprocessorError) as exc:
        preprocess(text, HOST, "m.mcu")
    assert str(exc.value) == f"E0002 m.mcu:{line}:1: {message}"


def test_error_in_inactive_region_is_silent():
    text = '#ifdef __CUDA_ARCH__\n#error "nope"\n#endif\n'
    assert "#error" not in preprocess(text, HOST)


def test_pragma_lines_pass_through():
    text = "#pragma hd_warning_disable\nvoid f() {}\n"
    assert "#pragma hd_warning_disable" in preprocess(text, HOST)


def test_line_continuation_joins_before_scanning():
    joined = join_continuations("a \\\nb\nc\n")
    lines = joined.split("\n")
    assert lines[0] == "a b"
    assert lines[1] == ""
    assert lines[2] == "c"


def test_comments_are_blanked_in_place():
    src = 'x; // tail\ny; /* mid */ z;\n'
    out = strip_comments(src)
    lines = out.split("\n")
    assert lines[0].rstrip() == "x;"
    assert lines[1].replace(" ", "") == "y;z;"
    assert len(lines[1]) == len('y; /* mid */ z;')  # columns are preserved
    assert lines[1].index("z") == src.split("\n")[1].index("z")


def test_comment_markers_inside_strings_survive():
    out = strip_comments('printf( "//not a comment" );\n')
    assert "//not a comment" in out


@pytest.mark.parametrize("src, expected", [
    ("a/*/b\nc*/d", "a    \n   d"),  # "/*/" opens a block; the next "*/" ends it
    ("a /* open\nb\n", "a        \n \n"),  # an unterminated block runs to the end
    ('s( "//" ); // c', 's( "//" );     '),
    ('s( "a /* b\nc */ d', 's( "a /* b\nc */ d'),  # a newline ends the string
    ("a */ b", "a */ b"),  # no comment is open
    ("x // a /* b\ny */", "x          \ny */"),  # a line comment hides an opener
    ('/* "a */ b "c" // d\n', '         b "c"     \n'),
    ("a//\r\nb", "a   \nb"),
])
def test_strip_comments_table(src, expected):
    assert strip_comments(src) == expected


def test_profile_invariants():
    with pytest.raises(ValueError):
        CompileProfile(compiler="plain", relaxed_constexpr=True)
    with pytest.raises(ValueError):
        CompileProfile(compiler="nvcc", erase_specifiers=True)
    with pytest.raises(ValueError):
        CompileProfile(cuda_version=8)
    with pytest.raises(ValueError, match="unknown compiler 'clang'"):
        CompileProfile(compiler="clang")


def test_a_pass_is_host_or_device_and_defines_only_builtin_macros():
    with pytest.raises(ValueError, match="unknown pass kind 'link'"):
        PpPass("link", frozenset())
    with pytest.raises(ValueError, match=r"not built-in macros: \['NDEBUG'\]"):
        PpPass(HOST_PASS, frozenset({"__CUDACC__", "NDEBUG"}))


def test_profile_passes():
    nvcc = CompileProfile()
    kinds = [p.kind for p in nvcc.passes()]
    assert kinds == [HOST_PASS, DEVICE_PASS]
    for p in nvcc.passes():
        assert "__CUDACC__" in p.defined
        assert ("__CUDA_ARCH__" in p.defined) == (p.kind == DEVICE_PASS)
    plain = CompileProfile(compiler="plain")
    assert [p.kind for p in plain.passes()] == [HOST_PASS]
    assert plain.passes()[0].defined == frozenset()


def test_trap_error_codes_by_version():
    assert CompileProfile(cuda_version=9).trap_error_code() == 4
    for v in (10, 11, 12):
        assert CompileProfile(cuda_version=v).trap_error_code() == 207
