"""Passes that preprocess to one text share one AST and one symbol table.

The second test traces the front end with the benchmark's own tracer, so a
change that hides an entry point from it, or runs a stage more often than
once per distinct pass text, fails here as well as in the benchmark.
"""
import sys
from collections import Counter
from pathlib import Path

import exspace.corpus  # noqa: F401  (run_corpus_file is a traced entry point)
from exspace import spacecheck
from exspace.spacecheck import analyze
from exspace.syntax.preprocess import DEVICE_PASS, HOST_PASS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import tracer  # noqa: E402

SHARED = """struct S { __host__ __device__ int f() { return 1; } };
__host__ __device__ int g() { return S{}.f(); }
int main() { return g(); }
"""

SPLIT = """struct S { __host__ __device__ int f() { return 1; } };
__host__ __device__ int g() {
#ifdef __CUDA_ARCH__
  return 2;
#else
  return S{}.f();
#endif
}
int main() { return g(); }
"""


def test_passes_with_one_text_share_one_front_end():
    shared = analyze(SHARED)
    host, device = shared.passes[HOST_PASS], shared.passes[DEVICE_PASS]
    assert host.ast is device.ast
    assert host.table is device.table
    split = analyze(SPLIT)
    host, device = split.passes[HOST_PASS], split.passes[DEVICE_PASS]
    assert host.ast is not device.ast
    assert host.table is not device.table
    assert shared.diagnostics == split.diagnostics == []


def test_a_shared_text_reports_each_front_end_error_once(monkeypatch):
    raw = []
    finish = spacecheck.finish_diagnostics
    monkeypatch.setattr(spacecheck, "finish_diagnostics",
                        lambda diags: raw.extend(diags) or finish(diags))
    analyze("void f() {}\nvoid f() {}\nint main() { return 0; }\n")
    assert [d.code for d in raw] == ["E0102"]
    raw.clear()
    analyze("int main() { return ( ; }\n")
    assert [d.code for d in raw] == ["E0001"]


def test_trace_sees_one_front_end_per_distinct_pass_text():
    t = tracer.Tracer()
    assert t.present == set(tracer.ENTRY_POINTS)  # no layer metric goes absent
    counts = {}
    for name, text in (("shared", SHARED), ("split", SPLIT)):
        t.reset()
        t.install()
        try:
            spacecheck.analyze(text)
        finally:
            t.uninstall()
        counts[name] = Counter(span[0] for span in t.spans)
    for stage in ("tokenize", "parse", "resolve"):
        assert (counts["shared"][stage], counts["split"][stage]) == (1, 2), stage
    assert counts["shared"]["preprocess"] == counts["split"]["preprocess"] == 2
    assert counts["shared"]["analyze"] == counts["split"]["analyze"] == 1
