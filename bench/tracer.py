"""Layer spans recorded from outside the program.

The tracer wraps a fixed list of public exspace entry points.  It finds
each function object by name, then rebinds every public attribute of every
loaded ``exspace`` module that holds that same object, so a caller that
switches between ``from .sema import X`` and ``sema.X`` is still traced.
Underscored names are never touched.  An entry point that no longer exists
is reported as absent, never as zero.
"""
from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

ENTRY_POINTS = (
    "preprocess",
    "tokenize",
    "parse",
    "resolve",
    "resolve_overload",
    "effective_spaces",
    "detect_arch_divergence",
    "finish_diagnostics",
    "format_diagnostic",
    "analyze",
    "run_program",
    "Interpreter.launch_kernel",
    "run_corpus_file",
)

# Span name -> layer.  Calls into sema are split by the enclosing check
# (analyze) or run (run_program) span.
_LAYER = {
    "preprocess": "preprocess",
    "tokenize": "lexer",
    "parse": "parser",
    "resolve": "sema.resolve",
    "detect_arch_divergence": "spacecheck.divergence",
    "finish_diagnostics": "diagnostics.finish",
    "format_diagnostic": "diagnostics.format",
    "analyze": "spacecheck.walk",
    "run_program": "interp",
    "Interpreter.launch_kernel": "interp",
    "run_corpus_file": "corpus",
}
_SPLIT = {"resolve_overload": "overload", "effective_spaces": "spaces"}
_SIDE = {"analyze": "spacecheck", "run_program": "interp"}

# Layer time metrics and the entry points whose presence they need.
LAYER_SOURCES = {
    "preprocess": ("preprocess",),
    "lexer": ("tokenize",),
    "parser": ("parse",),
    "sema.resolve": ("resolve",),
    "spacecheck.walk": ("analyze",),
    "spacecheck.overload": ("analyze", "resolve_overload"),
    "spacecheck.spaces": ("analyze", "effective_spaces"),
    "spacecheck.divergence": ("detect_arch_divergence",),
    "diagnostics.finish": ("finish_diagnostics",),
    "diagnostics.format": ("format_diagnostic",),
    "interp": ("run_program",),
    "interp.overload": ("run_program", "resolve_overload"),
    "interp.spaces": ("run_program", "effective_spaces"),
    "interp.launches": ("Interpreter.launch_kernel",),
    "corpus": ("run_corpus_file",),
}


def _exspace_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "exspace" or name.startswith("exspace."))]


class Tracer:
    """Spans as (name, start, end, parent index, op id), kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.results: list = []  # (entry point, value) read by counters after an op
        self.op = 0
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self.present: set = set()
        self._targets = self._find_targets()

    def _find_targets(self) -> dict:
        mods = _exspace_modules()
        targets = {}
        for ep in ENTRY_POINTS:
            if "." in ep:
                cls_name, meth = ep.split(".")
                classes = {id(c): c for m in mods
                           for c in [vars(m).get(cls_name)] if isinstance(c, type)}
                sites = [(c, meth) for c in classes.values()
                         if isinstance(c.__dict__.get(meth), types.FunctionType)]
            else:
                fns = {id(f): f for m in mods for f in [vars(m).get(ep)]
                       if isinstance(f, types.FunctionType)}
                sites = [(m, attr) for m in mods for attr, v in vars(m).items()
                         if not attr.startswith("_") and id(v) in fns and v is fns[id(v)]]
            if sites:
                targets[ep] = sites
                self.present.add(ep)
        return targets

    def install(self):
        for ep, sites in self._targets.items():
            wrappers = {}
            for owner, attr in sites:
                original = getattr(owner, attr) if isinstance(owner, types.ModuleType) \
                    else owner.__dict__[attr]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(ep, original)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        keep = name in ("tokenize", "analyze", "run_program")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep:
                results.append((name, len(value) if name == "tokenize" else value))
            return value

        return traced

    def reset(self):
        self.spans.clear()
        self.results.clear()

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        """Self seconds and span counts per layer, over the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        context = [""] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                context[i] = context[parent]
            if name in _SIDE:
                context[i] = name
        seconds: dict = {}
        counts: dict = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            if name in _SPLIT:
                layer = f"{_SIDE.get(context[i], 'other')}.{_SPLIT[name]}"
            else:
                layer = _LAYER[name]
            seconds[layer] = seconds.get(layer, 0.0) + (end - start - child[i])
            counts[layer] = counts.get(layer, 0) + 1
            if name == "Interpreter.launch_kernel":
                counts["interp.launches"] = counts.get("interp.launches", 0) + 1
        return seconds, counts


def write_spans(path, spans: list):
    """Spans as tab-separated lines; parent is a row index, -1 for none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
