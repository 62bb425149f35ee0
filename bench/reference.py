"""A fixed pure-Python computation that measures the machine's speed.

The benchmark times this computation next to every unit and scales every
time it reports by the reference's best time in the same run, so that a
slow stretch of a shared machine, which slows both alike, does not read
as a slower exspace.  The computation shares no code with exspace: it
tokenizes, parses and evaluates a fixed arithmetic text, the same kinds
of work (regular expressions, small objects, recursion, dict lookups)
that exspace's front end and walks do.  A change to exspace cannot change
its time.
"""
from __future__ import annotations

import gc
import re
from time import perf_counter

REFERENCE_S = 1e-3  # reported times are scaled as if one reference op took this

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")
TEXT = " + ".join(f"f{i % 7}(x{i % 5} + {i} * (y{i % 3} - {i % 11}), {i % 13})"
                  for i in range(60))
ENV = {**{f"x{i}": i + 1 for i in range(5)}, **{f"y{i}": 2 * i + 3 for i in range(3)}}


class Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids=(), value=None):
        self.op, self.kids, self.value = op, kids, value


class Parser:
    def __init__(self, text: str):
        self.toks = [("num", int(num)) if num else ("name", name) if name else ("sym", sym)
                     for num, name, sym in _TOKEN.findall(text)]
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in (("sym", "+"), ("sym", "-")):
            node = Node(self.take()[1], (node, self.term()))
        return node

    def term(self) -> Node:
        node = self.atom()
        while self.peek() == ("sym", "*"):
            self.take()
            node = Node("*", (node, self.atom()))
        return node

    def atom(self) -> Node:
        kind, value = self.take()
        if kind == "num":
            return Node("num", value=value)
        if (kind, value) == ("sym", "("):
            node = self.expr()
            self.take()
            return node
        if self.peek() == ("sym", "("):
            self.take()
            args = [self.expr()]
            while self.peek() == ("sym", ","):
                self.take()
                args.append(self.expr())
            self.take()
            return Node("call", tuple(args), value)
        return Node("var", value=value)


def evaluate(node: Node, env: dict, calls: dict) -> int:
    op = node.op
    if op == "num":
        return node.value
    if op == "var":
        return env[node.value]
    if op == "call":
        args = [evaluate(k, env, calls) for k in node.kids]
        calls[node.value] = calls.get(node.value, 0) + 1
        return sum(args) % 1009
    a, b = (evaluate(k, env, calls) for k in node.kids)
    return a + b if op == "+" else a - b if op == "-" else a * b


def reference() -> tuple:
    calls: dict = {}
    value = evaluate(Parser(TEXT).expr(), ENV, calls)
    return value, sorted(calls.items())


EXPECTED = reference()


def timed() -> float:
    """Seconds of the reference op, the better of two back to back.

    The collector is off meanwhile, so that the size of exspace's heap
    does not weigh on the reference.  Raises if its answer ever changes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            got = reference()
            best = min(best, perf_counter() - t0)
            if got != EXPECTED:
                raise AssertionError(f"reference computation gave {got}, not {EXPECTED}")
    finally:
        if enabled:
            gc.enable()
    return best
