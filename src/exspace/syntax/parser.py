"""Recursive-descent parser for preprocessed MiniCU units.

The parser reads a token stream's parallel lists by index, and each node
it builds carries the position of one of its tokens; a SrcLoc is built
only for a ParseError.
"""
from __future__ import annotations

from typing import Optional

from ..diagnostics import Failure, SrcLoc
from .lexer import Tokens, tokenize
from . import nodes as n

KEYWORDS = {
    "struct",
    "class",
    "enum",
    "template",
    "typename",
    "requires",
    "return",
    "if",
    "else",
    "for",
    "void",
    "int",
    "bool",
    "true",
    "false",
    "constexpr",
    "static",
    "static_assert",
    "HDC",
    "__host__",
    "__device__",
    "__global__",
}

SPECIFIER_TOKENS = ("__host__", "__device__", "__global__")

HDC_VALUES = ("Hst", "Dev", "HstDev")

# Builtin callables with fixed arity; printf is validated separately.
BUILTIN_ARITY = {
    "release_assert": 1,
    "__trap": 0,
    "abort": 0,
    "std::abort": 0,
    "cudaDeviceSynchronize": 0,
}


# Deepest syntactic nesting accepted: each block, expression, "!" operand and
# template argument list opens one level, and so does each member-call link
# whose receiver is the link before it; a run of && or || operands, one node
# that every stage loops over, opens none.  Every stage after the parser
# recurses over the tree, so the limit keeps all of them inside Python's
# default recursion limit.
MAX_NESTING = 64


class ParseError(Failure):
    """E0001: the unit does not match the grammar."""

    def __init__(self, loc: SrcLoc, message: str):
        super().__init__("E0001", loc, message)


class ParsedItems:
    """The top-level items parsed from the passes of one unit, by first token.

    The passes of a unit keep tokens of one tokenize() result, so an item
    both passes keep starts with the token at the same position in both.
    An item's parse reads its own tokens and the one after it, nothing
    else; so when a later pass reaches a recorded first token followed by
    the same tokens, the recorded node is its outcome too.  Only parsed
    items are recorded: a pass that reaches an item that failed in an
    earlier pass parses it again and fails alike.
    Each pass has an end of input of its own, at a position no pass keeps
    a token at (see pass_tokens).  A pass whose tokens are the very stream
    the last Ast was built from gets that Ast without a check per item.
    """

    def __init__(self):
        self.nodes: dict = {}  # first position -> (positions of its tokens and the next, node)
        self.ast: Optional[n.Ast] = None  # the last Ast parse() built
        self.tokens: Optional[Tokens] = None  # the stream ast was built from

    def reuse(self, positions: list, start: int):
        """(node, next index) recorded for the item at positions[start], or None."""
        known = self.nodes.get(positions[start])
        if known is not None:
            span, node = known
            end = start + len(span) - 1
            if positions[start:end + 1] == span:
                return node, end
        return None


class _Parser:
    """Parses one token stream; self.i is the index of the next token.

    Helpers that find a token return its index: its kind, text, tag and
    position are read from the stream's lists.
    """

    def __init__(self, toks: Tokens, specifier_mode: str):
        self.kinds = toks.kinds
        self.texts = toks.texts
        # Lookahead from an end of input is at most one token: a second end
        # of input keeps tags[i + 1] in range.
        self.tags = toks.tags + [None]
        self.positions = toks.positions
        self.lines = toks.lines
        self.i = 0
        self.depth = 0
        self.specifier_mode = specifier_mode  # keep | erase | reject

    # -- token plumbing ----------------------------------------------------
    # Keywords and punctuators are matched by tag alone.  The hot paths
    # read self.tags[self.i] and step self.i themselves; these helpers serve
    # the rest.

    def at(self, tag: str, ahead: int = 0) -> bool:
        return self.tags[self.i + ahead] == tag

    def expect(self, tag: str, what: str | None = None) -> int:
        i = self.i
        if self.tags[i] != tag:
            raise self.unexpected(i, repr(what or tag))
        self.i = i + 1
        return i

    def expect_ident(self, what: str = "identifier") -> int:
        i = self.i
        if self.kinds[i] != "ident" or self.tags[i] in KEYWORDS:
            raise self.unexpected(i, what)
        self.i = i + 1
        return i

    def error(self, i: int, message: str) -> ParseError:
        """A ParseError at token i."""
        return ParseError(self.lines.loc(self.positions[i]), message)

    def unexpected(self, i: int, what: str) -> ParseError:
        kind, text = self.kinds[i], self.texts[i]
        found = {"eof": "end of input", "string": f'"{text}"'}.get(kind, text)
        return self.error(i, f"expected {what}, found {found!r}")

    def nest(self):
        """Open one nesting level at the next token; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(self.i, f"nesting exceeds {MAX_NESTING} levels")

    # -- unit --------------------------------------------------------------

    def parse_unit(self, seen: ParsedItems) -> n.Ast:
        kinds, positions = self.kinds, self.positions
        items = []
        while kinds[self.i] != "eof":
            start = self.i
            reused = seen.reuse(positions, start)
            if reused is not None:
                node, self.i = reused
            else:
                try:
                    node = self.parse_item()
                except ParseError as e:
                    raise self.first_lex_error(start) or e from None
                seen.nodes[positions[start]] = (positions[start:self.i + 1], node)
            items.append(node)
        last = seen.ast
        if last is not None and len(last.items) == len(items) and all(
            a is b for a, b in zip(last.items, items)
        ):
            return last  # every item is shared: so is the Ast
        seen.ast = n.Ast(items, self.lines)
        return seen.ast

    def first_lex_error(self, start: int) -> Optional[ParseError]:
        """The first lex error from token start on, which a pass reports first.

        Items before start parsed, so they hold no error token.
        """
        try:
            i = self.kinds.index("error", start)
        except ValueError:
            return None
        return self.error(i, self.texts[i])

    def parse_pragma(self):
        """The pragma preceding a declaration, if any."""
        i = self.i
        if self.kinds[i] != "pragma":
            return None
        self.i += 1
        pragma = self.texts[i]
        if pragma not in ("hd_warning_disable", "nv_exec_check_disable"):
            raise self.error(i, f"unknown pragma {pragma!r}")
        return pragma

    def parse_item(self):
        pragma = self.parse_pragma()
        tag = self.tags[self.i]
        if tag == "enum" or tag == "static_assert":
            if pragma:
                raise self.error(self.i, "a pragma must precede a function")
            return self.parse_enum_hdc() if tag == "enum" else self.parse_static_assert()
        tparams = []
        requires = None
        if tag == "template":
            tparams = self.parse_template_header()
            if self.at("requires"):
                requires = self.parse_requires_clause()
        spec, static = self.parse_specifiers()
        if static is not None:
            raise self.unexpected(static, "type name")
        spec.pragma = pragma
        if self.tags[self.i] in ("struct", "class"):
            if pragma:
                raise self.error(self.i, "a pragma must precede a function")
            if requires is not None:
                raise self.error(self.i, "a requires clause cannot constrain a struct")
            return self.parse_struct(tparams, spec)
        return self.parse_function(tparams, requires, spec, owner=None)

    def parse_enum_hdc(self):
        pos = self.positions[self.expect("enum")]
        self.expect("class")
        self.expect("HDC", "the HDC enum name")
        self.expect("{")
        for i, name in enumerate(HDC_VALUES):
            if i:
                self.expect(",")
            self.expect(name, f"enumerator {name!r}")
        self.expect("}")
        self.expect(";")
        return n.EnumHdcDecl(pos=pos)

    def parse_static_assert(self):
        pos = self.positions[self.expect("static_assert")]
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return n.StaticAssertDecl(expr, pos=pos)

    # -- templates and specifiers -------------------------------------------

    def parse_template_header(self) -> list:
        self.expect("template")
        self.expect("<")
        params = []
        while True:
            i = self.i
            tag = self.tags[i]
            if tag != "typename" and tag != "HDC":
                raise self.error(i, "expected 'typename' or 'HDC' template parameter")
            self.i += 1
            name = self.expect_ident("template parameter name")
            default = None
            if tag == "HDC" and self.at("="):
                self.i += 1
                default = self.parse_expr()
            kind = "hdc" if tag == "HDC" else "type"
            params.append(n.TemplateParam(kind, self.texts[name], default,
                                          pos=self.positions[name]))
            if not self.at(","):
                break
            self.i += 1
        self.expect(">")
        kinds = [p.kind for p in params]
        if kinds.count("type") > 1 or kinds.count("hdc") > 1:
            raise ParseError(
                self.lines.loc(params[-1].pos),
                "at most one type parameter and one HDC parameter are supported",
            )
        return params

    def parse_requires_clause(self):
        self.expect("requires")
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        return expr

    def parse_specifiers(self):
        """Specifiers before a declaration's type, and its first static token or None."""
        spec = n.SpecifierSet()
        seen = set()
        static = None
        while True:
            i = self.i
            tag = self.tags[i]
            if tag in SPECIFIER_TOKENS:
                if self.specifier_mode == "reject":
                    raise self.error(i, f"{tag} is not recognized by this compiler profile")
                if tag in seen:
                    raise self.error(i, f"duplicate specifier {tag}")
                seen.add(tag)
                self.i += 1
                pred = None
                if tag != "__global__" and self.at("("):
                    self.i += 1
                    pred = self.parse_expr()
                    self.expect(")")
                if self.specifier_mode == "erase":
                    continue
                if tag == "__host__":
                    spec.host, spec.host_pred = True, pred
                elif tag == "__device__":
                    spec.device, spec.device_pred = True, pred
                else:
                    spec.global_ = True
            elif tag == "constexpr":
                self.i += 1
                spec.constexpr = True
            elif tag == "static":
                self.i += 1
                if static is None:
                    static = i
            else:
                break
        if spec.global_ and (spec.host or spec.device):
            raise self.error(i, "__global__ excludes __host__ and __device__")
        return spec, static

    # -- declarations --------------------------------------------------------

    def parse_struct(self, tparams, spec):
        self.i += 1  # struct or class
        name = self.expect_ident("struct name")
        if spec.constexpr or spec.global_:
            raise self.error(name, "invalid specifier on a struct")
        for tp in tparams:
            if tp.kind != "hdc":
                raise ParseError(self.lines.loc(tp.pos),
                                 "struct templates support only HDC parameters")
        self.expect("{")
        members = []
        text = self.texts[name]
        while self.tags[self.i] != "}":
            members.append(self.parse_member(text))
        self.expect("}")
        self.expect(";")
        return n.StructDecl(text, tparams, spec, members, pos=self.positions[name])

    def parse_member(self, owner: str):
        pragma = self.parse_pragma()
        tparams = []
        requires = None
        if self.at("template"):
            tparams = self.parse_template_header()
            if self.at("requires"):
                requires = self.parse_requires_clause()
        spec, static = self.parse_specifiers()
        if spec.global_:
            raise self.error(self.i, "__global__ is not allowed on member functions")
        spec.pragma = pragma
        type_ = self.parse_type()
        name = self.expect_ident("member name")
        if self.at("="):
            if tparams or requires is not None or pragma:
                raise self.error(name, "invalid declaration of a member constant")
            if type_.name not in ("HDC", "bool", "int") or type_.targs:
                raise self.error(name, "member constants must have type HDC, bool, or int")
            if static is None or not spec.constexpr:
                raise self.error(name, "member constants must be static constexpr")
            if spec.host or spec.device:
                raise self.error(name, "invalid specifier on a member constant")
            self.i += 1
            value = self.parse_expr()
            self.expect(";")
            return n.MemberVar(self.texts[name], type_.name, value, pos=self.positions[name])
        self.i -= 1  # put the member name back for parse_function
        return self.parse_function(tparams, requires, spec, owner, ret=type_)

    def parse_function(self, tparams, requires, spec, owner, ret=None):
        if ret is None:
            ret = self.parse_type()
        name = self.expect_ident("function name")
        text = self.texts[name]
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect_ident("parameter name")
                params.append(n.Param(ptype, self.texts[pname], pos=self.positions[pname]))
                if not self.at(","):
                    break
                self.i += 1
        self.expect(")")
        if spec.global_ and ret.name != "void":
            raise self.error(name, "a __global__ function must return void")
        if text == "main" and owner is None:
            if tparams or not spec.undecorated or spec.constexpr:
                raise self.error(name, "main takes no specifiers and no template")
            if ret.name != "int" or params:
                raise self.error(name, "main must be declared as int main()")
        body = None
        if self.at("{"):
            body = self.parse_block()
        else:
            self.expect(";", "a function body or ';'")
        return n.FunctionDecl(
            text, tparams, requires, spec, ret, params, body, owner=owner,
            pos=self.positions[name],
        )

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> n.TypeRef:
        i = self.i
        tag = self.tags[i]
        if tag in ("void", "int", "bool", "HDC"):
            self.i += 1
            return n.TypeRef(tag, [], pos=self.positions[i])
        name = self.expect_ident("type name")
        targs = self.parse_targ_list() if self.at("<") else []
        return n.TypeRef(self.texts[name], targs, pos=self.positions[name])

    def parse_targ_list(self) -> list:
        self.nest()
        self.expect("<")
        args = [self.parse_targ()]
        while self.at(","):
            self.i += 1
            args.append(self.parse_targ())
        self.expect(">")
        self.depth -= 1
        return args

    def parse_targ(self):
        i = self.i
        tag = self.tags[i]
        if tag == "int" or tag == "bool":
            self.i += 1
            return n.TypeRef(tag, [], pos=self.positions[i])
        if (self.kinds[i] == "int" or tag in ("true", "false", "!", "(")
                or tag == "HDC" and self.at("::", 1) or tag == "hdc" and self.at("<", 1)):
            return self.parse_expr()
        name = self.expect_ident("template argument")
        # A bare name is a type, or an HDC constant; resolution decides.
        targs = self.parse_targ_list() if self.at("<") else []
        return n.TypeRef(self.texts[name], targs, pos=self.positions[name])

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> list:
        self.nest()
        self.expect("{")
        stmts = []
        while self.tags[self.i] != "}":
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        return stmts

    def parse_stmt(self):
        i = self.i
        tag = self.tags[i]
        pos = self.positions[i]
        if tag == "return":
            self.i += 1
            expr = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return n.ReturnStmt(expr, pos=pos)
        if tag == "if":
            self.i += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            orelse = None
            if self.at("else"):
                self.i += 1
                orelse = self.parse_block()
            return n.IfStmt(cond, then, orelse, pos=pos)
        if tag == "for":
            return self.parse_for(i)
        if tag == "int" or tag == "bool":
            self.i += 1
            name = self.expect_ident("variable name")
            self.expect(";")
            return n.VarDeclStmt(n.TypeRef(tag, [], pos=pos), self.texts[name], pos=pos)
        if self.kinds[i] == "ident" and tag not in KEYWORDS:
            stmt = self.try_parse_ident_led_stmt(i)
            if stmt is not None:
                return stmt
        expr = self.parse_expr()
        self.expect(";")
        return n.ExprStmt(expr, pos=pos)

    def parse_for(self, i: int):
        self.i += 1
        self.expect("(")
        self.expect("int")
        var = self.texts[self.expect_ident("loop variable")]
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        v2 = self.texts[self.expect_ident("loop variable")]
        self.expect("<")
        bound = self.parse_expr()
        self.expect(";")
        self.expect("++")
        v3 = self.texts[self.expect_ident("loop variable")]
        if v2 != var or v3 != var:
            raise self.error(i, "the loop condition and increment must use the loop variable")
        self.expect(")")
        body = self.parse_block()
        return n.ForStmt(var, init, bound, body, pos=self.positions[i])

    def try_parse_ident_led_stmt(self, name: int):
        """Launches and variable declarations; None means plain expression."""
        tags = self.tags
        start, depth = self.i, self.depth
        self.i += 1
        targs = []
        if tags[self.i] == "<":
            try:
                targs = self.parse_targ_list()
            except ParseError:
                self.i, self.depth = start, depth
                return None
        nxt = self.i
        tag = tags[nxt]
        pos = self.positions[name]
        if tag == "<<<":
            self.i += 1
            grid = self.parse_expr()
            self.expect(",")
            block = self.parse_expr()
            self.expect(">>>")
            args = self.parse_call_args()
            self.expect(";")
            return n.LaunchStmt(self.texts[name], targs, grid, block, args, pos=pos)
        if self.kinds[nxt] == "ident" and tag not in KEYWORDS:
            self.i += 1
            self.expect(";")
            ty = n.TypeRef(self.texts[name], targs, pos=pos)
            return n.VarDeclStmt(ty, self.texts[nxt], pos=pos)
        self.i = start
        return None

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        self.nest()
        expr = self.parse_run("||")
        self.depth -= 1
        return expr

    def parse_run(self, op: str):
        """One LogicalExpr per run of op: runs of || hold runs of &&, which hold
        comparisons.  A left operand that is a run of op in parentheses joins
        the run.  A comparison takes two unary operands and does not chain.
        """
        operand = self.parse_run("&&") if op == "||" else self.parse_cmp()
        tags, i = self.tags, self.i
        if tags[i] != op:
            return operand
        joins = type(operand) is n.LogicalExpr and operand.op == op
        operands = operand.operands if joins else [operand]
        while tags[i] == op:
            self.i += 1
            operands.append(self.parse_run("&&") if op == "||" else self.parse_cmp())
            pos, i = self.positions[i], self.i
        return n.LogicalExpr(op, operands, pos=pos)

    def parse_cmp(self):
        lhs = self.parse_unary()
        i = self.i
        op = self.tags[i]
        if op != "==" and op != "!=":
            return lhs
        self.i += 1
        return n.BinaryExpr(op, lhs, self.parse_unary(), pos=self.positions[i])

    def parse_unary(self):
        i = self.i
        if self.tags[i] != "!":
            return self.parse_postfix()
        self.nest()
        self.i += 1
        expr = n.UnaryExpr("!", self.parse_unary(), pos=self.positions[i])
        self.depth -= 1
        return expr

    def parse_call_args(self) -> list:
        """A parenthesized argument list."""
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.tags[self.i] == ",":
                self.i += 1
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def _maybe_member_call(self, recv):
        depth = self.depth
        while self.tags[self.i] == ".":
            if type(recv) is n.MemberCallExpr:
                self.nest()  # this link's receiver is the link before it
            self.i += 1
            name = self.texts[self.expect_ident("member name")]
            targs = self.parse_targ_list() if self.at("<") else []
            args = self.parse_call_args()
            recv = n.MemberCallExpr(recv, name, targs, args, pos=recv.pos)
        self.depth = depth
        return recv

    def _validate_call(self, name: str, args: list, i: int):
        """Check a builtin call whose name is token i."""
        if name == "printf":
            if not args or not isinstance(args[0], n.StringLit):
                raise self.error(i, "printf needs a literal format string")
            fmt = args[0].value
            holes = fmt.count("%")
            if fmt.count("%d") != holes:  # some % does not start a %d
                raise self.error(i, "printf supports only literal text and %d")
            if holes > 1:
                raise self.error(i, "printf supports at most one %d")
            if len(args) - 1 != holes:
                raise self.error(i, "printf argument count does not match the format")
        elif name in BUILTIN_ARITY and len(args) != BUILTIN_ARITY[name]:
            raise self.error(i, f"{name} takes exactly {BUILTIN_ARITY[name]} argument(s)")

    def parse_postfix(self):
        tags = self.tags
        i = self.i
        if self.kinds[i] != "ident" or tags[i] in _NOT_PLAIN_NAMES:
            node = self.parse_primary(i)
            if node is not None:
                return node
        # A named primary: a variable, call, temporary object, or static member.
        self.i += 1
        name = self.texts[i]
        pos = self.positions[i]
        targs = self.parse_targ_list() if tags[self.i] == "<" else []
        tag = tags[self.i]
        if tag == "(":
            args = self.parse_call_args()
            self._validate_call(name, args, i)
            return self._maybe_member_call(n.CallExpr(name, targs, args, pos=pos))
        if tag == "{":
            self.i += 1
            self.expect("}")
            obj = n.TempObj(n.TypeRef(name, targs, pos=pos), pos=pos)
            return self._maybe_member_call(obj)
        if tag == "::":
            self.i += 1
            member = self.texts[self.expect_ident("member name")]
            mtargs = self.parse_targ_list() if self.at("<") else []
            ty = n.TypeRef(name, targs, pos=pos)
            if self.at("("):
                args = self.parse_call_args()
                return n.StaticCallExpr(ty, member, mtargs, args, pos=pos)
            return n.MemberConst(ty, member, pos=pos)
        if targs:
            raise self.error(self.i, f"unexpected template arguments on {name!r}")
        return self._maybe_member_call(n.NameRef(name, pos=pos))

    def parse_primary(self, i: int):
        """The literal or special primary at token i, or None if it is a plain name."""
        tag = self.tags[i]
        kind = self.kinds[i]
        pos = self.positions[i]
        if kind == "int":
            self.i += 1
            try:
                value = int(self.texts[i])
            except ValueError:  # more digits than int() converts
                raise self.error(i, "integer literal is too long") from None
            return n.IntLit(value, pos=pos)
        if kind == "string":
            self.i += 1
            return n.StringLit(self.texts[i], pos=pos)
        if tag == "true" or tag == "false":
            self.i += 1
            return n.BoolLit(tag == "true", pos=pos)
        if tag == "(":
            self.i += 1
            inner = self.parse_expr()
            self.expect(")")
            return self._maybe_member_call(inner)
        if tag == "cuda_arch":
            self.i += 1
            return n.CudaArchRef(pos=pos)
        nxt = self.tags[i + 1]
        if tag == "HDC" and nxt == "::":
            val = i + 2
            if self.tags[val] not in HDC_VALUES:
                raise self.error(val, f"unknown HDC value {self.texts[val]!r}")
            self.i += 3
            return n.HdcLit(self.texts[val], pos=pos)
        if tag == "hdc" and nxt == "<":
            self.i += 2
            ty = self.parse_type()
            self.expect(">")
            return n.HdcTrait(ty, pos=pos)
        if tag == "std" and nxt == "::":
            self.i += 2
            qual = f"std::{self.texts[self.expect_ident('function name')]}"
            args = self.parse_call_args()
            self._validate_call(qual, args, i)
            return n.CallExpr(qual, [], args, pos=pos)
        if kind == "ident" and tag not in KEYWORDS:
            return None  # hdc or std as a plain name
        raise self.unexpected(i, "an expression")


# Identifier tags parse_postfix leaves to parse_primary.
_NOT_PLAIN_NAMES = KEYWORDS | {"cuda_arch", "hdc", "std"}


def parse(
    source: str | Tokens,
    file: str = "<unit>",
    specifier_mode: str = "keep",
    seen: Optional[ParsedItems] = None,
) -> n.Ast:
    """Parse one preprocessed unit, or one pass's tokens of it, into an AST.

    specifier_mode selects what happens to __host__/__device__/__global__
    tokens: "keep" records them, "erase" parses and discards them, and
    "reject" treats them as parse errors.  Given the ParsedItems of the
    unit's earlier passes, items they parsed from the same tokens are
    reused, and the earlier Ast itself when every item is; an item that
    failed is parsed again, and fails alike.  A lex error is reported before
    any parse error.
    """
    toks = tokenize(source, file) if isinstance(source, str) else source
    seen = seen or ParsedItems()
    if toks is not seen.tokens:  # a stream that built an Ast holds no lex error
        _Parser(toks, specifier_mode).parse_unit(seen)
        seen.tokens = toks
    return seen.ast
