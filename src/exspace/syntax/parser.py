"""Recursive-descent parser for preprocessed MiniCU units."""
from __future__ import annotations

from typing import Optional

from ..diagnostics import Failure, SrcLoc
from .lexer import Token, tokenize
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
# template argument list opens one level.  Every stage after the parser
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
    both passes keep starts with the same Token object in both.  An item's
    parse reads its own tokens and the one after it, nothing else; so when
    a later pass reaches a recorded first token followed by the same
    tokens, the recorded node, or ParseError, is its outcome too.  Each
    pass has an end of input of its own, the same token wherever it sits at
    the same place.  A pass whose tokens are the very list the last Ast was
    built from gets that Ast without a check per item.
    """

    def __init__(self):
        self.nodes: dict = {}  # first Token -> (its tokens and the next one, node)
        self.failures: dict = {}  # first Token -> (tokens to the end, the end, ParseError)
        self.ast: Optional[n.Ast] = None  # the last Ast parse() built
        self.tokens: Optional[list] = None  # the token list ast was built from

    def reuse(self, toks: list, start: int):
        """(node, next position) recorded for the item at toks[start], or None.

        toks ends in its end of input twice (see _Parser); a recorded
        failure is raised.
        """
        known = self.nodes.get(toks[start])
        if known is not None:
            span, node = known
            end = start + len(span) - 1
            if toks[start:end + 1] == span or (
                toks[start:end] == span[:-1] and _same(toks[end], span[-1])
            ):
                return node, end
        failed = self.failures.get(toks[start])
        if failed is not None and toks[start:-2] == failed[0] and _same(toks[-1], failed[1]):
            raise failed[2]
        return None


def _same(a: Token, b: Token) -> bool:
    return a is b or (a.kind == b.kind == "eof" and (a.line, a.col) == (b.line, b.col))


def _unexpected(t: Token, what: str) -> ParseError:
    found = {"eof": "end of input", "string": f'"{t.text}"'}.get(t.kind, t.text)
    return ParseError(t.loc, f"expected {what}, found {found!r}")


class _Parser:
    def __init__(self, toks: list[Token], specifier_mode: str):
        # Lookahead from an end of input is at most one token: a second EOF
        # keeps toks[pos + 1] in range.
        self.toks = toks + toks[-1:]
        self.pos = 0
        self.depth = 0
        self.specifier_mode = specifier_mode  # keep | erase | reject

    # -- token plumbing ----------------------------------------------------
    # Keywords and punctuators are matched by Token.tag alone.  The hot
    # paths read self.toks[self.pos] and step self.pos themselves; these
    # helpers serve the rest.

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, tag: str, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead].tag == tag

    def expect(self, tag: str, what: str | None = None) -> Token:
        t = self.toks[self.pos]
        if t.tag != tag:
            raise _unexpected(t, repr(what or tag))
        self.pos += 1
        return t

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.toks[self.pos]
        if t.kind != "ident" or t.tag in KEYWORDS:
            raise _unexpected(t, what)
        self.pos += 1
        return t

    def err(self, message: str) -> ParseError:
        return ParseError(self.peek().loc, message)

    def nest(self):
        """Open one nesting level at the next token; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.err(f"nesting exceeds {MAX_NESTING} levels")

    # -- unit --------------------------------------------------------------

    def parse_unit(self, seen: ParsedItems) -> n.Ast:
        toks = self.toks
        items = []
        while toks[self.pos].kind != "eof":
            start = self.pos
            reused = seen.reuse(toks, start)
            if reused is not None:
                node, self.pos = reused
            else:
                try:
                    node = self.parse_item()
                except ParseError as e:
                    err = self.first_lex_error(start) or e
                    seen.failures[toks[start]] = (toks[start:-2], toks[-1], err)
                    raise err from None
                seen.nodes[toks[start]] = (toks[start:self.pos + 1], node)
            items.append(node)
        last = seen.ast
        if last is not None and len(last.items) == len(items) and all(
            a is b for a, b in zip(last.items, items)
        ):
            return last  # every item is shared: so is the Ast
        seen.ast = n.Ast(items)
        return seen.ast

    def first_lex_error(self, start: int) -> Optional[ParseError]:
        """The first lex error from toks[start] on, which a pass reports first.

        Items before start parsed, so they hold no error token.
        """
        for t in self.toks[start:]:
            if t.kind == "error":
                return ParseError(t.loc, t.text)
        return None

    def parse_pragma(self):
        """The pragma preceding a declaration, if any."""
        tok = self.toks[self.pos]
        if tok.kind != "pragma":
            return None
        self.pos += 1
        if tok.text not in ("hd_warning_disable", "nv_exec_check_disable"):
            raise ParseError(tok.loc, f"unknown pragma {tok.text!r}")
        return tok.text

    def parse_item(self):
        pragma = self.parse_pragma()
        tag = self.toks[self.pos].tag
        if tag == "enum" or tag == "static_assert":
            if pragma:
                raise self.err("a pragma must precede a function")
            return self.parse_enum_hdc() if tag == "enum" else self.parse_static_assert()
        tparams = []
        requires = None
        if tag == "template":
            tparams = self.parse_template_header()
            if self.at("requires"):
                requires = self.parse_requires_clause()
        spec, static = self.parse_specifiers()
        if static is not None:
            raise _unexpected(static, "type name")
        spec.pragma = pragma
        if self.toks[self.pos].tag in ("struct", "class"):
            if pragma:
                raise self.err("a pragma must precede a function")
            if requires is not None:
                raise self.err("a requires clause cannot constrain a struct")
            return self.parse_struct(tparams, spec)
        return self.parse_function(tparams, requires, spec, owner=None)

    def parse_enum_hdc(self):
        loc = self.expect("enum").loc
        self.expect("class")
        self.expect("HDC", "the HDC enum name")
        self.expect("{")
        for i, name in enumerate(HDC_VALUES):
            if i:
                self.expect(",")
            self.expect(name, f"enumerator {name!r}")
        self.expect("}")
        self.expect(";")
        return n.EnumHdcDecl(loc=loc)

    def parse_static_assert(self):
        loc = self.expect("static_assert").loc
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return n.StaticAssertDecl(expr, loc=loc)

    # -- templates and specifiers -------------------------------------------

    def parse_template_header(self) -> list:
        self.expect("template")
        self.expect("<")
        params = []
        while True:
            t = self.toks[self.pos]
            if t.tag != "typename" and t.tag != "HDC":
                raise ParseError(t.loc, "expected 'typename' or 'HDC' template parameter")
            self.pos += 1
            name = self.expect_ident("template parameter name")
            default = None
            if t.tag == "HDC" and self.at("="):
                self.pos += 1
                default = self.parse_expr()
            kind = "hdc" if t.tag == "HDC" else "type"
            params.append(n.TemplateParam(kind, name.text, default, loc=name.loc))
            if not self.at(","):
                break
            self.pos += 1
        self.expect(">")
        kinds = [p.kind for p in params]
        if kinds.count("type") > 1 or kinds.count("hdc") > 1:
            raise ParseError(
                params[-1].loc,
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
            t = self.toks[self.pos]
            tag = t.tag
            if tag in SPECIFIER_TOKENS:
                if self.specifier_mode == "reject":
                    raise ParseError(t.loc, f"{tag} is not recognized by this compiler profile")
                if tag in seen:
                    raise ParseError(t.loc, f"duplicate specifier {tag}")
                seen.add(tag)
                self.pos += 1
                pred = None
                if tag != "__global__" and self.at("("):
                    self.pos += 1
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
                self.pos += 1
                spec.constexpr = True
            elif tag == "static":
                self.pos += 1
                static = static or t
            else:
                break
        if spec.global_ and (spec.host or spec.device):
            raise ParseError(t.loc, "__global__ excludes __host__ and __device__")
        return spec, static

    # -- declarations --------------------------------------------------------

    def parse_struct(self, tparams, spec):
        self.pos += 1  # struct or class
        name = self.expect_ident("struct name")
        if spec.constexpr or spec.global_:
            raise ParseError(name.loc, "invalid specifier on a struct")
        for tp in tparams:
            if tp.kind != "hdc":
                raise ParseError(tp.loc, "struct templates support only HDC parameters")
        self.expect("{")
        members = []
        while self.toks[self.pos].tag != "}":
            members.append(self.parse_member(name.text))
        self.expect("}")
        self.expect(";")
        return n.StructDecl(name.text, tparams, spec, members, loc=name.loc)

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
            raise self.err("__global__ is not allowed on member functions")
        spec.pragma = pragma
        type_ = self.parse_type()
        name = self.expect_ident("member name")
        if self.at("="):
            if tparams or requires is not None or pragma:
                raise ParseError(name.loc, "invalid declaration of a member constant")
            if type_.name not in ("HDC", "bool", "int") or type_.targs:
                raise ParseError(
                    name.loc, "member constants must have type HDC, bool, or int"
                )
            if static is None or not spec.constexpr:
                raise ParseError(name.loc, "member constants must be static constexpr")
            if spec.host or spec.device:
                raise ParseError(name.loc, "invalid specifier on a member constant")
            self.pos += 1
            value = self.parse_expr()
            self.expect(";")
            return n.MemberVar(name.text, type_.name, value, loc=name.loc)
        self.pos -= 1  # put the member name back for parse_function
        return self.parse_function(tparams, requires, spec, owner, ret=type_)

    def parse_function(self, tparams, requires, spec, owner, ret=None):
        if ret is None:
            ret = self.parse_type()
        name = self.expect_ident("function name")
        loc = name.loc
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.parse_type()
                pname = self.expect_ident("parameter name")
                params.append(n.Param(ptype, pname.text, loc=pname.loc))
                if not self.at(","):
                    break
                self.pos += 1
        self.expect(")")
        if requires is not None and not tparams:
            raise ParseError(loc, "a requires clause needs a template header")
        if spec.global_ and ret.name != "void":
            raise ParseError(loc, "a __global__ function must return void")
        if name.text == "main" and owner is None:
            if tparams or not spec.undecorated or spec.constexpr:
                raise ParseError(loc, "main takes no specifiers and no template")
            if ret.name != "int" or params:
                raise ParseError(loc, "main must be declared as int main()")
        body = None
        if self.at("{"):
            body = self.parse_block()
        else:
            self.expect(";", "a function body or ';'")
        return n.FunctionDecl(
            name.text, tparams, requires, spec, ret, params, body, owner=owner, loc=loc,
        )

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> n.TypeRef:
        t = self.toks[self.pos]
        if t.tag in ("void", "int", "bool", "HDC"):
            self.pos += 1
            return n.TypeRef(t.text, [], loc=t.loc)
        name = self.expect_ident("type name")
        targs = self.parse_targ_list() if self.at("<") else []
        return n.TypeRef(name.text, targs, loc=name.loc)

    def parse_targ_list(self) -> list:
        self.nest()
        self.expect("<")
        args = [self.parse_targ()]
        while self.at(","):
            self.pos += 1
            args.append(self.parse_targ())
        self.expect(">")
        self.depth -= 1
        return args

    def parse_targ(self):
        t = self.toks[self.pos]
        tag = t.tag
        if tag == "int" or tag == "bool":
            self.pos += 1
            return n.TypeRef(tag, [], loc=t.loc)
        if (t.kind == "int" or tag in ("true", "false", "!", "(")
                or tag == "HDC" and self.at("::", 1) or tag == "hdc" and self.at("<", 1)):
            return self.parse_expr()
        name = self.expect_ident("template argument")
        if self.at("<"):
            return n.TypeRef(name.text, self.parse_targ_list(), loc=name.loc)
        # A bare name: a type, or an HDC constant; resolution decides.
        return n.TypeRef(name.text, [], loc=name.loc)

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> list:
        self.nest()
        self.expect("{")
        stmts = []
        while self.toks[self.pos].tag != "}":
            stmts.append(self.parse_stmt())
        self.expect("}")
        self.depth -= 1
        return stmts

    def parse_stmt(self):
        t = self.toks[self.pos]
        tag = t.tag
        if tag == "return":
            self.pos += 1
            expr = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return n.ReturnStmt(expr, loc=t.loc)
        if tag == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            orelse = None
            if self.at("else"):
                self.pos += 1
                orelse = self.parse_block()
            return n.IfStmt(cond, then, orelse, loc=t.loc)
        if tag == "for":
            return self.parse_for(t)
        if tag == "int" or tag == "bool":
            self.pos += 1
            name = self.expect_ident("variable name")
            self.expect(";")
            return n.VarDeclStmt(n.TypeRef(tag, [], loc=t.loc), name.text, loc=t.loc)
        if t.kind == "ident" and tag not in KEYWORDS:
            stmt = self.try_parse_ident_led_stmt(t)
            if stmt is not None:
                return stmt
        expr = self.parse_expr()
        self.expect(";")
        return n.ExprStmt(expr, loc=t.loc)

    def parse_for(self, t):
        self.pos += 1
        self.expect("(")
        self.expect("int")
        var = self.expect_ident("loop variable").text
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        v2 = self.expect_ident("loop variable").text
        self.expect("<")
        bound = self.parse_expr()
        self.expect(";")
        self.expect("++")
        v3 = self.expect_ident("loop variable").text
        if v2 != var or v3 != var:
            raise ParseError(t.loc, "the loop condition and increment must use the loop variable")
        self.expect(")")
        body = self.parse_block()
        return n.ForStmt(var, init, bound, body, loc=t.loc)

    def try_parse_ident_led_stmt(self, name: Token):
        """Launches and variable declarations; None means plain expression."""
        toks = self.toks
        start, depth = self.pos, self.depth
        self.pos += 1
        targs = []
        if toks[self.pos].tag == "<":
            try:
                targs = self.parse_targ_list()
            except ParseError:
                self.pos, self.depth = start, depth
                return None
        nxt = toks[self.pos]
        if nxt.tag == "<<<":
            self.pos += 1
            grid = self.parse_expr()
            self.expect(",")
            block = self.parse_expr()
            self.expect(">>>")
            args = self.parse_call_args()
            self.expect(";")
            return n.LaunchStmt(name.text, targs, grid, block, args, loc=name.loc)
        if nxt.kind == "ident" and nxt.tag not in KEYWORDS:
            self.pos += 1
            self.expect(";")
            ty = n.TypeRef(name.text, targs, loc=name.loc)
            return n.VarDeclStmt(ty, nxt.text, loc=name.loc)
        self.pos = start
        return None

    # -- expressions -----------------------------------------------------------

    def parse_expr(self):
        self.nest()
        expr = self.parse_binary(1)
        self.depth -= 1
        return expr

    def parse_binary(self, min_prec: int):
        """Operators of precedence min_prec and up, by precedence climbing.

        || and && are left-associative, || the loosest; a comparison binds
        tightest, takes two unary operands and does not chain.
        """
        toks = self.toks
        lhs = self.parse_unary()
        t = toks[self.pos]
        if t.tag == "==" or t.tag == "!=":
            self.pos += 1
            lhs = n.BinaryExpr(t.tag, lhs, self.parse_unary(), loc=t.loc)
            t = toks[self.pos]
        prec = _LOGICAL_PREC.get(t.tag, 0)
        while prec >= min_prec:
            self.pos += 1
            lhs = n.BinaryExpr(t.tag, lhs, self.parse_binary(prec + 1), loc=t.loc)
            t = toks[self.pos]
            prec = _LOGICAL_PREC.get(t.tag, 0)
        return lhs

    def parse_unary(self):
        t = self.toks[self.pos]
        if t.tag != "!":
            return self.parse_postfix()
        self.nest()
        self.pos += 1
        expr = n.UnaryExpr("!", self.parse_unary(), loc=t.loc)
        self.depth -= 1
        return expr

    def parse_call_args(self) -> list:
        """A parenthesized argument list."""
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expr())
            while self.toks[self.pos].tag == ",":
                self.pos += 1
                args.append(self.parse_expr())
        self.expect(")")
        return args

    def _maybe_member_call(self, recv):
        while self.toks[self.pos].tag == ".":
            self.pos += 1
            name = self.expect_ident("member name")
            targs = self.parse_targ_list() if self.at("<") else []
            args = self.parse_call_args()
            recv = n.MemberCallExpr(recv, name.text, targs, args, loc=recv.loc)
        return recv

    def _validate_call(self, name: str, args: list, loc: SrcLoc):
        if name == "printf":
            if not args or not isinstance(args[0], n.StringLit):
                raise ParseError(loc, "printf needs a literal format string")
            fmt = args[0].value
            holes = fmt.count("%")
            if fmt.count("%d") != holes:  # some % does not start a %d
                raise ParseError(loc, "printf supports only literal text and %d")
            if holes > 1:
                raise ParseError(loc, "printf supports at most one %d")
            if len(args) - 1 != holes:
                raise ParseError(loc, "printf argument count does not match the format")
        elif name in BUILTIN_ARITY and len(args) != BUILTIN_ARITY[name]:
            raise ParseError(loc, f"{name} takes exactly {BUILTIN_ARITY[name]} argument(s)")

    def parse_postfix(self):
        toks = self.toks
        t = toks[self.pos]
        if t.kind != "ident" or t.tag in _NOT_PLAIN_NAMES:
            node = self.parse_primary(t)
            if node is not None:
                return node
        # A named primary: a variable, call, temporary object, or static member.
        self.pos += 1
        name = t.text
        targs = self.parse_targ_list() if toks[self.pos].tag == "<" else []
        tag = toks[self.pos].tag
        if tag == "(":
            args = self.parse_call_args()
            self._validate_call(name, args, t.loc)
            return self._maybe_member_call(n.CallExpr(name, targs, args, loc=t.loc))
        if tag == "{":
            self.pos += 1
            self.expect("}")
            obj = n.TempObj(n.TypeRef(name, targs, loc=t.loc), loc=t.loc)
            return self._maybe_member_call(obj)
        if tag == "::":
            self.pos += 1
            member = self.expect_ident("member name")
            mtargs = self.parse_targ_list() if self.at("<") else []
            ty = n.TypeRef(name, targs, loc=t.loc)
            if self.at("("):
                args = self.parse_call_args()
                return n.StaticCallExpr(ty, member.text, mtargs, args, loc=t.loc)
            return n.MemberConst(ty, member.text, loc=t.loc)
        if targs:
            raise self.err(f"unexpected template arguments on {name!r}")
        return self._maybe_member_call(n.NameRef(name, loc=t.loc))

    def parse_primary(self, t: Token):
        """The literal or special primary at t, or None if t is a plain name."""
        tag = t.tag
        if t.kind == "int":
            self.pos += 1
            try:
                value = int(t.text)
            except ValueError:  # more digits than int() converts
                raise ParseError(t.loc, "integer literal is too long") from None
            return n.IntLit(value, loc=t.loc)
        if t.kind == "string":
            self.pos += 1
            return n.StringLit(t.text, loc=t.loc)
        if tag == "true" or tag == "false":
            self.pos += 1
            return n.BoolLit(tag == "true", loc=t.loc)
        if tag == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return self._maybe_member_call(inner)
        if tag == "cuda_arch":
            self.pos += 1
            return n.CudaArchRef(loc=t.loc)
        nxt = self.toks[self.pos + 1].tag
        if tag == "HDC" and nxt == "::":
            val = self.toks[self.pos + 2]
            if val.tag not in HDC_VALUES:
                raise ParseError(val.loc, f"unknown HDC value {val.text!r}")
            self.pos += 3
            return n.HdcLit(val.text, loc=t.loc)
        if tag == "hdc" and nxt == "<":
            self.pos += 2
            ty = self.parse_type()
            self.expect(">")
            return n.HdcTrait(ty, loc=t.loc)
        if tag == "std" and nxt == "::":
            self.pos += 2
            name = self.expect_ident("function name")
            qual = f"std::{name.text}"
            args = self.parse_call_args()
            self._validate_call(qual, args, t.loc)
            return n.CallExpr(qual, [], args, loc=t.loc)
        if t.kind == "ident" and tag not in KEYWORDS:
            return None  # hdc or std as a plain name
        raise _unexpected(t, "an expression")


# The precedence of each binary operator that may chain; see parse_binary.
_LOGICAL_PREC = {"||": 1, "&&": 2}

# Identifier tags parse_postfix leaves to parse_primary.
_NOT_PLAIN_NAMES = KEYWORDS | {"cuda_arch", "hdc", "std"}


def parse(
    source: str | list[Token],
    file: str = "<unit>",
    specifier_mode: str = "keep",
    seen: Optional[ParsedItems] = None,
) -> n.Ast:
    """Parse one preprocessed unit, or one pass's tokens of it, into an AST.

    specifier_mode selects what happens to __host__/__device__/__global__
    tokens: "keep" records them, "erase" parses and discards them, and
    "reject" treats them as parse errors.  Given the ParsedItems of the
    unit's earlier passes, items they parsed from the same tokens are
    reused, and the earlier Ast itself when every item is.  A lex error is
    reported before any parse error.
    """
    toks = tokenize(source, file) if isinstance(source, str) else source
    seen = seen or ParsedItems()
    if toks is not seen.tokens:  # a list that built an Ast holds no lex error
        _Parser(toks, specifier_mode).parse_unit(seen)
        seen.tokens = toks
    return seen.ast
