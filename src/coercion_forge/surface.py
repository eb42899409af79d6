"""Concrete syntax: lexer, parsers, pretty-printers, and alpha-equivalence.

Two dialects share one token language.  The source dialect ("lams") has
one-argument applications and meta-level coercions; the continuation
dialect ("lamsx") has two-argument applications `f(M, N)`, let, object
level composition `;;`, and coercion literals as terms.

Precedence, loosest to tightest: lambda/let/if bodies extend right;
`;;`; comparisons (nonassociative); `+ -`; `*`; juxtaposition; coercion
suffixes on atoms.  A coercion suffix after an application chain applies
to the whole chain (`f x <c>` is `(f x)<c>`), so coercing an argument
needs parentheses.  A bare application used as an operand of a binary
operator is a parse error; parenthesize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .coercions import (
    Coercion,
    Fail,
    Fun,
    Id,
    IdStar,
    InjSeq,
    ProjSeq,
    is_ground_crc,
    is_identity,
    is_intermediate,
)
from .types import BOOL, DYN, INT, Base, CrcT, Dyn, FunT, Fun2T, TyVar, Type, is_ground
from . import lam_s as S
from . import lam_sx as X
from .terms import Blame, CoercedVal, Const, GlobalRef, If, Op, Var


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(f"line {line}:{col}: expected {expected}, found {found}")


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


KEYWORDS = {
    "let", "in", "if", "then", "else", "blame", "letrec", "and",
    "true", "false", "id", "bot", "Dyn", "Int", "Bool",
}

_SYMBOLS = ["<<", ">>", "->", "=>", "~>", ";;"]
_SINGLES = "(){}<>;:,.+-*=!?^\\'"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in KEYWORDS else "IDENT"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        two = text[i : i + 2]
        if two in _SYMBOLS:
            toks.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLES:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "a token", repr(ch))
    toks.append(Token("EOF", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


TermAny = Union[S.TermS, X.TermX]


class Parser:
    def __init__(self, text: str, dialect: str):
        if dialect not in ("lams", "lamsx"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self.toks = tokenize(text)
        self.pos = 0
        self.dialect = dialect

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def eat(self, kind: str, expected: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(expected or repr(kind))
        return self.next()

    def fail(self, expected: str) -> None:
        t = self.peek()
        found = "end of input" if t.kind == "EOF" else repr(str(t.value))
        raise ParseError(t.line, t.col, expected, found)

    def _try(self, fn: Callable):
        saved = self.pos
        try:
            return fn()
        except ParseError:
            self.pos = saved
            return None

    # -- types

    def parse_type(self) -> Type:
        left = self.type_atom()
        if self.at("->"):
            self.next()
            return FunT(left, self.parse_type())
        if self.at("=>"):
            if self.dialect != "lamsx":
                self.fail("'->' (continuation function types need the lamsx dialect)")
            self.next()
            return Fun2T(left, self.parse_type())
        if self.at("~>"):
            if self.dialect != "lamsx":
                self.fail("'->' (coercion types need the lamsx dialect)")
            self.next()
            return CrcT(left, self.parse_type())
        return left

    def type_atom(self) -> Type:
        t = self.peek()
        if t.kind == "Dyn":
            self.next()
            return DYN
        if t.kind == "Int":
            self.next()
            return INT
        if t.kind == "Bool":
            self.next()
            return BOOL
        if t.kind == "'":
            if self.dialect != "lamsx":
                self.fail("a type")
            self.next()
            name = self.eat("IDENT", "a rigid type variable like 'X0")
            word = str(name.value)
            if not (word.startswith("X") and word[1:].isdigit()):
                raise ParseError(name.line, name.col, "a rigid type variable like 'X0", word)
            return TyVar(int(word[1:]))
        if t.kind == "(":
            self.next()
            ty = self.parse_type()
            self.eat(")")
            return ty
        self.fail("a type")
        raise AssertionError

    # -- coercions

    def _fun_ctor(self):
        return FunT if self.dialect == "lams" else Fun2T

    def parse_coercion(self) -> Coercion:
        t = self.peek()
        left = self.crc_seq()
        arrow = "->" if self.dialect == "lams" else "=>"
        if self.at(arrow):
            self.next()
            right = self.parse_coercion()
            if is_identity(left) and is_identity(right):
                raise ParseError(
                    t.line, t.col, "a canonical coercion", "an identity arrow coercion"
                )
            return Fun(left, right)
        return left

    def crc_seq(self) -> Coercion:
        t = self.peek()
        units = [self.crc_unit()]
        while self.at(";"):
            self.next()
            units.append(self.crc_unit())
        return self._canon(units, t)

    def crc_unit(self):
        t = self.peek()
        if t.kind == "id":
            self.next()
            self.eat("{")
            ty = self.parse_type()
            self.eat("}")
            return ("id", ty, t)
        if t.kind == "bot":
            self.next()
            self.eat("{")
            g = self.parse_type()
            self.eat(",")
            lbl = self.eat("IDENT", "a blame label")
            self.eat(",")
            h = self.parse_type()
            self.eat("}")
            if not (is_ground(g, self._fun_ctor()) and is_ground(h, self._fun_ctor())):
                raise ParseError(t.line, t.col, "ground type tags in bot{...}", "non-ground type")
            if g == h:
                raise ParseError(t.line, t.col, "distinct type tags in bot{...}", "equal tags")
            return ("bot", Fail(g, str(lbl.value), h), t)
        ground = self._try(self._ground_inj_or_proj)
        if ground is not None:
            return ground
        if t.kind == "(":
            self.next()
            c = self.parse_coercion()
            self.eat(")")
            return ("crc", c, t)
        self.fail("a coercion")
        raise AssertionError

    def _ground_inj_or_proj(self):
        t = self.peek()
        g = self.type_atom()
        if not is_ground(g, self._fun_ctor()):
            raise ParseError(t.line, t.col, "a ground type tag", "non-ground type")
        if self.at("!"):
            self.next()
            return ("inj", g, t)
        if self.at("?"):
            self.next()
            self.eat("^")
            lbl = self.eat("IDENT", "a blame label")
            return ("proj", g, str(lbl.value), t)
        self.fail("'!' or '?^label' after a ground type tag")
        raise AssertionError

    def _canon(self, units: list, start: Token) -> Coercion:
        def bad(why: str):
            raise ParseError(start.line, start.col, "a canonical coercion", why)

        def one(u) -> Coercion:
            match u[0]:
                case "id":
                    return IdStar() if isinstance(u[1], Dyn) else Id(u[1])
                case "inj":
                    return InjSeq(Id(u[1]), u[1])
                case "proj":
                    return ProjSeq(u[1], u[2], Id(u[1]))
                case "bot" | "crc":
                    return u[1]
            raise AssertionError(u)

        if len(units) == 1:
            return one(units[0])
        if units[0][0] == "proj":
            body = self._canon(units[1:], start)
            if not is_intermediate(body, self._fun_ctor()):
                bad("a projection followed by a non-intermediate coercion")
            return ProjSeq(units[0][1], units[0][2], body)
        if units[-1][0] == "inj":
            g = self._canon(units[:-1], start)
            if not is_ground_crc(g, self._fun_ctor()):
                bad("an injection preceded by a non-ground coercion")
            return InjSeq(g, units[-1][1])
        bad("a sequence that is neither projection-first nor injection-last")
        raise AssertionError

    # -- terms

    def parse_expr(self) -> TermAny:
        t = self.peek()
        if t.kind == "\\":
            return self.parse_lambda()
        if t.kind == "let":
            if self.dialect != "lamsx":
                self.fail("a term (let is a lamsx form)")
            self.next()
            name = self.eat("IDENT", "a variable")
            self.eat("=")
            bound = self.parse_expr()
            self.eat("in")
            body = self.parse_expr()
            return X.Let(str(name.value), bound, body)
        if t.kind == "if":
            self.next()
            cond = self.parse_expr()
            self.eat("then")
            then = self.parse_expr()
            self.eat("else")
            els = self.parse_expr()
            return If(cond, then, els)
        return self.parse_compose()

    def parse_lambda(self) -> TermAny:
        self.eat("\\")
        if self.dialect == "lamsx":
            self.eat("(")
            x = self.eat("IDENT", "a variable")
            self.eat(":")
            a = self.parse_type()
            self.eat(",")
            k = self.eat("IDENT", "a continuation variable")
            self.eat(":")
            b = self.parse_type()
            self.eat(")")
            self.eat(".")
            return X.Abs2(str(x.value), a, str(k.value), b, self.parse_expr())
        x = self.eat("IDENT", "a variable")
        self.eat(":")
        a = self.parse_type()
        self.eat(".")
        return S.Abs(str(x.value), a, self.parse_expr())

    def parse_compose(self) -> TermAny:
        left, _ = self.parse_cmp()
        while self.dialect == "lamsx" and self.at(";;"):
            self.next()
            right, _ = self.parse_cmp()
            left = X.Compose(left, right)
        return left

    def _binary(self, sub: Callable, ops: tuple[str, ...], assoc: bool):
        left, bare_app = sub()
        first = True
        while self.at(*ops) and (assoc or first):
            if bare_app:
                self.fail("a parenthesized application as operator operand")
            op = self.next().kind
            right, right_bare = sub()
            if right_bare:
                self.fail("a parenthesized application as operator operand")
            node = Op(op, left, right)
            left, bare_app, first = node, False, False
        return left, bare_app

    def parse_cmp(self):
        return self._binary(self.parse_add, ("=", "<"), assoc=False)

    def parse_add(self):
        return self._binary(self.parse_mul, ("+", "-"), assoc=True)

    def parse_mul(self):
        return self._binary(self.parse_appchain, ("*",), assoc=True)

    def _try_suffix(self, subject: TermAny) -> Optional[TermAny]:
        # A '<' opens a coercion suffix only if a coercion (lams) or a term
        # (lamsx) followed by '>' parses; otherwise it is left for comparison.
        if self.at("<<"):
            saved = self.pos
            self.next()
            try:
                c = self.parse_coercion()
                self.eat(">>")
            except ParseError:
                self.pos = saved
                return None
            return CoercedVal(subject, c)
        if self.at("<"):
            saved = self.pos
            self.next()
            try:
                if self.dialect == "lams":
                    inner: object = self.parse_coercion()
                else:
                    inner = self.parse_expr()
                self.eat(">")
            except ParseError:
                self.pos = saved
                return None
            crc_app = S.CrcApp if self.dialect == "lams" else X.CrcApp
            return crc_app(subject, inner)
        return None

    def _at_atom_start(self) -> bool:
        return self.at("INT", "IDENT", "true", "false", "blame", "(")

    def parse_appchain(self):
        # Arguments are bare atoms: a suffix after the chain coerces the
        # whole chain, so a coerced argument must be parenthesized.
        chain = self.parse_atom()
        bare_app = False
        while True:
            if self.dialect == "lams" and self._at_atom_start():
                chain = S.App(chain, self.parse_atom())
                bare_app = True
                continue
            if self.dialect == "lamsx" and self.at("("):
                pair = self._try(self._parse_arg_pair)
                if pair is None:
                    self.fail("'(argument, continuation)' after a function")
                chain = X.App2(chain, pair[0], pair[1])
                bare_app = True
                continue
            suffixed = self._try_suffix(chain)
            if suffixed is not None:
                chain = suffixed
                continue
            return chain, bare_app

    def _parse_arg_pair(self):
        self.eat("(")
        a = self.parse_expr()
        self.eat(",")
        k = self.parse_expr()
        self.eat(")")
        return (a, k)

    def parse_atom(self) -> TermAny:
        t = self.peek()
        if self.dialect == "lamsx":
            lit = self._try(self._parse_crc_lit)
            if lit is not None:
                return lit
        if t.kind == "INT":
            self.next()
            return Const(int(t.value))
        if t.kind == "-" and self.peek(1).kind == "INT":
            self.next()
            v = self.next()
            return Const(-int(v.value))
        if t.kind == "true":
            self.next()
            return Const(True)
        if t.kind == "false":
            self.next()
            return Const(False)
        if t.kind == "IDENT":
            self.next()
            return Var(str(t.value))
        if t.kind == "blame":
            self.next()
            lbl = self.eat("IDENT", "a blame label")
            return Blame(str(lbl.value))
        if t.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.eat(")")
            return inner
        self.fail("a term")
        raise AssertionError

    def _parse_crc_lit(self) -> X.TermX:
        c = self.parse_coercion()
        return X.CrcLit(c)

    # -- programs

    def parse_program(self):
        if not self.at("letrec"):
            main = self.parse_expr()
            self.eat("EOF", "end of input")
            if self.dialect == "lams":
                return S.ProgramS((), main)
            return X.ProgramX((), main)
        self.next()
        raw_defs = []
        while True:
            raw_defs.append(self._parse_def())
            if self.at("and"):
                self.next()
                continue
            break
        self.eat("in")
        main = self.parse_expr()
        self.eat("EOF", "end of input")
        names = [d[0] for d in raw_defs]
        if len(set(names)) != len(names):
            raise ParseError(1, 1, "distinct definition names", "a duplicate")
        # a definition name that no binder shadows refers to the definition
        refs = {n: GlobalRef(n) for n in names}
        if self.dialect == "lams":
            defs = tuple(
                S.DefS(n, FunT(a, r), S.substitute(S.Abs(x, a, body), refs))
                for n, x, a, r, body in raw_defs
            )
            return S.ProgramS(defs, S.substitute(main, refs))
        defs = tuple(
            X.DefX(n, Fun2T(a, r), X.substitute(X.Abs2(x, a, k, r, body), refs))
            for n, x, a, k, r, body in raw_defs
        )
        return X.ProgramX(defs, X.substitute(main, refs))

    def _parse_def(self):
        f = self.eat("IDENT", "a definition name")
        self.eat("(")
        x = self.eat("IDENT", "a parameter")
        self.eat(":")
        a = self.parse_type()
        if self.dialect == "lamsx":
            self.eat(",")
            k = self.eat("IDENT", "a continuation parameter")
            self.eat(":")
            r = self.parse_type()
            self.eat(")")
            self.eat("=")
            body = self.parse_expr()
            return (str(f.value), str(x.value), a, str(k.value), r, body)
        self.eat(")")
        self.eat(":")
        r = self.parse_type()
        self.eat("=")
        body = self.parse_expr()
        return (str(f.value), str(x.value), a, r, body)


def parse_term(text: str, dialect: str) -> TermAny:
    p = Parser(text, dialect)
    t = p.parse_expr()
    p.eat("EOF", "end of input")
    return t


def parse_coercion(text: str, dialect: str) -> Coercion:
    p = Parser(text, dialect)
    c = p.parse_coercion()
    p.eat("EOF", "end of input")
    return c


def parse_type(text: str, dialect: str) -> Type:
    p = Parser(text, dialect)
    ty = p.parse_type()
    p.eat("EOF", "end of input")
    return ty


def parse_program(text: str, dialect: str):
    return Parser(text, dialect).parse_program()


def dialect_of_path(path: str) -> str:
    if path.endswith(".lamsx"):
        return "lamsx"
    if path.endswith(".lams"):
        return "lams"
    raise ValueError(f"cannot infer dialect from {path!r} (use .lams or .lamsx)")


# ---------------------------------------------------------------------------
# Pretty-printing


def print_type(a: Type) -> str:
    def go(t: Type, left_of_arrow: bool) -> str:
        match t:
            case Dyn():
                return "Dyn"
            case Base(name):
                return name
            case TyVar(uid):
                return f"'X{uid}"
            case FunT(x, y):
                s = f"{go(x, True)} -> {go(y, False)}"
            case Fun2T(x, y):
                s = f"{go(x, True)} => {go(y, False)}"
            case CrcT(x, y):
                s = f"{go(x, True)} ~> {go(y, False)}"
            case _:
                return "any"
        return f"({s})" if left_of_arrow else s

    return go(a, False)


def print_coercion(c: Coercion, dialect: str = "lams", sugar: bool = True) -> str:
    arrow = "->" if dialect == "lams" else "=>"

    def tag(g: Type) -> str:
        if isinstance(g, Base):
            return g.name
        return f"({print_type(g)})"

    def unit(x: Coercion) -> str:
        # parenthesize anything that is not a single token-ish unit
        s = go(x)
        if isinstance(x, (Id, IdStar, Fail)):
            return s
        if sugar and isinstance(x, InjSeq) and x.body == Id(x.ground):
            return s
        if sugar and isinstance(x, ProjSeq) and x.body == Id(x.ground):
            return s
        return f"({s})"

    def go(x: Coercion) -> str:
        match x:
            case IdStar():
                return "id{Dyn}"
            case Id(a):
                return "id{" + print_type(a) + "}"
            case InjSeq(g, ground):
                if sugar and g == Id(ground):
                    return f"{tag(ground)}!"
                return f"{unit(g)} ; {tag(ground)}!"
            case ProjSeq(ground, lbl, body):
                head = f"{tag(ground)}?^{lbl}"
                if sugar and body == Id(ground):
                    return head
                return f"{head} ; {unit(body)}"
            case Fun(s, t):
                return f"{unit(s)} {arrow} {unit(t)}"
            case Fail(g, lbl, h):
                return "bot{" + f"{print_type(g)}, {lbl}, {print_type(h)}" + "}"
        raise AssertionError(x)

    return go(c)


_ATOM = 0
_SUFFIX = 1
_APP = 2
_MUL = 3
_ADD = 4
_CMP = 5
_COMPOSE = 6
_TOP = 7

_OP_LEVEL = {"*": _MUL, "+": _ADD, "-": _ADD, "=": _CMP, "<": _CMP}


def _has_cmp_root(t) -> bool:
    return isinstance(t, Op) and t.op in ("=", "<")


def _app_rooted(t) -> bool:
    # Chains rooted in an application stay "applications" through suffixes,
    # and those cannot appear bare as operator operands.
    match t:
        case S.App() | X.App2():
            return True
        case S.CrcApp(sub, _) | X.CrcApp(sub, _) | CoercedVal(sub, _):
            return _app_rooted(sub)
        case _:
            return False


def print_term(t: TermAny, dialect: str) -> str:
    def wrap(s: str, level: int, limit: int) -> str:
        return f"({s})" if level > limit else s

    def go(m, limit: int) -> str:
        match m:
            case Const(v):
                if v is True:
                    return "true"
                if v is False:
                    return "false"
                s = str(v)
                return wrap(s, _SUFFIX if s.startswith("-") else _ATOM, limit)
            case Var(x) | GlobalRef(x):
                return x
            case Blame(p):
                return wrap(f"blame {p}", _TOP, limit)
            case S.Abs(x, a, body):
                s = f"\\{x}:{print_type(a)}. {go(body, _TOP)}"
                return wrap(s, _TOP, limit)
            case X.Abs2(x, a, k, b, body):
                s = f"\\ ({x}:{print_type(a)}, {k}:{print_type(b)}). {go(body, _TOP)}"
                return wrap(s, _TOP, limit)
            case Op(op, l, r):
                lvl = _OP_LEVEL[op]
                llim = (lvl - 1 if lvl == _CMP else lvl) if not _app_rooted(l) else _ATOM
                rlim = (lvl - 1) if not _app_rooted(r) else _ATOM
                s = f"{go(l, llim)} {op} {go(r, rlim)}"
                return wrap(s, lvl, limit)
            case S.App(f, a):
                s = f"{go(f, _APP)} {go(a, _ATOM)}"
                return wrap(s, _APP, limit)
            case X.App2(f, a, k):
                s = f"{go(f, _SUFFIX)}({go(a, _TOP)}, {go(k, _TOP)})"
                return wrap(s, _APP, limit)
            case X.Let(x, b, body):
                s = f"let {x} = {go(b, _TOP)} in {go(body, _TOP)}"
                return wrap(s, _TOP, limit)
            case X.Compose(l, r):
                s = f"{go(l, _COMPOSE)} ;; {go(r, _CMP)}"
                return wrap(s, _COMPOSE, limit)
            case S.CrcApp(sub, c):
                s = f"{go(sub, _APP)}<{print_coercion(c, dialect)}>"
                return wrap(s, _SUFFIX if not isinstance(sub, S.App) else _APP, limit)
            case X.CrcApp(sub, c):
                # comparisons inside the angle brackets would swallow the
                # closing '>', so cap the slot below the comparison level
                s = f"{go(sub, _APP)}<{go(c, _COMPOSE if not _has_cmp_root(c) else _ADD)}>"
                return wrap(s, _SUFFIX if not isinstance(sub, X.App2) else _APP, limit)
            case CoercedVal(sub, c):
                s = f"{go(sub, _SUFFIX)}<<{print_coercion(c, dialect)}>>"
                return wrap(s, _SUFFIX, limit)
            case X.CrcLit(c):
                s = print_coercion(c, dialect)
                # sequences and arrows contain spaces; keep them atomic
                return wrap(s, _ATOM if " " not in s else _SUFFIX, limit)
            case If(c, a, b):
                s = f"if {go(c, _TOP)} then {go(a, _TOP)} else {go(b, _TOP)}"
                return wrap(s, _TOP, limit)
        raise AssertionError(m)

    return go(t, _TOP)


def print_program(p) -> str:
    dialect = "lams" if isinstance(p, S.ProgramS) else "lamsx"
    if not p.defs:
        return print_term(p.main, dialect)
    parts = []
    for d in p.defs:
        f = d.fun
        if dialect == "lams":
            head = f"{d.name} ({f.var}:{print_type(d.ty.arg)}) : {print_type(d.ty.res)}"
        else:
            head = f"{d.name} ({f.var}:{print_type(d.ty.arg)}, {f.kvar}:{print_type(d.ty.res)})"
        parts.append(f"{head} = {print_term(f.body, dialect)}")
    joined = "\nand ".join(parts)
    return f"letrec {joined}\nin {print_term(p.main, dialect)}"


def format_trace_line(n: int, kind: str, rule: str, term: TermAny, dialect: str) -> str:
    return f"step {n} {kind} {rule}: {print_term(term, dialect)}"


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _ty_eq(a: Type, b: Type, tymap: dict[int, int]) -> bool:
    """Equality of two types under the rigid-variable bijection ``tymap``, extended as needed."""
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is TyVar:
        u, v = a.uid, b.uid
        if u in tymap:
            return tymap[u] == v
        if v in tymap.values():
            return False
        tymap[u] = v
        return True
    if cls is FunT or cls is Fun2T:
        return _ty_eq(a.arg, b.arg, tymap) and _ty_eq(a.res, b.res, tymap)
    if cls is CrcT:
        return _ty_eq(a.src, b.src, tymap) and _ty_eq(a.tgt, b.tgt, tymap)
    return a == b


def _crc_eq(c: Coercion, d: Coercion, tymap: dict[int, int]) -> bool:
    cls = c.__class__
    if cls is not d.__class__:
        return False
    if cls is InjSeq:
        return _crc_eq(c.body, d.body, tymap) and _ty_eq(c.ground, d.ground, tymap)
    if cls is Id:
        return _ty_eq(c.ty, d.ty, tymap)
    if cls is ProjSeq:
        return (
            _ty_eq(c.ground, d.ground, tymap)
            and c.label == d.label
            and _crc_eq(c.body, d.body, tymap)
        )
    if cls is Fun:
        return _crc_eq(c.arg, d.arg, tymap) and _crc_eq(c.res, d.res, tymap)
    if cls is Fail:
        return (
            _ty_eq(c.src_tag, d.src_tag, tymap)
            and c.label == d.label
            and _ty_eq(c.tgt_tag, d.tgt_tag, tymap)
        )
    return cls is IdStar


# Nodes whose one subterm is ``subject`` and whose coercion is ``crc``.
_COERCED = frozenset((S.CrcApp, CoercedVal))
# Nodes whose fields are all subterms.
_PLAIN = frozenset((S.App, If, X.App2, X.Compose, X.CrcApp))
# The binders, each with its type-valued fields.
_BINDERS = {S.Abs: ("var_ty",), X.Abs2: ("var_ty", "k_src"), X.Let: ()}
_COERCIONS = frozenset((IdStar, Id, ProjSeq, InjSeq, Fun, Fail))


def alpha_eq(m1: TermAny, m2: TermAny) -> bool:
    """Whether two terms of one dialect differ only in bound names and rigid type variables.

    Rigid type variables must correspond one to one throughout the pair.
    The walk keeps an explicit stack, so deep terms need no recursion.  A
    subtree both sides hold as one object, with no binder in scope, is
    not walked pair by pair; its rigid variables are checked at the end,
    and only when the rest of the pair maps some variable.
    """
    tymap: dict[int, int] = {}
    shared: list = []
    return _alpha_walk(m1, m2, tymap, shared) and _shared_fit(shared, tymap)


def _alpha_walk(m1: TermAny, m2: TermAny, tymap: dict[int, int], shared: list) -> bool:
    """:func:`alpha_eq` of ``m1`` and ``m2`` under ``tymap``, apart from their shared parts.

    Each subtree (or coercion) both sides hold as one object, outside
    every binder, is put on ``shared`` and not walked: its free names are
    the same names on both sides, and whether its rigid variables fit the
    bijection is left to :func:`_shared_fit`, once the bijection is final.
    """
    # Each entry is a pair of subterms and the binders in scope, innermost
    # first, as a linked list of (left name, right name, outer binders).
    stack: list = [(m1, m2, None)]
    pop = stack.pop
    push = stack.append
    defer = shared.append
    while stack:
        a, b, env = pop()
        if a is b and env is None:
            defer(a)
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Var:
            x, y = a.name, b.name
            # the innermost binder of either name decides
            while env is not None:
                l, r, env = env
                if l == x or r == y:
                    if l != x or r != y:
                        return False
                    break
            else:
                if x != y:
                    return False
        elif cls is Op:
            if a.op != b.op:
                return False
            push((a.right, b.right, env))
            push((a.left, b.left, env))
        elif cls in _PLAIN:
            for k in cls._kids_rev:
                push((getattr(a, k), getattr(b, k), env))
        elif cls in _COERCED:
            c, d = a.crc, b.crc
            if c is d:
                defer(c)
            elif not _crc_eq(c, d, tymap):
                return False
            push((a.subject, b.subject, env))
        elif cls is Const:
            u, v = a.val, b.val
            if u != v or u.__class__ is not v.__class__:
                return False
        elif cls in _BINDERS:
            for k in _BINDERS[cls]:
                if not _ty_eq(getattr(a, k), getattr(b, k), tymap):
                    return False
            # the body sees the bound names, the later of ``_binds`` innermost
            inner = env
            for k in cls._binds:
                inner = (getattr(a, k), getattr(b, k), inner)
            for k in cls._kids_rev:
                push((getattr(a, k), getattr(b, k), inner if k == "body" else env))
        elif cls is X.CrcLit:
            c, d = a.crc, b.crc
            if c is d:
                defer(c)
            elif not _crc_eq(c, d, tymap):
                return False
        elif cls is GlobalRef:
            if a.name != b.name:
                return False
        elif cls is Blame:
            if a.label != b.label:
                return False
        else:
            return False
    return True


def _shared_fit(shared: list, tymap: dict[int, int]) -> bool:
    """Whether the rigid variables of the ``shared`` subtrees and coercions fit ``tymap``.

    Both sides of a shared part hold the same variables, so each must map
    to itself.  With ``tymap`` empty nothing else is mapped, and the
    identity fits.  Otherwise each variable is checked against ``tymap``,
    which grows as :func:`_ty_eq` meets new ones; the answer is whether
    all the pairs form one bijection, so the order does not matter.
    ``shared`` is used up.
    """
    if not tymap:
        return True
    seen: set[int] = set()
    stack = shared
    pop = stack.pop
    push = stack.append
    while stack:
        t = pop()
        cls = t.__class__
        if cls in _COERCIONS:
            if not _crc_eq(t, t, tymap):
                return False
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        for k in _BINDERS.get(cls, ()):
            if not _ty_eq(getattr(t, k), getattr(t, k), tymap):
                return False
        if cls in _COERCED or cls is X.CrcLit:
            push(t.crc)
        for k in cls._kids:
            push(getattr(t, k))
    return True


def alpha_eq_program(p1, p2) -> bool:
    """:func:`alpha_eq` of two programs, definition by definition, then ``main``.

    Rigid type variables are global to a program, so one bijection spans
    the signatures, the definitions and ``main``.
    """
    if isinstance(p1, S.ProgramS) != isinstance(p2, S.ProgramS):
        return False
    if len(p1.defs) != len(p2.defs):
        return False
    tymap: dict[int, int] = {}
    shared: list = []
    for a, b in zip(p1.defs, p2.defs):
        if (
            a.name != b.name
            or not _ty_eq(a.ty, b.ty, tymap)
            or not _alpha_walk(a.fun, b.fun, tymap, shared)
        ):
            return False
    return _alpha_walk(p1.main, p2.main, tymap, shared) and _shared_fit(shared, tymap)
