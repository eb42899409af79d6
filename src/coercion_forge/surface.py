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

The parser decides each choice where it meets it and never backs up.
`<<` always opens a suffix.  In lams, `<` opens a suffix if `id`, `bot`,
`Dyn`, `Int` or `Bool` follows, perhaps behind a run of `(` (no term
starts so), and is a comparison otherwise.  In lamsx both readings of `<`
go on with a term, read once: `>` after it makes a suffix, anything else
a comparison, with a `;;` chain read meanwhile re-associated onto its
first operand (`x < a ;; b` is `(x < a) ;; b`, `x < a ;; b>` is
`x<a ;; b>`).  A `(` whose `)` is followed by `!` or `?` opens a type
tag, as in `(Dyn => Dyn)!`.  In lamsx a coercion literal starts at such
a tag or at `id`, `bot`, `Dyn`, `Int` or `Bool`; another `(` opens a
term, which goes on as a coercion if it held a coercion literal and `;`
or `=>` follows (`((id{Int}) ; Int!)`), and a `(` after a function
opens its `(argument, continuation)` pair.  Open forms wait on an
explicit stack, so nesting costs no Python recursion.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

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
from .types import BOOL, DYN, INT, Base, CrcT, Dyn, FunT, Fun2T, TyVar, Type, is_ground, resolved
from . import lam_s as S
from . import lam_sx as X
from .records import record
from .terms import Blame, CoercedVal, Const, Def, GlobalRef, If, Op, Var


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(f"line {line}:{col}: expected {expected}, found {found}")


# ---------------------------------------------------------------------------
# Lexer


@record
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
_DIGITS = "0123456789"


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(line, col, "a shorter integer literal", f"{len(digits)} digits") from None


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i, col = i + 1, col + 1
            if ch == "\n":
                line, col = line + 1, 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(Token("INT", _int(text[i:j], line, col), line, col))
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


TermAny = S.TermS | X.TermX

_BASES = {"Dyn": DYN, "Int": INT, "Bool": BOOL}
# the lamsx-only type arrows, with what each builds
_ARROWS = {"=>": (Fun2T, "continuation function types"), "~>": (CrcT, "coercion types")}
# tokens that start a coercion and no term
_CRC_START = ("id", "bot", "Dyn", "Int", "Bool")
# binding levels, tightest first, for both parsing and printing; ';;' is lamsx only
_ATOM, _SUFFIX, _APP, _MUL, _ADD, _CMP, _COMPOSE, _TOP = range(8)
_OP_LEVEL = {"*": _MUL, "+": _ADD, "-": _ADD, "=": _CMP, "<": _CMP, ";;": _COMPOSE}
# the token that ends each open form's first expression
_CLOSER = {"(": ")", "pair": ",", "pair2": ")", "let": "in", "if": "then", "then": "else"}
_BARE = "a parenthesized application as operator operand"
_CHAINED = "a parenthesized comparison as comparison operand"


def _error(t: Token, expected: str) -> ParseError:
    found = "end of input" if t.kind == "EOF" else repr(str(t.value))
    return ParseError(t.line, t.col, expected, found)


class Parser:
    def __init__(self, text: str, dialect: str):
        if dialect not in ("lams", "lamsx"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self.toks = tokenize(text)
        self.pos = 0
        self.dialect = dialect
        self.closing, opened = {}, []  # the index of each '(' token's matching ')'
        for i, t in enumerate(self.toks):
            if t.kind == "(":
                opened.append(i)
            elif t.kind == ")" and opened:
                self.closing[opened.pop()] = i

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

    def fail(self, expected: str, t: Optional[Token] = None) -> None:
        raise _error(t or self.peek(), expected)

    # -- types

    def parse_type(self) -> Type:
        left = self.type_atom()
        k = self.peek().kind
        if k == "->":
            self.next()
            return FunT(left, self.parse_type())
        if k in _ARROWS:
            ctor, what = _ARROWS[k]
            if self.dialect != "lamsx":
                self.fail(f"'->' ({what} need the lamsx dialect)")
            self.next()
            return ctor(left, self.parse_type())
        return left

    def type_atom(self) -> Type:
        t = self.peek()
        if t.kind in _BASES:
            self.next()
            return _BASES[t.kind]
        if t.kind == "'":
            if self.dialect != "lamsx":
                self.fail("a type")
            self.next()
            name = self.eat("IDENT", "a rigid type variable like 'X0")
            word = str(name.value)
            if not (word[:1] == "X" and word[1:].isascii() and word[1:].isdigit()):
                raise ParseError(name.line, name.col, "a rigid type variable like 'X0", word)
            return TyVar(_int(word[1:], name.line, name.col))
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

    def _at_tag(self) -> bool:
        """Whether a ``(`` here opens a type tag: ``!`` or ``?`` follows its ``)``,
        as it follows no parenthesized coercion or term."""
        close = self.closing.get(self.pos)
        return close is not None and self.peek(close + 1 - self.pos).kind in ("!", "?")

    def parse_coercion(self, first=None) -> Coercion:
        """A coercion; ``first``, when given, is its first unit, already read."""
        units = [first or self.crc_unit()]
        while self.at(";"):
            self.next()
            units.append(self.crc_unit())
        t = units[0][-1]
        left = self._canon(units, t)
        if self.at("->" if self.dialect == "lams" else "=>"):
            self.next()
            right = self.parse_coercion()
            if is_identity(left) and is_identity(right):
                why = "an identity arrow coercion"
                raise ParseError(t.line, t.col, "a canonical coercion", why)
            return Fun(left, right)
        return left

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
        if t.kind == "(" and not self._at_tag():
            self.next()
            c = self.parse_coercion()
            self.eat(")")
            return ("crc", c, t)
        if t.kind not in _BASES and t.kind not in ("'", "("):
            self.fail("a coercion")
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
        """The canonical coercion ``units`` spell: projections come off the front, else
        injections off the back, down to one unit, then layers go on it, each checked."""
        def bad(why: str):
            raise ParseError(start.line, start.col, "a canonical coercion", why)

        i, j = 0, len(units)
        layers = []
        while j - i > 1:
            if units[i][0] == "proj":
                layers.append(units[i])
                i += 1
            elif units[j - 1][0] == "inj":
                j -= 1
                layers.append(units[j])
            else:
                bad("a sequence that is neither projection-first nor injection-last")
        kind, g, *_ = units[i]
        if kind in ("inj", "proj"):  # a layer on the identity at its tag
            c = Id(g)
            layers.append(units[i])
        else:  # for "bot" and "crc", g is the coercion
            c = (IdStar() if isinstance(g, Dyn) else Id(g)) if kind == "id" else g
        for kind, g, *rest in reversed(layers):
            if kind == "proj":
                if not is_intermediate(c, self._fun_ctor()):
                    bad("a projection followed by a non-intermediate coercion")
                c = ProjSeq(g, rest[0], c)
            else:
                if not is_ground_crc(c, self._fun_ctor()):
                    bad("an injection preceded by a non-ground coercion")
                c = InjSeq(c, g)
        return c

    # -- terms

    def parse_expr(self) -> TermAny:
        """One expression, read with an explicit stack of the forms still open.  A frame is
        ``(kind, ops, subject, bare, token, data)``: a key of ``_CLOSER`` or ``wrap`` (which
        ends with its expression), the enclosing expression's pending operators, the term
        the form applies to and its bareness, the opening token, and what is read so far."""
        lamsx = self.dialect == "lamsx"
        frames: list = []
        # the current expression's pending (left operand, operator, token); an
        # undecided lamsx '<' is ``(subject, "<?", [token, bare, fault])``
        ops: list = []
        cur, bare = None, False  # its last operand, None while one is due, and bareness
        while True:
            t = self.peek()
            k = t.kind
            if cur is None:
                if (not ops or ops[-1][1] == "<?") and k in ("\\", "let", "if"):
                    self._note(ops, t, "a term")
                    frames.append(self._open(t, ops))
                    ops = []
                elif k == "(" and not (lamsx and self._at_tag()):
                    self.next()
                    frames.append(("(", ops, None, False, t, None))
                    ops = []
                else:
                    cur, bare = self._atom(), False
                continue
            if k == "(":  # a lams argument in parentheses, or a lamsx argument pair
                self.next()
                frames.append(("pair" if lamsx else "(", ops, cur, bare, t, None))
                ops, cur = [], None
            elif not lamsx and k in ("INT", "IDENT", "true", "false", "blame"):
                cur, bare = S.App(cur, self._atom()), True
            elif k == "<<":
                self.next()
                cur = CoercedVal(cur, self.parse_coercion())
                self.eat(">>")
            elif k == "<" and lamsx:
                self.next()
                ops.append((cur, "<?", [t, bare, None]))
                cur = None
            elif k == "<" and self._crc_follows():
                self.next()
                cur = S.CrcApp(cur, self.parse_coercion())
                self.eat(">")
            elif k in _OP_LEVEL and (lamsx or k != ";;"):
                self._operator(ops, cur, bare, k, t)
                self.next()
                cur = None
            else:
                m = self._reduce(ops, cur, bare, t, k == ">")
                if ops:  # the '>' ends what followed an undecided '<': a suffix
                    subject, _, (_, bare, _) = ops.pop()
                    self.next()
                    cur = X.CrcApp(subject, m)
                elif not frames:
                    return m
                else:
                    ops, cur, bare = self._close(frames, m)

    def _close(self, frames, m):
        """Hand the expression ``m`` to the top open form.  Returns the pending operators,
        operand (None if the form reads another expression) and bareness to go on with."""
        kind, ops, subject, bare, tok, data = frames.pop()
        if kind == "wrap":
            return ops, data(m), False
        self.eat(_CLOSER[kind])
        if kind == "(":
            if subject is not None:
                return ops, S.App(subject, m), True
            if isinstance(m, X.CrcLit) and self.at(";", "=>"):
                return ops, X.CrcLit(self.parse_coercion(("crc", m.crc, tok))), False
            return ops, m, False
        if kind == "pair2":
            return ops, X.App2(subject, data, m), True
        if kind in ("pair", "if"):
            frames.append(("pair2" if kind == "pair" else "then", ops, subject, bare, tok, m))
        else:
            make = partial(X.Let, data, m) if kind == "let" else partial(If, data, m)
            frames.append(("wrap", ops, None, False, tok, make))
        return [], None, False

    def _open(self, t: Token, ops: list):
        """The frame of the ``\\``, ``let`` or ``if`` at ``t``, with its head read."""
        if t.kind == "let" and self.dialect != "lamsx":
            self.fail("a term (let is a lamsx form)")
        self.next()
        if t.kind == "if":
            return ("if", ops, None, False, t, None)
        if t.kind == "let":
            name = self.eat("IDENT", "a variable")
            self.eat("=")
            return ("let", ops, None, False, t, str(name.value))
        if self.dialect == "lams":
            x, a = self._binding("a variable")
            make = partial(S.Abs, x, a)
        else:
            self.eat("(")
            x, a = self._binding("a variable")
            self.eat(",")
            make = partial(X.Abs2, x, a, *self._binding("a continuation variable"))
            self.eat(")")
        self.eat(".")
        return ("wrap", ops, None, False, t, make)

    def _binding(self, what: str) -> tuple[str, Type]:
        x = self.eat("IDENT", what)
        self.eat(":")
        return str(x.value), self.parse_type()

    def _atom(self) -> TermAny:
        """An operand that opens no form: a constant, name, blame or coercion literal."""
        t = self.peek()
        k = t.kind
        if self.dialect == "lamsx" and (k in _CRC_START or self._at_tag()):
            return X.CrcLit(self.parse_coercion())
        if k == "-" and self.peek(1).kind == "INT":
            self.next()
            return Const(-self.next().value)
        if k not in ("INT", "true", "false", "IDENT", "blame"):
            self.fail("a term")
        self.next()
        if k == "IDENT":
            return Var(str(t.value))
        if k == "blame":
            return Blame(str(self.eat("IDENT", "a blame label").value))
        return Const(t.value if k == "INT" else k == "true")

    def _crc_follows(self) -> bool:
        """Whether a coercion, perhaps behind a run of ``(``, follows the ``<`` here."""
        i = 1
        while self.peek(i).kind == "(":
            i += 1
        return self.peek(i).kind in _CRC_START

    def _operator(self, ops, cur, bare, kind, t) -> None:
        """Push the operator ``kind`` at ``t`` after ``cur``, once pending ones that bind as
        tightly take their right operands; ``;;`` runs stay flat, and nothing passes a ``<?``."""
        p = _OP_LEVEL[kind]
        if bare and (p < _COMPOSE or ops and _OP_LEVEL.get(ops[-1][1], _TOP) < _COMPOSE):
            self.fail(_BARE, t)
        while ops and ops[-1][1] not in (";;", "<?") and _OP_LEVEL[ops[-1][1]] <= p:
            left, op, _ = ops.pop()
            if p == _CMP == _OP_LEVEL[op]:
                self.fail(_CHAINED, t)
            cur, bare = Op(op, left, cur), False
        # the first operand after an undecided '<' grows a comparison, or ends
        # bare: either rules out reading that '<' as a comparison
        if p == _CMP or bare:
            self._note(ops, t, _CHAINED if p == _CMP else _BARE)
        ops.append((cur, kind, t))

    def _reduce(self, ops, cur, bare, t, stop: bool):
        """End the expression at ``t``: apply the pending operators to ``cur``.  An undecided
        ``<`` is a comparison with the first operand after it, unless ``stop`` keeps the top."""
        if bare and ops and _OP_LEVEL.get(ops[-1][1], _TOP) < _COMPOSE:
            self.fail(_BARE, t)
        if bare:
            self._note(ops, t, _BARE)
        run = [cur]  # the operands of the ';;' run being read, the last first
        while ops and not (stop and ops[-1][1] == "<?"):
            left, op, info = ops.pop()
            if op == ";;":
                run.append(left)
            elif op != "<?":
                run[-1] = Op(op, left, run[-1])
            else:
                tok, left_bare, fault = info
                while ops and _OP_LEVEL.get(ops[-1][1], _TOP) < _CMP:
                    below, op, _ = ops.pop()
                    left = Op(op, below, left)
                if left_bare:
                    self.fail(_BARE, tok)
                if ops and ops[-1][1] in ("=", "<"):
                    self.fail(_CHAINED, tok)
                if fault:
                    raise fault
                self._note(ops, tok, _CHAINED)
                run[-1] = Op("<", left, run[-1])
        m = run.pop()
        while run:
            m = X.Compose(m, run.pop())
        return m

    @staticmethod
    def _note(ops, t: Token, expected: str) -> None:
        """Keep a fault at ``t`` for reading an undecided ``<`` atop ``ops`` as a comparison."""
        if ops and ops[-1][1] == "<?" and ops[-1][2][2] is None:
            ops[-1][2][2] = _error(t, expected)

    # -- programs

    def parse_program(self):
        lams = self.dialect == "lams"
        raw_defs = []
        if self.at("letrec"):
            # the first pass reads 'letrec', each later one 'and'
            while not raw_defs or self.at("and"):
                self.next()
                f = self.eat("IDENT", "a definition name")
                if any(d[0] == f.value for d in raw_defs):
                    raise ParseError(f.line, f.col, "distinct definition names", "a duplicate")
                self.eat("(")
                x, a = self._binding("a parameter")
                if lams:
                    self.eat(")")
                    self.eat(":")
                    r = self.parse_type()
                    ty, make = FunT(a, r), partial(S.Abs, x, a)
                else:
                    self.eat(",")
                    k, r = self._binding("a continuation parameter")
                    self.eat(")")
                    ty, make = Fun2T(a, r), partial(X.Abs2, x, a, k, r)
                self.eat("=")
                raw_defs.append((str(f.value), ty, make(self.parse_expr())))
            self.eat("in")
        main = self.parse_expr()
        self.eat("EOF", "end of input")
        mod, program = (S, S.ProgramS) if lams else (X, X.ProgramX)
        # a definition name that no binder shadows refers to the definition
        refs = {d[0]: GlobalRef(d[0]) for d in raw_defs}
        defs = tuple(Def(n, ty, mod.substitute(fun, refs)) for n, ty, fun in raw_defs)
        return program(defs, mod.substitute(main, refs) if refs else main)


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
        match resolved(t):
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


def print_coercion(c: Coercion, dialect: str = "lams") -> str:
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
        if isinstance(x, (InjSeq, ProjSeq)) and x.body == Id(x.ground):
            return s
        return f"({s})"

    def go(x: Coercion) -> str:
        match x:
            case IdStar():
                return "id{Dyn}"
            case Id(a):
                return "id{" + print_type(a) + "}"
            case InjSeq(g, ground):
                if g == Id(ground):
                    return f"{tag(ground)}!"
                return f"{unit(g)} ; {tag(ground)}!"
            case ProjSeq(ground, lbl, body):
                head = f"{tag(ground)}?^{lbl}"
                if body == Id(ground):
                    return head
                return f"{head} ; {unit(body)}"
            case Fun(s, t):
                return f"{unit(s)} {arrow} {unit(t)}"
            case Fail(g, lbl, h):
                return "bot{" + f"{print_type(g)}, {lbl}, {print_type(h)}" + "}"
        raise AssertionError(x)

    return go(c)


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
                # closing '>', so cap the slot below the comparison level;
                # '>>' lexes as one token, so a slot that ends in '>' is
                # parenthesized
                cmp_root = isinstance(c, Op) and c.op in ("=", "<")
                k = go(c, _ADD if cmp_root else _COMPOSE)
                if k.endswith(">"):
                    k = f"({k})"
                s = f"{go(sub, _APP)}<{k}>"
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


def alpha_eq(m1: TermAny, m2: TermAny) -> bool:
    """Whether two terms of one dialect differ only in bound names and rigid type variables.

    Rigid type variables must correspond one to one throughout the pair.
    The walk keeps an explicit stack, so deep terms need no recursion.  A
    subtree both sides hold as one object, with no binder in scope, is
    first not walked pair by pair; if that walk maps a rigid variable, the
    pair is walked again, whole.
    """
    tymap: dict[int, int] = {}
    if not _alpha_walk(m1, m2, tymap, True):
        return False
    return not tymap or _alpha_walk(m1, m2, {}, False)


def _alpha_walk(m1: TermAny, m2: TermAny, tymap: dict[int, int], skip: bool) -> bool:
    """:func:`alpha_eq` of ``m1`` and ``m2`` under ``tymap``, which it extends.

    With ``skip``, each subtree (or coercion) both sides hold as one
    object, outside every binder, is not walked: its free names are the
    same names on both sides, and its rigid variables, the same variables.
    So a False stands, and a True holds if ``tymap`` maps no variable, for
    then the identity on the skipped parts' variables extends it.
    """
    # Each entry is a pair of subterms and the binders in scope, innermost
    # first, as a linked list of (left name, right name, outer binders).
    stack: list = [(m1, m2, None)]
    pop = stack.pop
    push = stack.append
    while stack:
        a, b, env = pop()
        if a is b and env is None and skip:
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
            if not (c is d and skip) and not _crc_eq(c, d, tymap):
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
            if not (c is d and skip) and not _crc_eq(c, d, tymap):
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


def alpha_eq_program(p1, p2) -> bool:
    """:func:`alpha_eq` of two programs, definition by definition, then ``main``.

    Rigid type variables are global to a program, so one bijection spans
    the signatures, the definitions and ``main``, and each is walked whole.
    """
    if isinstance(p1, S.ProgramS) != isinstance(p2, S.ProgramS):
        return False
    if len(p1.defs) != len(p2.defs):
        return False
    tymap: dict[int, int] = {}
    for a, b in zip(p1.defs, p2.defs):
        if (
            a.name != b.name
            or not _ty_eq(a.ty, b.ty, tymap)
            or not _alpha_walk(a.fun, b.fun, tymap, False)
        ):
            return False
    return _alpha_walk(p1.main, p2.main, tymap, False)
