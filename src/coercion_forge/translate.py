"""Coercion-passing-style translation from the source calculus to the
continuation-coercion calculus.

Every function gains a second parameter: the coercion the caller would
have applied to the result.  A term is translated together with the
continuation coercion K applied to its value; K is always a variable or a
coercion literal.  The value translation avoids wrapping translated values
in administrative identity coercions.

Static types guide the translation (identity continuations must be minted
at the translated term's type), so it consumes typing derivations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq, is_identity
from .types import Dyn, FunT, Fun2T, Type
from . import lam_s as S
from . import lam_sx as X
from .terms import Blame, CoercedVal, Const, GlobalRef, If, Op, Typed, Var, keep_last, walk


def psi_type(a: Type) -> Type:
    match a:
        case FunT(x, y):
            return Fun2T(psi_type(x), psi_type(y))
        case _:
            return a


def psi_crc(c: Coercion) -> Coercion:
    match c:
        case IdStar():
            return c
        case Id(a):
            return Id(psi_type(a))
        case ProjSeq(g, p, i):
            return ProjSeq(psi_type(g), p, psi_crc(i))
        case InjSeq(g, tag):
            return InjSeq(psi_crc(g), psi_type(tag))
        case Fun(s, t):
            return Fun(psi_crc(s), psi_crc(t))
        case Fail(g, p, h):
            # failure tags are ground types and must live in the target
            # calculus for the translated coercion to stay well formed
            return Fail(psi_type(g), p, psi_type(h))
    raise AssertionError(c)


def identity_at(a: Type) -> Coercion:
    if isinstance(a, Dyn):
        return IdStar()
    return Id(a)


@dataclass
class _NameSupply:
    """Mints continuation variables k0, k1, ... distinct from program names."""

    avoid: set[str]
    counter: int = 0

    def fresh(self) -> str:
        while True:
            name = f"k{self.counter}"
            self.counter += 1
            if name not in self.avoid:
                self.avoid.add(name)
                return name


def _all_names(t: S.TermS) -> set[str]:
    """Every variable, binder and definition name in ``t``."""
    return {
        m.var if m.__class__ is S.Abs else m.name
        for m in walk(t)
        if m.__class__ in (Var, S.Abs, GlobalRef)
    }


@dataclass
class Translator:
    supply: _NameSupply
    rename: dict[str, str] = field(default_factory=dict)
    optimize_op: bool = False

    def value(self, v: Typed) -> X.TermX:
        match v.term:
            case Const() | Var():
                return v.term
            case GlobalRef(f):
                return GlobalRef(self.rename.get(f, f))
            case S.Abs(x, a, _):
                body = v.children[0]
                kv = self.supply.fresh()
                return X.Abs2(x, psi_type(a), kv, psi_type(body.ty), self.k(body, Var(kv)))
            case CoercedVal(_, d):
                return CoercedVal(self.value(v.children[0]), psi_crc(d))
        raise AssertionError(v.term)

    def k(self, m: Typed, cont: X.TermX) -> X.TermX:
        term = m.term
        if S.is_value(term):
            return X.CrcApp(self.value(m), cont)  # Tr-Val
        match term:
            case Op(op, _, _):
                body = Op(op, self.c(m.children[0]), self.c(m.children[1]))
                if self.optimize_op and _is_identity_lit(cont):
                    return body
                return X.CrcApp(body, cont)  # Tr-Op
            case S.App(_, _):
                return X.App2(self.c(m.children[0]), self.c(m.children[1]), cont)  # Tr-App
            case S.CrcApp(_, s):
                kv = self.supply.fresh()
                bound = X.Compose(X.CrcLit(psi_crc(s)), cont)
                return X.Let(kv, bound, self.k(m.children[0], Var(kv)))  # Tr-Crc
            case Blame():
                return term  # Tr-Blame
            case If(_, _, _):
                ct, mt, nt = m.children
                return If(self.c(ct), self.k(mt, cont), self.k(nt, cont))  # Tr-If
        raise AssertionError(term)

    def c(self, m: Typed) -> X.TermX:
        if S.is_value(m.term):
            return self.value(m)  # TrC-Val
        if isinstance(m.term, S.CrcApp):
            return self.k(m.children[0], X.CrcLit(psi_crc(m.term.crc)))  # TrC-Crc
        return self.k(m, X.CrcLit(identity_at(psi_type(m.ty))))  # TrC-Else


def _is_identity_lit(t: X.TermX) -> bool:
    return isinstance(t, X.CrcLit) and is_identity(t.crc)


def _make_translator(
    avoid: set[str], rename: Optional[dict[str, str]] = None, optimize_op: bool = False
) -> Translator:
    return Translator(_NameSupply(set(avoid)), rename or {}, optimize_op)


def trans_term(typed: Typed, cont: Optional[X.TermX] = None) -> X.TermX:
    """Translate one typed term; with no continuation, the top level stays bare."""
    tr = _make_translator(_all_names(typed.term))
    if cont is None:
        return tr.c(typed)
    return tr.k(typed, cont)


@keep_last
def def_rename(p: S.ProgramS) -> tuple[dict[str, str], set[str]]:
    """Continuation-style names for the definitions, plus every name in use.

    The answer is kept for the next call; no caller changes the dict or set.
    """
    avoid = _all_names(p.main) | set(p.def_types())
    for d in p.defs:
        avoid |= _all_names(d.fun)
    rename: dict[str, str] = {}
    for d in p.defs:
        new = d.name + "k"
        while new in avoid:
            new += "k"
        avoid.add(new)
        rename[d.name] = new
    return rename, avoid


def trans_program(p: S.ProgramS, optimize_op: bool = False) -> X.ProgramX:
    sigs = p.def_types()
    rename, avoid = def_rename(p)
    tr = _make_translator(avoid, rename, optimize_op)
    defs: list[X.DefX] = []
    for d in p.defs:
        typed_fun = S.typecheck(d.fun, {}, sigs, d.ty)
        fun2 = tr.value(typed_fun)
        assert isinstance(fun2, X.Abs2)
        ty2 = psi_type(d.ty)
        assert isinstance(ty2, Fun2T)
        defs.append(X.DefX(rename[d.name], ty2, fun2))
    main_typed = S.typecheck(p.main, {}, sigs, None)
    return X.ProgramX(tuple(defs), tr.c(main_typed))


def trans_state(p: S.ProgramS, state: S.TermS, memo: Optional[dict] = None) -> X.TermX:
    """Translate an evaluation state of ``p``'s main expression.

    States stay closed and well typed as evaluation proceeds, so this is
    the same translation the program got, minted against fresh names.
    ``memo`` is a typing memo for the states of one run of ``p`` (see
    :func:`lam_s.typecheck`); the translation is the same without it.
    """
    rename, avoid = def_rename(p)
    typed = S.typecheck(state, {}, p.def_types(), None, memo)
    tr = _make_translator(avoid | _all_names(state), rename)
    return tr.c(typed)
