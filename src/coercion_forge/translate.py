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

from dataclasses import dataclass
from typing import Optional

from .coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq, is_identity
from .types import Dyn, FunT, Fun2T, Type, default_wildcards
from . import lam_s as S
from . import lam_sx as X
from .terms import (
    Blame,
    CoercedVal,
    Const,
    GlobalRef,
    If,
    Op,
    Typed,
    Var,
    walk,
    walk_unseen,
)


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


def _names(nodes: list) -> set[str]:
    """Every variable, binder and definition name of the ``nodes``."""
    return {
        m.var if m.__class__ is S.Abs else m.name
        for m in nodes
        if m.__class__ in (Var, S.Abs, GlobalRef)
    }


def _all_names(t: S.TermS) -> set[str]:
    """Every variable, binder and definition name in ``t``."""
    return _names(walk(t))


class Translator:
    """The Tr-rules, over typing derivations of the source calculus.

    ``c`` and ``value`` keep their answers keyed by the derivation, which
    hashes and compares by identity.  A translator serves one program, or
    one run of a program's states: a run's typing memo hands out again the
    derivations of the subterms a step left in place, so only the spine
    and the new nodes of a state are translated again.  A kept answer
    binds every continuation variable it mints, so sharing it cannot
    capture a name.
    """

    def __init__(
        self, avoid: set[str], rename: Optional[dict[str, str]] = None, optimize_op: bool = False
    ) -> None:
        self.supply = _NameSupply(set(avoid))
        self.rename = rename or {}
        self.optimize_op = optimize_op
        # derivation -> its translation
        self.done: dict[Typed, X.TermX] = {}
        # id(node) -> node, for the nodes whose names the supply already avoids
        self.named: dict = {}

    def avoid_names(self, t: S.TermS) -> None:
        """Make the supply avoid the names of ``t``, walking only the nodes
        that no term given before had."""
        new = walk_unseen(t, self.named)
        self.supply.avoid |= _names(new)
        self.named.update([(id(m), m) for m in new])

    def value(self, v: Typed) -> X.TermX:
        out = self.done.get(v)
        if out is not None:
            return out
        match v.term:
            case Const() | Var():
                out = v.term
            case GlobalRef(f):
                out = GlobalRef(self.rename.get(f, f))
            case S.Abs(x, a, _):
                body = v.children[0]
                kv = self.supply.fresh()
                out = X.Abs2(x, psi_type(a), kv, psi_type(body.ty), self.k(body, Var(kv)))
            case CoercedVal(_, d):
                out = CoercedVal(self.value(v.children[0]), psi_crc(d))
            case _:
                raise AssertionError(v.term)
        self.done[v] = out
        return out

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
        out = self.done.get(m)
        if out is not None:
            return out
        if S.is_value(m.term):
            out = self.value(m)  # TrC-Val
        elif isinstance(m.term, S.CrcApp):
            out = self.k(m.children[0], X.CrcLit(psi_crc(m.term.crc)))  # TrC-Crc
        else:
            out = self.k(m, X.CrcLit(identity_at(psi_type(m.ty))))  # TrC-Else
        self.done[m] = out
        return out


def _is_identity_lit(t: X.TermX) -> bool:
    return isinstance(t, X.CrcLit) and is_identity(t.crc)


def trans_term(typed: Typed, cont: Optional[X.TermX] = None) -> X.TermX:
    """Translate one typed term; with no continuation, the top level stays bare."""
    tr = Translator(_all_names(typed.term))
    if cont is None:
        return tr.c(typed)
    return tr.k(typed, cont)


def def_rename(p: S.ProgramS) -> tuple[dict[str, str], set[str]]:
    """Continuation-style names for the definitions, plus every name in use."""
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


def _typed_main(p: S.ProgramS) -> Typed:
    """The derivation of ``p``'s main term, its wildcards read as Dyn.

    The main term is checked once more, at the defaulted type, only if
    a wildcard is left in its type.
    """
    sigs = p.def_types()
    typed = S.typecheck(p.main, {}, sigs, None)
    ty = default_wildcards(typed.ty)
    if ty is not typed.ty:
        typed = S.typecheck(p.main, {}, sigs, ty)
    return typed


def trans_program(p: S.ProgramS, optimize_op: bool = False) -> X.ProgramX:
    sigs = p.def_types()
    rename, avoid = def_rename(p)
    tr = Translator(avoid, rename, optimize_op)
    defs: list[X.DefX] = []
    for d in p.defs:
        typed_fun = S.typecheck(d.fun, {}, sigs, d.ty)
        fun2 = tr.value(typed_fun)
        assert isinstance(fun2, X.Abs2)
        ty2 = psi_type(d.ty)
        assert isinstance(ty2, Fun2T)
        defs.append(X.DefX(rename[d.name], ty2, fun2))
    return X.ProgramX(tuple(defs), tr.c(_typed_main(p)))


def trans_state(p: S.ProgramS, state: S.TermS, memo: Optional[dict] = None) -> X.TermX:
    """Translate an evaluation state of ``p``'s main expression.

    States stay closed and well typed as evaluation proceeds, so this is
    the same translation the program got, minted against fresh names.
    Each state is checked at the type the main term gets in
    :func:`trans_program`.

    ``memo`` is a memo for the states of one run of ``p``.  It holds the
    typing memo (see :func:`lam_s.typecheck`) and one translator for the
    run, tied to ``p``: another program, even one with equal definitions,
    raises ``ValueError``.  The translator reuses the translation of every
    subterm whose derivation the typing memo reused.  Its continuation
    names are minted once per run, fresh against the program and every
    state translated so far.  So the answer is alpha-equivalent to a
    memo-less call, but its names are not the same.
    """
    run = None if memo is None else memo.get(_RUN)
    if run is None:
        rename, avoid = def_rename(p)
        run = (p, Translator(avoid, rename), _typed_main(p).ty)
        if memo is not None:
            memo[_RUN] = run
    elif run[0] is not p:
        raise ValueError("a translation memo was filled for another program")
    _, tr, ty = run
    typed = S.typecheck(state, {}, p.def_types(), ty, memo)
    tr.avoid_names(state)
    return tr.c(typed)


# The key under which a memo holds its run: (program, translator, main's type).
_RUN = "translator"
