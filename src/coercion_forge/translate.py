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
from typing import Callable, Optional

from .coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq, is_identity
from .types import Dyn, FunT, Fun2T, Type
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
)


def psi_type(a: Type) -> Type:
    """Ψ on types: each ``FunT`` becomes ``Fun2T``; ``a`` itself if it has none."""
    if a.__class__ is not FunT:
        return a
    return Fun2T(psi_type(a.arg), psi_type(a.res))


def psi_crc(c: Coercion) -> Coercion:
    """Ψ on coercions: Ψ on every type inside; ``c`` itself if no part changes."""
    # dispatch on the node class: this runs on every coercion the
    # translation meets, and most have no function type inside to change
    cls = c.__class__
    if cls is Id:
        a = c.ty
        return c if a.__class__ is not FunT else Id(psi_type(a))
    if cls is InjSeq:
        g, tag = psi_crc(c.body), psi_type(c.ground)
        return c if g is c.body and tag is c.ground else InjSeq(g, tag)
    if cls is ProjSeq:
        g, i = psi_type(c.ground), psi_crc(c.body)
        return c if g is c.ground and i is c.body else ProjSeq(g, c.label, i)
    if cls is IdStar:
        return c
    if cls is Fun:
        s, t = psi_crc(c.arg), psi_crc(c.res)
        return c if s is c.arg and t is c.res else Fun(s, t)
    if cls is Fail:
        # failure tags are ground types and must live in the target
        # calculus for the translated coercion to stay well formed
        g, h = psi_type(c.src_tag), psi_type(c.tgt_tag)
        return c if g is c.src_tag and h is c.tgt_tag else Fail(g, c.label, h)
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


_NAMED = frozenset((Var, S.Abs, GlobalRef))
# what :func:`lam_s.is_value` tests, read here without the call at every node
_VALUES = S._VALUE_CLASSES


def _all_names(t: S.TermS) -> set[str]:
    """Every variable, binder and definition name in ``t``."""
    return {m.var if m.__class__ is S.Abs else m.name for m in walk(t) if m.__class__ in _NAMED}


class Translator:
    """The Tr-rules, over typing derivations of the source calculus.

    ``value``, ``k`` and ``c`` dispatch on the class of the derivation's
    term, and each Tr-rule is named on the line that applies it.
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

    def value(self, v: Typed) -> X.TermX:
        out = self.done.get(v)
        if out is not None:
            return out
        term = v.term
        cls = term.__class__
        if cls is Const or cls is Var:
            out = term
        elif cls is S.Abs:
            body = v.children[0]
            kv = self.supply.fresh()
            out = X.Abs2(
                term.var, psi_type(term.var_ty), kv, psi_type(body.ty), self.k(body, Var(kv))
            )
        elif cls is CoercedVal:
            out = CoercedVal(self.value(v.children[0]), psi_crc(term.crc))
        elif cls is GlobalRef:
            out = GlobalRef(self.rename.get(term.name, term.name))
        else:
            raise AssertionError(term)
        self.done[v] = out
        return out

    def k(self, m: Typed, cont: X.TermX) -> X.TermX:
        term = m.term
        cls = term.__class__
        if cls in _VALUES:
            return X.CrcApp(self.value(m), cont)  # Tr-Val
        if cls is S.App:
            return X.App2(self.c(m.children[0]), self.c(m.children[1]), cont)  # Tr-App
        if cls is Op:
            body = Op(term.op, self.c(m.children[0]), self.c(m.children[1]))
            if self.optimize_op and cont.__class__ is X.CrcLit and is_identity(cont.crc):
                return body
            return X.CrcApp(body, cont)  # Tr-Op
        if cls is If:
            ct, mt, nt = m.children
            return If(self.c(ct), self.k(mt, cont), self.k(nt, cont))  # Tr-If
        if cls is S.CrcApp:
            kv = self.supply.fresh()
            bound = X.Compose(X.CrcLit(psi_crc(term.crc)), cont)
            return X.Let(kv, bound, self.k(m.children[0], Var(kv)))  # Tr-Crc
        if cls is Blame:
            return term  # Tr-Blame
        raise AssertionError(term)

    def c(self, m: Typed) -> X.TermX:
        out = self.done.get(m)
        if out is not None:
            return out
        term = m.term
        cls = term.__class__
        if cls in _VALUES:
            out = self.value(m)  # TrC-Val
        elif cls is S.CrcApp:
            out = self.k(m.children[0], X.CrcLit(psi_crc(term.crc)))  # TrC-Crc
        else:
            out = self.k(m, X.CrcLit(identity_at(psi_type(m.ty))))  # TrC-Else
        self.done[m] = out
        return out


def trans_term(typed: Typed, cont: Optional[X.TermX] = None) -> X.TermX:
    """Translate one typed term; with no continuation, the top level stays bare."""
    tr = Translator(_all_names(typed.term))
    if cont is None:
        return tr.c(typed)
    return tr.k(typed, cont)


class Checked:
    """What the check of one source program found and what was made from
    it, kept on the program (``ProgramS._checked``) from first use: the
    derivations ``defs`` and ``main``, the typing memo of their check or
    None (:func:`lam_s.run_memo`), and the :func:`def_rename` ``names`` and
    the ``plain`` translation, or None until first asked for."""

    __slots__ = ("defs", "main", "memo", "names", "plain")


def check_program(p: S.ProgramS, memo: Optional[dict] = None) -> Checked:
    """The record of ``p``, made by the first call for ``p``, whose check
    fills the typing ``memo``, or none.  An ill-typed ``p`` raises at every call."""
    c = p._checked
    if c is None:
        c = Checked()
        c.defs, c.main, c.memo = S._check_program(p, S.typecheck, FunT, memo)
        c.names = c.plain = None
        object.__setattr__(p, "_checked", c)
    return c


def def_rename(p: S.ProgramS) -> tuple[dict[str, str], set[str]]:
    """Continuation-style names for the definitions, plus every name in use,
    kept in ``p``'s record."""
    c = check_program(p)
    if c.names is None:
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
        c.names = rename, avoid
    return c.names


def trans_program(p: S.ProgramS, optimize_op: bool = False) -> X.ProgramX:
    """Translate ``p`` from the derivations of its record (:func:`check_program`),
    which keeps the plain translation for every later call, whatever ran in
    between; one with ``optimize_op`` is made afresh at each call."""
    c = check_program(p)
    if optimize_op:
        return _translated(p, c, True)
    if c.plain is None:
        c.plain = _translated(p, c)
    return c.plain


def _translated(p: S.ProgramS, c: Checked, optimize_op: bool = False) -> X.ProgramX:
    rename, avoid = def_rename(p)
    tr = Translator(avoid, rename, optimize_op)
    defs: list[X.DefX] = []
    for d, typed_fun in zip(p.defs, c.defs):
        fun2 = tr.value(typed_fun)
        assert isinstance(fun2, X.Abs2)
        ty2 = psi_type(d.ty)
        assert isinstance(ty2, Fun2T)
        defs.append(X.DefX(rename[d.name], ty2, fun2))
    return X.ProgramX(tuple(defs), tr.c(c.main))


def state_translator(p: S.ProgramS, memo: Optional[dict]) -> Callable[[S.TermS], X.TermX]:
    """The translation of the evaluation states of one run of ``p``'s main
    term, as a function from a state to its translation.

    States stay closed and well typed as evaluation proceeds, so this is
    the same translation the program got, minted against fresh names.
    Each state is checked at the type of ``p``'s main term, with the
    typing memo ``memo`` of the run (see :func:`lam_s.typecheck`), which a
    run starts from a copy of the program's (:func:`lam_s.run_memo`).  A
    state holds only names of ``p``: R-Beta substitutes closed values, so
    no binder is renamed, and :func:`def_rename` avoids all of them.

    One translator serves the run.  It reuses the translation of every
    subterm whose derivation the typing memo reused, and mints its
    continuation names once per run, from a counter of its own, fresh
    against the program's names.  So a state's translation is
    alpha-equivalent to :func:`trans_state`'s, but its names differ.
    """
    rename, avoid = def_rename(p)
    tr = Translator(avoid, rename)
    sigs, ty = p.def_types(), check_program(p).main.ty
    return lambda state: tr.c(S.typecheck(state, {}, sigs, ty, memo))


def trans_state(p: S.ProgramS, state: S.TermS) -> X.TermX:
    """Translate one evaluation state of ``p``'s main term, by a translator
    of its own and with no typing memo (:func:`state_translator`)."""
    return state_translator(p, None)(state)
