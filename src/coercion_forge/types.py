"""Type syntax shared by both calculi.

The source calculus uses ``Dyn``, ``Base`` and ``FunT``.  The
continuation-passing calculus replaces plain functions with two-argument
continuation functions ``Fun2T``, adds first-class coercion types ``CrcT``
and rigid type variables ``TyVar`` used as abstract answer types.
"""

from __future__ import annotations

from .records import record


@record
class Dyn:
    def __repr__(self) -> str:
        return "Dyn"


@record
class Base:
    name: str  # "Int" or "Bool"

    def __repr__(self) -> str:
        return self.name


@record
class FunT:
    arg: Type
    res: Type

    def __repr__(self) -> str:
        return f"({self.arg!r} -> {self.res!r})"


@record
class Fun2T:
    arg: Type
    res: Type  # the type handed to the continuation, not the answer type

    def __repr__(self) -> str:
        return f"({self.arg!r} => {self.res!r})"


@record
class CrcT:
    src: Type
    tgt: Type

    def __repr__(self) -> str:
        return f"({self.src!r} ~> {self.tgt!r})"


@record
class TyVar:
    # Not unique: ``lam_sx``'s typechecker gives a function body at binder
    # depth d the answer type TyVar(-1 - d), which sibling bodies share; a
    # lamsx program names one as 'X<uid>
    uid: int

    def __repr__(self) -> str:
        return f"'X{self.uid}"


Type = Dyn | Base | FunT | Fun2T | CrcT | TyVar

INT = Base("Int")
BOOL = Base("Bool")
DYN = Dyn()


class TypeCheckError(Exception):
    """A term, or a coercion at its source type, that does not typecheck."""


class Hole:
    """A type that one check has yet to find.

    Blame has every type and a failure converts to any type, so a check
    gives each a fresh hole, which :func:`fill` fills with the type it
    meets.  A filled hole stands for what fills it, and an open one prints
    as ``any``.  ``made`` counts the holes the running check has made:
    each check starts it at 0.
    """

    __slots__ = ("ty",)
    made = 0

    def __init__(self) -> None:
        self.ty = None
        Hole.made += 1

    def __repr__(self) -> str:
        return "any" if self.ty is None else repr(self.ty)


def resolved(t):
    """``t``, or what fills the filled holes it stands for."""
    while t.__class__ is Hole and t.ty is not None:
        t = t.ty
    return t


def fill(a, b) -> bool:
    """Whether ``a`` and ``b`` are one type up to their open holes; if
    they are, each open hole of either is filled with what it meets in the
    other, and if not, no hole is filled."""
    if a is b:
        return True
    filled: list = []
    if _meet(a, b, filled):
        return True
    for h in filled:
        h.ty = None
    return False


def _meet(a, b, filled: list) -> bool:
    # dispatch on the class: every check asks this where a type meets another
    if a is b:
        return True
    cls = a.__class__
    if cls is Hole:
        if a.ty is not None:
            return _meet(a.ty, b, filled)
        b = resolved(b)
        if b is not a:
            a.ty = b
            filled.append(a)
        return True
    if b.__class__ is Hole:
        if b.ty is not None:
            return _meet(a, b.ty, filled)
        b.ty = a
        filled.append(b)
        return True
    if cls is not b.__class__:
        return False
    if cls is FunT or cls is Fun2T:
        return _meet(a.arg, b.arg, filled) and _meet(a.res, b.res, filled)
    if cls is CrcT:
        return _meet(a.src, b.src, filled) and _meet(a.tgt, b.tgt, filled)
    return a == b


def pin(t, fixed: Type) -> None:
    """Fill the open holes of ``t`` from ``fixed``, its open holes read as
    Dyn, if the two fit; then fill each hole still open with Dyn."""
    fill(t, settled(fixed))
    fill(t, settled(t))


def settled(t, fresh: bool = False) -> Type:
    """``t`` with each filled hole replaced by what fills it, and each open
    one by Dyn, or with ``fresh`` by a new hole; ``t`` itself if it holds
    no hole."""
    cls = t.__class__
    if cls is Hole:
        if t.ty is None:
            return Hole() if fresh else DYN
        return settled(t.ty, fresh)
    if cls is FunT or cls is Fun2T:
        a, b = settled(t.arg, fresh), settled(t.res, fresh)
        return t if a is t.arg and b is t.res else cls(a, b)
    if cls is CrcT:
        a, b = settled(t.src, fresh), settled(t.tgt, fresh)
        return t if a is t.src and b is t.tgt else CrcT(a, b)
    return t


def is_source_type(t: Type) -> bool:
    """Whether ``t`` belongs to the plain-function calculus."""
    match t:
        case Dyn() | Base():
            return True
        case FunT(a, b):
            return is_source_type(a) and is_source_type(b)
        case _:
            return False


def is_ground(t: Type, fun_ctor: type) -> bool:
    """Ground types are base types and the dialect's Dyn-to-Dyn function type."""
    cls = t.__class__
    if cls is Base:
        return True
    return cls is fun_ctor and t.arg.__class__ is Dyn and t.res.__class__ is Dyn


def consistent(a: Type, b: Type) -> bool:
    """Least reflexive symmetric compatible relation containing A ~ Dyn;
    an open hole is consistent with every type."""
    match (resolved(a), resolved(b)):
        case (Hole(), _) | (_, Hole()):
            return True
        case (Dyn(), _) | (_, Dyn()):
            return True
        case (Base(x), Base(y)):
            return x == y
        case (TyVar(x), TyVar(y)):
            return x == y
        case (FunT(a1, b1), FunT(a2, b2)):
            return consistent(a1, a2) and consistent(b1, b2)
        case (Fun2T(a1, b1), Fun2T(a2, b2)):
            return consistent(a1, a2) and consistent(b1, b2)
        case (CrcT(a1, b1), CrcT(a2, b2)):
            return consistent(a1, a2) and consistent(b1, b2)
        case _:
            return False


def occurs(v: TyVar, t: Type) -> bool:
    match t := resolved(t):
        case TyVar():
            return t == v
        case FunT(a, b) | Fun2T(a, b) | CrcT(a, b):
            return occurs(v, a) or occurs(v, b)
        case _:
            return False
