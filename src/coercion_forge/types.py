"""Type syntax shared by both calculi.

The source calculus uses ``Dyn``, ``Base`` and ``FunT``.  The
continuation-passing calculus replaces plain functions with two-argument
continuation functions ``Fun2T``, adds first-class coercion types ``CrcT``
and rigid type variables ``TyVar`` used as abstract answer types.
"""

from __future__ import annotations

from typing import Union

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


@record
class AnyT:
    """Internal wildcard for positions whose type is unconstrained.

    Blame terms and failure coercions can be given every type; inference
    reports this placeholder and ``matches`` treats it as equal to anything.
    It never appears in surface syntax.
    """

    def __repr__(self) -> str:
        return "any"


Type = Union[Dyn, Base, FunT, Fun2T, CrcT, TyVar, AnyT]

INT = Base("Int")
BOOL = Base("Bool")
DYN = Dyn()
ANY = AnyT()


class TypeCheckError(Exception):
    """A term, or a coercion at its source type, that does not typecheck."""


def matches(a: Type, b: Type) -> bool:
    """Type equality up to the ``AnyT`` wildcard (on either side)."""
    # dispatch on the class: typechecking asks this at every node of every
    # checked state, where a ``match`` chain's tests add up
    if a is b:
        return True
    cls = a.__class__
    if cls is AnyT or b.__class__ is AnyT:
        return True
    if cls is not b.__class__:
        return False
    if cls is FunT or cls is Fun2T:
        return matches(a.arg, b.arg) and matches(a.res, b.res)
    if cls is CrcT:
        return matches(a.src, b.src) and matches(a.tgt, b.tgt)
    return a == b


def merge_types(a: Type, b: Type) -> Type:
    """Prefer concrete structure over wildcards when combining two views."""
    if a is b:
        return a
    cls = a.__class__
    if cls is AnyT:
        return b
    if b.__class__ is AnyT:
        return a
    if cls is not b.__class__:
        return a
    if cls is FunT or cls is Fun2T:
        return cls(merge_types(a.arg, b.arg), merge_types(a.res, b.res))
    if cls is CrcT:
        return CrcT(merge_types(a.src, b.src), merge_types(a.tgt, b.tgt))
    return a


def default_wildcards(t: Type) -> Type:
    """``t`` with each ``AnyT`` wildcard read as ``Dyn``, the type reported
    for a position nothing constrains; ``t`` itself if it has no wildcard."""
    match t:
        case AnyT():
            return DYN
        case FunT(a, b) | Fun2T(a, b) | CrcT(a, b):
            a2, b2 = default_wildcards(a), default_wildcards(b)
            return t if a2 is a and b2 is b else t.__class__(a2, b2)
        case _:
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
    """Least reflexive symmetric compatible relation containing A ~ Dyn."""
    match (a, b):
        case (AnyT(), _) | (_, AnyT()):
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
    match t:
        case TyVar():
            return t == v
        case FunT(a, b) | Fun2T(a, b) | CrcT(a, b):
            return occurs(v, a) or occurs(v, b)
        case _:
            return False
