"""Type syntax shared by both calculi.

The source calculus uses ``Dyn``, ``Base`` and ``FunT``.  The
continuation-passing calculus replaces plain functions with two-argument
continuation functions ``Fun2T``, adds first-class coercion types ``CrcT``
and rigid type variables ``TyVar`` used as abstract answer types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Dyn:
    def __repr__(self) -> str:
        return "Dyn"


@dataclass(frozen=True)
class Base:
    name: str  # "Int" or "Bool"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FunT:
    arg: Type
    res: Type

    def __repr__(self) -> str:
        return f"({self.arg!r} -> {self.res!r})"


@dataclass(frozen=True)
class Fun2T:
    arg: Type
    res: Type  # the type handed to the continuation, not the answer type

    def __repr__(self) -> str:
        return f"({self.arg!r} => {self.res!r})"


@dataclass(frozen=True)
class CrcT:
    src: Type
    tgt: Type

    def __repr__(self) -> str:
        return f"({self.src!r} ~> {self.tgt!r})"


@dataclass(frozen=True)
class TyVar:
    uid: int  # globally unique; minted by the typechecker and never reused

    def __repr__(self) -> str:
        return f"'X{self.uid}"


@dataclass(frozen=True)
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


def matches(a: Type, b: Type) -> bool:
    """Type equality up to the ``AnyT`` wildcard (on either side)."""
    if isinstance(a, AnyT) or isinstance(b, AnyT):
        return True
    match (a, b):
        case (FunT(a1, b1), FunT(a2, b2)):
            return matches(a1, a2) and matches(b1, b2)
        case (Fun2T(a1, b1), Fun2T(a2, b2)):
            return matches(a1, a2) and matches(b1, b2)
        case (CrcT(a1, b1), CrcT(a2, b2)):
            return matches(a1, a2) and matches(b1, b2)
        case _:
            return a == b


def merge_types(a: Type, b: Type) -> Type:
    """Prefer concrete structure over wildcards when combining two views."""
    if isinstance(a, AnyT):
        return b
    if isinstance(b, AnyT):
        return a
    match (a, b):
        case (FunT(a1, b1), FunT(a2, b2)):
            return FunT(merge_types(a1, a2), merge_types(b1, b2))
        case (Fun2T(a1, b1), Fun2T(a2, b2)):
            return Fun2T(merge_types(a1, a2), merge_types(b1, b2))
        case (CrcT(a1, b1), CrcT(a2, b2)):
            return CrcT(merge_types(a1, a2), merge_types(b1, b2))
        case _:
            return a


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
    match t:
        case Base():
            return True
        case _ if isinstance(t, fun_ctor):
            return t.arg == DYN and t.res == DYN
        case _:
            return False


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
