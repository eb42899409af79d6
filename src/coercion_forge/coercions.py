"""Space-efficient coercions and their eager composition.

Coercions are kept in a canonical three-layer shape:

    space-efficient  s ::= id at Dyn | (G?^p ; i) | i
    intermediate     i ::= (g ; G!) | g | bot{G,p,H}
    ground           g ::= id at A (A not Dyn) | s -> t (not both identity)

Both calculi share the node family; they differ only in which function type
constructor underlies arrow coercions, so every operation that needs to
build or inspect function types takes that constructor as a parameter.

Each coercion keeps its :func:`size` in the slot ``_size`` once computed.
It is no field: ``fields``, ``replace``, ``repr``, equality, hashing and
pickling leave it out, and the constructor leaves it None.
"""

from __future__ import annotations

from typing import Union

from .records import record
from .types import ANY, DYN, AnyT, Type, TypeCheckError, consistent, is_ground, matches


def _coercion(cls):
    """A coercion former: a :func:`record` with the slot ``_size``, which :func:`size` fills."""
    return record(cls, extra_slots=("_size",))


@_coercion
class IdStar:
    """Identity at the dynamic type."""


@_coercion
class Id:
    """Identity at a non-dynamic type (function identities stay collapsed)."""

    ty: Type

    def __post_init__(self) -> None:
        if self.ty == DYN:
            raise ValueError("identity at Dyn is IdStar")


@_coercion
class ProjSeq:
    """Projection from Dyn followed by the rest: G?^p ; body."""

    ground: Type
    label: str
    body: Coercion


@_coercion
class InjSeq:
    """Ground part followed by injection into Dyn: body ; G!."""

    body: Coercion
    ground: Type


@_coercion
class Fun:
    """Function coercion; contravariant argument, covariant result."""

    arg: Coercion
    res: Coercion


@_coercion
class Fail:
    """Failure pending a value: blames label when applied.

    Carries only the two clashing type tags; its source type is any
    non-dynamic type consistent with the first tag and its target type is
    arbitrary, so both are checked where the coercion is used.
    """

    src_tag: Type
    label: str
    tgt_tag: Type

    def __post_init__(self) -> None:
        if self.src_tag == self.tgt_tag:
            raise ValueError("failure coercion requires distinct type tags")


Coercion = Union[IdStar, Id, ProjSeq, InjSeq, Fun, Fail]


class CompositionTypeMismatch(Exception):
    """Raised when no composition rule applies; the pair was ill-typed."""


def is_identity(c: Coercion) -> bool:
    cls = c.__class__
    return cls is IdStar or cls is Id


def identity_type(c: Coercion) -> Type:
    return DYN if isinstance(c, IdStar) else c.ty  # type: ignore[union-attr]


# The delayed coercions, the ones stored on coerced values.
DELAYED_CLASSES = frozenset((InjSeq, Fun))


def is_ground_crc(c: Coercion, fun_ctor: type) -> bool:
    # the shape tests dispatch on the class: the checks ask them of every
    # coercion of every state
    cls = c.__class__
    if cls is Id:
        return True
    if cls is Fun:
        arg, res = c.arg, c.res
        if is_identity(arg) and is_identity(res):
            return False
        return is_canonical(arg, fun_ctor) and is_canonical(res, fun_ctor)
    return False


def is_intermediate(c: Coercion, fun_ctor: type) -> bool:
    cls = c.__class__
    if cls is InjSeq:
        return is_ground(c.ground, fun_ctor) and is_ground_crc(c.body, fun_ctor)
    if cls is Fail:
        return is_ground(c.src_tag, fun_ctor) and is_ground(c.tgt_tag, fun_ctor)
    return is_ground_crc(c, fun_ctor)


def is_canonical(c: Coercion, fun_ctor: type) -> bool:
    cls = c.__class__
    if cls is IdStar:
        return True
    if cls is ProjSeq:
        return is_ground(c.ground, fun_ctor) and is_intermediate(c.body, fun_ctor)
    return is_intermediate(c, fun_ctor)


def size(c: Coercion) -> int:
    """The number of coercion formers in ``c``, kept in its slot ``_size``.

    The size walks ask it of every coercion of every observed state, and
    consecutive states carry the same coercion objects, so each is walked
    once; a coercion is immutable, so the kept size never goes stale.
    """
    k = c._size
    if k is None:
        cls = c.__class__
        if cls is ProjSeq or cls is InjSeq:
            k = 1 + size(c.body)
        elif cls is Fun:
            k = 1 + size(c.arg) + size(c.res)
        elif cls is IdStar or cls is Id or cls is Fail:
            k = 1
        else:
            raise AssertionError(c)
        _setattr(c, "_size", k)
    return k


_setattr = object.__setattr__


def mk_fun(arg: Coercion, res: Coercion, fun_ctor: type) -> Coercion:
    """Build an arrow coercion, collapsing two identities into one."""
    if is_identity(arg) and is_identity(res):
        return Id(fun_ctor(identity_type(arg), identity_type(res)))
    return Fun(arg, res)


def compose(s: Coercion, t: Coercion, fun_ctor: type) -> Coercion:
    """Eager composition; the form of ``s`` selects the rule."""
    # dispatch on the classes: both steppers compose at every merge
    cls = s.__class__
    if cls is IdStar:  # CC-IdDynL
        return t
    if cls is ProjSeq:  # CC-ProjL
        return ProjSeq(s.ground, s.label, compose(s.body, t, fun_ctor))
    if cls is Fail:  # CC-FailL
        return s
    tcls = t.__class__
    if cls is InjSeq:
        if tcls is IdStar:  # CC-InjId
            return s
        if tcls is ProjSeq:
            if s.ground == t.ground:  # CC-Collapse
                return compose(s.body, t.body, fun_ctor)
            return Fail(s.ground, t.label, t.ground)  # CC-Conflict
        raise CompositionTypeMismatch(f"{s} ; {t}")
    if cls is not Id and cls is not Fun:
        raise AssertionError(s)
    if tcls is Fail:  # CC-FailR
        return t
    if tcls is InjSeq:  # CC-InjR
        return InjSeq(compose(s, t.body, fun_ctor), t.ground)
    if cls is Id and (tcls is Id or tcls is Fun):  # CC-IdL
        return t
    if tcls is Id:  # CC-IdR
        return s
    if tcls is Fun:  # CC-Fun
        return mk_fun(compose(t.arg, s.arg, fun_ctor), compose(s.res, t.res, fun_ctor), fun_ctor)
    raise CompositionTypeMismatch(f"{s} ; {t}")


def crc_source(c: Coercion, fun_ctor: type) -> Type:
    """Source type; ``ANY`` where a failure leaves it unconstrained."""
    cls = c.__class__
    if cls is Id:
        return c.ty
    if cls is IdStar or cls is ProjSeq:
        return DYN
    if cls is InjSeq:
        return crc_source(c.body, fun_ctor)
    if cls is Fun:
        return fun_ctor(crc_target(c.arg, fun_ctor), crc_source(c.res, fun_ctor))
    if cls is Fail:
        return ANY
    raise AssertionError(c)


def crc_target(c: Coercion, fun_ctor: type) -> Type:
    """Target type; ``ANY`` where a failure leaves it unconstrained."""
    cls = c.__class__
    if cls is Id:
        return c.ty
    if cls is IdStar or cls is InjSeq:
        return DYN
    if cls is ProjSeq:
        return crc_target(c.body, fun_ctor)
    if cls is Fun:
        return fun_ctor(crc_source(c.arg, fun_ctor), crc_target(c.res, fun_ctor))
    if cls is Fail:
        return ANY
    raise AssertionError(c)


class CoercionTypeError(TypeCheckError):
    """A coercion applied at a type it does not convert from."""


def check_crc(c: Coercion, src: Type, fun_ctor: type) -> Type:
    """Check that ``c`` converts from ``src`` and return its target type.

    ``src`` may contain the wildcard; failures accept any consistent
    non-dynamic source and return a wildcard target.
    """
    cls = c.__class__
    if cls is IdStar:
        if not matches(src, DYN):
            raise CoercionTypeError(f"id at Dyn applied to {src!r}")
        return DYN
    if cls is Id:
        a = c.ty
        if not matches(src, a):
            raise CoercionTypeError(f"id at {a!r} applied to {src!r}")
        return a
    if cls is ProjSeq:
        g = c.ground
        if not is_ground(g, fun_ctor):
            raise CoercionTypeError(f"projection tag {g!r} is not ground")
        if not matches(src, DYN):
            raise CoercionTypeError(f"projection applied to {src!r}")
        return check_crc(c.body, g, fun_ctor)
    if cls is InjSeq:
        g = c.ground
        if not is_ground(g, fun_ctor):
            raise CoercionTypeError(f"injection tag {g!r} is not ground")
        mid = check_crc(c.body, src, fun_ctor)
        if not matches(mid, g):
            raise CoercionTypeError(f"injection of {mid!r} at tag {g!r}")
        return DYN
    if cls is Fun:
        arg = c.arg
        if src.__class__ is AnyT:
            src = fun_ctor(ANY, ANY)
        if src.__class__ is not fun_ctor:
            raise CoercionTypeError(f"arrow coercion applied to {src!r}")
        arg_tgt = crc_target(arg, fun_ctor)
        if not matches(arg_tgt, src.arg):
            raise CoercionTypeError(f"arrow argument expects {arg_tgt!r}, got {src.arg!r}")
        arg_src = crc_source(arg, fun_ctor)
        check_crc(arg, arg_src, fun_ctor)
        return fun_ctor(arg_src, check_crc(c.res, src.res, fun_ctor))
    if cls is Fail:
        g, h = c.src_tag, c.tgt_tag
        if not (is_ground(g, fun_ctor) and is_ground(h, fun_ctor)):
            raise CoercionTypeError(f"failure tags {g!r}, {h!r} not ground")
        if src == DYN:
            raise CoercionTypeError("failure coercion has a non-dynamic source")
        if not consistent(src, g):
            raise CoercionTypeError(f"failure source {src!r} not consistent with {g!r}")
        return ANY
    raise AssertionError(c)
