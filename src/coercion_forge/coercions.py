"""Space-efficient coercions and their eager composition.

Coercions are kept in a canonical three-layer shape:

    space-efficient  s ::= id at Dyn | (G?^p ; i) | i
    intermediate     i ::= (g ; G!) | g | bot{G,p,H}
    ground           g ::= id at A (A not Dyn) | s -> t (not both identity)

Both calculi share the node family; they differ only in which function type
constructor underlies arrow coercions, so every operation that needs to
build or inspect function types takes that constructor as a parameter.
"""

from __future__ import annotations

from typing import Union

from .records import record
from .types import ANY, DYN, AnyT, Type, consistent, is_ground, matches


@record
class IdStar:
    """Identity at the dynamic type."""


@record
class Id:
    """Identity at a non-dynamic type (function identities stay collapsed)."""

    ty: Type

    def __post_init__(self) -> None:
        if self.ty == DYN:
            raise ValueError("identity at Dyn is IdStar")


@record
class ProjSeq:
    """Projection from Dyn followed by the rest: G?^p ; body."""

    ground: Type
    label: str
    body: Coercion


@record
class InjSeq:
    """Ground part followed by injection into Dyn: body ; G!."""

    body: Coercion
    ground: Type


@record
class Fun:
    """Function coercion; contravariant argument, covariant result."""

    arg: Coercion
    res: Coercion


@record
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
    return isinstance(c, (IdStar, Id))


def identity_type(c: Coercion) -> Type:
    return DYN if isinstance(c, IdStar) else c.ty  # type: ignore[union-attr]


def is_delayed(c: Coercion) -> bool:
    """Delayed coercions are the ones stored on coerced values."""
    return isinstance(c, (InjSeq, Fun))


def is_ground_crc(c: Coercion, fun_ctor: type) -> bool:
    match c:
        case Id():
            return True
        case Fun(arg, res):
            if is_identity(arg) and is_identity(res):
                return False
            return is_canonical(arg, fun_ctor) and is_canonical(res, fun_ctor)
        case _:
            return False


def is_intermediate(c: Coercion, fun_ctor: type) -> bool:
    match c:
        case InjSeq(body, g):
            return is_ground(g, fun_ctor) and is_ground_crc(body, fun_ctor)
        case Fail(g, _, h):
            return is_ground(g, fun_ctor) and is_ground(h, fun_ctor)
        case _:
            return is_ground_crc(c, fun_ctor)


def is_canonical(c: Coercion, fun_ctor: type) -> bool:
    match c:
        case IdStar():
            return True
        case ProjSeq(g, _, body):
            return is_ground(g, fun_ctor) and is_intermediate(body, fun_ctor)
        case _:
            return is_intermediate(c, fun_ctor)


def size(c: Coercion) -> int:
    # dispatch on the class: the size walks call this on every coercion of
    # every observed state
    cls = c.__class__
    if cls is IdStar or cls is Id or cls is Fail:
        return 1
    if cls is ProjSeq or cls is InjSeq:
        return 1 + size(c.body)
    if cls is Fun:
        return 1 + size(c.arg) + size(c.res)
    raise AssertionError(c)


def mk_fun(arg: Coercion, res: Coercion, fun_ctor: type) -> Coercion:
    """Build an arrow coercion, collapsing two identities into one."""
    if is_identity(arg) and is_identity(res):
        return Id(fun_ctor(identity_type(arg), identity_type(res)))
    return Fun(arg, res)


def compose(s: Coercion, t: Coercion, fun_ctor: type) -> Coercion:
    """Eager composition; the form of ``s`` selects the rule."""
    match s:
        case IdStar():  # CC-IdDynL
            return t
        case ProjSeq(g, p, i):  # CC-ProjL
            return ProjSeq(g, p, compose(i, t, fun_ctor))
        case Fail():  # CC-FailL
            return s
        case InjSeq(g, gt):
            match t:
                case IdStar():  # CC-InjId
                    return s
                case ProjSeq(ht, p, i):
                    if gt == ht:  # CC-Collapse
                        return compose(g, i, fun_ctor)
                    return Fail(gt, p, ht)  # CC-Conflict
                case _:
                    raise CompositionTypeMismatch(f"{s} ; {t}")
        case Id() | Fun():
            match t:
                case Fail():  # CC-FailR
                    return t
                case InjSeq(h, ht):  # CC-InjR
                    return InjSeq(compose(s, h, fun_ctor), ht)
                case Id() if isinstance(s, Id):  # CC-IdL
                    return t
                case Id():  # CC-IdR
                    return s
                case Fun() if isinstance(s, Id):  # CC-IdL
                    return t
                case Fun(s2, t2) if isinstance(s, Fun):  # CC-Fun
                    return mk_fun(
                        compose(s2, s.arg, fun_ctor),
                        compose(s.res, t2, fun_ctor),
                        fun_ctor,
                    )
                case _:
                    raise CompositionTypeMismatch(f"{s} ; {t}")
    raise AssertionError(s)


def crc_source(c: Coercion, fun_ctor: type) -> Type:
    """Source type; ``ANY`` where a failure leaves it unconstrained."""
    match c:
        case IdStar():
            return DYN
        case Id(a):
            return a
        case ProjSeq():
            return DYN
        case InjSeq(body, _):
            return crc_source(body, fun_ctor)
        case Fun(arg, res):
            return fun_ctor(crc_target(arg, fun_ctor), crc_source(res, fun_ctor))
        case Fail():
            return ANY
    raise AssertionError(c)


def crc_target(c: Coercion, fun_ctor: type) -> Type:
    """Target type; ``ANY`` where a failure leaves it unconstrained."""
    match c:
        case IdStar():
            return DYN
        case Id(a):
            return a
        case ProjSeq(_, _, body):
            return crc_target(body, fun_ctor)
        case InjSeq():
            return DYN
        case Fun(arg, res):
            return fun_ctor(crc_source(arg, fun_ctor), crc_target(res, fun_ctor))
        case Fail():
            return ANY
    raise AssertionError(c)


class CoercionTypeError(Exception):
    pass


def check_crc(c: Coercion, src: Type, fun_ctor: type) -> Type:
    """Check that ``c`` converts from ``src`` and return its target type.

    ``src`` may contain the wildcard; failures accept any consistent
    non-dynamic source and return a wildcard target.
    """
    match c:
        case IdStar():
            if not matches(src, DYN):
                raise CoercionTypeError(f"id at Dyn applied to {src!r}")
            return DYN
        case Id(a):
            if not matches(src, a):
                raise CoercionTypeError(f"id at {a!r} applied to {src!r}")
            return a
        case ProjSeq(g, _, body):
            if not is_ground(g, fun_ctor):
                raise CoercionTypeError(f"projection tag {g!r} is not ground")
            if not matches(src, DYN):
                raise CoercionTypeError(f"projection applied to {src!r}")
            return check_crc(body, g, fun_ctor)
        case InjSeq(body, g):
            if not is_ground(g, fun_ctor):
                raise CoercionTypeError(f"injection tag {g!r} is not ground")
            mid = check_crc(body, src, fun_ctor)
            if not matches(mid, g):
                raise CoercionTypeError(f"injection of {mid!r} at tag {g!r}")
            return DYN
        case Fun(arg, res):
            if isinstance(src, AnyT):
                src = fun_ctor(ANY, ANY)
            if not isinstance(src, fun_ctor):
                raise CoercionTypeError(f"arrow coercion applied to {src!r}")
            arg_tgt = crc_target(arg, fun_ctor)
            if not matches(arg_tgt, src.arg):
                raise CoercionTypeError(
                    f"arrow argument expects {arg_tgt!r}, got {src.arg!r}"
                )
            check_crc(arg, crc_source(arg, fun_ctor), fun_ctor)
            res_tgt = check_crc(res, src.res, fun_ctor)
            return fun_ctor(crc_source(arg, fun_ctor), res_tgt)
        case Fail(g, _, h):
            if not (is_ground(g, fun_ctor) and is_ground(h, fun_ctor)):
                raise CoercionTypeError(f"failure tags {g!r}, {h!r} not ground")
            if src == DYN:
                raise CoercionTypeError("failure coercion has a non-dynamic source")
            if not consistent(src, g):
                raise CoercionTypeError(f"failure source {src!r} not consistent with {g!r}")
            return ANY
    raise AssertionError(c)
