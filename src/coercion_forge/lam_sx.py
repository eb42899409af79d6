"""The continuation-coercion calculus.

Functions take a value plus the coercion that the caller would otherwise
apply to the result; coercions are first-class terms, composed by an
object-level operator.  Evaluation contexts are the ordinary left-to-right
call-by-value ones, so unlike the source calculus no context restriction is
needed: composition steps can fire anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .coercions import (
    Coercion,
    CoercionTypeError,
    Fail,
    Fun,
    Id,
    IdStar,
    InjSeq,
    check_crc,
    compose,
    crc_source,
    is_delayed,
    size,
)
from .types import (
    ANY,
    BOOL,
    AnyT,
    CrcT,
    Fun2T,
    TyVar,
    Type,
    matches,
    merge_types,
    occurs,
)
from .lam_s import OPS, TypeCheckError, _done, const_type, delta, fresh_name
from .terms import Variable, const_eq, const_hash, free_vars, node
from . import terms


@node
class Const:
    val: object

    __eq__ = const_eq
    __hash__ = const_hash


@node
class Var(Variable):
    name: str


@node
class Abs2:
    """Two-argument abstraction: a value and the continuation coercion."""

    _binds = ("var", "kvar")

    var: str
    var_ty: Type
    kvar: str
    k_src: Type  # the continuation converts from this type to the answer type
    body: TermX


@node
class Op:
    op: str
    left: TermX
    right: TermX


@node
class App2:
    fun: TermX
    arg: TermX
    cont: TermX


@node
class Let:
    _binds = ("var",)

    var: str
    bound: TermX
    body: TermX


@node
class Compose:
    left: TermX
    right: TermX


@node
class CrcApp:
    subject: TermX
    crc: TermX  # a general term of coercion type


@node
class CoercedVal:
    subject: TermX
    crc: Coercion


@node
class CrcLit:
    crc: Coercion


@node
class Blame:
    label: str


@node
class If:
    cond: TermX
    then: TermX
    els: TermX


@node
class GlobalRef:
    name: str


TermX = Union[
    Const, Var, Abs2, Op, App2, Let, Compose, CrcApp, CoercedVal, CrcLit, Blame, If, GlobalRef
]

TRUE = Const(True)
FALSE = Const(False)


_UNCOERCED_CLASSES = frozenset((Const, Abs2, CrcLit, GlobalRef))
_VALUE_CLASSES = frozenset((Const, Abs2, CrcLit, GlobalRef, Var, CoercedVal))


def is_uncoerced(t: TermX) -> bool:
    return t.__class__ in _UNCOERCED_CLASSES


def is_value(t: TermX) -> bool:
    return t.__class__ in _VALUE_CLASSES


# ---------------------------------------------------------------------------
# Typing


class EscapedTyVar(TypeCheckError):
    """A function body's answer type leaked its rigid type variable."""


@dataclass(frozen=True)
class DefX:
    name: str
    ty: Fun2T
    fun: Abs2


@dataclass(frozen=True)
class ProgramX:
    defs: tuple[DefX, ...]
    main: TermX

    def def_terms(self) -> dict[str, TermX]:
        return {d.name: d.fun for d in self.defs}

    def def_types(self) -> dict[str, Type]:
        return {d.name: d.ty for d in self.defs}


def _ty_uid(a: Type) -> int:
    match a:
        case TyVar(u):
            return u
        case Fun2T(x, y) | CrcT(x, y):
            return max(_ty_uid(x), _ty_uid(y))
        case _:
            return -1


def _max_uid(t: TermX) -> int:
    """Largest rigid-variable id mentioned in annotations, -1 if none."""
    best = -1
    for m in terms.walk(t):
        if m.__class__ is Abs2:
            best = max(best, _ty_uid(m.var_ty), _ty_uid(m.k_src))
    return best


def typecheck(
    term: TermX,
    env: Optional[Mapping[str, Type]] = None,
    defs: Optional[Mapping[str, Type]] = None,
    expected: Optional[Type] = None,
) -> terms.Typed:
    env = dict(env) if env else {}
    defs = dict(defs) if defs else {}
    counter = [_max_uid(term) + 1]
    return _tc(term, env, defs, expected, counter)


def _as_crc_type(ty: Type, what: str) -> CrcT:
    if isinstance(ty, AnyT):
        return CrcT(ANY, ANY)
    if not isinstance(ty, CrcT):
        raise TypeCheckError(f"{what} must have a coercion type, found {ty!r}")
    return ty


def _tc(term: TermX, env, defs, expected: Optional[Type], counter) -> terms.Typed:
    match term:
        case Const(v):
            return _done(term, const_type(v), expected, ())
        case Var(x):
            if x not in env:
                raise TypeCheckError(f"unbound variable {x}")
            return _done(term, env[x], expected, ())
        case GlobalRef(f):
            if f not in defs:
                raise TypeCheckError(f"unknown definition {f}")
            return _done(term, defs[f], expected, ())
        case Abs2(x, a, kv, b, m):
            if isinstance(expected, Fun2T):
                if not (matches(expected.arg, a) and matches(expected.res, b)):
                    raise TypeCheckError(
                        f"function annotated {a!r}/{b!r}, expected {expected!r}"
                    )
            x_var = TyVar(counter[0])
            counter[0] += 1
            body = _tc(m, {**env, x: a, kv: CrcT(b, x_var)}, defs, None, counter)
            if not (isinstance(body.ty, AnyT) or body.ty == x_var):
                if occurs(x_var, body.ty):
                    raise EscapedTyVar(
                        f"answer type {body.ty!r} leaks the rigid variable {x_var!r}"
                    )
                raise TypeCheckError(
                    f"body must produce the continuation's answer type, found {body.ty!r}"
                )
            return _done(term, Fun2T(a, b), expected, (body,))
        case Op(op, l, r):
            if op not in OPS:
                raise TypeCheckError(f"unknown operator {op}")
            t1, t2, res = OPS[op]
            lt = _tc(l, env, defs, t1, counter)
            rt = _tc(r, env, defs, t2, counter)
            return _done(term, res, expected, (lt, rt))
        case App2(f, a, k):
            if isinstance(f, Blame):
                at = _tc(a, env, defs, None, counter)
                kt = _tc(k, env, defs, None, counter)
                kty = _as_crc_type(kt.ty, "continuation argument")
                ft = _tc(f, env, defs, Fun2T(at.ty, kty.src), counter)
                return _done(term, kty.tgt, expected, (ft, at, kt))
            ft = _tc(f, env, defs, None, counter)
            fty = ft.ty
            if isinstance(fty, AnyT):
                fty = Fun2T(ANY, ANY)
            if not isinstance(fty, Fun2T):
                raise TypeCheckError(f"applied non-function of type {ft.ty!r}")
            at = _tc(a, env, defs, fty.arg, counter)
            kt = _tc(k, env, defs, CrcT(fty.res, ANY), counter)
            kty = _as_crc_type(kt.ty, "continuation argument")
            return _done(term, kty.tgt, expected, (ft, at, kt))
        case Let(x, m, n):
            mt = _tc(m, env, defs, None, counter)
            nt = _tc(n, {**env, x: mt.ty}, defs, expected, counter)
            return _done(term, nt.ty, expected, (mt, nt))
        case Compose(l, r):
            lt = _tc(l, env, defs, None, counter)
            lty = _as_crc_type(lt.ty, "composition operand")
            rt = _tc(r, env, defs, CrcT(lty.tgt, ANY), counter)
            rty = _as_crc_type(rt.ty, "composition operand")
            return _done(term, CrcT(lty.src, rty.tgt), expected, (lt, rt))
        case CrcApp(m, c):
            mt = _tc(m, env, defs, None, counter)
            ct = _tc(c, env, defs, CrcT(mt.ty, ANY), counter)
            cty = _as_crc_type(ct.ty, "applied coercion")
            return _done(term, cty.tgt, expected, (mt, ct))
        case CoercedVal(u, d):
            if not is_uncoerced(u):
                raise TypeCheckError("coerced-value subject must be an uncoerced value")
            if not is_delayed(d):
                raise TypeCheckError("coerced values carry injections or arrows only")
            sub = _tc(u, env, defs, None, counter)
            try:
                tgt = check_crc(d, sub.ty, Fun2T)
            except CoercionTypeError as e:
                raise TypeCheckError(str(e)) from None
            return _done(term, tgt, expected, (sub,))
        case CrcLit(c):
            src = crc_source(c, Fun2T)
            if isinstance(expected, CrcT) and isinstance(src, AnyT):
                src = expected.src
            try:
                tgt = check_crc(c, src, Fun2T)
            except CoercionTypeError as e:
                raise TypeCheckError(str(e)) from None
            return _done(term, CrcT(src, tgt), expected, ())
        case Blame():
            return _done(term, ANY if expected is None else expected, expected, ())
        case If(c, m, n):
            ct = _tc(c, env, defs, BOOL, counter)
            mt = _tc(m, env, defs, expected, counter)
            nt = _tc(n, env, defs, expected, counter)
            if not matches(mt.ty, nt.ty):
                raise TypeCheckError(f"branch types {mt.ty!r} and {nt.ty!r} differ")
            return _done(term, merge_types(mt.ty, nt.ty), expected, (ct, mt, nt))
    raise AssertionError(term)


def typecheck_program(p: ProgramX) -> terms.Typed:
    sigs = p.def_types()
    for d in p.defs:
        if not isinstance(d.ty, Fun2T):
            raise TypeCheckError(f"definition {d.name} needs a function signature")
        typecheck(d.fun, {}, sigs, d.ty)
    return typecheck(p.main, {}, sigs, None)


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: TermX, sub: Mapping[str, TermX]) -> TermX:
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is Var:
        return sub.get(t.name, t)
    if cls is CrcApp:
        return CrcApp(substitute(t.subject, sub), substitute(t.crc, sub))
    if cls is Op:
        return Op(t.op, substitute(t.left, sub), substitute(t.right, sub))
    if cls is App2:
        return App2(substitute(t.fun, sub), substitute(t.arg, sub), substitute(t.cont, sub))
    if cls is Compose:
        return Compose(substitute(t.left, sub), substitute(t.right, sub))
    if cls is If:
        return If(substitute(t.cond, sub), substitute(t.then, sub), substitute(t.els, sub))
    if cls is CoercedVal:
        return CoercedVal(substitute(t.subject, sub), t.crc)
    if cls is Let:
        x, n = t.var, t.body
        m2 = substitute(t.bound, sub)
        inner = {k: v for k, v in sub.items() if k != x}
        if not inner:
            return Let(x, m2, n)
        clash = frozenset().union(*(free_vars(v) for v in inner.values()))
        if x in clash:
            x2 = fresh_name(x, clash | free_vars(n) | set(inner))
            n = substitute(n, {x: Var(x2)})
            x = x2
        return Let(x, m2, substitute(n, inner))
    if cls is Abs2:
        x, kv, m = t.var, t.kvar, t.body
        inner = {k: v for k, v in sub.items() if k not in (x, kv)}
        if not inner:
            return t
        clash = frozenset().union(*(free_vars(v) for v in inner.values()))
        ren: dict[str, TermX] = {}
        avoid = clash | free_vars(m) | set(inner)
        if x in clash:
            x2 = fresh_name(x, avoid)
            ren[x] = Var(x2)
            avoid |= {x2}
            x = x2
        if kv in clash:
            k2 = fresh_name(kv, avoid)
            ren[kv] = Var(k2)
            kv = k2
        if ren:
            m = substitute(m, ren)
        return Abs2(x, t.var_ty, kv, t.k_src, substitute(m, inner))
    return t


# ---------------------------------------------------------------------------
# Small-step semantics


def step(term: TermX, defs: Optional[Mapping[str, TermX]] = None) -> terms.StepResult:
    if is_value(term):
        return terms.IS_VALUE
    if isinstance(term, Blame):
        return terms.IS_BLAME
    r = _find(term, defs or {})
    if r is None:
        raise terms.StuckTerm(repr(term))
    return terms.Stepped(*r)


def _find(t: TermX, defs) -> Optional[tuple[str, str, TermX]]:
    """(kind, rule, whole term after the step), or None if no rule applies.

    Walks down the evaluation context to the redex, keeping each frame it
    passes as (node, index of the hole), contracts the redex, and plugs the
    result back into the frames, innermost first.
    """
    frames: list[tuple[TermX, int]] = []
    while True:
        cls = t.__class__
        if cls is App2:
            f, a, k = t.fun, t.arg, t.cont
            if f.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, f
            elif a.__class__ not in _VALUE_CLASSES:
                hole, sub = 1, a
            elif k.__class__ not in _VALUE_CLASSES:
                hole, sub = 2, k
            else:
                fc = f.__class__
                if fc is Abs2:
                    fired = ("e", "R-Beta", substitute(f.body, {f.var: a, f.kvar: k}))
                elif fc is CoercedVal and f.crc.__class__ is Fun:
                    u, s, c2 = f.subject, f.crc.arg, f.crc.res
                    kn = fresh_name("k", free_vars(u) | free_vars(a) | free_vars(k))
                    wrapped = Let(
                        kn,
                        Compose(CrcLit(c2), k),
                        App2(u, CrcApp(a, CrcLit(s)), Var(kn)),
                    )
                    fired = ("e", "R-Wrap", wrapped)
                elif fc is GlobalRef and f.name in defs:
                    fired = ("e", "R-Unfold", App2(defs[f.name], a, k))
                else:
                    return None
                break
        elif cls is CrcApp:
            m, c = t.subject, t.crc
            if m.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, m
            elif c.__class__ not in _VALUE_CLASSES:
                hole, sub = 1, c
            elif c.__class__ is not CrcLit:
                return None
            elif m.__class__ is CoercedVal:
                fired = ("c", "R-MergeV", CrcApp(m.subject, Compose(CrcLit(m.crc), c)))
                break
            elif m.__class__ in _UNCOERCED_CLASSES:
                d = c.crc
                dc = d.__class__
                if dc is Id or dc is IdStar:
                    fired = ("c", "R-Id", m)
                elif dc is Fail:
                    fired = ("c", "R-Fail", Blame(d.label))
                elif dc is InjSeq or dc is Fun:
                    fired = ("c", "R-Crc", CoercedVal(m, d))
                else:
                    return None
                break
            else:
                return None
        elif cls is Op:
            l, r = t.left, t.right
            if l.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, l
            elif r.__class__ not in _VALUE_CLASSES:
                hole, sub = 1, r
            elif l.__class__ is Const and r.__class__ is Const:
                fired = ("e", "R-Op", Const(delta(t.op, l.val, r.val)))
                break
            else:
                return None
        elif cls is Let:
            m = t.bound
            if m.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, m
            else:
                fired = ("c", "R-Let", substitute(t.body, {t.var: m}))
                break
        elif cls is Compose:
            l, r = t.left, t.right
            if l.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, l
            elif r.__class__ not in _VALUE_CLASSES:
                hole, sub = 1, r
            elif l.__class__ is CrcLit and r.__class__ is CrcLit:
                fired = ("c", "R-Cmp", CrcLit(compose(l.crc, r.crc, Fun2T)))
                break
            else:
                return None
        elif cls is If:
            c = t.cond
            if c.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, c
            elif c == TRUE:
                fired = ("e", "R-IfTrue", t.then)
                break
            elif c == FALSE:
                fired = ("e", "R-IfFalse", t.els)
                break
            else:
                return None
        else:
            return None
        if sub.__class__ is Blame:
            # blame discards the whole context
            return ("e", "E-Abort", sub)
        frames.append((t, hole))
        t = sub

    kind, rule, new = fired
    for node, hole in reversed(frames):
        cls = node.__class__
        if cls is App2:
            if hole == 0:
                new = App2(new, node.arg, node.cont)
            elif hole == 1:
                new = App2(node.fun, new, node.cont)
            else:
                new = App2(node.fun, node.arg, new)
        elif cls is CrcApp:
            new = CrcApp(new, node.crc) if hole == 0 else CrcApp(node.subject, new)
        elif cls is Op:
            new = Op(node.op, new, node.right) if hole == 0 else Op(node.op, node.left, new)
        elif cls is Let:
            new = Let(node.var, new, node.body)
        elif cls is Compose:
            new = Compose(new, node.right) if hole == 0 else Compose(node.left, new)
        else:
            new = If(new, node.then, node.els)
    return (kind, rule, new)


def evaluate(
    term: TermX,
    defs: Optional[Mapping[str, TermX]] = None,
    fuel: int = terms.DEFAULT_FUEL,
    on_step=None,
    detect_cycles: bool = False,
) -> terms.EvalOutcome:
    """Run to a value or blame; ``on_step`` sees every intermediate state."""
    return terms.evaluate(step, term, defs, fuel, on_step, detect_cycles)


def evaluate_program(
    p: ProgramX, fuel: int = terms.DEFAULT_FUEL, on_step=None, detect_cycles: bool = False
) -> terms.EvalOutcome:
    return evaluate(p.main, p.def_terms(), fuel, on_step, detect_cycles)


# ---------------------------------------------------------------------------
# Decomposition oracle


def _frame_ok(t: TermX, i: int) -> bool:
    match t:
        case Op(_, l, _) | Compose(l, _):
            return i == 0 or is_value(l)
        case App2(f, a, _):
            if i == 0:
                return True
            if i == 1:
                return is_value(f)
            return is_value(f) and is_value(a)
        case Let(_, _, _):
            return i == 0
        case CrcApp(m, _):
            return i == 0 or is_value(m)
        case If(_, _, _):
            return i == 0
        case _:
            return False


def _local_redexes(t: TermX, defs) -> Iterator[tuple[str, str, TermX]]:
    match t:
        case Op(op, Const(a), Const(b)):
            yield ("R-Op", "e", Const(delta(op, a, b)))
        case App2(Abs2(x, _, kv, _, m), a, k) if is_value(a) and is_value(k):
            yield ("R-Beta", "e", substitute(m, {x: a, kv: k}))
        case App2(CoercedVal(u, Fun(s, c2)), a, k) if is_value(a) and is_value(k):
            kn = fresh_name("k", free_vars(u) | free_vars(a) | free_vars(k))
            yield (
                "R-Wrap",
                "e",
                Let(kn, Compose(CrcLit(c2), k), App2(u, CrcApp(a, CrcLit(s)), Var(kn))),
            )
        case App2(GlobalRef(g), a, k) if is_value(a) and is_value(k) and g in defs:
            yield ("R-Unfold", "e", App2(defs[g], a, k))
        case Let(x, m, n) if is_value(m):
            yield ("R-Let", "c", substitute(n, {x: m}))
        case Compose(CrcLit(a), CrcLit(b)):
            yield ("R-Cmp", "c", CrcLit(compose(a, b, Fun2T)))
        case CrcApp(CoercedVal(u, d), CrcLit(c)):
            yield ("R-MergeV", "c", CrcApp(u, Compose(CrcLit(d), CrcLit(c))))
        case CrcApp(u, CrcLit(c)) if is_uncoerced(u):
            match c:
                case Id() | IdStar():
                    yield ("R-Id", "c", u)
                case Fail(_, p, _):
                    yield ("R-Fail", "c", Blame(p))
                case InjSeq() | Fun():
                    yield ("R-Crc", "c", CoercedVal(u, c))
        case If(Const(True), m, _):
            yield ("R-IfTrue", "e", m)
        case If(Const(False), _, n):
            yield ("R-IfFalse", "e", n)


def decompose_oracle(
    term: TermX, defs: Optional[Mapping[str, TermX]] = None
) -> list[terms.Decomposition]:
    defs = dict(defs) if defs else {}
    out: list[terms.Decomposition] = []

    def visit(path: tuple[int, ...]) -> None:
        sub = terms.subterm(term, path)
        if isinstance(sub, Blame) and path:
            out.append(terms.Decomposition(path, "E-Abort", "e", sub))
        for rule, kind, red in _local_redexes(sub, defs):
            out.append(terms.Decomposition(path, rule, kind, terms.replace(term, path, red)))
        for i in range(len(sub._kids)):
            if _frame_ok(sub, i):
                visit(path + (i,))

    visit(())
    return out


# ---------------------------------------------------------------------------
# Size accounting (the composition metric is reported, not asserted, here)


def _measure(t: TermX) -> tuple[int, int, int]:
    """(term_size, max_coercion_size, metric_f) of ``t``, in one walk."""
    cls = t.__class__
    if cls is CrcLit:
        k = size(t.crc)
        return (k, k, 0)
    if cls is CoercedVal:
        n, c, f = _measure(t.subject)
        k = size(t.crc)
        return (1 + n + k, k if k > c else c, f + 4 * k + 1)
    if cls is CrcApp:
        n, c, f = _measure(t.subject)
        kn, kc, kf = _measure(t.crc)
        if t.crc.__class__ is CrcLit:
            f += 4 * kn + 2  # kn is the literal's coercion size
        return (1 + n + kn, kc if kc > c else c, f + kf)
    if cls is Op or cls is Compose:
        kids = (t.left, t.right)
    elif cls is App2:
        kids = (t.fun, t.arg, t.cont)
    elif cls is Let:
        kids = (t.bound, t.body)
    elif cls is If:
        kids = (t.cond, t.then, t.els)
    elif cls is Abs2:
        n, c, f = _measure(t.body)
        return (1 + n, c, f)
    else:
        return _LEAF
    n, c, f = 1, 0, 0
    for k in kids:
        if k.__class__ in _LEAF_CLASSES:
            n += 1
            continue
        kn, kc, kf = _measure(k)
        n += kn
        if kc > c:
            c = kc
        f += kf
    return (n, c, f)


_LEAF = (1, 0, 0)
_LEAF_CLASSES = frozenset((Const, Var, GlobalRef, Blame))
# Asking for the three sizes of one state one after the other walks it once.
measure = terms.keep_last(_measure)


def term_size(t: TermX) -> int:
    """Nodes plus coercion sizes; a coercion literal counts as its coercion."""
    return measure(t)[0]


def max_coercion_size(t: TermX) -> int:
    return measure(t)[1]


def metric_f(t: TermX) -> int:
    """Shape of the source-calculus metric, for observation only."""
    return measure(t)[2]
