"""The continuation-coercion calculus.

Functions take a value plus the coercion that the caller would otherwise
apply to the result; coercions are first-class terms, composed by an
object-level operator.  Evaluation contexts are the ordinary left-to-right
call-by-value ones, so unlike the source calculus no context restriction is
needed: composition steps can fire anywhere.

The formers it shares with the source calculus live in ``terms`` and are
re-exported here; this module declares only what it adds (``Abs2``,
``App2``, ``Let``, ``Compose``, the object-level ``CrcApp`` and ``CrcLit``)
and its rules.  Its stepper is an environment machine: a call goes on into
the function body without copying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .coercions import (
    DELAYED_CLASSES,
    Coercion,
    Fail,
    Fun,
    Id,
    IdStar,
    InjSeq,
    check_crc,
    compose,
    crc_source,
    size,
)
from .types import BOOL, HOLE_FREE, CrcT, Fun2T, Hole, TyVar, Type, fill, occurs, resolved, settled
from .lam_s import OPS, TypeCheckError, _check_program, _checked, _done, _shaped
from .lam_s import const_type, delta
from .terms import (
    FALSE,
    TRUE,
    Blame,
    CoercedVal,
    Const,
    GlobalRef,
    If,
    Op,
    Var,
    free_vars,
    fresh_name,
    if_cond,
    node,
    op_left,
    op_right,
    under_binder,
)
from . import terms


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
class CrcLit:
    crc: Coercion


TermX = (
    Const | Var | Abs2 | Op | App2 | Let | Compose | CrcApp | CoercedVal | CrcLit | Blame | If
    | GlobalRef
)

_UNCOERCED_CLASSES = frozenset((Const, Abs2, CrcLit, GlobalRef))
_VALUE_CLASSES = frozenset((Const, Abs2, CrcLit, GlobalRef, Var, CoercedVal))


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


def typecheck(
    term: TermX,
    env: Optional[Mapping[str, Type]] = None,
    defs: Optional[Mapping[str, Type]] = None,
    expected: Optional[Type] = None,
    memo: Optional[dict] = None,
) -> terms.Typed:
    """Build a typing derivation in one pass, with holes, the caller's too,
    and ``memo`` as in :func:`lam_s.typecheck`.

    In the empty environment the binder depth is 0, so a memoized
    derivation's rigid answer variables are fixed.
    """
    return _checked(_tc, term, env, defs, expected, memo, 0)


def _tc(term: TermX, env, defs, expected: Optional[Type], depth: int, memo, late) -> terms.Typed:
    # keeps derivations as :func:`lam_s._tc` does
    if not env and memo is not None:
        table, key = memo, (id(term), expected)
        typed = table.get(key)
        if typed is not None:
            return typed
    else:
        table = key = None
    # dispatch on the node class: this runs on every node of every checked
    # state, where a ``match`` chain's tests add up
    cls = term.__class__
    if cls is Const:
        return _done(term, const_type(term.val), expected, (), table, key, late)
    if cls is Var:
        x = term.name
        if x not in env:
            raise TypeCheckError(f"unbound variable {x}")
        # each use meets the open holes of a let-bound type afresh
        return _done(term, settled(env[x], True), expected, (), table, key, late)
    if cls is GlobalRef:
        f = term.name
        if f not in defs:
            raise TypeCheckError(f"unknown definition {f}")
        return _done(term, defs[f], expected, (), table, key, late)
    if cls is Abs2:
        a, b = term.var_ty, term.k_src
        if expected is not None:
            e = resolved(expected)
            if e.__class__ is Fun2T and not fill(e, Fun2T(a, b)):
                raise TypeCheckError(f"function annotated {a!r}/{b!r}, expected {expected!r}")
        # the body answers in a rigid variable no annotation can name; sibling
        # bodies share it, but it cannot leave one: a body's type must be it or open
        x_var = TyVar(-1 - depth)
        body_env = {**env, term.var: a, term.kvar: CrcT(b, x_var)}
        body = _tc(term.body, body_env, defs, None, depth + 1, memo, late)
        bty = resolved(body.ty)
        if not (bty.__class__ is Hole or bty == x_var):
            if occurs(x_var, bty):
                raise EscapedTyVar(f"answer type {bty!r} leaks the rigid variable {x_var!r}")
            raise TypeCheckError(
                f"body must produce the continuation's answer type, found {bty!r}"
            )
        return _done(term, Fun2T(a, b), expected, (body,), table, key, late)
    if cls is Op:
        op = term.op
        if op not in OPS:
            raise TypeCheckError(f"unknown operator {op}")
        t1, t2, res = OPS[op]
        lt = _tc(term.left, env, defs, t1, depth, memo, late)
        rt = _tc(term.right, env, defs, t2, depth, memo, late)
        return _done(term, res, expected, (lt, rt), table, key, late)
    if cls is App2:
        f, a, k = term.fun, term.arg, term.cont
        ft = _tc(f, env, defs, None, depth, memo, late)
        fty = _shaped(ft.ty, Fun2T, "applied non-function of type {!r}")
        at = _tc(a, env, defs, fty.arg, depth, memo, late)
        kt, tgt = _applied(k, fty.res, env, defs, depth, memo, late)
        return _done(term, tgt, expected, (ft, at, kt), table, key, late)
    if cls is Let:
        mt = _tc(term.bound, env, defs, None, depth, memo, late)
        nt = _tc(term.body, {**env, term.var: mt.ty}, defs, expected, depth, memo, late)
        return _done(term, nt.ty, expected, (mt, nt), table, key, late)
    if cls is Compose:
        lt = _tc(term.left, env, defs, None, depth, memo, late)
        lty = _shaped(lt.ty, CrcT, "composition operand must have a coercion type, found {!r}")
        rt, tgt = _applied(term.right, lty.tgt, env, defs, depth, memo, late)
        return _done(term, CrcT(lty.src, tgt), expected, (lt, rt), table, key, late)
    if cls is CrcApp:
        mt = _tc(term.subject, env, defs, None, depth, memo, late)
        ct, tgt = _applied(term.crc, mt.ty, env, defs, depth, memo, late)
        return _done(term, tgt, expected, (mt, ct), table, key, late)
    if cls is CoercedVal:
        u, d = term.subject, term.crc
        if u.__class__ not in _UNCOERCED_CLASSES:
            raise TypeCheckError("coerced-value subject must be an uncoerced value")
        if d.__class__ not in DELAYED_CLASSES:
            raise TypeCheckError("coerced values carry injections or arrows only")
        sub = _tc(u, env, defs, None, depth, memo, late)
        return _done(term, check_crc(d, sub.ty, Fun2T), expected, (sub,), table, key, late)
    if cls is CrcLit:
        c = term.crc
        src = crc_source(c, Fun2T)
        if expected is not None and src.__class__ is Hole:
            e = resolved(expected)
            if e.__class__ is CrcT:
                src = e.src
        return _done(term, CrcT(src, check_crc(c, src, Fun2T)), expected, (), table, key, late)
    if cls is Blame:
        return _done(term, expected or Hole(), expected, (), table, key, late)
    if cls is If:
        ct = _tc(term.cond, env, defs, BOOL, depth, memo, late)
        # each branch meets its own copy of the open holes of ``expected``,
        # so neither fills one before the other meets it
        mt = _tc(term.then, env, defs, settled(expected, True), depth, memo, late)
        nt = _tc(term.els, env, defs, settled(expected, True), depth, memo, late)
        if not fill(mt.ty, nt.ty):
            raise TypeCheckError(f"branch types {mt.ty!r} and {nt.ty!r} differ")
        return _done(term, mt.ty, expected, (ct, mt, nt), table, key, late)
    raise AssertionError(term)


def _applied(k: TermX, src: Type, env, defs, depth: int, memo, late) -> tuple[terms.Typed, Type]:
    """The derivation of the coercion term ``k``, checked from ``src`` to a
    fresh hole, and what fills that hole.  No memo key holding the hole is
    asked twice, so ``k`` is checked without the memo, which keeps the
    answer under ``src`` instead if ``src`` holds no hole and no derivation
    of ``k`` went to ``late``: then what fills the hole holds none either."""
    # three parts, so no key of :func:`_tc` is equal to it
    key = (id(k), src, "applied") if not env and memo is not None else None
    if key is not None:
        answer = memo.get(key)
        if answer is not None:
            return answer
    n = len(late)
    expected = CrcT(src, Hole())
    kt = _tc(k, env, defs, expected, depth, None, late)
    tgt = resolved(expected.tgt)
    if key is not None and len(late) == n and (src.__class__ in HOLE_FREE or settled(src) is src):
        memo[key] = kt, tgt
    return kt, tgt


def typecheck_program(p: ProgramX) -> terms.Typed:
    """Check ``p`` as :func:`lam_s.typecheck_program` does, with no typing
    memo.  A translated program keeps nothing: each call checks it."""
    return _check_program(p, typecheck, Fun2T)[1]


def run_memo(p: ProgramX) -> dict:
    """A typing memo for one run of ``p``'s states, from a check of ``p``
    made at each call, as :func:`typecheck_program`'s is."""
    return _check_program(p, typecheck, Fun2T, {})[2]


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: TermX, sub: Mapping[str, TermX]) -> TermX:
    """Simultaneous capture-avoiding substitution; a node none of whose
    children changes is handed back itself, as in :func:`lam_s.substitute`."""
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is Var:
        return sub.get(t.name, t)
    if cls is CrcApp:
        m, k = substitute(t.subject, sub), substitute(t.crc, sub)
        return t if m is t.subject and k is t.crc else CrcApp(m, k)
    if cls is Op:
        l, r = substitute(t.left, sub), substitute(t.right, sub)
        return t if l is t.left and r is t.right else Op(t.op, l, r)
    if cls is App2:
        f, a, k = substitute(t.fun, sub), substitute(t.arg, sub), substitute(t.cont, sub)
        return t if f is t.fun and a is t.arg and k is t.cont else App2(f, a, k)
    if cls is Compose:
        l, r = substitute(t.left, sub), substitute(t.right, sub)
        return t if l is t.left and r is t.right else Compose(l, r)
    if cls is If:
        c, m, n = substitute(t.cond, sub), substitute(t.then, sub), substitute(t.els, sub)
        return t if c is t.cond and m is t.then and n is t.els else If(c, m, n)
    if cls is CoercedVal:
        m = substitute(t.subject, sub)
        return t if m is t.subject else CoercedVal(m, t.crc)
    if cls is Let:
        x, n = under_binder(t, sub, substitute) or (t.var, t.body)
        m = substitute(t.bound, sub)
        return t if m is t.bound and n is t.body and x == t.var else Let(x, m, n)
    if cls is Abs2:
        under = under_binder(t, sub, substitute)
        if under is None or (under[2] is t.body and under[0] == t.var and under[1] == t.kvar):
            return t
        return Abs2(under[0], t.var_ty, under[1], t.k_src, under[2])
    return t


# ---------------------------------------------------------------------------
# Small-step semantics: an environment machine
#
# The search carries an environment, a dict from bound names to closed
# values (the CEK machine of Biernacka and Danvy, "A concrete framework for
# environment machines", 2007).  A term under an environment stands for the
# term ``substitute`` makes of the two, so R-Beta and R-Let go on into the
# body under one instead of copying it.  A variable is looked up, and a
# function or coerced-value literal substituted, only where a rule takes
# its value.  A binder step on an open value substitutes at once, as the
# rules do, so an environment never holds a free name that a binder could
# capture.  Reading a step's term applies the environments still pending.

# The empty environment.  No environment is changed once built.
_EMPTY: dict = {}


# The leaves other than a variable, which stand for themselves under any environment.
_CLOSED_LEAVES = frozenset((Const, CrcLit, GlobalRef, Blame))


def _close(env, t):
    """The refill of the innermost frame of a step whose contractum is under ``env``."""
    return t if t.__class__ in _CLOSED_LEAVES else substitute(t, env)


def step(term, defs: Optional[Mapping[str, TermX]] = None) -> terms.StepResult:
    """The step from ``term``; a ``Stepped`` is taken as :func:`lam_s.step` takes it."""
    if term.__class__ is terms.Stepped:
        t = term._focus
        if t is None:
            return _find(term.term, _EMPTY, None, defs or {})
        k = term._ctx
        if k is not None and k[0] is _close:
            return _find(t, k[1], k[2], defs or {})
        return _find(t, _EMPTY, k, defs or {})
    r = _find(term, _EMPTY, None, defs or {})
    if r.__class__ is terms.Stepped:
        r.term  # noqa: B018 (builds the whole term)
    return r


def _stepped(rule: str, focus: TermX, env, k) -> terms.Stepped:
    return terms.refocused(rule, focus, (_close, env, k) if env else k)


def _closed(v: TermX, env) -> bool:
    """Whether the value ``v`` under ``env`` stands for a closed term."""
    cls = v.__class__
    if cls is Var:
        return v.name in env
    if cls is Abs2 or cls is CoercedVal:
        return env.keys() >= free_vars(v)
    return True


def _value(v: TermX, env) -> TermX:
    """The value ``v`` under the non-empty ``env`` stands for."""
    cls = v.__class__
    if cls is Var:
        return env.get(v.name, v)
    if cls is Abs2 or cls is CoercedVal:
        return substitute(v, env)
    return v


# A frame's node slot holds the list [node, env], where env is what the
# node's children but the hole are under.  A value returned to the frame
# fires the node's rule from the list without building the node; the
# search rebuilds it bare (``_BARE``), and goes on under env, only to go
# down a later child that is not a value yet.  A read's refill applies env
# to those children and keeps the node it built in the list, under the
# empty environment, so no frame is substituted twice.

# What a node built by a refill holds in its hole, which no refill reads.
_HOLE = Blame("")

_BARE: dict = {}


def _frame(bare):
    """The refill of the frames whose node ``bare(node, t)`` rebuilds."""

    def refill(p, t):
        n, e = p
        if e:
            n = substitute(bare(n, _HOLE), e)
            p[:] = n, _EMPTY
        return bare(n, t)

    _BARE[refill] = bare
    return refill


_APP2_FUN = _frame(lambda n, t: App2(t, n.arg, n.cont))
_APP2_ARG = _frame(lambda n, t: App2(n.fun, t, n.cont))
_APP2_CONT = _frame(lambda n, t: App2(n.fun, n.arg, t))
_CRC_SUBJECT = _frame(lambda n, t: CrcApp(t, n.crc))
_CRC_CRC = _frame(lambda n, t: CrcApp(n.subject, t))
_LET_BOUND = _frame(lambda n, t: Let(n.var, t, n.body))
_COMPOSE_LEFT = _frame(lambda n, t: Compose(t, n.right))
_COMPOSE_RIGHT = _frame(lambda n, t: Compose(n.left, t))
_OP_LEFT = _frame(op_left)
_OP_RIGHT = _frame(op_right)
_IF_COND = _frame(if_cond)


def _find(t: TermX, env, k, defs) -> terms.StepResult:
    """The next step from the focus ``t`` under ``env`` in the context ``k``;
    raises StuckTerm if no rule applies.

    The search of :func:`lam_s._find`, over plain call-by-value frames
    only: no rule looks at the frame above the focus.  A contractum stays
    under the focus's environment, but R-Beta's and R-Let's go under a
    new one, and R-Unfold's, E-Abort's and those of a binder step on an
    open value are under none.
    """
    while True:
        cls = t.__class__
        if cls is App2:
            f, a, c = t.fun, t.arg, t.cont
            if f.__class__ not in _VALUE_CLASSES:
                k, t = (_APP2_FUN, [t, env], k), f
            elif a.__class__ not in _VALUE_CLASSES:
                k, t = (_APP2_ARG, [t, env], k), a
            elif c.__class__ not in _VALUE_CLASSES:
                k, t = (_APP2_CONT, [t, env], k), c
            else:
                return _app2(f, a, c, env, k, defs)
        elif cls is CrcApp:
            m, c = t.subject, t.crc
            if m.__class__ not in _VALUE_CLASSES:
                k, t = (_CRC_SUBJECT, [t, env], k), m
            elif c.__class__ not in _VALUE_CLASSES:
                k, t = (_CRC_CRC, [t, env], k), c
            else:
                return _crc(m, c, env, k)
        elif cls is Op:
            l, r = t.left, t.right
            if l.__class__ not in _VALUE_CLASSES:
                k, t = (_OP_LEFT, [t, env], k), l
            elif r.__class__ not in _VALUE_CLASSES:
                k, t = (_OP_RIGHT, [t, env], k), r
            else:
                return _op(t, l, r, env, k)
        elif cls is Let:
            m = t.bound
            if m.__class__ not in _VALUE_CLASSES:
                k, t = (_LET_BOUND, [t, env], k), m
            else:
                return _let(t, m, env, k)
        elif cls is Compose:
            l, r = t.left, t.right
            if l.__class__ not in _VALUE_CLASSES:
                k, t = (_COMPOSE_LEFT, [t, env], k), l
            elif r.__class__ not in _VALUE_CLASSES:
                k, t = (_COMPOSE_RIGHT, [t, env], k), r
            else:
                return _compose(l, r, env, k)
        elif cls is If:
            c = t.cond
            if c.__class__ not in _VALUE_CLASSES:
                k, t = (_IF_COND, [t, env], k), c
            else:
                return _if(t, c, env, k)
        elif cls in _VALUE_CLASSES:
            if k is None:
                return terms.IS_VALUE
            refill, p, k = k
            n, e = p
            if e is not env:
                if e and not _closed(t, env):
                    # an open value does not go under another environment:
                    # the parent is built with its own applied
                    t = refill(p, _value(t, env) if env else t)
                    env = _EMPTY
                    continue
                if env:
                    t = _value(t, env)
                env = e
            # The value ``t`` under ``env`` fills the hole of ``n``, whose
            # other children are under ``env`` too; the frames in the order
            # of how often a value returns to them.
            if refill is _CRC_SUBJECT:
                if n.crc.__class__ in _VALUE_CLASSES:
                    return _crc(t, n.crc, env, k)
            elif refill is _IF_COND:
                return _if(n, t, env, k)
            elif refill is _LET_BOUND:
                return _let(n, t, env, k)
            elif refill is _APP2_ARG:
                if n.cont.__class__ in _VALUE_CLASSES:
                    return _app2(n.fun, t, n.cont, env, k, defs)
            elif refill is _APP2_CONT:
                return _app2(n.fun, n.arg, t, env, k, defs)
            elif refill is _OP_RIGHT:
                return _op(n, n.left, t, env, k)
            elif refill is _OP_LEFT:
                if n.right.__class__ in _VALUE_CLASSES:
                    return _op(n, t, n.right, env, k)
            elif refill is _COMPOSE_RIGHT:
                return _compose(n.left, t, env, k)
            elif refill is _COMPOSE_LEFT:
                if n.right.__class__ in _VALUE_CLASSES:
                    return _compose(t, n.right, env, k)
            elif refill is _CRC_CRC:
                return _crc(n.subject, t, env, k)
            elif n.arg.__class__ in _VALUE_CLASSES and n.cont.__class__ in _VALUE_CLASSES:
                # refill is _APP2_FUN
                return _app2(t, n.arg, n.cont, env, k, defs)
            # a later child is not a value yet: the search goes on from the node
            t = _BARE[refill](n, t)
        elif cls is Blame:
            if k is None:
                return terms.IS_BLAME
            # blame discards the whole context
            return _stepped("E-Abort", t, _EMPTY, None)
        else:
            raise terms.StuckTerm.at(t, k)


# The rules of each former, fired at a node whose children the search has
# found to be values, under ``env`` in the context ``k`` of that node.  The
# node ``n`` gives the data fields and the children no rule takes the value
# of; the other children are given apart, since a value returned to a frame
# fills a hole that ``n``'s own child does not.


def _app2(f, a, c, env, k, defs) -> terms.Stepped:
    if env:
        f = _value(f, env)
    fc = f.__class__
    if fc is Abs2:
        closed = _closed(a, env) and _closed(c, env)
        if env:
            a, c = _value(a, env), _value(c, env)
        sub = {f.var: a, f.kvar: c}
        if closed:
            return _stepped("R-Beta", f.body, sub, k)
        return _stepped("R-Beta", substitute(f.body, sub), _EMPTY, k)
    if env:
        a, c = _value(a, env), _value(c, env)
    if fc is CoercedVal and f.crc.__class__ is Fun:
        u, s, c2 = f.subject, f.crc.arg, f.crc.res
        kn = fresh_name("k", free_vars(u) | free_vars(a) | free_vars(c))
        wrapped = Let(
            kn,
            Compose(CrcLit(c2), c),
            App2(u, CrcApp(a, CrcLit(s)), Var(kn)),
        )
        return _stepped("R-Wrap", wrapped, env, k)
    if fc is GlobalRef and f.name in defs:
        return _stepped("R-Unfold", App2(defs[f.name], a, c), _EMPTY, k)
    raise terms.StuckTerm.at(App2(f, a, c), k)


def _crc(m, c, env, k) -> terms.Stepped:
    if env:
        m, c = _value(m, env), _value(c, env)
    if c.__class__ is CrcLit:
        if m.__class__ is CoercedVal:
            merged = CrcApp(m.subject, Compose(CrcLit(m.crc), c))
            return _stepped("R-MergeV", merged, env, k)
        if m.__class__ in _UNCOERCED_CLASSES:
            d = c.crc
            dc = d.__class__
            if dc is Id or dc is IdStar:
                return _stepped("R-Id", m, env, k)
            if dc is Fail:
                return _stepped("R-Fail", Blame(d.label), env, k)
            if dc is InjSeq or dc is Fun:
                return _stepped("R-Crc", CoercedVal(m, d), env, k)
    raise terms.StuckTerm.at(CrcApp(m, c), k)


def _op(n, l, r, env, k) -> terms.Stepped:
    if env:
        l, r = _value(l, env), _value(r, env)
    if l.__class__ is Const and r.__class__ is Const:
        return _stepped("R-Op", Const(delta(n.op, l.val, r.val)), env, k)
    raise terms.StuckTerm.at(Op(n.op, l, r), k)


def _let(n, m, env, k) -> terms.Stepped:
    x, body = n.var, n.body
    closed = _closed(m, env)
    if env:
        m = _value(m, env)
    if closed:
        return _stepped("R-Let", body, {**env, x: m}, k)
    # the body as the Let under ``env`` holds it
    outer = {y: v for y, v in env.items() if y != x}
    if outer:
        body = substitute(body, outer)
    return _stepped("R-Let", substitute(body, {x: m}), _EMPTY, k)


def _compose(l, r, env, k) -> terms.Stepped:
    if env:
        l, r = _value(l, env), _value(r, env)
    if l.__class__ is CrcLit and r.__class__ is CrcLit:
        return _stepped("R-Cmp", CrcLit(compose(l.crc, r.crc, Fun2T)), env, k)
    raise terms.StuckTerm.at(Compose(l, r), k)


def _if(n, c, env, k) -> terms.Stepped:
    if env:
        c = _value(c, env)
    if c == TRUE:
        return _stepped("R-IfTrue", n.then, env, k)
    if c == FALSE:
        return _stepped("R-IfFalse", n.els, env, k)
    # the branches are under ``env``: the message names what a variable there stands for
    raise terms.StuckTerm.at(substitute(If(c, n.then, n.els), env), k)


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


# The call-by-value contexts: each former's evaluation frames, left to
# right.  Coercion passing leaves no pending coercion frame: none is "crc".
_FRAMES = {
    Op: ("plain", "plain"),
    Compose: ("plain", "plain"),
    CrcApp: ("plain", "plain"),
    App2: ("plain", "plain", "plain"),
    Let: ("plain",),
    If: ("plain",),
}


def _local_redexes(t: TermX, defs) -> Optional[tuple[str, TermX]]:
    """The rule that fires at ``t`` and its contractum, or None."""
    cls = t.__class__
    if cls is Op and t.left.__class__ is Const and t.right.__class__ is Const:
        return ("R-Op", Const(delta(t.op, t.left.val, t.right.val)))
    elif cls is App2 and t.arg.__class__ in _VALUE_CLASSES and t.cont.__class__ in _VALUE_CLASSES:
        f, a, k = t.fun, t.arg, t.cont
        fcls = f.__class__
        if fcls is Abs2:
            return ("R-Beta", substitute(f.body, {f.var: a, f.kvar: k}))
        if fcls is CoercedVal and f.crc.__class__ is Fun:
            u = f.subject
            kn = fresh_name("k", free_vars(u) | free_vars(a) | free_vars(k))
            wrapped = App2(u, CrcApp(a, CrcLit(f.crc.arg)), Var(kn))
            return ("R-Wrap", Let(kn, Compose(CrcLit(f.crc.res), k), wrapped))
        if fcls is GlobalRef and f.name in defs:
            return ("R-Unfold", App2(defs[f.name], a, k))
    elif cls is Let and t.bound.__class__ in _VALUE_CLASSES:
        return ("R-Let", substitute(t.body, {t.var: t.bound}))
    elif cls is Compose and t.left.__class__ is CrcLit and t.right.__class__ is CrcLit:
        return ("R-Cmp", CrcLit(compose(t.left.crc, t.right.crc, Fun2T)))
    elif cls is CrcApp and t.crc.__class__ is CrcLit:
        m, c = t.subject, t.crc
        mcls = m.__class__
        if mcls is CoercedVal:
            return ("R-MergeV", CrcApp(m.subject, Compose(CrcLit(m.crc), c)))
        if mcls in _UNCOERCED_CLASSES:
            s = c.crc
            scls = s.__class__
            if scls is Id or scls is IdStar:
                return ("R-Id", m)
            if scls is Fail:
                return ("R-Fail", Blame(s.label))
            if scls in DELAYED_CLASSES:
                return ("R-Crc", CoercedVal(m, s))
    elif cls is If and t.cond.__class__ is Const:
        if t.cond.val is True:
            return ("R-IfTrue", t.then)
        if t.cond.val is False:
            return ("R-IfFalse", t.els)
    return None


def decompose_oracle(
    term: TermX, defs: Optional[Mapping[str, TermX]] = None
) -> list[terms.Decomposition]:
    """Every (context, redex) split licensed by the call-by-value contexts."""
    return terms.decompose(term, defs, _FRAMES, _VALUE_CLASSES, _local_redexes)


# ---------------------------------------------------------------------------
# Size accounting (the composition metric is reported, not asserted, here)


def measure(t: TermX) -> tuple[int, int, int]:
    """(term_size, max_coercion_size, metric_f) of ``t``, in one loop that
    adds up each node's own share: 1, and the size and the metric term of
    the coercion it carries.  A coercion literal counts as its coercion
    alone, and an application of one carries it."""
    n = c = f = 0
    stack = [t]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is CrcLit:
            k = size(t.crc)
            n += k
            c = k if k > c else c
            continue
        n += 1
        if cls is CrcApp:
            d = t.crc
            if d.__class__ is CrcLit:
                k = size(d.crc)
                n += k
                c = k if k > c else c
                f += 4 * k + 2
            else:
                stack.append(d)
            stack.append(t.subject)
        elif cls is CoercedVal:
            k = size(t.crc)
            n += k
            c = k if k > c else c
            f += 4 * k + 1
            stack.append(t.subject)
        elif cls is Op or cls is Compose:
            stack += t.left, t.right
        elif cls is App2:
            stack += t.fun, t.arg, t.cont
        elif cls is Let:
            stack += t.bound, t.body
        elif cls is If:
            stack += t.cond, t.then, t.els
        elif cls is Abs2:
            stack.append(t.body)
    return (n, c, f)


def measure_step(r: terms.Stepped) -> tuple[int, int, int]:
    """The sizes (:func:`measure`) of the state the step ``r`` left, read
    from its term.  A frame may hold an environment still to be applied,
    which changes the sizes, so the state is plugged first.  The step
    keeps them, as in :func:`lam_s.measure_step`."""
    m = getattr(r, "_sizes", None)
    if m is None:
        m = measure(r.term)
        terms.keep_sizes(r, m)
    return m


def _sizes(s) -> tuple[int, int, int]:
    """The sizes of the term ``s``, or of the state the step ``s`` left."""
    return measure_step(s) if s.__class__ is terms.Stepped else measure(s)


def term_size(s) -> int:
    """Nodes plus coercion sizes; a coercion literal counts as its coercion."""
    return _sizes(s)[0]


def max_coercion_size(s) -> int:
    return _sizes(s)[1]


def metric_f(s) -> int:
    """Shape of the source-calculus metric, for observation only."""
    return _sizes(s)[2]
