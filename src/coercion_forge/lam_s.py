"""The space-efficient source calculus.

Terms keep at most one pending coercion per value: stacked coercion
applications merge eagerly (composition steps, kind "c") before ordinary
evaluation steps (kind "e") may look past them.  The two-sort context
grammar says that a composition step may not fire directly under a pending
coercion frame, and that coercion frames never nest.  The stepper needs no
flag for it: a coercion applied to a pending coercion merges before the
search could descend under it.
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
from .terms import Variable, const_eq, const_hash, free_vars, node
from . import terms
from .types import ANY, BOOL, INT, AnyT, FunT, Type, matches, merge_types


@node
class Const:
    val: object  # int or bool

    __eq__ = const_eq
    __hash__ = const_hash


@node
class Var(Variable):
    name: str


@node
class Abs:
    _binds = ("var",)

    var: str
    var_ty: Type
    body: TermS


@node
class Op:
    op: str
    left: TermS
    right: TermS


@node
class App:
    fun: TermS
    arg: TermS


@node
class CrcApp:
    subject: TermS
    crc: Coercion


@node
class CoercedVal:
    """A value carrying its single delayed coercion (injection or arrow)."""

    subject: TermS
    crc: Coercion


@node
class Blame:
    label: str


@node
class If:
    cond: TermS
    then: TermS
    els: TermS


@node
class GlobalRef:
    name: str


TermS = Union[Const, Var, Abs, Op, App, CrcApp, CoercedVal, Blame, If, GlobalRef]

TRUE = Const(True)
FALSE = Const(False)

# op name -> (left type, right type, result type)
OPS: dict[str, tuple[Type, Type, Type]] = {
    "+": (INT, INT, INT),
    "-": (INT, INT, INT),
    "*": (INT, INT, INT),
    "=": (INT, INT, BOOL),
    "<": (INT, INT, BOOL),
}


def const_type(v: object) -> Type:
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, int):
        return INT
    raise TypeCheckError(f"unknown constant {v!r}")


def delta(op: str, a: object, b: object) -> object:
    match op:
        case "+":
            return a + b
        case "-":
            return a - b
        case "*":
            return a * b
        case "=":
            return a == b
        case "<":
            return a < b
    raise AssertionError(op)


_UNCOERCED_CLASSES = frozenset((Const, Abs, GlobalRef))
_VALUE_CLASSES = frozenset((Const, Abs, GlobalRef, Var, CoercedVal))


def is_uncoerced(t: TermS) -> bool:
    return t.__class__ in _UNCOERCED_CLASSES


def is_value(t: TermS) -> bool:
    return t.__class__ in _VALUE_CLASSES


# ---------------------------------------------------------------------------
# Typing


class TypeCheckError(Exception):
    pass


@dataclass(frozen=True)
class DefS:
    name: str
    ty: FunT
    fun: Abs


@dataclass(frozen=True)
class ProgramS:
    defs: tuple[DefS, ...]
    main: TermS

    def def_terms(self) -> dict[str, TermS]:
        return {d.name: d.fun for d in self.defs}

    def def_types(self) -> dict[str, Type]:
        return {d.name: d.ty for d in self.defs}


def typecheck(
    term: TermS,
    env: Optional[Mapping[str, Type]] = None,
    defs: Optional[Mapping[str, Type]] = None,
    expected: Optional[Type] = None,
) -> terms.Typed:
    """Build a typing derivation; ``expected`` constrains ambiguous terms.

    Blame and failure-targeted coercion applications can be given any type;
    without an expectation they type as a wildcard that later defaults to
    Dyn at reporting time.  Every answer is a derivable instance.
    """
    env = dict(env) if env else {}
    defs = dict(defs) if defs else {}
    return _tc(term, env, defs, expected)


def _done(term, ty: Type, expected: Optional[Type], children: tuple) -> terms.Typed:
    if expected is not None:
        if not matches(ty, expected):
            raise TypeCheckError(f"expected {expected!r}, found {ty!r}")
        ty = merge_types(ty, expected)
    return terms.Typed(term, ty, children)


def _tc(term: TermS, env, defs, expected: Optional[Type]) -> terms.Typed:
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
        case Abs(x, a, m):
            body_exp = None
            if isinstance(expected, FunT) and matches(expected.arg, a):
                body_exp = expected.res
            elif expected is not None and not isinstance(expected, AnyT):
                if not isinstance(expected, FunT):
                    raise TypeCheckError(f"expected {expected!r}, found a function")
                raise TypeCheckError(
                    f"function argument annotated {a!r}, expected {expected.arg!r}"
                )
            body = _tc(m, {**env, x: a}, defs, body_exp)
            return _done(term, FunT(a, body.ty), expected, (body,))
        case Op(op, l, r):
            if op not in OPS:
                raise TypeCheckError(f"unknown operator {op}")
            t1, t2, res = OPS[op]
            lt = _tc(l, env, defs, t1)
            rt = _tc(r, env, defs, t2)
            return _done(term, res, expected, (lt, rt))
        case App(m, n):
            if isinstance(m, Blame) or (isinstance(m, CrcApp) and isinstance(m.crc, Fail)):
                # the function side can take any type; pin it from the argument
                nt = _tc(n, env, defs, None)
                res = expected if expected is not None else ANY
                mt = _tc(m, env, defs, FunT(nt.ty, res))
                return _done(term, res, expected, (mt, nt))
            mt = _tc(m, env, defs, None)
            fty = mt.ty
            if isinstance(fty, AnyT):
                fty = FunT(ANY, ANY)
            if not isinstance(fty, FunT):
                raise TypeCheckError(f"applied non-function of type {mt.ty!r}")
            nt = _tc(n, env, defs, fty.arg)
            return _done(term, fty.res, expected, (mt, nt))
        case CrcApp(m, s):
            src = crc_source(s, FunT)
            sub = _tc(m, env, defs, None if isinstance(src, AnyT) else src)
            try:
                tgt = check_crc(s, sub.ty, FunT)
            except CoercionTypeError as e:
                raise TypeCheckError(str(e)) from None
            return _done(term, tgt, expected, (sub,))
        case CoercedVal(u, d):
            if not is_uncoerced(u):
                raise TypeCheckError("coerced-value subject must be an uncoerced value")
            if not is_delayed(d):
                raise TypeCheckError("coerced values carry injections or arrows only")
            sub = _tc(u, env, defs, None)
            try:
                tgt = check_crc(d, sub.ty, FunT)
            except CoercionTypeError as e:
                raise TypeCheckError(str(e)) from None
            return _done(term, tgt, expected, (sub,))
        case Blame():
            return _done(term, ANY if expected is None else expected, expected, ())
        case If(c, m, n):
            ct = _tc(c, env, defs, BOOL)
            mt = _tc(m, env, defs, expected)
            nt = _tc(n, env, defs, expected)
            if not matches(mt.ty, nt.ty):
                raise TypeCheckError(f"branch types {mt.ty!r} and {nt.ty!r} differ")
            return _done(term, merge_types(mt.ty, nt.ty), expected, (ct, mt, nt))
    raise AssertionError(term)


def typecheck_program(p: ProgramS) -> terms.Typed:
    """Check the definitions against their signatures, then the main term."""
    sigs = p.def_types()
    for d in p.defs:
        if not isinstance(d.ty, FunT):
            raise TypeCheckError(f"definition {d.name} needs a function signature")
        typecheck(d.fun, {}, sigs, d.ty)
    return typecheck(p.main, {}, sigs, None)


# ---------------------------------------------------------------------------
# Substitution


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def substitute(t: TermS, sub: Mapping[str, TermS]) -> TermS:
    """Simultaneous capture-avoiding substitution."""
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is Var:
        return sub.get(t.name, t)
    if cls is Op:
        return Op(t.op, substitute(t.left, sub), substitute(t.right, sub))
    if cls is App:
        return App(substitute(t.fun, sub), substitute(t.arg, sub))
    if cls is CrcApp:
        return CrcApp(substitute(t.subject, sub), t.crc)
    if cls is CoercedVal:
        return CoercedVal(substitute(t.subject, sub), t.crc)
    if cls is If:
        return If(substitute(t.cond, sub), substitute(t.then, sub), substitute(t.els, sub))
    if cls is Abs:
        x, m = t.var, t.body
        inner = {k: v for k, v in sub.items() if k != x}
        if not inner:
            return t
        clash = frozenset().union(*(free_vars(v) for v in inner.values()))
        if x in clash:
            x2 = fresh_name(x, clash | free_vars(m) | set(inner))
            m = substitute(m, {x: Var(x2)})
            x = x2
        return Abs(x, t.var_ty, substitute(m, inner))
    return t


# ---------------------------------------------------------------------------
# Small-step semantics


def step(term: TermS, defs: Optional[Mapping[str, TermS]] = None) -> terms.StepResult:
    if is_value(term):
        return terms.IS_VALUE
    if isinstance(term, Blame):
        return terms.IS_BLAME
    r = _find(term, defs or {})
    if r is None:
        raise terms.StuckTerm(repr(term))
    return terms.Stepped(*r)


def _find(t: TermS, defs) -> Optional[tuple[str, str, TermS]]:
    """(kind, rule, whole term after the step), or None if no rule applies.

    Walks down the evaluation context to the redex, keeping each frame it
    passes as (node, index of the hole), contracts the redex, and plugs the
    result back into the frames, innermost first.
    """
    frames: list[tuple[TermS, int]] = []
    while True:
        cls = t.__class__
        if cls is Op:
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
        elif cls is App:
            f, a = t.fun, t.arg
            if f.__class__ not in _VALUE_CLASSES:
                hole, sub = 0, f
            elif a.__class__ not in _VALUE_CLASSES:
                hole, sub = 1, a
            else:
                fc = f.__class__
                if fc is Abs:
                    fired = ("e", "R-Beta", substitute(f.body, {f.var: a}))
                elif fc is CoercedVal and f.crc.__class__ is Fun:
                    s, c2 = f.crc.arg, f.crc.res
                    fired = ("e", "R-Wrap", CrcApp(App(f.subject, CrcApp(a, s)), c2))
                elif fc is GlobalRef and f.name in defs:
                    fired = ("e", "R-Unfold", App(defs[f.name], a))
                else:
                    return None
                break
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
        elif cls is CrcApp:
            m, s = t.subject, t.crc
            mc = m.__class__
            if mc is CrcApp:
                fired = ("c", "R-MergeC", CrcApp(m.subject, compose(m.crc, s, FunT)))
                break
            if mc is CoercedVal:
                fired = ("c", "R-MergeV", CrcApp(m.subject, compose(m.crc, s, FunT)))
                break
            if mc is Blame:
                return ("e", "E-Abort", m)
            if mc not in _VALUE_CLASSES:
                hole, sub = 0, m
            elif mc in _UNCOERCED_CLASSES:
                sc = s.__class__
                if sc is Id or sc is IdStar:
                    fired = ("c", "R-Id", m)
                elif sc is Fail:
                    fired = ("c", "R-Fail", Blame(s.label))
                elif sc is InjSeq or sc is Fun:
                    fired = ("c", "R-Crc", CoercedVal(m, s))
                else:
                    return None
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
        if cls is Op:
            new = Op(node.op, new, node.right) if hole == 0 else Op(node.op, node.left, new)
        elif cls is App:
            new = App(new, node.arg) if hole == 0 else App(node.fun, new)
        elif cls is If:
            new = If(new, node.then, node.els)
        else:
            new = CrcApp(new, node.crc)
    return (kind, rule, new)


def evaluate(
    term: TermS,
    defs: Optional[Mapping[str, TermS]] = None,
    fuel: int = terms.DEFAULT_FUEL,
    on_step=None,
    detect_cycles: bool = False,
) -> terms.EvalOutcome:
    """Run to a value or blame; ``on_step`` sees every intermediate state."""
    return terms.evaluate(step, term, defs, fuel, on_step, detect_cycles)


def evaluate_program(
    p: ProgramS, fuel: int = terms.DEFAULT_FUEL, on_step=None, detect_cycles: bool = False
) -> terms.EvalOutcome:
    return evaluate(p.main, p.def_terms(), fuel, on_step, detect_cycles)


# ---------------------------------------------------------------------------
# Decomposition oracle: a grammar-driven search, independent of step()


def _frame_ok(t: TermS, i: int) -> Optional[str]:
    """Frame class if descending into child ``i`` is an evaluation frame."""
    match t:
        case Op(_, l, _):
            if i == 0:
                return "plain"
            return "plain" if is_value(l) else None
        case App(f, _):
            if i == 0:
                return "plain"
            return "plain" if is_value(f) else None
        case If(_, _, _):
            return "plain" if i == 0 else None
        case CrcApp(_, _):
            return "crc" if i == 0 else None
        case _:
            return None


def _context_sort(t: TermS, path: tuple[int, ...]) -> Optional[str]:
    """"F" or "E" if the path is a legal context of that sort, else None.

    Coercion frames may not nest directly; a context qualifies as the
    restricted sort "F" when its innermost frame is not a coercion frame.
    """
    prev = None
    node = t
    for i in path:
        cls = _frame_ok(node, i)
        if cls is None or (cls == "crc" and prev == "crc"):
            return None
        prev = cls
        node = terms.children(node)[i]
    return "E" if prev == "crc" else "F"


def _local_redexes(t: TermS, defs) -> Iterator[tuple[str, str, TermS]]:
    match t:
        case Op(op, Const(a), Const(b)):
            yield ("R-Op", "e", Const(delta(op, a, b)))
        case App(Abs(x, _, m), a) if is_value(a):
            yield ("R-Beta", "e", substitute(m, {x: a}))
        case App(CoercedVal(u, Fun(s, c2)), a) if is_value(a):
            yield ("R-Wrap", "e", CrcApp(App(u, CrcApp(a, s)), c2))
        case App(GlobalRef(g), a) if is_value(a) and g in defs:
            yield ("R-Unfold", "e", App(defs[g], a))
        case If(Const(True), m, _):
            yield ("R-IfTrue", "e", m)
        case If(Const(False), _, n):
            yield ("R-IfFalse", "e", n)
        case CrcApp(CrcApp(m, s), s2):
            yield ("R-MergeC", "c", CrcApp(m, compose(s, s2, FunT)))
        case CrcApp(CoercedVal(u, d), s2):
            yield ("R-MergeV", "c", CrcApp(u, compose(d, s2, FunT)))
        case CrcApp(u, s) if is_uncoerced(u):
            match s:
                case Id() | IdStar():
                    yield ("R-Id", "c", u)
                case Fail(_, p, _):
                    yield ("R-Fail", "c", Blame(p))
                case InjSeq() | Fun():
                    yield ("R-Crc", "c", CoercedVal(u, s))


def decompose_oracle(
    term: TermS, defs: Optional[Mapping[str, TermS]] = None
) -> list[terms.Decomposition]:
    """Every (context, redex) split licensed by the context grammar.

    On closed well-typed non-value terms exactly one decomposition exists;
    zero or several signal an interpreter or typing bug.
    """
    defs = dict(defs) if defs else {}
    out: list[terms.Decomposition] = []

    def walk(path: tuple[int, ...]) -> None:
        sub = terms.subterm(term, path)
        sort = _context_sort(term, path)
        if sort is None:
            return
        if isinstance(sub, Blame) and path:
            out.append(terms.Decomposition(path, "E-Abort", "e", sub))
        for rule, kind, red in _local_redexes(sub, defs):
            if kind == "c" and sort != "F":
                continue
            out.append(terms.Decomposition(path, rule, kind, terms.replace(term, path, red)))
        for i in range(len(sub._kids)):
            if _frame_ok(sub, i) is not None:
                walk(path + (i,))

    walk(())
    return out


# ---------------------------------------------------------------------------
# Size accounting


def _measure(t: TermS) -> tuple[int, int, int]:
    """(term_size, max_coercion_size, metric_f) of ``t``, in one walk."""
    cls = t.__class__
    if cls is CrcApp or cls is CoercedVal:
        n, c, f = _measure(t.subject)
        k = size(t.crc)
        return (1 + n + k, k if k > c else c, f + 4 * k + (2 if cls is CrcApp else 1))
    if cls is Op:
        kids = (t.left, t.right)
    elif cls is App:
        kids = (t.fun, t.arg)
    elif cls is If:
        kids = (t.cond, t.then, t.els)
    elif cls is Abs:
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


def term_size(t: TermS) -> int:
    """Nodes plus the sizes of the coercions they carry."""
    return measure(t)[0]


def max_coercion_size(t: TermS) -> int:
    return measure(t)[1]


def metric_f(t: TermS) -> int:
    """4*(pending + delayed coercion sizes) + 2*#pending + #delayed.

    Strictly decreases along composition steps, bounding how long
    evaluation can stay inside them.
    """
    return measure(t)[2]
