"""The space-efficient source calculus.

The formers it shares with the target calculus live in ``terms`` and are
re-exported here; this module declares only its own formers (``Abs``,
``App`` and the meta-level coercion application ``CrcApp``) and its rules.

Terms keep at most one pending coercion per value: stacked coercion
applications merge eagerly (composition steps, kind "c") before ordinary
evaluation steps (kind "e") may look past them.  The two-sort context
grammar says that a composition step may not fire directly under a pending
coercion frame, and that coercion frames never nest.  The stepper needs no
flag for it: R-MergeC fires from one place, the check of the frame above a
pending coercion in the focus.  A search that reaches a coercion applied to
a pending coercion goes down one frame and merges the pair there, before
anything under them fires, and a search that goes on from a contractum
looks at the frame above it first.  The decomposition oracle states the
grammar: the table ``_FRAMES`` gives each former's frames and their sorts,
"plain" or "crc", and the shared search ``terms.decompose`` applies the
two rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

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
    if_cond,
    node,
    op_left,
    op_right,
    under_binder,
)
from . import terms
from .types import (
    ANY, BOOL, INT, AnyT, FunT, Type, TypeCheckError, default_wildcards, matches, merge_types
)


@node
class Abs:
    _binds = ("var",)

    var: str
    var_ty: Type
    body: TermS


@node
class App:
    fun: TermS
    arg: TermS


@node
class CrcApp:
    subject: TermS
    crc: Coercion


TermS = Union[Const, Var, Abs, Op, App, CrcApp, CoercedVal, Blame, If, GlobalRef]

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
# the formers without children
_LEAVES = frozenset((Const, Var, Blame, GlobalRef))


def is_value(t: TermS) -> bool:
    return t.__class__ in _VALUE_CLASSES


# ---------------------------------------------------------------------------
# Typing


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
    memo: Optional[dict] = None,
) -> terms.Typed:
    """Build a typing derivation; ``expected`` constrains ambiguous terms.

    Blame and failure-targeted coercion applications can be given any type;
    without an expectation they type as a wildcard.  An argument or a
    coercion's subject, whose type reaches no enclosing type, is pinned
    (:func:`_pinned`): a wildcard left in its type is read as Dyn
    (:func:`types.default_wildcards`) and it is checked again at that type,
    so a wildcard stays only where the term's own type keeps it.  Every
    answer is a derivable instance.  From its first re-check on, a check
    keeps each derivation it makes, so a re-check costs one more pass.

    ``memo``, a dict kept across the checks of one run's states, reuses the
    derivations of the subterms checked in the empty environment, keyed by
    node identity and expected type.  Evaluation contexts never go under a
    binder, so it answers for every subterm a step left in place.  The
    answers are the same without it.  A memo serves one set of ``defs``;
    see :func:`terms.claim_memo`.
    """
    env = dict(env) if env else {}
    defs = dict(defs) if defs else {}
    if memo is not None:
        terms.claim_memo(memo, defs)
    return _tc(term, env, defs, expected, memo, {})


def _done(term, ty: Type, expected: Optional[Type], children: tuple, table, key) -> terms.Typed:
    # a type matches itself, and merging it with itself gives it back
    if expected is not None and expected is not ty:
        if not matches(ty, expected):
            raise TypeCheckError(f"expected {expected!r}, found {ty!r}")
        ty = merge_types(ty, expected)
    typed = terms.Typed(term, ty, children)
    if table is not None:
        # ``typed`` keeps ``term`` alive, so its id names it while the table lives
        table[key] = typed
    return typed


# Set in ``seen`` when a check first checks a subterm again; from then on it keeps each derivation
_AGAIN = "again"


def _bind(seen, binder, env, names: dict) -> dict:
    # ``binder``'s body's environment, made once per check and kept in
    # ``seen``, so its id names it and every check of ``binder`` shares it
    return seen.setdefault((id(binder), id(env)), {**env, **names})


def _tc(term: TermS, env, defs, expected: Optional[Type], memo, seen) -> terms.Typed:
    if not env and memo is not None:
        table, key = memo, (id(term), expected)
    elif _AGAIN in seen:
        table, key = seen, (id(term), id(env), expected)
    else:
        table = key = None
    if table is not None:
        typed = table.get(key)
        if typed is not None:
            return typed
    # dispatch on the node class: this runs on every node of every checked
    # state, where a ``match`` chain's tests add up
    cls = term.__class__
    if cls is Const:
        return _done(term, const_type(term.val), expected, (), table, key)
    if cls is Var:
        x = term.name
        if x not in env:
            raise TypeCheckError(f"unbound variable {x}")
        return _done(term, env[x], expected, (), table, key)
    if cls is GlobalRef:
        f = term.name
        if f not in defs:
            raise TypeCheckError(f"unknown definition {f}")
        return _done(term, defs[f], expected, (), table, key)
    if cls is Abs:
        x, a = term.var, term.var_ty
        body_exp = None
        if isinstance(expected, FunT) and matches(expected.arg, a):
            body_exp = expected.res
        elif expected is not None and not isinstance(expected, AnyT):
            if not isinstance(expected, FunT):
                raise TypeCheckError(f"expected {expected!r}, found a function")
            raise TypeCheckError(
                f"function argument annotated {a!r}, expected {expected.arg!r}"
            )
        body = _tc(term.body, _bind(seen, term, env, {x: a}), defs, body_exp, memo, seen)
        return _done(term, FunT(a, body.ty), expected, (body,), table, key)
    if cls is Op:
        op = term.op
        if op not in OPS:
            raise TypeCheckError(f"unknown operator {op}")
        t1, t2, res = OPS[op]
        lt = _tc(term.left, env, defs, t1, memo, seen)
        rt = _tc(term.right, env, defs, t2, memo, seen)
        return _done(term, res, expected, (lt, rt), table, key)
    if cls is App:
        m, n = term.fun, term.arg
        mt = _tc(m, env, defs, None, memo, seen)
        fty = mt.ty
        if fty.__class__ is AnyT:
            fty = FunT(ANY, ANY)  # the function can take any type
        elif fty.__class__ is not FunT:
            raise TypeCheckError(f"applied non-function of type {fty!r}")
        arg, res = fty.arg, fty.res
        if expected is not None and default_wildcards(res) is not res:
            # a function whose answer left a wildcard answers at the application's
            # type; any other keeps its own type, so an error names that type
            res = expected
        if default_wildcards(arg) is arg:
            nt = _tc(n, env, defs, arg, memo, seen)
        else:
            # the argument, pinned, fixes a parameter type no enclosing type reaches
            nt = _pinned(n, env, defs, arg, ANY, memo, seen)
            arg = nt.ty
        if arg is not fty.arg or res is not fty.res:
            seen[_AGAIN] = True
            mt = _tc(m, env, defs, FunT(arg, res), memo, seen)
            fty = mt.ty
        return _done(term, fty.res, expected, (mt, nt), table, key)
    if cls is CrcApp:
        s = term.crc
        if s.__class__ is Fail:
            # a failure converts from any type consistent with its source tag
            sub = _pinned(term.subject, env, defs, None, s.src_tag, memo, seen)
        else:
            sub = _pinned(term.subject, env, defs, crc_source(s, FunT), ANY, memo, seen)
        return _done(term, check_crc(s, sub.ty, FunT), expected, (sub,), table, key)
    if cls is CoercedVal:
        u, d = term.subject, term.crc
        if u.__class__ not in _UNCOERCED_CLASSES:
            raise TypeCheckError("coerced-value subject must be an uncoerced value")
        if d.__class__ not in DELAYED_CLASSES:
            raise TypeCheckError("coerced values carry injections or arrows only")
        sub = _pinned(u, env, defs, None, crc_source(d, FunT), memo, seen)
        return _done(term, check_crc(d, sub.ty, FunT), expected, (sub,), table, key)
    if cls is Blame:
        return _done(term, ANY if expected is None else expected, expected, (), table, key)
    if cls is If:
        ct = _tc(term.cond, env, defs, BOOL, memo, seen)
        mt = _tc(term.then, env, defs, expected, memo, seen)
        nt = _tc(term.els, env, defs, expected, memo, seen)
        if not matches(mt.ty, nt.ty):
            raise TypeCheckError(f"branch types {mt.ty!r} and {nt.ty!r} differ")
        ty = merge_types(mt.ty, nt.ty)
        # a branch that left a wildcard its sibling fixes answers at the
        # merged type, so no wildcard stays in its derivation
        if mt.ty != ty and default_wildcards(mt.ty) is not mt.ty:
            seen[_AGAIN] = True
            mt = _tc(term.then, env, defs, ty, memo, seen)
        if nt.ty != ty and default_wildcards(nt.ty) is not nt.ty:
            seen[_AGAIN] = True
            nt = _tc(term.els, env, defs, ty, memo, seen)
        return _done(term, ty, expected, (ct, mt, nt), table, key)
    raise AssertionError(term)


def _pinned(term: TermS, env, defs, expected, fixed: Type, memo, seen) -> terms.Typed:
    """The derivation of ``term``, whose type reaches no enclosing type, at
    ``expected``; or, if a wildcard is left in its type, at that type merged
    with ``fixed``, each wildcard still left read as Dyn."""
    typed = _tc(term, env, defs, expected, memo, seen)
    if default_wildcards(typed.ty) is typed.ty:
        return typed
    seen[_AGAIN] = True
    return _tc(term, env, defs, default_wildcards(merge_types(typed.ty, fixed)), memo, seen)


def _check_program(p: ProgramS) -> tuple[tuple[terms.Typed, ...], terms.Typed]:
    """The derivations of ``p``'s definitions, in order, and of its main
    term with the wildcards left in its type read as Dyn."""
    sigs = p.def_types()
    defs = []
    for d in p.defs:
        if not isinstance(d.ty, FunT):
            raise TypeCheckError(f"definition {d.name} needs a function signature")
        defs.append(typecheck(d.fun, {}, sigs, d.ty))
    main = typecheck(p.main, {}, sigs, None)
    ty = default_wildcards(main.ty)
    return tuple(defs), main if ty is main.ty else typecheck(p.main, {}, sigs, ty)


# A program is checked where it is made or read, and then translated: the
# translation takes the derivations kept here instead of checking it again.
_derivations = terms.keep_last(_check_program)


def typecheck_program(p: ProgramS) -> terms.Typed:
    """Check the definitions against their signatures, then the main term.

    The derivations of the last program checked are kept, keyed by its
    identity, so checking the same program again walks nothing.  An equal
    program that is another object is checked afresh, and an ill-typed
    one raises at every call, since only answers are kept.
    """
    return _derivations(p)[1]


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: TermS, sub: Mapping[str, TermS]) -> TermS:
    """Simultaneous capture-avoiding substitution.

    A node none of whose children changes is handed back itself, so the
    result shares every subtree with no free name ``sub`` replaces.
    """
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is Var:
        return sub.get(t.name, t)
    if cls is Op:
        l, r = substitute(t.left, sub), substitute(t.right, sub)
        return t if l is t.left and r is t.right else Op(t.op, l, r)
    if cls is App:
        f, a = substitute(t.fun, sub), substitute(t.arg, sub)
        return t if f is t.fun and a is t.arg else App(f, a)
    if cls is CrcApp:
        m = substitute(t.subject, sub)
        return t if m is t.subject else CrcApp(m, t.crc)
    if cls is CoercedVal:
        m = substitute(t.subject, sub)
        return t if m is t.subject else CoercedVal(m, t.crc)
    if cls is If:
        c, m, n = substitute(t.cond, sub), substitute(t.then, sub), substitute(t.els, sub)
        return t if c is t.cond and m is t.then and n is t.els else If(c, m, n)
    if cls is Abs:
        under = under_binder(t, sub, substitute)
        if under is None or (under[1] is t.body and under[0] == t.var):
            return t
        return Abs(under[0], t.var_ty, under[1])
    return t


# ---------------------------------------------------------------------------
# Small-step semantics


def step(term, defs: Optional[Mapping[str, TermS]] = None) -> terms.StepResult:
    """The step from ``term``: a :class:`terms.Stepped`, ``IS_VALUE`` or ``IS_BLAME``.

    ``term`` may also be the ``Stepped`` of the step before, as the driver
    loop passes it.  The search then goes on from that step's contractum
    and context, and the result's term is built only when it is read.  On
    a term the result's term is built before it returns.
    """
    if term.__class__ is terms.Stepped:
        if term._focus is None:
            return _find(term.term, None, defs or {})
        return _find(term._focus, term._ctx, defs or {})
    r = _find(term, None, defs or {})
    if r.__class__ is terms.Stepped:
        r.term  # noqa: B018 (builds the whole term)
    return r


# The frames this calculus adds to the evaluation contexts ``terms`` describes.


def _app_fun(n, t):
    return App(t, n.arg)


def _app_arg(n, t):
    return App(n.fun, t)


def _crc_subject(n, t):
    return CrcApp(t, n.crc)


def _find(t: TermS, k, defs) -> terms.StepResult:
    """The next step from the focus ``t`` in the context ``k``; raises StuckTerm
    if no rule applies.

    The search goes down the evaluation context to the redex, pushing a
    frame at each node it passes, and returns the contractum with the
    context: the first step's search starts at the root, and each later
    one at the contractum of the step before, which refocuses.  A value in
    the focus returns to the innermost frame.  If a later child of that
    frame's node is not a value yet, the search builds the node with the
    value in its hole and goes on down; otherwise the node's rule fires
    from its other children and the value, and the node is built only if
    it is stuck.  One pending coercion frame never holds another, so
    R-MergeC or R-MergeV fires at the parent of a pending or delayed
    coercion in the focus under one: the first by the top-frame check, the
    second as a value returns to the frame.
    """
    while True:
        cls = t.__class__
        if cls is Op:
            l, r = t.left, t.right
            if l.__class__ not in _VALUE_CLASSES:
                k, t = (op_left, t, k), l
            elif r.__class__ not in _VALUE_CLASSES:
                k, t = (op_right, t, k), r
            else:
                return _op(t, l, r, k)
        elif cls is App:
            f, a = t.fun, t.arg
            if f.__class__ not in _VALUE_CLASSES:
                k, t = (_app_fun, t, k), f
            elif a.__class__ not in _VALUE_CLASSES:
                k, t = (_app_arg, t, k), a
            else:
                return _app(f, a, k, defs)
        elif cls is CrcApp:
            m = t.subject
            if k is not None and k[0] is _crc_subject:
                # the top-frame check: R-MergeC fires at the parent
                _, n, k = k
                return _stepped("R-MergeC", CrcApp(m, compose(t.crc, n.crc, FunT)), k)
            if m.__class__ not in _VALUE_CLASSES:
                k, t = (_crc_subject, t, k), m
            else:
                return _crc(t, m, k)
        elif cls is If:
            c = t.cond
            if c.__class__ not in _VALUE_CLASSES:
                k, t = (if_cond, t, k), c
            else:
                return _if(t, c, k)
        elif cls in _VALUE_CLASSES:
            if k is None:
                return terms.IS_VALUE
            refill, n, k = k
            # the frames in the order of how often a value returns to them
            if refill is if_cond:
                return _if(n, t, k)
            if refill is _app_arg:
                return _app(n.fun, t, k, defs)
            if refill is _crc_subject:
                # the frame was pushed after the top-frame check found no
                # pending coercion frame above it, so none is above it now
                return _crc(n, t, k)
            if refill is op_right:
                return _op(n, n.left, t, k)
            if refill is op_left:
                if n.right.__class__ in _VALUE_CLASSES:
                    return _op(n, t, n.right, k)
            elif n.arg.__class__ in _VALUE_CLASSES:  # refill is _app_fun
                return _app(t, n.arg, k, defs)
            # a later child is not a value yet: the search goes on from the node
            t = refill(n, t)
        elif cls is Blame:
            if k is None:
                return terms.IS_BLAME
            # blame discards the whole context
            return _stepped("E-Abort", t, None)
        else:
            raise terms.StuckTerm.at(t, k)


# The rules of each former, fired at a node whose children the search has
# found to be values, in the context ``k`` of that node.  The node ``n``
# gives the data fields; its children are given apart, since a value
# returned to a frame fills a hole that ``n``'s own child does not.


def _op(n, l, r, k) -> terms.Stepped:
    if l.__class__ is Const and r.__class__ is Const:
        return _stepped("R-Op", Const(delta(n.op, l.val, r.val)), k)
    raise terms.StuckTerm.at(Op(n.op, l, r), k)


def _app(f, a, k, defs) -> terms.Stepped:
    fc = f.__class__
    if fc is Abs:
        return _stepped("R-Beta", substitute(f.body, {f.var: a}), k)
    if fc is CoercedVal and f.crc.__class__ is Fun:
        s, c2 = f.crc.arg, f.crc.res
        return _stepped("R-Wrap", CrcApp(App(f.subject, CrcApp(a, s)), c2), k)
    if fc is GlobalRef and f.name in defs:
        return _stepped("R-Unfold", App(defs[f.name], a), k)
    raise terms.StuckTerm.at(App(f, a), k)


def _crc(n, m, k) -> terms.Stepped:
    """The rules of a pending coercion ``n.crc`` on the value ``m``, under no
    pending coercion frame."""
    s = n.crc
    mc = m.__class__
    if mc is CoercedVal:
        return _stepped("R-MergeV", CrcApp(m.subject, compose(m.crc, s, FunT)), k)
    if mc in _UNCOERCED_CLASSES:
        sc = s.__class__
        if sc is Id or sc is IdStar:
            return _stepped("R-Id", m, k)
        if sc is Fail:
            return _stepped("R-Fail", Blame(s.label), k)
        if sc is InjSeq or sc is Fun:
            return _stepped("R-Crc", CoercedVal(m, s), k)
    raise terms.StuckTerm.at(CrcApp(m, s), k)


def _if(n, c, k) -> terms.Stepped:
    if c == TRUE:
        return _stepped("R-IfTrue", n.then, k)
    if c == FALSE:
        return _stepped("R-IfFalse", n.els, k)
    raise terms.StuckTerm.at(If(c, n.then, n.els), k)


_stepped = terms.refocused


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


# The two-sort context grammar: each former's evaluation frames, left to
# right, by sort.  A pending coercion's frame is the one "crc" frame.
_FRAMES = {Op: ("plain", "plain"), App: ("plain", "plain"), If: ("plain",), CrcApp: ("crc",)}


def _local_redexes(t: TermS, defs) -> Optional[tuple[str, TermS]]:
    """The rule that fires at ``t`` and its contractum, or None."""
    cls = t.__class__
    if cls is Op and t.left.__class__ is Const and t.right.__class__ is Const:
        return ("R-Op", Const(delta(t.op, t.left.val, t.right.val)))
    elif cls is App and t.arg.__class__ in _VALUE_CLASSES:
        f, a = t.fun, t.arg
        fcls = f.__class__
        if fcls is Abs:
            return ("R-Beta", substitute(f.body, {f.var: a}))
        if fcls is CoercedVal and f.crc.__class__ is Fun:
            return ("R-Wrap", CrcApp(App(f.subject, CrcApp(a, f.crc.arg)), f.crc.res))
        if fcls is GlobalRef and f.name in defs:
            return ("R-Unfold", App(defs[f.name], a))
    elif cls is If and t.cond.__class__ is Const:
        if t.cond.val is True:
            return ("R-IfTrue", t.then)
        if t.cond.val is False:
            return ("R-IfFalse", t.els)
    elif cls is CrcApp:
        m, s = t.subject, t.crc
        mcls = m.__class__
        if mcls is CrcApp:
            return ("R-MergeC", CrcApp(m.subject, compose(m.crc, s, FunT)))
        if mcls is CoercedVal:
            return ("R-MergeV", CrcApp(m.subject, compose(m.crc, s, FunT)))
        if mcls in _UNCOERCED_CLASSES:
            scls = s.__class__
            if scls is Id or scls is IdStar:
                return ("R-Id", m)
            if scls is Fail:
                return ("R-Fail", Blame(s.label))
            if scls in DELAYED_CLASSES:
                return ("R-Crc", CoercedVal(m, s))
    return None


def decompose_oracle(
    term: TermS, defs: Optional[Mapping[str, TermS]] = None
) -> list[terms.Decomposition]:
    """Every (context, redex) split licensed by the two-sort context grammar."""
    return terms.decompose(term, defs, _FRAMES, _VALUE_CLASSES, _local_redexes)


# ---------------------------------------------------------------------------
# Size accounting


def _measure(t: TermS) -> tuple[int, int, int]:
    """(term_size, max_coercion_size, metric_f) of ``t``, in one loop that
    adds up each node's own share: 1, and the size and the metric term of
    the coercion it carries.

    A leaf child (``_LEAVES``) adds its 1 where the loop meets it and
    is not pushed; the stack holds the inner nodes alone.  A coercion's
    size is read from its slot once :func:`coercions.size` has kept it.
    The space benchmark measures every λS state, which is why the loop
    is spelled out per child; ``lam_sx._measure``, which it runs on every
    53rd state, keeps the plain loop.
    """
    n = c = f = 0
    leaves = _LEAVES
    stack = [t]
    pop = stack.pop
    push = stack.append
    while stack:
        t = pop()
        n += 1
        cls = t.__class__
        if cls is CrcApp or cls is CoercedVal:
            d = t.crc
            k = d._size or size(d)
            n += k
            c = k if k > c else c
            f += 4 * k + (2 if cls is CrcApp else 1)
            u = t.subject
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
        elif cls is Op:
            u = t.left
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
            u = t.right
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
        elif cls is App:
            u = t.fun
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
            u = t.arg
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
        elif cls is If:
            u = t.cond
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
            u = t.then
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
            u = t.els
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
        elif cls is Abs:
            u = t.body
            if u.__class__ in leaves:
                n += 1
            else:
                push(u)
    return (n, c, f)


# Asking for the three sizes of one state one after the other walks it once:
# ``measure`` keeps the triple of the state it walked last, and each size
# reads it there, calling ``measure`` only for another state.  The space
# benchmark asks for all three on every λS state, so they make no call
# for the two that the first one's walk answers.
measure = terms.keep_last(_measure)
_last = measure.kept


def term_size(t: TermS) -> int:
    """Nodes plus the sizes of the coercions they carry."""
    return (_last[1] if t is _last[0] else measure(t))[0]


def max_coercion_size(t: TermS) -> int:
    return (_last[1] if t is _last[0] else measure(t))[1]


def metric_f(t: TermS) -> int:
    """4*(pending + delayed coercion sizes) + 2*#pending + #delayed.

    Strictly decreases along composition steps, bounding how long
    evaluation can stay inside them.
    """
    return (_last[1] if t is _last[0] else measure(t))[2]
