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
from .types import BOOL, DYN, INT, FunT, Hole, Type, TypeCheckError, fill, pin, resolved, settled
from .types import HOLE_FREE


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


TermS = Const | Var | Abs | Op | App | CrcApp | CoercedVal | Blame | If | GlobalRef

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
    # its record (:func:`translate.check_program`), made at first use; not a field
    _checked = None

    def __getstate__(self) -> dict:
        # a copy or a pickle is checked afresh: the record's memo is keyed by node identity
        return {"defs": self.defs, "main": self.main}

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
    """Build a typing derivation in one pass; ``expected`` constrains
    ambiguous terms.

    Blame has every type and a failure converts to any type, so without an
    expectation each takes a fresh :class:`types.Hole`, which the first
    type it meets fills.  An argument or a coercion's subject, whose type
    reaches no enclosing type, has the holes left in its type filled at
    once (:func:`types.pin`): from the failure's source tag or the coerced
    value's source type if it fits, and with Dyn for the rest.  A hole
    still open when the check ends, a caller's too, reads as Dyn.  The
    check meets copies of the open holes the caller passes in, so it fills
    none of them: a later check under the same ``env`` or ``defs`` is not
    held to what this one filled them with.

    ``memo``, a dict kept across the checks of one run's states, reuses the
    derivations of the subterms checked in the empty environment, keyed by
    node identity and expected type.  Evaluation contexts never go under a
    binder, so it answers for every subterm a step left in place.  It keeps
    no derivation whose type or key holds a hole.  The answers are the
    same without it.  A memo serves one set of ``defs``; see
    :func:`terms.claim_memo`.
    """
    return _checked(_tc, term, env, defs, expected, memo)


def _checked(tc, term, env, defs, expected, memo, *depth) -> terms.Typed:
    """The derivation ``tc``, either calculus's checker, builds.  It
    collects in ``late`` each derivation whose type held a hole when it was
    built, and settles their types (:func:`types.settled`) when it ends.
    ``tc`` meets copies of the caller's open holes; the memo is claimed
    under the caller's ``defs``, and once it holds that very dict, as at a
    run's later states, ``defs`` hold no hole and are taken as they are."""
    env = {x: settled(t, True) for x, t in env.items()} if env else {}
    if memo is None or defs is None or memo.get(terms.MEMO_DEFS) is not defs:
        given = defs or {}
        defs = {f: settled(t, True) for f, t in given.items()}
        if memo is not None:
            terms.claim_memo(memo, given, all(defs[f] is t for f, t in given.items()))
    late: list[terms.Typed] = []
    try:
        return tc(term, env, defs, settled(expected, True), *depth, memo, late)
    finally:
        for d in late:
            d.ty = settled(d.ty)


def _done(term, ty: Type, expected: Optional[Type], children, table, key, late) -> terms.Typed:
    """The derivation of ``term`` at ``ty``, to ``late`` or ``table`` as its types say."""
    if expected is not None and expected is not ty:
        if not fill(ty, expected):
            raise TypeCheckError(f"expected {expected!r}, found {ty!r}")
        if ty.__class__ is Hole:
            # filled by the expected type, which stands for what fills it
            ty = expected
    typed = terms.Typed(term, ty, children)
    if ty.__class__ not in HOLE_FREE and settled(ty) is not ty:
        # what fills the hole may differ from one check to the next
        late.append(typed)
    elif table is not None and (expected.__class__ in HOLE_FREE or settled(expected) is expected):
        # ``typed`` keeps ``term`` alive, so its id names it while the table
        # lives; a key that holds a hole is never asked again
        table[key] = typed
    return typed


def _shaped(ty: Type, ctor: type, message: str):
    """``ty`` as a ``ctor`` type, an open hole filled with one of two new
    holes; another type raises ``message`` with it."""
    t = resolved(ty)
    if t.__class__ is Hole:
        t.ty = t = ctor(Hole(), Hole())
    elif t.__class__ is not ctor:
        raise TypeCheckError(message.format(t))
    return t


def _tc(term: TermS, env, defs, expected: Optional[Type], memo, late) -> terms.Typed:
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
        return _done(term, env[x], expected, (), table, key, late)
    if cls is GlobalRef:
        f = term.name
        if f not in defs:
            raise TypeCheckError(f"unknown definition {f}")
        return _done(term, defs[f], expected, (), table, key, late)
    if cls is Abs:
        x, a = term.var, term.var_ty
        body_exp = None
        if expected is not None:
            e = resolved(expected)
            if e.__class__ is FunT:
                if not fill(e.arg, a):
                    raise TypeCheckError(f"function argument annotated {a!r}, expected {e.arg!r}")
                body_exp = e.res
            elif e.__class__ is not Hole:
                raise TypeCheckError(f"expected {expected!r}, found a function")
        body = _tc(term.body, {**env, x: a}, defs, body_exp, memo, late)
        return _done(term, FunT(a, body.ty), expected, (body,), table, key, late)
    if cls is Op:
        op = term.op
        if op not in OPS:
            raise TypeCheckError(f"unknown operator {op}")
        t1, t2, res = OPS[op]
        lt = _tc(term.left, env, defs, t1, memo, late)
        rt = _tc(term.right, env, defs, t2, memo, late)
        return _done(term, res, expected, (lt, rt), table, key, late)
    if cls is App:
        mt = _tc(term.fun, env, defs, None, memo, late)
        fty = _shaped(mt.ty, FunT, "applied non-function of type {!r}")
        nt = _tc(term.arg, env, defs, fty.arg, memo, late)
        if nt.ty.__class__ not in HOLE_FREE:
            pin(nt.ty, DYN)
        return _done(term, fty.res, expected, (mt, nt), table, key, late)
    if cls is CrcApp:
        s = term.crc
        # a failure converts from any type consistent with its source tag
        fails = s.__class__ is Fail
        sub = _tc(term.subject, env, defs, None if fails else crc_source(s, FunT), memo, late)
        if sub.ty.__class__ not in HOLE_FREE:
            pin(sub.ty, s.src_tag if fails else DYN)
        return _done(term, check_crc(s, sub.ty, FunT), expected, (sub,), table, key, late)
    if cls is CoercedVal:
        u, d = term.subject, term.crc
        if u.__class__ not in _UNCOERCED_CLASSES:
            raise TypeCheckError("coerced-value subject must be an uncoerced value")
        if d.__class__ not in DELAYED_CLASSES:
            raise TypeCheckError("coerced values carry injections or arrows only")
        sub = _tc(u, env, defs, None, memo, late)
        if sub.ty.__class__ not in HOLE_FREE:
            pin(sub.ty, crc_source(d, FunT))
        return _done(term, check_crc(d, sub.ty, FunT), expected, (sub,), table, key, late)
    if cls is Blame:
        return _done(term, expected or Hole(), expected, (), table, key, late)
    if cls is If:
        ct = _tc(term.cond, env, defs, BOOL, memo, late)
        # each branch meets its own copy of the open holes of ``expected``,
        # so neither fills one before the other meets it
        mt = _tc(term.then, env, defs, settled(expected, True), memo, late)
        nt = _tc(term.els, env, defs, settled(expected, True), memo, late)
        if not fill(mt.ty, nt.ty):
            raise TypeCheckError(f"branch types {mt.ty!r} and {nt.ty!r} differ")
        return _done(term, mt.ty, expected, (ct, mt, nt), table, key, late)
    raise AssertionError(term)


def _check_program(p, check_term, fun_t: type, memo=None) -> tuple:
    """The derivations of ``p``'s definitions, in order, and of its main
    term, by ``check_term``, the ``typecheck`` of the calculus whose
    function type is ``fun_t``, and ``memo``, which every check fills."""
    sigs = p.def_types()
    defs = []
    for d in p.defs:
        if d.ty.__class__ is not fun_t:
            raise TypeCheckError(f"definition {d.name} needs a function signature")
        defs.append(check_term(d.fun, {}, sigs, d.ty, memo))
    return tuple(defs), check_term(p.main, {}, sigs, None, memo), memo


def typecheck_program(p: ProgramS) -> terms.Typed:
    """Check the definitions against their signatures, then the main term,
    once: ``p``'s record keeps the derivations (:func:`translate.check_program`).
    The check fills no typing memo; the first :func:`run_memo` makes one."""
    from .translate import check_program  # which imports this module
    return check_program(p).main


def run_memo(p: ProgramS) -> dict:
    """A copy of the typing memo of ``p``'s check, for one run of its states,
    whose first, ``p``'s main term, is then typed at its root alone.  The
    first call makes ``p``'s record with a check that fills a memo, or, if
    the record was made with none, checks ``p`` once more, with a memo, in
    place of its check; later calls check nothing, and no run's additions
    reach the record."""
    from .translate import check_program
    c = check_program(p, {})
    if c.memo is None:
        c.defs, c.main, c.memo = _check_program(p, typecheck, FunT, {})
    return dict(c.memo)


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


# Each frame's refill, and the children of the frame's node beside the
# hole.  A ``_crc_subject`` frame's node has no child beside the hole but
# carries a coercion, so :func:`measure` sizes it in a branch of its own.
_BESIDE_HOLE = {
    op_left: ("right",),
    op_right: ("left",),
    if_cond: ("then", "els"),
    _app_fun: ("arg",),
    _app_arg: ("fun",),
}


def measure(t: TermS, k=None) -> tuple[int, int, int]:
    """(term_size, max_coercion_size, metric_f) of the state that the focus
    ``t`` plugs into the context ``k``, in one loop that adds up each node's
    own share: 1, and the size and the metric term of the coercion it
    carries.

    The frames come first: each frame's node adds its own share, and its
    children beside the hole (``_BESIDE_HOLE``) go on the stack with the
    focus, so the state is sized without being plugged.  A leaf child
    (``_LEAVES``) adds its 1 where the loop meets it and is not pushed;
    the stack holds the inner nodes alone.  A coercion's size is read from
    its slot once :func:`coercions.size` has kept it.  The space benchmark
    measures every λS state, which is why the loop is spelled out per
    child; ``lam_sx.measure``, which it runs on every 53rd state, keeps
    the plain loop.
    """
    n = c = f = 0
    leaves = _LEAVES
    stack = [t]
    pop = stack.pop
    push = stack.append
    while k is not None:
        refill, t, k = k
        n += 1
        if refill is _crc_subject:
            d = t.crc
            s = d._size or size(d)
            n += s
            c = s if s > c else c
            f += 4 * s + 2
        else:
            for name in _BESIDE_HOLE[refill]:
                u = getattr(t, name)
                if u.__class__ in leaves:
                    n += 1
                else:
                    push(u)
    while stack:
        t = pop()
        n += 1
        cls = t.__class__
        if cls is CrcApp or cls is CoercedVal:
            d = t.crc
            s = d._size or size(d)
            n += s
            c = s if s > c else c
            f += 4 * s + (2 if cls is CrcApp else 1)
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


def measure_step(r: terms.Stepped) -> tuple[int, int, int]:
    """The sizes (:func:`measure`) of the state the step ``r`` left, read
    from its focus and context; the state is not plugged, so the next
    search starts where it would with no observer.  The step keeps them,
    so the three sizes of one step take one walk."""
    m = getattr(r, "_sizes", None)
    if m is None:
        t = r._focus
        m = measure(r.term) if t is None else measure(t, r._ctx)
        terms.keep_sizes(r, m)
    return m


def _sizes(s) -> tuple[int, int, int]:
    """The sizes of the term ``s``, or of the state the step ``s`` left."""
    return measure_step(s) if s.__class__ is terms.Stepped else measure(s)


def term_size(s) -> int:
    """Nodes plus the sizes of the coercions they carry, of a term or of
    the state a step left."""
    return _sizes(s)[0]


def max_coercion_size(s) -> int:
    return _sizes(s)[1]


def metric_f(s) -> int:
    """4*(pending + delayed coercion sizes) + 2*#pending + #delayed.

    Strictly decreases along composition steps, bounding how long
    evaluation can stay inside them.
    """
    return _sizes(s)[2]
