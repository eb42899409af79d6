"""The node protocol, the term formers and the driver loop that both calculi share.

A term class's children are its fields annotated with a term type (``Term``,
``TermS`` or ``TermX``); :func:`node` records their names in ``_kids``.  A
binder lists the fields holding its bound names in ``_binds``, and they
scope over its field ``body``.  The walks here follow those two
declarations.  The formers both calculi have are declared here, once; each
calculus module adds its own formers and keeps its own rules.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .coercions import Coercion
from .records import record
from .types import Type

# Annotations are postponed, so a field's type is its name.
_TERM_TYPES = frozenset(("Term", "TermS", "TermX"))


def node(cls):
    """Make ``cls`` a :func:`record` and record its term-valued fields in ``_kids``.

    ``_kids_rev`` holds them in reverse, the order a pre-order walk pushes
    them on its stack; ``_data`` holds the other fields and ``_fields``
    all of them, in order.  Equality, hashing and ``repr`` walk the
    children with an explicit stack, so terms of any depth compare, hash
    and print.  A class that defines its own ``__eq__`` keeps it, and one
    that defines ``_hash_parts`` hashes what that reads.
    """
    own_eq = "__eq__" in cls.__dict__
    # a node keeps its hash in the slot ``_hash`` once computed, from what
    # ``_hash_parts`` reads: by default the class, the data fields and the
    # children's hashes
    cls = record(cls, eq=False, extra_slots=("_hash",))
    fields = dataclasses.fields(cls)
    cls._fields = tuple(f.name for f in fields)
    cls._kids = tuple(f.name for f in fields if f.type in _TERM_TYPES)
    cls._kids_rev = cls._kids[::-1]
    cls._data = tuple(f.name for f in fields if f.type not in _TERM_TYPES)
    if not own_eq:
        cls.__eq__ = _node_eq
    cls.__hash__ = _node_hash
    cls.__repr__ = _stack_repr
    if "_hash_parts" not in cls.__dict__:
        cls._hash_parts = operator.attrgetter(
            "__class__", *[f.name + "._hash" if f.name in cls._kids else f.name for f in fields]
        )
    return cls


def _node_eq(a, b):
    if b.__class__ is not a.__class__:
        return NotImplemented
    stack = [(a, b)]
    pop = stack.pop
    push = stack.append
    while stack:
        a, b = pop()
        if a is b:
            continue
        cls = a.__class__
        if b.__class__ is not cls:
            return False
        if cls.__eq__ is not _node_eq:
            # a leaf with its own equality: Const
            if not a == b:
                return False
            continue
        for k in cls._data:
            if getattr(a, k) != getattr(b, k):
                return False
        for k in cls._kids:
            push((getattr(a, k), getattr(b, k)))
    return True


def _node_hash(t) -> int:
    h = t._hash
    if h is not None:
        return h
    # every node below ``t`` not hashed yet, parents before children;
    # hashing them in reverse finds each node's children hashed already
    order = []
    stack = [t]
    while stack:
        t = stack.pop()
        order.append(t)
        for k in t._kids:
            kid = getattr(t, k)
            if kid._hash is None:
                stack.append(kid)
    for t in reversed(order):
        h = hash(t._hash_parts(t))
        _setattr(t, "_hash", h)
    return h


_setattr = object.__setattr__


def _stack_repr(t) -> str:
    """The dataclass ``repr`` of the node or ``Typed`` ``t``, built without recursion.

    The text is the one the recursive ``repr`` gives: each node as
    ``Class(field=value, ...)`` and each ``Typed`` as ``Typed(term, type,
    children)``.
    """
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
            continue
        if cls is Typed:
            parts = ["Typed(", _pushed(t.term), f", {t.ty!r}, ("]
            for i, kid in enumerate(t.children):
                parts += (", ", _pushed(kid)) if i else (_pushed(kid),)
            parts.append(",))" if len(t.children) == 1 else "))")
        else:
            parts = [cls.__qualname__ + "("]
            for i, k in enumerate(cls._fields):
                parts += (f", {k}=" if i else f"{k}=", _pushed(getattr(t, k)))
            parts.append(")")
        stack.extend(reversed(parts))
    return "".join(out)


def _pushed(v):
    """``v`` itself where :func:`_stack_repr` expands it, else its ``repr``."""
    return v if v.__class__.__repr__ is _stack_repr else repr(v)


# ---------------------------------------------------------------------------
# The term formers of both calculi

# A child of a shared former: a term of whichever calculus the node is in.
Term = Any


@node
class Const:
    val: object  # int or bool

    def __eq__(self, other) -> bool:
        # Python has 1 == True, so dataclass equality would make the constants
        # 1 and true one term; a constant equals only one of the same type.
        return (
            other.__class__ is self.__class__
            and other.val.__class__ is self.val.__class__
            and other.val == self.val
        )

    _hash_parts = operator.attrgetter("val.__class__", "val")


@node
class Var:
    name: str


@node
class Op:
    op: str
    left: Term
    right: Term


@node
class If:
    cond: Term
    then: Term
    els: Term


@node
class Blame:
    label: str


@node
class GlobalRef:
    name: str


@node
class CoercedVal:
    """A value carrying its single delayed coercion (injection or arrow)."""

    subject: Term
    crc: Coercion


TRUE = Const(True)
FALSE = Const(False)


def children(t) -> tuple:
    """The immediate subterms of ``t``, in field order."""
    return tuple([getattr(t, k) for k in t._kids])


def subterm(t, path: tuple[int, ...]):
    """The subterm of ``t`` at ``path``, a sequence of child indices."""
    for i in path:
        t = getattr(t, t._kids[i])
    return t


def replace(t, path: tuple[int, ...], new):
    """``t`` with its subterm at ``path`` replaced by ``new``, built without recursion."""
    spine = []
    for i in path:
        k = t._kids[i]
        spine.append((t, k))
        t = getattr(t, k)
    for t, k in reversed(spine):
        new = t.__class__(*[new if f == k else getattr(t, f) for f in t._fields])
    return new


def walk(t) -> list:
    """A list of every node of ``t``, in pre-order, built without recursion."""
    out = []
    stack = [t]
    pop = stack.pop
    push = stack.append
    add = out.append
    while stack:
        t = pop()
        add(t)
        for k in t._kids_rev:
            push(getattr(t, k))
    return out


def walk_unseen(t, seen: dict) -> list:
    """The nodes of ``t`` whose ids are not keys of ``seen``, in pre-order.

    The subtree of a seen node is skipped whole.  A caller that records
    each node it has handled under its id (keeping the node, so the id
    stays its own) walks only the new nodes of a term that shares
    subtrees with the ones before it.
    """
    out = []
    stack = [t]
    pop = stack.pop
    push = stack.append
    add = out.append
    while stack:
        t = pop()
        if id(t) in seen:
            continue
        add(t)
        for k in t._kids_rev:
            push(getattr(t, k))
    return out


_NO_NAMES: frozenset[str] = frozenset()


def free_vars(t) -> frozenset[str]:
    """The names of the variables of ``t`` that no binder in ``t`` scopes over."""
    if not t._kids:
        # substitution asks this of every value it substitutes
        return frozenset((t.name,)) if t.__class__ is Var else _NO_NAMES
    out: set[str] = set()
    stack = [(t, _NO_NAMES)]
    while stack:
        t, bound = stack.pop()
        if t.__class__ is Var:
            if t.name not in bound:
                out.add(t.name)
            continue
        binds = getattr(t, "_binds", None)
        for k in t._kids:
            inner = bound
            if binds and k == "body":
                inner = bound.union([getattr(t, b) for b in binds])
            stack.append((getattr(t, k), inner))
    return frozenset(out)


def fresh_name(base: str, avoid) -> str:
    """``base``, or else ``base`` with the least number appended, not in ``avoid``."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def under_binder(t, sub: Mapping, substitute) -> Optional[list]:
    """The names the binder ``t`` binds, then its body with ``sub`` applied,
    avoiding capture; None if ``sub`` names only names ``t`` binds.

    The body takes ``sub`` less the names ``t`` binds.  A bound name free in
    a term substituted into the body is first renamed, in the order of
    ``_binds``, to one free nowhere in the body or those terms.  The
    children other than ``body`` lie outside the scope, and ``substitute``,
    the calculus's own substitution, is left to apply ``sub`` to them.
    """
    names = [getattr(t, b) for b in t._binds]
    inner = {k: v for k, v in sub.items() if k not in names}
    if not inner:
        return None
    body = t.body
    clash = frozenset().union(*[free_vars(v) for v in inner.values()])
    if not clash.isdisjoint(names):
        avoid = clash | free_vars(body) | set(inner)
        ren = {}
        for i, x in enumerate(names):
            if x in clash:
                names[i] = fresh_name(x, avoid)
                avoid |= {names[i]}
                ren[x] = Var(names[i])
        body = substitute(body, ren)
    names.append(substitute(body, inner))
    return names


def keep_last(fn):
    """``fn`` keeping its last answer, keyed by the identity of its argument,
    as each calculus's ``measure`` does for the three sizes of one state.

    Terms are immutable and the kept argument stays alive, so the key is
    sound: no caller can tell the kept answer from a fresh call.  The list
    ``kept`` of the result holds the argument and the answer, for a caller
    that reads them there without a call.
    """
    kept = [None, None]

    @functools.wraps(fn)
    def keeping(t):
        if t is not kept[0]:
            kept[:] = t, fn(t)
        return kept[1]

    keeping.kept = kept
    return keeping


# ---------------------------------------------------------------------------
# Outcomes and the driver loop


# The composition rules.  The paper splits reductions into coercion steps
# ("c"), the steps by these rules, and evaluation steps ("e"), the steps by
# every other rule: R-Op, R-Beta, R-Wrap, R-Unfold, R-IfTrue, R-IfFalse and
# E-Abort.  A step's kind is read off its rule, here and nowhere else.
C_RULES = frozenset(("R-MergeC", "R-MergeV", "R-Id", "R-Fail", "R-Crc", "R-Let", "R-Cmp"))


def kind_of(rule: str) -> str:
    """The kind of a step by ``rule``: "c" for a composition rule, else "e"."""
    return "c" if rule in C_RULES else "e"


class Stepped:
    """One step: its rule and the whole term after it; its kind is its rule's.

    A stepper can leave ``term`` unbuilt: it keeps the contractum in
    ``_focus`` and its evaluation context in ``_ctx``, and ``term`` is
    plugged from them when it is first read.  The context is immutable, so
    a late read gives the term an early one would.
    """

    rule: str
    term: Any

    @property
    def kind(self) -> str:
        return kind_of(self.rule)


Stepped = record(Stepped, extra_slots=("_focus", "_ctx"))


_get_term = Stepped.term.__get__
_set_rule, _set_term, _set_focus, _set_ctx = [
    getattr(Stepped, k).__set__ for k in ("rule", "term", "_focus", "_ctx")
]
_new = object.__new__


def _plugged(s):
    """The ``term`` of the :class:`Stepped` ``s``: its slot, or, while that
    holds None, the focus plugged into the context, kept in the slot."""
    t = _get_term(s)
    if t is None and s._focus is not None:
        t = s._focus
        k = s._ctx
        if k is not None:
            refill, n, k = k
            t = refill(n, t)
            # The next search starts at the term just built: the
            # focus's parent, or, in ``lam_sx``, the focus with its
            # environment applied, which the search then need not apply
            # again.  The parent's earlier children are values, so the
            # search fires there or goes down to the old focus again,
            # the step a return to the frame would give.
            _set_focus(s, t)
            _set_ctx(s, k)
        while k is not None:
            refill, n, k = k
            t = refill(n, t)
        _set_term(s, t)
    return t


Stepped.term = property(_plugged)


def refocused(rule: str, focus, ctx) -> Stepped:
    """The step that leaves ``focus`` in the context ``ctx``, its term not built yet."""
    s = _new(Stepped)
    _set_rule(s, rule)
    _set_term(s, None)
    _set_focus(s, focus)
    _set_ctx(s, ctx)
    return s


def unread(s: Stepped) -> Stepped:
    """A twin of the step ``s``, made before ``s``'s term is read, that keeps
    the focus and context ``s`` left.

    Reading a step's term moves its focus to the parent the plug built, so
    the step after it starts there.  The step after the twin starts where
    the step after an unread ``s`` would: a value in the focus returns to
    its frame.  A step built whole, with no focus, is its own twin.
    """
    if s._focus is None:
        return s
    return refocused(s.rule, s._focus, s._ctx)


# ---------------------------------------------------------------------------
# Evaluation contexts
#
# A context is an immutable linked list of frames, innermost first: a frame
# is (refill, node, rest), where ``node`` is the node a descent passed,
# ``refill(node, t)`` is that node with ``t`` in the hole the descent went
# down, and ``rest`` is the context outside it (None when empty).  The
# node's own child at the hole is stale.  Reading a ``Stepped``'s ``term``
# plugs its focus into its context.  The frames of the formers both
# calculi share are these.  A calculus may put in the node slot whatever
# its refill reads: ``lam_sx`` keeps there the node with the environment
# its other children are under, and its innermost frame may apply an
# environment to the focus alone.


def _depth(ctx) -> int:
    """The number of frames of the context ``ctx``."""
    depth = 0
    while ctx is not None:
        ctx = ctx[2]
        depth += 1
    return depth


def op_left(n, t):
    return Op(n.op, t, n.right)


def op_right(n, t):
    return Op(n.op, n.left, t)


def if_cond(n, t):
    return If(t, n.then, n.els)


@dataclass(frozen=True)
class IsValue:
    pass


@dataclass(frozen=True)
class IsBlame:
    pass


StepResult = Stepped | IsValue | IsBlame
IS_VALUE = IsValue()
IS_BLAME = IsBlame()


class StuckTerm(Exception):
    """No rule applies to a non-value, non-blame term (ill-typed or open)."""

    @classmethod
    def at(cls, sub, ctx) -> StuckTerm:
        """The error for the stuck subterm ``sub`` in the evaluation context ``ctx``.

        The message names node classes only, and the number of frames above
        ``sub``, so it costs the same at any depth; printing the term would
        recurse once per level.
        """
        kids = ", ".join([getattr(sub, k).__class__.__name__ for k in sub._kids])
        return cls(f"no rule applies to {sub.__class__.__name__}({kids}) at depth {_depth(ctx)}")


class Typed:
    """Typing derivation: the term, its type, and typed immediate subterms.

    The typecheckers build one per node of every checked term, so it is a
    plain slotted record; only the check that built one settles its type.
    """

    __slots__ = ("term", "ty", "children")

    def __init__(self, term: Any, ty: Type, children: tuple[Typed, ...] = ()) -> None:
        self.term = term
        self.ty = ty
        self.children = children

    __repr__ = _stack_repr


# The key under which a typing memo records the definitions it answers under.
MEMO_DEFS = "defs"


def claim_memo(memo: dict, defs: dict, hole_free: bool) -> None:
    """Tie ``memo`` to the ``defs`` it is first used under.

    A typing memo maps (id(node), expected type) to the node's derivation in
    the empty environment.  Those derivations hold only under the
    definitions' signatures they were made with, so another set is refused.
    The memo records a copy of ``defs``, or, if no type holds a hole, the
    dict itself, so a check given that very dict again need not copy it.
    """
    if memo.setdefault(MEMO_DEFS, defs if hole_free else dict(defs)) != defs:
        raise ValueError("a typing memo was filled under other definitions")
    if hole_free:
        memo[MEMO_DEFS] = defs


class Decomposition:
    path: tuple[int, ...]
    rule: str
    term: Any  # the full term after firing this redex

    @property
    def kind(self) -> str:
        return kind_of(self.rule)


Decomposition = record(Decomposition)


def decompose(term, defs: Optional[Mapping[str, Any]], frames, values, local_redexes) -> list:
    """Every (context, redex) split of ``term`` that the context grammar licenses.

    ``frames`` maps each former to the sorts of its evaluation frames, left
    to right: "plain", or "crc" for a pending coercion.  The hole of the
    i-th may be child i once children 0..i-1 are of the ``values`` classes.
    ``local_redexes(node, defs)`` returns the (rule, contractum) pair of
    the rule firing at ``node``, or None: at most one rule fires at a
    node.  The grammar's own rules: no coercion frame directly inside
    another, no composition rule fired directly under one, and a
    ``blame`` node in a non-empty context aborts it (E-Abort).

    On closed well-typed non-values exactly one split exists; zero or
    several signal a bug.  The search keeps (node, path, innermost frame's
    sort) on a stack and visits in pre-order, so it reaches any depth.
    """
    if defs is None:
        defs = {}
    out: list[Decomposition] = []
    # a path is a linked list (child index, parent's link), innermost first
    stack = [(term, None, None)]
    pop = stack.pop
    while stack:
        sub, link, sort = pop()
        if link is not None and sub.__class__ is Blame:
            out.append(Decomposition(_spell(link), "E-Abort", sub))
        fired = local_redexes(sub, defs)
        if fired is not None and (sort != "crc" or fired[0] not in C_RULES):
            path = _spell(link)
            out.append(Decomposition(path, fired[0], replace(term, path, fired[1])))
        sorts = frames.get(sub.__class__)
        if sorts is not None:
            # the holes left to right, up to the first child not a value
            kids = sub._kids
            holes = []
            for i, inner in enumerate(sorts):
                kid = getattr(sub, kids[i])
                if inner != "crc" or sort != "crc":
                    holes.append((kid, (i, link), inner))
                if kid.__class__ not in values:
                    break
            stack += reversed(holes)
    return out


def _spell(link) -> tuple[int, ...]:
    path = []
    while link is not None:
        i, link = link
        path.append(i)
    return tuple(reversed(path))


@dataclass(frozen=True)
class EvalOutcome:
    kind: str  # "value", "blame", "out_of_fuel" or "diverges"
    term: Any
    steps: int


DEFAULT_FUEL = 10**6


def evaluate(
    step, term, defs: Optional[Mapping[str, Any]], fuel: int, on_step, detect_cycles: bool
) -> EvalOutcome:
    """Run ``term`` with ``step`` to a value or blame in at most ``fuel`` steps;
    ``on_step`` sees every state.

    Each calculus passes its own ``step`` at every call, so a rebinding of
    that name is seen here.  After the first step, ``step`` is given the
    :class:`Stepped` before instead of its term, so it goes on from the
    focus and context that step left.  A state's term is built only when
    something reads it: ``on_step``, the cycle check, and the outcome's
    final state.

    The cycle check reads the 64th state, then each state ``max(64,
    depth)`` steps after the last one read, ``depth`` being the frames of
    that one's context: a read rebuilds them, so the check's work stays
    linear in the steps on deep states.  A repeated state proves
    divergence; in a cycle the gap depends on the position modulo the
    period alone, so the positions read come back to one read before.
    """
    defs = dict(defs) if defs else {}
    seen: set = set()
    n = 0
    # the step whose state the cycle check reads next; n never falls on 0
    check_at = 64 if detect_cycles else 0
    state = term
    while True:
        r = step(state, defs)
        if r.__class__ is not Stepped:
            kind = "value" if isinstance(r, IsValue) else "blame"
            return EvalOutcome(kind, _term_of(state), n)
        # a run that ends in ``fuel`` steps is not out of fuel, so the fuel
        # is checked only once the state after the last step is seen to step
        if n >= fuel:
            return EvalOutcome("out_of_fuel", _term_of(state), n)
        state = r
        n += 1
        if on_step is not None:
            on_step(n, r)
        if n == check_at:
            gap = max(64, _depth(r._ctx))
            t = r.term
            if t in seen:
                return EvalOutcome("diverges", t, n)
            seen.add(t)
            check_at = n + gap


def _term_of(state):
    return state.term if state.__class__ is Stepped else state
