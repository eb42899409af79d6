"""The node protocol and the driver loop that both calculi share.

A term class's children are its fields annotated with the calculus's term
type (``TermS`` or ``TermX``); :func:`node` records their names in
``_kids``.  A binder lists the fields holding its bound names in
``_binds``, and they scope over its field ``body``.  The walks here follow
those two declarations; each calculus's rules stay in its own module.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Union

from .types import Type

# The calculus modules postpone annotations, so a field's type is its name.
_TERM_TYPES = frozenset(("TermS", "TermX"))


def node(cls):
    """Make ``cls`` a frozen dataclass and record its term-valued fields in ``_kids``."""
    cls = dataclass(frozen=True)(cls)
    cls._kids = tuple(f.name for f in dataclasses.fields(cls) if f.type in _TERM_TYPES)
    return cls


class Variable:
    """Base of each calculus's variable node; its field ``name`` is the variable."""


def const_eq(self, other) -> bool:
    # Python has 1 == True, so dataclass equality would make the constants
    # 1 and true one term; a constant equals only one of the same type.
    return (
        other.__class__ is self.__class__
        and other.val.__class__ is self.val.__class__
        and other.val == self.val
    )


def const_hash(self) -> int:
    return hash((self.val.__class__, self.val))


def children(t) -> tuple:
    """The immediate subterms of ``t``, in field order."""
    return tuple([getattr(t, k) for k in t._kids])


def subterm(t, path: tuple[int, ...]):
    """The subterm of ``t`` at ``path``, a sequence of child indices."""
    for i in path:
        t = getattr(t, t._kids[i])
    return t


def replace(t, path: tuple[int, ...], new):
    """``t`` with its subterm at ``path`` replaced by ``new``."""
    if not path:
        return new
    k = t._kids[path[0]]
    return dataclasses.replace(t, **{k: replace(getattr(t, k), path[1:], new)})


def walk(t) -> Iterator:
    """Every node of ``t``, in pre-order, without recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend([getattr(t, k) for k in reversed(t._kids)])


_NO_NAMES: frozenset[str] = frozenset()


def free_vars(t) -> frozenset[str]:
    """The names of the variables of ``t`` that no binder in ``t`` scopes over."""
    if not t._kids:
        # substitution asks this of every value it substitutes
        return frozenset((t.name,)) if isinstance(t, Variable) else _NO_NAMES
    out: set[str] = set()
    stack = [(t, _NO_NAMES)]
    while stack:
        t, bound = stack.pop()
        if isinstance(t, Variable):
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


def keep_last(fn):
    """``fn`` keeping its last answer, keyed by the identity of the term.

    Terms are immutable and the kept term stays alive, so the key is sound:
    no caller can tell the kept answer from a fresh call.
    """
    kept = [None, None]

    @functools.wraps(fn)
    def keeping(t):
        if t is not kept[0]:
            kept[:] = t, fn(t)
        return kept[1]

    return keeping


# ---------------------------------------------------------------------------
# Outcomes and the driver loop


@dataclass(frozen=True)
class Stepped:
    kind: str  # "e" or "c"
    rule: str
    term: Any


@dataclass(frozen=True)
class IsValue:
    pass


@dataclass(frozen=True)
class IsBlame:
    pass


StepResult = Union[Stepped, IsValue, IsBlame]
IS_VALUE = IsValue()
IS_BLAME = IsBlame()


class StuckTerm(Exception):
    """No rule applies to a non-value, non-blame term (ill-typed or open)."""


@dataclass(frozen=True)
class Typed:
    """Typing derivation: the term, its type, and typed immediate subterms."""

    term: Any
    ty: Type
    children: tuple[Typed, ...] = ()


@dataclass(frozen=True)
class Decomposition:
    path: tuple[int, ...]
    rule: str
    kind: str
    term: Any  # the full term after firing this redex


@dataclass(frozen=True)
class EvalOutcome:
    kind: str  # "value", "blame", "out_of_fuel" or "diverges"
    term: Any
    steps: int


DEFAULT_FUEL = 10**6


def evaluate(
    step, term, defs: Optional[Mapping[str, Any]], fuel: int, on_step, detect_cycles: bool
) -> EvalOutcome:
    """Run ``term`` with ``step`` to a value or blame; ``on_step`` sees every state.

    Each calculus passes its own ``step`` at every call, so a rebinding of
    that name is seen here.
    """
    defs = dict(defs) if defs else {}
    seen: set = set()
    n = 0
    while n < fuel:
        r = step(term, defs)
        if isinstance(r, IsValue):
            return EvalOutcome("value", term, n)
        if isinstance(r, IsBlame):
            return EvalOutcome("blame", term, n)
        term = r.term
        n += 1
        if on_step is not None:
            on_step(n, r)
        # A repeated state proves divergence, so any fuel would run out.
        # Sampling every 64th state keeps the hashing cost negligible.
        if detect_cycles and n % 64 == 0:
            if term in seen:
                return EvalOutcome("diverges", term, n)
            seen.add(term)
    return EvalOutcome("out_of_fuel", term, n)
