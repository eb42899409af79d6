"""Frozen, slotted records with a cheap constructor.

A frozen dataclass's ``__init__`` stores each field through
``object.__setattr__``, which looks the field up on the class again at
every call.  Both machines build several records per step (term nodes,
coercions, types and the step result), so that lookup is a large share of
a step.  :func:`record` keeps everything a dataclass gives (``fields``,
``replace``, ``__match_args__``, ``repr`` and, unless told otherwise,
equality and hashing) and swaps in a slotted layout whose constructor
fills each slot through its descriptor's ``__set__``.  A record has no
``__dict__``, so code reads its fields through ``dataclasses.fields``,
not ``vars()``.

A record with equality keeps its hash in the slot ``_h``.  Types and
coercions are hashed at every typing-memo lookup and inside every term
node's hash, and the dataclass hash builds the field tuple again each
time.  The constructor leaves ``_h`` empty, so building a record costs no
more; the first ``hash`` fills it from the dataclass formula, ``hash`` of
the tuple of the fields, so every hash value and set order stays the
same.  Equality answers at once for a record compared with itself.
"""

from __future__ import annotations

import dataclasses
import inspect


def record(cls, /, *, eq: bool = True, extra_slots: tuple[str, ...] = ()):
    """Make ``cls`` a frozen dataclass with ``__slots__`` and a cheap ``__init__``.

    ``eq`` is passed on to ``dataclass``; with it, the class gets the slot
    ``_h``, which :func:`_kept_hash` fills, and :func:`_identity_first`
    wraps its ``__eq__``.  ``extra_slots`` names slots that are not fields:
    they are left out of ``fields``, ``replace``, ``repr`` and equality,
    and the constructor sets each to None.  The constructor calls
    ``__post_init__`` where the class defines one.  Fields take no
    defaults.  The class is built once; no code runs per instance beyond
    the constructor.
    """
    doc = cls.__doc__
    # the dataclass ``__init__`` is replaced below, so it is not made; a
    # placeholder docstring spares ``dataclass`` a slow signature lookup
    # on a class with no ``__init__``
    cls.__doc__ = "record"
    cls = dataclasses.dataclass(frozen=True, eq=eq, init=False)(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    # rebuild the class with slots, as ``dataclass(slots=True)`` does, but
    # with the extra slots too
    body = dict(cls.__dict__)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body["__slots__"] = (*names, *extra_slots, *(("_h",) if eq else ()))
    # the dataclass's ``__setattr__`` and ``__delattr__`` hand a name that is
    # not a field to ``super()`` of the class before this rebuild, which
    # raises TypeError; these refuse every name
    body["__setattr__"] = _frozen_setattr
    body["__delattr__"] = _frozen_delattr
    body["__reduce__"] = _reduce
    new = type(cls)(cls.__name__, cls.__bases__, body)
    new.__qualname__ = cls.__qualname__
    new.__init__ = _make_init(new, fields, extra_slots)
    if eq:
        new.__hash__ = _kept_hash(new.__hash__, new._h.__set__)
        new.__eq__ = _identity_first(new.__eq__)
    # the text ``dataclass`` gives a class without a docstring
    new.__doc__ = doc or new.__name__ + str(inspect.signature(new))
    return new


def _make_init(cls, fields, extra_slots: tuple[str, ...]):
    """An ``__init__`` that fills each slot through its descriptor's ``__set__``."""
    names = [f.name for f in fields]
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in (*names, *extra_slots)}
    lines = [f"    _set_{n}(self, {n})" for n in names]
    lines += [f"    _set_{n}(self, None)" for n in extra_slots]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    src = f"def __init__(self, {', '.join(names)}):\n" + ("\n".join(lines) or "    pass") + "\n"
    namespace: dict = {}
    exec(src, setters, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields}
    return init


def _kept_hash(plain_hash, set_h):
    """``plain_hash``, the dataclass's ``__hash__``, computed once and kept in ``_h``."""

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = plain_hash(self)
            set_h(self, h)
            return h

    return __hash__


def _identity_first(plain_eq):
    """``plain_eq``, the dataclass's ``__eq__``, answering True at once for a record and itself."""

    def __eq__(self, other):
        return True if self is other else plain_eq(self, other)

    return __eq__


def _frozen_setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    # copy and pickle rebuild a record through its constructor
    return self.__class__, tuple([getattr(self, f.name) for f in dataclasses.fields(self)])
