"""The checking kernels against their ``match``-based reference definitions.

``types.fill``, ``surface._ty_eq``, ``surface._crc_eq`` and
``surface.alpha_eq`` dispatch on the node class, and ``alpha_eq`` keeps an
explicit stack.  The definitions below state the same relations as plain
``match`` chains and recursion; the kernels must give the same answers on:

- every pair of types in the typing derivations of corpus seeds 0-99 in
  both calculi, with hole and rigid-variable types among them, and every
  pair of types the typecheckers ``fill`` there;
- every pair of coercions in those programs and their translations;
- every (target state, expected state) pair that ``simulationCheck``
  compares on the first 50 of those programs, those pairs with their annotations turned into rigid type
  variables, and mutated copies of them.

``translate.psi_type`` and ``translate.psi_crc`` dispatch on the node class
too, and hand back their argument itself when no part of it changes.  They
must give what the ``match``-based definitions below give on every type in
those derivations and every coercion in those programs and translations.

``lam_s.substitute`` and ``lam_sx.substitute`` hand back a node itself
when none of its children changes.  On every call the steppers, the
oracles and the environment reads make while stepping those programs,
they must give what the copying definitions below give, and hand back
every subtree in which no substituted name is free.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import random

import pytest

from coercion_forge import coercions, harness, surface, terms, translate, types
from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge.coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.types import (
    BOOL,
    DYN,
    INT,
    CrcT,
    Fun2T,
    FunT,
    Hole,
    TyVar,
    Type,
)

SEEDS = range(100)
SIMULATED = 50  # programs whose simulation pairs are compared

# ---------------------------------------------------------------------------
# The reference definitions


def ref_copy(t):
    """``t`` with each filled hole replaced by what fills it and each open
    one by a fresh hole: no hole of the copy occurs twice or elsewhere."""
    if isinstance(t, Hole):
        return Hole() if t.ty is None else ref_copy(t.ty)
    match t:
        case FunT(a, b) | Fun2T(a, b) | CrcT(a, b):
            return t.__class__(ref_copy(a), ref_copy(b))
        case _:
            return t


def ref_settled(t):
    """``t``, which holds only open holes, with each read as Dyn."""
    if isinstance(t, Hole):
        return DYN
    match t:
        case FunT(a, b) | Fun2T(a, b) | CrcT(a, b):
            return t.__class__(ref_settled(a), ref_settled(b))
        case _:
            return t


def ref_meet(a: Type, b: Type):
    """The type ``a`` and ``b`` both stand for once each open hole of one
    takes what it meets in the other, holes still open read as Dyn; None
    if they differ.  ``a`` and ``b`` hold only open holes, none twice."""
    if isinstance(a, Hole):
        return ref_settled(b)
    if isinstance(b, Hole):
        return ref_settled(a)
    match (a, b):
        case (FunT(a1, b1), FunT(a2, b2)) | (Fun2T(a1, b1), Fun2T(a2, b2)) | (
            CrcT(a1, b1),
            CrcT(a2, b2),
        ):
            parts = ref_meet(a1, a2), ref_meet(b1, b2)
            return None if None in parts else a.__class__(*parts)
        case _:
            return a if a == b else None


def check_fill(a: Type, b: Type) -> None:
    """``types.fill`` on copies of ``a`` and ``b`` agrees with ``ref_meet``,
    and fills no hole when they differ."""
    a, b = ref_copy(a), ref_copy(b)
    want, before = ref_meet(a, b), (repr(a), repr(b))
    assert types.fill(a, b) == (want is not None), (a, b)
    if want is None:
        assert (repr(a), repr(b)) == before, (a, b)
    else:
        assert types.settled(a) == types.settled(b) == want, (a, b)


def ref_ty_eq(a: Type, b: Type, tymap: dict[int, int]) -> bool:
    match (a, b):
        case (TyVar(u), TyVar(v)):
            if u in tymap:
                return tymap[u] == v
            if v in tymap.values():
                return False
            tymap[u] = v
            return True
        case (FunT(a1, a2), FunT(b1, b2)) | (Fun2T(a1, a2), Fun2T(b1, b2)) | (
            CrcT(a1, a2),
            CrcT(b1, b2),
        ):
            return ref_ty_eq(a1, b1, tymap) and ref_ty_eq(a2, b2, tymap)
        case _:
            return a == b


def ref_crc_eq(c: Coercion, d: Coercion, tymap: dict[int, int]) -> bool:
    match (c, d):
        case (IdStar(), IdStar()):
            return True
        case (Id(a), Id(b)):
            return ref_ty_eq(a, b, tymap)
        case (InjSeq(g1, t1), InjSeq(g2, t2)):
            return ref_crc_eq(g1, g2, tymap) and ref_ty_eq(t1, t2, tymap)
        case (ProjSeq(g1, p1, b1), ProjSeq(g2, p2, b2)):
            return ref_ty_eq(g1, g2, tymap) and p1 == p2 and ref_crc_eq(b1, b2, tymap)
        case (Fun(s1, t1), Fun(s2, t2)):
            return ref_crc_eq(s1, s2, tymap) and ref_crc_eq(t1, t2, tymap)
        case (Fail(g1, p1, h1), Fail(g2, p2, h2)):
            return ref_ty_eq(g1, g2, tymap) and p1 == p2 and ref_ty_eq(h1, h2, tymap)
        case _:
            return False


def ref_alpha_eq(m1, m2) -> bool:
    tymap: dict[int, int] = {}

    def go(a, b, env: tuple[tuple[str, str], ...]) -> bool:
        def var_eq(x: str, y: str) -> bool:
            for l, r in reversed(env):
                if l == x or r == y:
                    return l == x and r == y
            return x == y

        match (a, b):
            case (S.Const(u), S.Const(v)) | (X.Const(u), X.Const(v)):
                return u == v and type(u) is type(v)
            case (S.Var(x), S.Var(y)) | (X.Var(x), X.Var(y)):
                return var_eq(x, y)
            case (S.GlobalRef(x), S.GlobalRef(y)) | (X.GlobalRef(x), X.GlobalRef(y)):
                return x == y
            case (S.Blame(p), S.Blame(q)) | (X.Blame(p), X.Blame(q)):
                return p == q
            case (S.Abs(x1, t1, b1), S.Abs(x2, t2, b2)):
                return ref_ty_eq(t1, t2, tymap) and go(b1, b2, env + ((x1, x2),))
            case (X.Abs2(x1, t1, k1, s1, b1), X.Abs2(x2, t2, k2, s2, b2)):
                return (
                    ref_ty_eq(t1, t2, tymap)
                    and ref_ty_eq(s1, s2, tymap)
                    and go(b1, b2, env + ((x1, x2), (k1, k2)))
                )
            case (S.Op(o1, l1, r1), S.Op(o2, l2, r2)) | (X.Op(o1, l1, r1), X.Op(o2, l2, r2)):
                return o1 == o2 and go(l1, l2, env) and go(r1, r2, env)
            case (S.App(f1, a1), S.App(f2, a2)):
                return go(f1, f2, env) and go(a1, a2, env)
            case (X.App2(f1, a1, k1), X.App2(f2, a2, k2)):
                return go(f1, f2, env) and go(a1, a2, env) and go(k1, k2, env)
            case (X.Let(x1, m1_, n1), X.Let(x2, m2_, n2)):
                return go(m1_, m2_, env) and go(n1, n2, env + ((x1, x2),))
            case (X.Compose(l1, r1), X.Compose(l2, r2)):
                return go(l1, l2, env) and go(r1, r2, env)
            case (S.CrcApp(s1, c1), S.CrcApp(s2, c2)):
                return go(s1, s2, env) and ref_crc_eq(c1, c2, tymap)
            case (X.CrcApp(s1, c1), X.CrcApp(s2, c2)):
                return go(s1, s2, env) and go(c1, c2, env)
            case (S.CoercedVal(s1, c1), S.CoercedVal(s2, c2)) | (
                X.CoercedVal(s1, c1),
                X.CoercedVal(s2, c2),
            ):
                return go(s1, s2, env) and ref_crc_eq(c1, c2, tymap)
            case (X.CrcLit(c1), X.CrcLit(c2)):
                return ref_crc_eq(c1, c2, tymap)
            case (S.If(c1, m1_, n1), S.If(c2, m2_, n2)) | (
                X.If(c1, m1_, n1),
                X.If(c2, m2_, n2),
            ):
                return go(c1, c2, env) and go(m1_, m2_, env) and go(n1, n2, env)
            case _:
                return False

    return go(m1, m2, ())


def ref_psi_type(a: Type) -> Type:
    match a:
        case FunT(x, y):
            return Fun2T(ref_psi_type(x), ref_psi_type(y))
        case _:
            return a


def ref_psi_crc(c: Coercion) -> Coercion:
    match c:
        case IdStar():
            return c
        case Id(a):
            return Id(ref_psi_type(a))
        case ProjSeq(g, p, i):
            return ProjSeq(ref_psi_type(g), p, ref_psi_crc(i))
        case InjSeq(g, tag):
            return InjSeq(ref_psi_crc(g), ref_psi_type(tag))
        case Fun(s, t):
            return Fun(ref_psi_crc(s), ref_psi_crc(t))
        case Fail(g, p, h):
            # failure tags are ground types and must live in the target
            # calculus for the translated coercion to stay well formed
            return Fail(ref_psi_type(g), p, ref_psi_type(h))
    raise AssertionError(c)


def ref_substitute_s(t, sub):
    """Simultaneous capture-avoiding substitution, copying every node."""
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is S.Var:
        return sub.get(t.name, t)
    if cls is S.Op:
        return S.Op(t.op, ref_substitute_s(t.left, sub), ref_substitute_s(t.right, sub))
    if cls is S.App:
        return S.App(ref_substitute_s(t.fun, sub), ref_substitute_s(t.arg, sub))
    if cls is S.CrcApp:
        return S.CrcApp(ref_substitute_s(t.subject, sub), t.crc)
    if cls is S.CoercedVal:
        return S.CoercedVal(ref_substitute_s(t.subject, sub), t.crc)
    if cls is S.If:
        return S.If(ref_substitute_s(t.cond, sub), ref_substitute_s(t.then, sub), ref_substitute_s(t.els, sub))
    if cls is S.Abs:
        under = terms.under_binder(t, sub, ref_substitute_s)
        return t if under is None else S.Abs(under[0], t.var_ty, under[1])
    return t


def ref_substitute_x(t, sub):
    if not sub:
        return t
    # dispatch on the node class: this runs on every node of a function
    # body at every beta step, where a ``match`` chain's tests add up
    cls = t.__class__
    if cls is X.Var:
        return sub.get(t.name, t)
    if cls is X.CrcApp:
        return X.CrcApp(ref_substitute_x(t.subject, sub), ref_substitute_x(t.crc, sub))
    if cls is X.Op:
        return X.Op(t.op, ref_substitute_x(t.left, sub), ref_substitute_x(t.right, sub))
    if cls is X.App2:
        return X.App2(ref_substitute_x(t.fun, sub), ref_substitute_x(t.arg, sub), ref_substitute_x(t.cont, sub))
    if cls is X.Compose:
        return X.Compose(ref_substitute_x(t.left, sub), ref_substitute_x(t.right, sub))
    if cls is X.If:
        return X.If(ref_substitute_x(t.cond, sub), ref_substitute_x(t.then, sub), ref_substitute_x(t.els, sub))
    if cls is X.CoercedVal:
        return X.CoercedVal(ref_substitute_x(t.subject, sub), t.crc)
    if cls is X.Let:
        x, n = terms.under_binder(t, sub, ref_substitute_x) or (t.var, t.body)
        return X.Let(x, ref_substitute_x(t.bound, sub), n)
    if cls is X.Abs2:
        under = terms.under_binder(t, sub, ref_substitute_x)
        return t if under is None else X.Abs2(under[0], t.var_ty, under[1], t.k_src, under[2])
    return t


# ---------------------------------------------------------------------------
# Inputs from the corpus


@functools.cache
def programs():
    """Each corpus program with its translation."""
    out = []
    for s in SEEDS:
        p = harness.genWellTyped(harness.GenConfig(seed=s, maxDepth=8))
        out.append((p, translate.trans_program(p)))
    return out


def derivations(p, mod):
    sigs = p.def_types()
    yield mod.typecheck_program(p)
    for d in p.defs:
        yield mod.typecheck(d.fun, {}, sigs, d.ty)


def field_values(r) -> list:
    """The field values of the record ``r``: records have no ``__dict__``."""
    return [getattr(r, f.name) for f in dataclasses.fields(r)]


def type_parts(t):
    yield t
    if isinstance(t, Hole):
        return
    for v in field_values(t):
        if not isinstance(v, (str, int)):
            yield from type_parts(v)


@functools.cache
def derivation_types() -> list:
    """Every type in the corpus's derivations, with hole and rigid-variable variants."""
    found = set()
    for p, px in programs():
        for p_, mod in ((p, S), (px, X)):
            for d in derivations(p_, mod):
                stack = [d]
                while stack:
                    d = stack.pop()
                    found.update(type_parts(d.ty))
                    stack.extend(d.children)
    wild = {Hole(), FunT(Hole(), Hole()), Fun2T(Hole(), Hole()), CrcT(Hole(), Hole())}
    wild |= {CrcT(INT, Hole()), TyVar(0)}
    for t in list(found):
        if t.__class__ in (FunT, Fun2T):
            wild |= {t.__class__(t.arg, Hole()), t.__class__(Hole(), t.res)}
        elif t.__class__ is CrcT:
            wild |= {CrcT(t.src, Hole()), CrcT(Hole(), t.tgt)}
    found |= wild
    assert any(t.__class__ is TyVar for t in found)
    return sorted(found, key=repr)


@functools.cache
def filled_pairs() -> list:
    """Copies of every pair of types the typecheckers ``fill`` on the corpus."""
    asked = []
    fill = types.fill

    def recording(a, b):
        asked.append((ref_copy(a), ref_copy(b)))
        return fill(a, b)

    mp = pytest.MonkeyPatch()
    for mod in (S, X, coercions):
        mp.setattr(mod, "fill", recording)
    try:
        for p, px in programs():
            list(derivations(p, S))
            list(derivations(px, X))
    finally:
        mp.undo()
    assert any(Hole in {m.__class__ for m in type_parts(b)} for _, b in asked)
    return asked


COERCIONS = (IdStar, Id, ProjSeq, InjSeq, Fun, Fail)
CARRIERS = (S.CrcApp, S.CoercedVal, X.CoercedVal, X.CrcLit)


@functools.cache
def corpus_coercions() -> list:
    """Every coercion in the corpus programs and their translations, with its parts."""
    found = set()
    stack = []
    for p, px in programs():
        for t in [p.main, *p.def_terms().values(), px.main, *px.def_terms().values()]:
            stack.extend(m.crc for m in terms.walk(t) if isinstance(m, CARRIERS))
    while stack:
        c = stack.pop()
        found.add(c)
        stack.extend(v for v in field_values(c) if isinstance(v, COERCIONS))
    found |= {
        Id(TyVar(0)),
        Id(TyVar(1)),
        Fun(Id(TyVar(0)), Id(TyVar(1))),
        Fun(Id(TyVar(1)), Id(TyVar(1))),
        InjSeq(Id(Fun2T(TyVar(0), DYN)), Fun2T(DYN, DYN)),
    }
    return sorted(found, key=repr)


@functools.cache
def simulation_pairs() -> list:
    """The (target state, expected state) pairs ``simulationCheck`` compares."""
    seen = []

    def recording(a, b):
        seen.append((a, b))
        return ref_alpha_eq(a, b)

    mp = pytest.MonkeyPatch()
    mp.setattr(surface, "alpha_eq", recording)
    try:
        for s, (p, _) in enumerate(programs()[:SIMULATED]):
            assert harness.simulationCheck(p, seed=s).kind == "agree"
    finally:
        mp.undo()
    return seen


# ---------------------------------------------------------------------------
# Variants of the simulation pairs


def relabel(t, tyvars: dict[Type, int], done: dict | None = None):
    """``t`` with each base type in its binder annotations replaced by a rigid variable.

    A node met before, by identity, in ``done`` (from this call or an
    earlier one given the same dict) gives the same new node as then, so
    the subtrees two terms share stay shared.
    """
    if done is None:
        done = {}
    hit = done.get(id(t))
    if hit is not None:
        return hit[1]

    def ty(a):
        if a in tyvars:
            return TyVar(tyvars[a])
        if a.__class__ in (FunT, Fun2T):
            return a.__class__(ty(a.arg), ty(a.res))
        if a.__class__ is CrcT:
            return CrcT(ty(a.src), ty(a.tgt))
        return a

    changes = {k: relabel(getattr(t, k), tyvars, done) for k in t._kids}
    if t.__class__ is X.Abs2:
        changes.update(var_ty=ty(t.var_ty), k_src=ty(t.k_src))
    new = dataclasses.replace(t, **changes) if changes else t
    done[id(t)] = (t, new)
    return new


def mutant(t, rng: random.Random, crcs: list):
    """``t`` with one node changed: a leaf, a name, an annotation, a coercion or a shape."""
    nodes = []
    stack = [((), t)]
    while stack:
        path, m = stack.pop()
        nodes.append((path, m))
        stack.extend((path + (i,), k) for i, k in enumerate(terms.children(m)))
    path, m = rng.choice(nodes)
    binders = sorted({n.var for _, n in nodes if hasattr(n, "var")} | {"zz"})
    cls = m.__class__
    if cls is X.Const:
        v = m.val
        new = X.Const(rng.choice([not v, int(v)]) if isinstance(v, bool) else rng.choice([v + 1, bool(v)]))
    elif cls is X.Var:
        new = X.Var(rng.choice(binders))
    elif cls is X.Abs2:
        new = rng.choice(
            [
                dataclasses.replace(m, var=m.kvar, kvar=m.var),
                dataclasses.replace(m, var=rng.choice(binders)),
                dataclasses.replace(m, var_ty=DYN if m.var_ty != DYN else INT),
                dataclasses.replace(m, k_src=TyVar(0)),
            ]
        )
    elif cls is X.Let:
        new = dataclasses.replace(m, var=rng.choice(binders))
    elif cls in (X.CrcLit, X.CoercedVal):
        new = dataclasses.replace(m, crc=rng.choice(crcs))
    elif cls is X.Op:
        new = dataclasses.replace(m, op="-" if m.op != "-" else "+")
    elif cls is X.GlobalRef:
        new = X.GlobalRef(m.name + "k")
    elif cls is X.Blame:
        new = X.Blame(m.label + "q")
    else:
        kids = terms.children(m)
        new = kids[-1] if rng.random() < 0.5 else dataclasses.replace(m, **{m._kids[0]: kids[-1]})
    return terms.replace(t, path, new)


def run_states(mod, q, fuel: int = 300) -> list:
    """The states of ``q``'s run: of one run with every state read, then of
    one with none read, whose steps go on under the environments they leave."""
    states = [q.main]
    mod.evaluate_program(q, fuel, lambda n, r: states.append(r.term))
    mod.evaluate_program(q, fuel)
    return states


@functools.cache
def substitute_calls() -> list:
    """(calculus, term, substitution, answer) of every call to ``substitute``,
    other than its own, made while stepping the corpus programs and their
    translations and splitting each state with the oracle."""
    calls = []
    mp = pytest.MonkeyPatch()
    for mod in (S, X):
        real = mod.substitute
        inside = [False]

        def recording(t, sub, mod=mod, real=real, inside=inside):
            if inside[0]:
                return real(t, sub)
            inside[0] = True
            try:
                out = real(t, sub)
            finally:
                inside[0] = False
            calls.append((mod, t, dict(sub), out))
            return out

        mp.setattr(mod, "substitute", recording)
    try:
        for p, px in programs():
            for mod, q in ((S, p), (X, px)):
                defs = q.def_terms()
                for t in run_states(mod, q):
                    mod.decompose_oracle(t, defs)
    finally:
        mp.undo()
    return calls


# ---------------------------------------------------------------------------
# The tests


def test_filling_agrees_with_the_reference_on_every_pair_of_derivation_types():
    tys = derivation_types()
    for a in tys:
        for b in tys:
            check_fill(a, b)


def test_filling_agrees_with_the_reference_on_what_the_typecheckers_fill():
    for a, b in filled_pairs():
        check_fill(a, b)
        check_fill(b, a)


def test_type_equality_keeps_the_same_rigid_variable_bijection():
    tys = derivation_types()
    ours: dict[int, int] = {}
    theirs: dict[int, int] = {}
    for a in tys:
        for b in tys:
            fresh_ours: dict[int, int] = {}
            fresh_theirs: dict[int, int] = {}
            assert surface._ty_eq(a, b, fresh_ours) == ref_ty_eq(a, b, fresh_theirs), (a, b)
            assert fresh_ours == fresh_theirs, (a, b)
            # one map shared by a run of comparisons, as within one term
            assert surface._ty_eq(a, b, ours) == ref_ty_eq(a, b, theirs), (a, b)
            assert ours == theirs


def test_coercion_equality_agrees_on_every_pair_of_corpus_coercions():
    crcs = corpus_coercions()
    for c in crcs:
        for d in crcs:
            ours: dict[int, int] = {}
            theirs: dict[int, int] = {}
            assert surface._crc_eq(c, d, ours) == ref_crc_eq(c, d, theirs), (c, d)
            assert ours == theirs, (c, d)


def test_alpha_eq_agrees_on_the_simulation_pairs():
    pairs = simulation_pairs()
    got = [surface.alpha_eq(a, b) for a, b in pairs]
    assert got == [ref_alpha_eq(a, b) for a, b in pairs]
    assert set(got) == {True, False}


def test_alpha_eq_agrees_on_simulation_pairs_with_rigid_variables():
    # every eighth pair, with Int, Bool and Dyn in its binder annotations
    # turned into rigid variables: renamed one to one, merged, or swapped
    outcomes = set()
    for a, b in simulation_pairs()[::8]:
        a2 = relabel(a, {INT: 0, BOOL: 1, DYN: 2})
        for right in ({INT: 7, BOOL: 3, DYN: 5}, {INT: 4, BOOL: 4, DYN: 5}, {INT: 1, BOOL: 0}):
            b2 = relabel(b, right)
            want = ref_alpha_eq(a2, b2)
            assert surface.alpha_eq(a2, b2) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def shares_a_binder(a, b) -> bool:
    """Whether ``a`` and ``b`` hold one ``Abs2`` object in common."""
    mine = {id(t) for t in terms.walk(a) if t.__class__ is X.Abs2}
    return any(id(t) in mine for t in terms.walk(b))


def test_alpha_eq_agrees_on_simulation_pairs_without_sharing():
    # the two sides of a pair share most of their subtrees by identity; a
    # deep copy of one side shares none, so the whole pair is walked
    pairs = simulation_pairs()
    assert sum(shares_a_binder(a, b) for a, b in pairs) > len(pairs) // 2
    for a, b in pairs:
        b2 = copy.deepcopy(b)
        assert not shares_a_binder(a, b2)
        want = ref_alpha_eq(a, b2)
        assert surface.alpha_eq(a, b2) == want
        assert surface.alpha_eq(a, b) == want


def test_alpha_eq_agrees_on_shared_simulation_pairs_with_rigid_variables():
    # both sides relabelled through one memo: the subtrees they share stay
    # shared and hold the left side's rigid variables, while the rest of
    # the right side gets its own, renamed one to one, merged or swapped
    left = {INT: 0, BOOL: 1, DYN: 2}
    outcomes = set()
    fallbacks = 0
    for a, b in simulation_pairs()[::4]:
        for right in (left, {INT: 7, BOOL: 3, DYN: 5}, {INT: 4, BOOL: 4, DYN: 5}, {INT: 1, BOOL: 0}):
            done: dict = {}
            a2 = relabel(a, left, done)
            b2 = relabel(b, right, done)
            want = ref_alpha_eq(a2, b2)
            assert surface.alpha_eq(a2, b2) == want
            assert surface.alpha_eq(b2, a2) == ref_alpha_eq(b2, a2)
            outcomes.add(want)
            fallbacks += shares_a_binder(a2, b2) and "'X" in repr(b2)
    assert outcomes == {True, False}
    assert fallbacks > 0


def test_alpha_eq_agrees_on_mutated_simulation_pairs():
    rng = random.Random(0)
    crcs = [c for c in corpus_coercions() if "'X" not in repr(c)]
    pairs = simulation_pairs()
    negatives = 0
    for a, b in pairs:
        b2 = mutant(b, rng, crcs)
        want = ref_alpha_eq(a, b2)
        assert surface.alpha_eq(a, b2) == want
        assert surface.alpha_eq(b2, a) == ref_alpha_eq(b2, a)
        negatives += not want
    assert negatives > len(pairs) // 2


def crc_types(c) -> list:
    """Every type inside the coercion ``c``, with its parts."""
    out = []
    for v in field_values(c):
        if isinstance(v, COERCIONS):
            out += crc_types(v)
        elif not isinstance(v, str):
            out += type_parts(v)
    return out


def has_fun_type(c) -> bool:
    return any(t.__class__ is FunT for t in crc_types(c))


def fun_type_coercions() -> list:
    """Coercions with a source function type inside, which the corpus
    programs do not write: the identity at each function type of the
    derivations, and the injection, projection and failures at the ground
    function type, alone and under an arrow."""
    g = FunT(DYN, DYN)
    out = [Id(t) for t in derivation_types() if t.__class__ is FunT]
    grounded = [InjSeq(Id(g), g), ProjSeq(g, "p", Id(g)), Fail(g, "p", INT), Fail(INT, "q", g)]
    out += grounded
    out += [Fun(IdStar(), c) for c in grounded] + [Fun(c, Id(BOOL)) for c in grounded]
    return out


def test_psi_agrees_with_the_reference_on_every_corpus_type_and_coercion():
    crcs = corpus_coercions() + fun_type_coercions()
    tys = set(derivation_types())
    for c in crcs:
        tys.update(crc_types(c))
    assert any(t.__class__ is FunT for t in tys)
    for t in tys:
        assert translate.psi_type(t) == ref_psi_type(t), t
        if t.__class__ is not FunT:
            assert translate.psi_type(t) is t, t
    for c in crcs:
        assert translate.psi_crc(c) == ref_psi_crc(c), c


def test_psi_hands_back_every_coercion_with_no_function_type_inside():
    crcs = corpus_coercions()
    plain = [c for c in crcs if not has_fun_type(c)]
    # every coercion the corpus programs and translations write, arrow
    # coercions among them
    assert plain == crcs
    assert any(c.__class__ is Fun for c in plain)
    for c in plain:
        assert translate.psi_crc(c) is c, c
    for c in fun_type_coercions():
        assert has_fun_type(c) and not has_fun_type(translate.psi_crc(c)), c


REF_SUBSTITUTE = {S: ref_substitute_s, X: ref_substitute_x}


def test_substitute_agrees_with_the_copying_reference_on_every_call_of_a_run():
    calls = substitute_calls()
    assert {mod for mod, *_ in calls} == {S, X}
    # R-Beta, R-Let and reads under environments of more than one name
    assert any(len(sub) > 1 for mod, _, sub, _ in calls if mod is X)
    for mod, t, sub, out in calls:
        assert out == REF_SUBSTITUTE[mod](t, sub), (t, sub)


def test_substitute_hands_back_every_subtree_with_no_substituted_name_free():
    shared = 0
    for mod, t, sub, out in substitute_calls():
        kept = {id(m) for m in terms.walk(out)}
        for m in terms.walk(t):
            if terms.free_vars(m).isdisjoint(sub):
                assert mod.substitute(m, sub) is m, (m, sub)
                shared += id(m) in kept
    assert shared > 1000


def test_a_beta_step_keeps_each_body_subtree_without_its_parameters():
    kept_subtrees = 0
    for p, px in programs():
        for mod, q in ((S, p), (X, px)):
            defs = q.def_terms()
            states = run_states(mod, q)
            for t, after in zip(states, states[1:]):
                [split] = mod.decompose_oracle(t, defs)
                redex = terms.subterm(t, split.path)
                if split.rule != "R-Beta" or not hasattr(redex.fun, "_binds"):
                    continue
                f = redex.fun
                params = {getattr(f, b) for b in f._binds}
                contractum = {id(m) for m in terms.walk(terms.subterm(after, split.path))}
                for m in terms.walk(f.body):
                    if terms.free_vars(m).isdisjoint(params):
                        assert id(m) in contractum, m
                        kept_subtrees += 1
    assert kept_subtrees > 100
