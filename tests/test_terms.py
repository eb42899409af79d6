"""The node protocol both calculi share: children, binders and the walks
derived from them, constant equality, and the shared driver loop."""

import dataclasses
import functools
import typing

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface, terms, translate
from coercion_forge.harness import GenConfig, genWellTyped

CALCULI = [(S, S.TermS), (X, X.TermX)]


@functools.cache
def term_fields(cls, term_type):
    """The fields of ``cls`` whose resolved annotation is the calculus's term
    type, or ``terms.Term`` for the formers both calculi share."""
    hints = typing.get_type_hints(cls)
    return tuple(
        f.name for f in dataclasses.fields(cls) if hints[f.name] in (term_type, terms.Term)
    )


def rebuild(t, path, new, term_type):
    """Reference for ``terms.replace``, reading the children off the annotations."""
    if not path:
        return new
    name = term_fields(type(t), term_type)[path[0]]
    return dataclasses.replace(t, **{name: rebuild(getattr(t, name), path[1:], new, term_type)})


def all_paths(t, path=()):
    yield path
    for i, k in enumerate(terms.children(t)):
        yield from all_paths(k, path + (i,))


def corpus_states(mod, programs=25, states=20):
    """The first states of the runs of the first corpus programs, in one calculus."""
    for seed in range(programs):
        p = genWellTyped(GenConfig(seed=seed, maxDepth=8))
        if mod is X:
            p = translate.trans_program(p)
        t, defs = p.main, p.def_terms()
        for _ in range(states):
            yield t
            r = mod.step(t, defs)
            if not isinstance(r, terms.Stepped):
                break
            t = r.term


@pytest.mark.parametrize("mod, term_type", CALCULI, ids=["lams", "lamsx"])
def test_kids_are_the_fields_annotated_as_terms(mod, term_type):
    for cls in typing.get_args(term_type):
        assert cls._kids == term_fields(cls, term_type), cls
        assert cls._kids_rev == cls._kids[::-1], cls


def test_only_the_binders_declare_bound_names():
    classes = typing.get_args(S.TermS) + typing.get_args(X.TermX)
    binders = {cls: cls._binds for cls in classes if hasattr(cls, "_binds")}
    assert binders == {S.Abs: ("var",), X.Abs2: ("var", "kvar"), X.Let: ("var",)}


@pytest.mark.parametrize("mod, term_type", CALCULI, ids=["lams", "lamsx"])
def test_replace_and_subterm_agree_with_the_reference_at_every_path(mod, term_type):
    hole = mod.Blame("hole")
    seen = 0
    for t in corpus_states(mod):
        for path in all_paths(t):
            assert terms.replace(t, path, hole) == rebuild(t, path, hole, term_type)
            assert terms.subterm(terms.replace(t, path, hole), path) is hole
            seen += 1
    assert seen > 5000


@pytest.mark.parametrize("mod, term_type", CALCULI, ids=["lams", "lamsx"])
def test_walk_is_a_preorder_of_every_node(mod, term_type):
    def preorder(t):
        yield t
        for k in terms.children(t):
            yield from preorder(k)

    for t in corpus_states(mod, programs=10):
        assert [id(m) for m in terms.walk(t)] == [id(m) for m in preorder(t)]


def test_free_vars_respects_every_binder():
    def fv(text, dialect):
        return terms.free_vars(surface.parse_term(text, dialect))

    assert fv("\\x:Int. x + y", "lams") == {"y"}
    assert fv("(\\x:Int. x) x", "lams") == {"x"}
    assert fv("\\ (x:Int, k:Int). f(x, k)<j>", "lamsx") == {"f", "j"}
    # a let's bound term is outside its scope, its body inside
    assert fv("let x = x in x<k>", "lamsx") == {"x", "k"}
    assert fv("let x = 1 in x<k>", "lamsx") == {"k"}
    assert fv("5", "lams") == frozenset()


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_constants_of_different_types_differ(mod):
    assert mod.Const(1) != mod.Const(True)
    assert mod.Const(0) != mod.Const(False)
    assert len({mod.Const(1), mod.Const(True), mod.Const(0), mod.Const(False)}) == 4
    assert mod.Const(1) == mod.Const(1) and hash(mod.Const(1)) == hash(mod.Const(1))
    assert mod.Const(True) == mod.TRUE


def test_source_and_target_constants_are_one_class():
    assert S.Const is X.Const


def test_each_calculus_module_defines_only_its_own_formers():
    def own(mod):
        return {
            name
            for name, v in vars(mod).items()
            if isinstance(v, type) and hasattr(v, "_kids") and v.__module__ == mod.__name__
        }

    assert own(S) == {"Abs", "App", "CrcApp"}
    assert own(X) == {"Abs2", "App2", "Let", "Compose", "CrcApp", "CrcLit"}
    shared = set(typing.get_args(S.TermS)) & set(typing.get_args(X.TermX))
    assert {cls.__name__ for cls in shared if cls.__module__ == terms.__name__} == {
        "Const", "Var", "Op", "If", "Blame", "GlobalRef", "CoercedVal"
    }
    assert S.TRUE is X.TRUE and S.FALSE is X.FALSE


# Closed terms built only from the shared formers are terms of both calculi.
SHARED_SYNTAX = [
    "if 1 < 2 then 3 + 4 else blame p",  # R-Op, R-IfTrue
    "if 2 < 1 then blame p else 2 - 3",  # R-Op, R-IfFalse
    "1 + (blame q)",  # E-Abort
    "(if true then blame r else 1) * 2",  # E-Abort under a frame
    "if 1 = 1 then 5<<Int!>> else 6<<Int!>>",  # a coerced value
    "true<<Bool!>>",  # a coerced value already
    "2 * 3 = 6",
]


def shared_trace(mod, t):
    """The oracle's splits and the (kind, rule, term) step of each state of
    ``t``'s run, then how it ended."""
    out = []
    while True:
        out.append(mod.decompose_oracle(t))
        r = mod.step(t)
        if not isinstance(r, terms.Stepped):
            return out + [r]
        out.append((r.kind, r.rule, r.term))
        t = r.term


@pytest.mark.parametrize("text", SHARED_SYNTAX)
def test_shared_syntax_has_one_meaning_in_both_calculi(text):
    t = surface.parse_term(text, "lams")
    assert surface.parse_term(text, "lamsx") == t
    assert shared_trace(S, t) == shared_trace(X, t)
    assert S.typecheck(t).ty == X.typecheck(t).ty


def test_the_shared_syntax_cases_fire_the_shared_rules():
    rules = {
        step[1]
        for text in SHARED_SYNTAX
        for step in shared_trace(S, surface.parse_term(text, "lams"))
        if isinstance(step, tuple)
    }
    assert rules == {"R-Op", "R-IfTrue", "R-IfFalse", "E-Abort"}


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_driver_loop_calls_the_stepper_bound_at_call_time(mod, monkeypatch):
    calls = []
    original = mod.step

    def counting(term, defs):
        calls.append(term)
        return original(term, defs)

    monkeypatch.setattr(mod, "step", counting)
    out = mod.evaluate(mod.Op("*", mod.Op("+", mod.Const(1), mod.Const(2)), mod.Const(3)))
    assert out.kind == "value" and out.term == mod.Const(9)
    assert len(calls) == out.steps + 1



DEEP = 10**4


def left_sum(mod, innermost=1):
    """``innermost + 1 + ... + 1`` with ``DEEP`` additions, nested to the left.

    It is built from nodes: the parser still recurses once per level.
    """
    t = mod.Const(innermost)
    for _ in range(DEEP):
        t = mod.Op("+", t, mod.Const(1))
    return t


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_oracle_reaches_a_redex_nested_ten_thousand_deep(mod):
    t = left_sum(mod)
    decs = mod.decompose_oracle(t)
    assert len(decs) == 1
    (d,) = decs
    assert (d.rule, d.kind) == ("R-Op", "e")
    assert d.path == (0,) * (DEEP - 1)
    assert d.term == mod.step(t).term


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_replace_follows_a_path_ten_thousand_long(mod):
    t = terms.replace(left_sum(mod), (0,) * DEEP, mod.Const(2))
    assert surface.alpha_eq(t, left_sum(mod, 2))
    assert terms.subterm(t, (0,) * DEEP) == mod.Const(2)
    assert not surface.alpha_eq(t, left_sum(mod))


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_terms_ten_thousand_deep_compare_and_hash(mod):
    t, u = left_sum(mod), left_sum(mod)
    assert t is not u
    assert t == u and not t != u
    assert hash(t) == hash(u)
    # the two differ only in the innermost constant
    assert t != left_sum(mod, 2)
    assert len({t, u, left_sum(mod, 2)}) == 2


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_cycle_detection_hashes_states_ten_thousand_deep(mod):
    # Each step re-descends from the root, so running the deep sum itself
    # would take quadratic time.  It sits in the branch not taken, while
    # 130 additions in the condition run past two sampled states.
    cond = mod.Const(1)
    for _ in range(130):
        cond = mod.Op("+", cond, mod.Const(1))
    t = mod.If(mod.Op("=", cond, mod.Const(131)), mod.Const(0), left_sum(mod))
    out = mod.evaluate(t, detect_cycles=True)
    assert (out.kind, out.term, out.steps) == ("value", mod.Const(0), 132)
