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
    """The fields of ``cls`` whose resolved annotation is the calculus's term type."""
    hints = typing.get_type_hints(cls)
    return tuple(f.name for f in dataclasses.fields(cls) if hints[f.name] == term_type)


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


def test_source_and_target_constants_differ():
    assert S.Const(1) != X.Const(1)


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

