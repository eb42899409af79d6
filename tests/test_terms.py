"""The node protocol both calculi share: children, binders and the walks
derived from them, constant equality, the shared driver loop, the
typing rejections both calculi share, and the records that terms,
coercions, types and step results are."""

import collections
import copy
import dataclasses
import functools
import gc
import importlib
import pathlib
import pickle
import re
import shutil
import sys
import time
import typing

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface, terms, translate
from coercion_forge.coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq, size
from coercion_forge.harness import GenConfig, genWellTyped
from coercion_forge.types import (
    BOOL, DYN, INT, Base, CrcT, Dyn, Fun2T, FunT, Hole, TyVar, Type, fill, settled
)

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


# The paper's rules of each calculus: the evaluation rules both share, and
# each calculus's composition rules.
E_RULES = {"R-Op", "R-Beta", "R-Wrap", "R-Unfold", "R-IfTrue", "R-IfFalse", "E-Abort"}
RULES = {
    S: E_RULES | {"R-MergeC", "R-MergeV", "R-Id", "R-Fail", "R-Crc"},
    X: E_RULES | {"R-MergeV", "R-Id", "R-Fail", "R-Crc", "R-Let", "R-Cmp"},
}


def test_the_composition_rules_are_the_seven_c_rules():
    assert terms.C_RULES == {"R-MergeC", "R-MergeV", "R-Id", "R-Fail", "R-Crc", "R-Let", "R-Cmp"}
    assert terms.C_RULES == (RULES[S] | RULES[X]) - E_RULES
    assert len(RULES[S]) == 12 and len(RULES[X]) == 13
    for rule in RULES[S] | RULES[X]:
        want = "e" if rule in E_RULES else "c"
        assert terms.kind_of(rule) == want
        assert terms.Stepped(rule, S.Const(1)).kind == want
        assert terms.Decomposition((), rule, S.Const(1)).kind == want


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_steppers_and_oracles_fire_exactly_the_calculus_rules(mod, corpus):
    """Over the corpus, with every state read, each stepper fires every rule
    of its calculus and no other, and so does the oracle on those states: a
    rule missing from the table, or an entry no stepper fires, fails here."""
    fired, found = set(), set()
    for p in corpus:
        if mod is X:
            p = translate.trans_program(p)
        defs = p.def_terms()

        def on_step(n, r, defs=defs):
            fired.add(r.rule)
            found.update(d.rule for d in mod.decompose_oracle(r.term, defs))

        found.update(d.rule for d in mod.decompose_oracle(p.main, defs))
        mod.evaluate(p.main, defs, 300, on_step)
    assert fired == RULES[mod]
    assert found == RULES[mod]


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



@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_driver_loop_shows_the_states_of_the_public_stepper(mod, corpus):
    """The states ``evaluate`` shows are the chain of ``step(t)`` calls from
    the root, whether they are read at once or after the run."""
    for p in corpus[:200]:
        if mod is X:
            p = translate.trans_program(p)
        defs = p.def_terms()
        at_once, kept = [], []
        out = mod.evaluate(p.main, defs, 300, lambda n, r: at_once.append((r.kind, r.rule, r.term)))
        later = mod.evaluate(p.main, defs, 300, lambda n, r: kept.append(r))
        assert (later.kind, later.steps) == (out.kind, out.steps)
        assert [(r.kind, r.rule, r.term) for r in kept] == at_once

        chain, t = [], p.main
        for _ in range(out.steps):
            r = mod.step(t, defs)
            chain.append((r.kind, r.rule, r.term))
            t = r.term
        assert chain == at_once
        assert out.term == later.term == t
        if out.kind != "out_of_fuel":
            assert mod.step(t, defs) == (terms.IS_VALUE if out.kind == "value" else terms.IS_BLAME)


def rejection(mod, message: str):
    """``pytest.raises`` for the calculus's typing error with exactly ``message``."""
    return pytest.raises(mod.TypeCheckError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_typecheckers_reject_an_unknown_constant(mod):
    with rejection(mod, "unknown constant '1'"):
        mod.typecheck(mod.Const("1"))


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_typecheckers_reject_an_unknown_operator(mod):
    with rejection(mod, "unknown operator /"):
        mod.typecheck(mod.Op("/", mod.Const(1), mod.Const(2)))


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_typecheckers_reject_an_unbound_variable(mod):
    with rejection(mod, "unbound variable y"):
        mod.typecheck(mod.Var("y"))


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_typecheckers_reject_an_unknown_definition(mod):
    with rejection(mod, "unknown definition f"):
        mod.typecheck(mod.GlobalRef("f"))


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_typecheckers_reject_a_definition_without_a_function_signature(mod):
    if mod is S:
        p = S.ProgramS((S.Def("f", INT, S.Abs("x", INT, S.Var("x"))),), S.Const(0))
    else:
        fun = X.Abs2("x", INT, "k", INT, X.CrcApp(X.Var("x"), X.Var("k")))
        p = X.ProgramX((X.Def("f", INT, fun),), X.Const(0))
    with rejection(mod, "definition f needs a function signature"):
        mod.typecheck_program(p)


def _abs(x, ty):
    """The identity on ``ty`` in λS."""
    return S.Abs(x, ty, S.Var(x))


_ONE_AS_DYN = S.CoercedVal(S.Const(1), InjSeq(Id(INT), INT))

# (calculus, ill-typed term, the message of the one branch that rejects it),
# for each rejection one calculus's typechecker has alone
ONE_SIDED_REJECTIONS = [
    (S, S.Op("+", _abs("x", INT), S.Const(1)), "expected Int, found a function"),
    (S, S.App(S.Abs("f", FunT(INT, INT), S.Var("f")), _abs("x", BOOL)),
     "function argument annotated Bool, expected Int"),
    # a continuation is checked at a coercion type from the function's
    # answer, a hole here, to a hole
    (X, X.App2(X.Blame("p"), X.Const(1), X.Const(2)), "expected (any ~> any), found Int"),
    (X, X.Compose(X.Const(1), X.CrcLit(Id(INT))),
     "composition operand must have a coercion type, found Int"),
    (X, X.Abs2("x", INT, "k", INT, X.Var("x")),
     "body must produce the continuation's answer type, found Int"),
]

# the same for the rejections both have that no shared test names
SHARED_REJECTIONS = [
    (lambda m: m.CoercedVal(m.Op("+", m.Const(1), m.Const(2)), InjSeq(Id(INT), INT)),
     "coerced-value subject must be an uncoerced value"),
    (lambda m: m.CoercedVal(m.Const(1), Id(INT)),
     "coerced values carry injections or arrows only"),
    (lambda m: m.If(m.Const(True), m.Const(1), m.Const(False)),
     "branch types Int and Bool differ"),
]

# an ill-typed coercion for each rejection of ``coercions.check_crc``; the
# typecheckers report its message
CRC_REJECTIONS = [
    (S.CrcApp(_ONE_AS_DYN, ProjSeq(INT, "p", IdStar())), "id at Dyn applied to Int"),
    (S.CoercedVal(S.Const(1), InjSeq(Id(BOOL), BOOL)), "id at Bool applied to Int"),
    (S.CrcApp(_ONE_AS_DYN, ProjSeq(FunT(INT, INT), "p", Id(FunT(INT, INT)))),
     "projection tag (Int -> Int) is not ground"),
    (S.CoercedVal(S.Const(1), InjSeq(ProjSeq(INT, "p", Id(INT)), INT)),
     "projection applied to Int"),
    (S.CoercedVal(_abs("x", INT), InjSeq(Id(FunT(INT, INT)), FunT(INT, INT))),
     "injection tag (Int -> Int) is not ground"),
    (S.CoercedVal(S.Const(1), InjSeq(Id(INT), BOOL)), "injection of Int at tag Bool"),
    (S.CoercedVal(S.Const(1), Fun(Id(INT), Id(INT))), "arrow coercion applied to Int"),
    (S.CoercedVal(_abs("x", BOOL), Fun(Id(INT), Id(BOOL))),
     "arrow argument expects Int, got Bool"),
    (S.CrcApp(S.Const(1), Fail(FunT(INT, INT), "p", BOOL)),
     "failure tags (Int -> Int), Bool not ground"),
    (S.CrcApp(_ONE_AS_DYN, Fail(INT, "p", BOOL)), "failure coercion has a non-dynamic source"),
    (S.CrcApp(S.Const(True), Fail(INT, "p", BOOL)), "failure source Bool not consistent with Int"),
]


@pytest.mark.parametrize("mod, t, message", ONE_SIDED_REJECTIONS,
                         ids=[c[2] for c in ONE_SIDED_REJECTIONS])
def test_each_one_sided_rejection_has_a_witness(mod, t, message):
    with rejection(mod, message):
        mod.typecheck(t)


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
@pytest.mark.parametrize("make, message", SHARED_REJECTIONS, ids=[c[1] for c in SHARED_REJECTIONS])
def test_the_typecheckers_reject_each_shared_witness(mod, make, message):
    with rejection(mod, message):
        mod.typecheck(make(mod))


def test_a_definition_unlike_its_signature_is_rejected():
    fun = X.Abs2("x", BOOL, "k", INT, X.CrcApp(X.Var("x"), X.Var("k")))
    p = X.ProgramX((X.Def("f", Fun2T(INT, INT), fun),), X.Const(0))
    with rejection(X, "function annotated Bool/Int, expected (Int => Int)"):
        X.typecheck_program(p)


@pytest.mark.parametrize("t, message", CRC_REJECTIONS, ids=[c[1] for c in CRC_REJECTIONS])
def test_each_coercion_rejection_has_a_witness(t, message):
    with rejection(S, message):
        S.typecheck(t)


# the coercion rejections of the target's coerced values and coercion
# literals, which it checks apart from the source calculus's
@pytest.mark.parametrize("text, message", [
    ("5<<Bool!>>", "id at Bool applied to Int"),
    ("5<Int!><bot{Int, p, Bool}>", "failure coercion has a non-dynamic source"),
])
def test_each_target_coercion_rejection_has_a_witness(text, message):
    with rejection(X, message):
        X.typecheck(surface.parse_term(text, "lamsx"))


def test_a_fresh_name_counts_past_every_taken_one():
    assert terms.fresh_name("k", {"x"}) == "k"
    assert terms.fresh_name("k", {"k", "k1", "k3"}) == "k2"


def test_the_twin_of_a_step_built_whole_has_its_term():
    # a step made by the constructor is its term in the empty context, so
    # the checks may hand on its unread twin
    r = terms.Stepped("R-Op", S.Op("+", S.Const(1), S.Const(2)))
    twin = terms.unread(r)
    assert twin is not r and terms._get_term(twin) is None
    assert twin.term == r.term and twin.rule == r.rule


def test_a_step_built_whole_is_its_term_in_the_empty_context(corpus):
    # every state of the corpus runs, given to each stepper as a step built
    # whole, steps as the state itself does
    states = 0
    for p in corpus[:100]:
        for mod, q in ((S, p), (X, translate.trans_program(p))):
            defs = q.def_terms()
            run = [q.main]
            mod.evaluate_program(q, 300, lambda k, r: run.append(r.term))
            for t in run:
                whole = terms.Stepped("start", t)
                assert whole._focus is t and whole._ctx is None
                want, got = mod.step(t, defs), mod.step(whole, defs)
                if want.__class__ is terms.Stepped:
                    assert (got.rule, got.term) == (want.rule, want.term), t
                else:
                    assert got is want, t
                states += 1
    assert states > 5000


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_a_run_reports_a_stuck_state_at_the_depth_a_step_from_the_root_does(mod):
    # the value 1 + 2 steps to fills its frame's hole, and that frame's node is stuck
    t = mod.Op("+", mod.Const(0), mod.Op("+", mod.Op("+", mod.Const(1), mod.Const(2)), mod.Var("x")))
    want = r"^no rule applies to Op\(Const, Var\) at depth 1$"
    with pytest.raises(terms.StuckTerm, match=want):
        mod.evaluate(t)
    with pytest.raises(terms.StuckTerm, match=want):
        mod.step(mod.step(t).term)


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
    # The cycle check builds the states it reads whole and hashes them.
    # The deep sum sits in the branch not taken, while 130 additions in the
    # condition run past the state read at step 64, which holds it.
    cond = mod.Const(1)
    for _ in range(130):
        cond = mod.Op("+", cond, mod.Const(1))
    t = mod.If(mod.Op("=", cond, mod.Const(131)), mod.Const(0), left_sum(mod))
    out = mod.evaluate(t, detect_cycles=True)
    assert (out.kind, out.term, out.steps) == ("value", mod.Const(0), 132)


class _ReadTooMuch(Exception):
    pass


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_the_cycle_check_reads_nodes_linear_in_the_steps(mod, monkeypatch):
    # The first step builds the start state whole.  After each state it
    # reads, the check skips as many steps as that state's context has
    # frames, here about half the state's nodes, so the nodes read stay
    # within a few per step.  Read every 64th step, the states of the sum
    # would add up to about DEEP**2 / 64 nodes; the run is stopped once
    # the nodes read pass the bound, so such a check fails at once.
    bound = 6 * DEEP
    read = [0, 0]  # states read, and their nodes
    plugged = terms.Stepped.term.fget

    def counting(s):
        fresh = terms._get_term(s) is None
        t = plugged(s)
        if fresh:
            read[0] += 1
            read[1] += len(terms.walk(t))
            if read[1] > bound:
                raise _ReadTooMuch
        return t

    monkeypatch.setattr(terms.Stepped, "term", property(counting))
    try:
        out = mod.evaluate(left_sum(mod), detect_cycles=True)
    except (RecursionError, _ReadTooMuch):
        # reported outside the handler: pytest's report of an error raised
        # among deep terms takes minutes
        out = None
    assert out is not None, f"the check read {read[1]} nodes in {read[0]} states"
    assert (out.kind, out.term, out.steps) == ("value", mod.Const(DEEP + 1), DEEP)


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_a_ten_thousand_deep_sum_runs_in_linear_time(mod):
    # Each step goes on from the contractum of the one before; a stepper
    # that searched from the root at every step would take about a minute.
    start = time.perf_counter()
    out = mod.evaluate(left_sum(mod))
    elapsed = time.perf_counter() - start
    assert (out.kind, out.term, out.steps) == ("value", mod.Const(DEEP + 1), DEEP)
    assert elapsed < 5.0


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_repr_of_a_ten_thousand_deep_sum(mod):
    text = repr(left_sum(mod))
    assert text == "Op(op='+', left=" * DEEP + "Const(val=1)" + ", right=Const(val=1))" * DEEP


def test_repr_of_a_ten_thousand_deep_derivation():
    d = terms.Typed(S.Const(1), INT)
    for _ in range(DEEP):
        d = terms.Typed(S.Const(1), INT, (d,))
    want = "Typed(Const(val=1), Int, (" * DEEP + "Typed(Const(val=1), Int, ())" + ",))" * DEEP
    assert repr(d) == want


def reference_repr(x) -> str:
    """The recursive ``repr`` that the dataclasses and ``Typed`` gave."""
    if isinstance(x, terms.Typed):
        kids = [reference_repr(k) for k in x.children]
        tail = "," if len(kids) == 1 else ""
        return f"Typed({reference_repr(x.term)}, {x.ty!r}, ({', '.join(kids)}{tail}))"
    if not hasattr(type(x), "_kids"):
        return repr(x)
    fields = [f"{f.name}={reference_repr(getattr(x, f.name))}" for f in dataclasses.fields(x)]
    return f"{type(x).__qualname__}({', '.join(fields)})"


@pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
def test_repr_is_the_recursive_repr_on_corpus_states_and_derivations(mod):
    for seed in range(10):
        p = genWellTyped(GenConfig(seed=seed, maxDepth=8))
        if mod is X:
            p = translate.trans_program(p)
        sigs, defs, t = p.def_types(), p.def_terms(), p.main
        for _ in range(20):
            d = mod.typecheck(t, {}, sigs)
            assert repr(t) == reference_repr(t)
            assert repr(d) == reference_repr(d)
            r = mod.step(t, defs)
            if not isinstance(r, terms.Stepped):
                break
            t = r.term


# ---------------------------------------------------------------------------
# Records: every term, coercion and type class and the step result

ONE = S.Const(1)

# one instance of each record class, and the field names each had as a
# frozen dataclass
RECORDS = {
    S.Const: (ONE, ("val",)),
    S.Var: (S.Var("x"), ("name",)),
    S.Op: (S.Op("+", ONE, ONE), ("op", "left", "right")),
    S.If: (S.If(S.TRUE, ONE, ONE), ("cond", "then", "els")),
    S.Blame: (S.Blame("p"), ("label",)),
    S.GlobalRef: (S.GlobalRef("f"), ("name",)),
    S.CoercedVal: (S.CoercedVal(ONE, InjSeq(Id(INT), INT)), ("subject", "crc")),
    S.Abs: (S.Abs("x", INT, ONE), ("var", "var_ty", "body")),
    S.App: (S.App(ONE, ONE), ("fun", "arg")),
    S.CrcApp: (S.CrcApp(ONE, Id(INT)), ("subject", "crc")),
    X.Abs2: (X.Abs2("x", INT, "k", INT, ONE), ("var", "var_ty", "kvar", "k_src", "body")),
    X.App2: (X.App2(ONE, ONE, ONE), ("fun", "arg", "cont")),
    X.Let: (X.Let("x", ONE, ONE), ("var", "bound", "body")),
    X.Compose: (X.Compose(X.CrcLit(IdStar()), X.CrcLit(IdStar())), ("left", "right")),
    X.CrcApp: (X.CrcApp(ONE, X.CrcLit(Id(INT))), ("subject", "crc")),
    X.CrcLit: (X.CrcLit(IdStar()), ("crc",)),
    IdStar: (IdStar(), ()),
    Id: (Id(INT), ("ty",)),
    ProjSeq: (ProjSeq(INT, "p", Id(INT)), ("ground", "label", "body")),
    InjSeq: (InjSeq(Id(INT), INT), ("body", "ground")),
    Fun: (Fun(Id(INT), IdStar()), ("arg", "res")),
    Fail: (Fail(INT, "p", BOOL), ("src_tag", "label", "tgt_tag")),
    Dyn: (DYN, ()),
    Base: (INT, ("name",)),
    FunT: (FunT(INT, DYN), ("arg", "res")),
    Fun2T: (Fun2T(INT, DYN), ("arg", "res")),
    CrcT: (CrcT(INT, DYN), ("src", "tgt")),
    TyVar: (TyVar(0), ("uid",)),
    terms.Stepped: (terms.Stepped("R-Op", ONE), ("rule", "term")),
}
SAMPLES = [sample for sample, _ in RECORDS.values()]
SAMPLE_IDS = [cls.__qualname__ for cls in RECORDS]


def test_the_records_are_every_term_coercion_and_type_class():
    want = {terms.Stepped}
    for union in (S.TermS, X.TermX, Coercion, Type):
        want.update(typing.get_args(union))
    assert set(RECORDS) == want
    assert all(type(sample) is cls for cls, (sample, _) in RECORDS.items())


def test_a_hole_is_the_one_type_that_is_no_record():
    # one check fills a hole in place, so it is no type of the syntax,
    # compares by identity, and stands for what fills it, or Dyn if nothing does
    assert Hole not in typing.get_args(Type)
    hole, other = Hole(), Hole()
    assert hole != other and not dataclasses.is_dataclass(hole)
    assert settled(FunT(hole, other)) == FunT(DYN, DYN)
    assert fill(FunT(hole, other), FunT(INT, other)) and hole.ty is INT and other.ty is None
    assert not fill(hole, BOOL) and repr(FunT(hole, other)) == "(Int -> any)"
    assert settled(FunT(hole, other)) == FunT(INT, DYN)


@pytest.mark.parametrize("sample", SAMPLES, ids=SAMPLE_IDS)
def test_a_record_has_no_dict_and_refuses_assignment(sample):
    assert not hasattr(sample, "__dict__")
    for name in [f.name for f in dataclasses.fields(sample)] + ["other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sample, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(sample, name)


@pytest.mark.parametrize("sample", SAMPLES, ids=SAMPLE_IDS)
def test_a_record_keeps_its_fields_and_match_args(sample):
    cls = type(sample)
    names = RECORDS[cls][1]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


@pytest.mark.parametrize("sample", SAMPLES, ids=SAMPLE_IDS)
def test_replace_copy_and_pickle_round_trip_a_record(sample):
    assert dataclasses.replace(sample) == sample
    for f in dataclasses.fields(sample):
        assert dataclasses.replace(sample, **{f.name: getattr(sample, f.name)}) == sample
    assert copy.deepcopy(sample) == sample
    assert pickle.loads(pickle.dumps(sample)) == sample
    assert hash(copy.copy(sample)) == hash(sample)


@pytest.mark.parametrize("sample", [s for s in SAMPLES if hasattr(type(s), "_kids")],
                         ids=[i for s, i in zip(SAMPLES, SAMPLE_IDS) if hasattr(type(s), "_kids")])
def test_a_node_keeps_its_hash_out_of_fields_replace_repr_and_equality(sample):
    fresh = dataclasses.replace(sample)
    h = hash(sample)
    assert sample._hash == h and fresh._hash is None
    assert "_hash" not in [f.name for f in dataclasses.fields(sample)]
    assert "_hash" not in type(sample).__match_args__
    with pytest.raises(TypeError):
        dataclasses.replace(sample, _hash=0)
    assert "_hash" not in repr(sample) and repr(fresh) == repr(sample)
    assert fresh == sample and hash(fresh) == h


TYPES_AND_COERCIONS = [s for s in SAMPLES if type(s) in typing.get_args(Coercion) + typing.get_args(Type)]
TYPE_AND_COERCION_IDS = [type(s).__qualname__ for s in TYPES_AND_COERCIONS]


@pytest.mark.parametrize("sample", TYPES_AND_COERCIONS, ids=TYPE_AND_COERCION_IDS)
def test_a_type_or_coercion_keeps_the_dataclass_hash_once_computed(sample):
    assert hash(sample) == hash(tuple(getattr(sample, f.name) for f in dataclasses.fields(sample)))
    fresh = dataclasses.replace(sample)
    assert not hasattr(fresh, "_h")
    h = hash(fresh)
    assert h == hash(sample) and fresh._h == h
    assert "_h" not in [f.name for f in dataclasses.fields(fresh)] and "_h" not in repr(fresh)
    # a second ``hash`` reads the slot, not the fields
    type(fresh)._h.__set__(fresh, 12345)
    assert hash(fresh) == 12345
    for twin in (copy.copy(sample), pickle.loads(pickle.dumps(sample)), dataclasses.replace(sample)):
        assert twin == sample and hash(twin) == hash(sample)


COERCIONS = [s for s in SAMPLES if type(s) in typing.get_args(Coercion)]


@pytest.mark.parametrize("sample", COERCIONS, ids=[type(s).__qualname__ for s in COERCIONS])
def test_a_coercion_keeps_its_size_out_of_fields_replace_repr_equality_and_pickling(sample):
    fresh = dataclasses.replace(sample)
    assert fresh._size is None
    k = size(sample)
    assert sample._size == k and fresh._size is None
    assert "_size" not in [f.name for f in dataclasses.fields(sample)]
    assert "_size" not in type(sample).__match_args__
    with pytest.raises(TypeError):
        dataclasses.replace(sample, _size=0)
    assert "_size" not in repr(sample) and repr(fresh) == repr(sample)
    assert fresh == sample and hash(fresh) == hash(sample)
    for twin in (copy.copy(sample), pickle.loads(pickle.dumps(sample))):
        assert twin._size is None and size(twin) == k
    # a second ``size`` reads the slot, not the parts
    object.__setattr__(fresh, "_size", 12345)
    assert size(fresh) == 12345 and fresh == sample


@pytest.mark.parametrize("sample", TYPES_AND_COERCIONS, ids=TYPE_AND_COERCION_IDS)
def test_a_type_or_coercion_equals_itself_without_reading_its_fields(sample):
    cls = type(sample)
    # a record with its field slots left empty: reading any field raises
    r = object.__new__(cls)
    assert r == r and not r != r
    if dataclasses.fields(cls):
        with pytest.raises(AttributeError):
            r == object.__new__(cls)  # noqa: B015


def test_the_records_still_check_what_they_are_built_from():
    with pytest.raises(ValueError):
        Id(DYN)
    with pytest.raises(ValueError):
        Fail(INT, "p", INT)
    assert S.Const(1) != S.Const(True)
    assert hash(S.Const(1)) != hash(S.Const(True))


def _package_names() -> list[str]:
    """The names in ``sys.modules`` of the package and its modules."""
    return [k for k in sys.modules if k == "coercion_forge" or k.startswith("coercion_forge.")]


def _package_classes() -> typing.Counter:
    """How many classes of each (module, name) of the package are alive."""
    return collections.Counter(
        (cls.__module__, cls.__qualname__)
        for cls in gc.get_objects()
        if isinstance(cls, type) and cls.__module__.startswith("coercion_forge")
    )


def test_importing_the_package_again_leaves_no_old_copy_alive():
    # the type and term aliases are unions over the package's own classes;
    # a ``typing.Union`` would be kept in ``typing``'s cache, and with it
    # every class and module of each import.  Counted against what is alive
    # before, since a test that imported the package afresh before this one
    # may have left its copy in ``sys.modules``
    package = _package_names()
    saved = {k: sys.modules[k] for k in package}
    gc.collect()
    before = _package_classes()
    try:
        for _ in range(3):
            for k in package:
                sys.modules.pop(k, None)
            fresh = importlib.import_module("coercion_forge")
            assert fresh.types.FunT is not saved["coercion_forge.types"].FunT
    finally:
        for k in _package_names():
            del sys.modules[k]
        sys.modules.update(saved)
    del fresh
    gc.collect()
    after = _package_classes()
    assert after[("coercion_forge.types", "FunT")] == before[("coercion_forge.types", "FunT")]
    assert after == before


def test_a_copy_of_the_package_keeps_to_its_own_modules(tmp_path):
    # two copies of the package imported one after the other under its name,
    # as an in-process A/B of two checkouts does: the first copy's functions
    # reach only its own modules, whichever copy ``sys.modules`` holds now
    saved = {k: sys.modules[k] for k in _package_names()}
    source = pathlib.Path(terms.__file__).parent
    copies = []
    try:
        for name in ("a", "b"):
            root = tmp_path / name
            shutil.copytree(source, root / "coercion_forge", ignore=shutil.ignore_patterns("__pycache__"))
            sys.path.insert(0, str(root))
            for k in _package_names():
                del sys.modules[k]
            copies.append(importlib.import_module("coercion_forge"))
        a, b = copies
        assert a.lam_s is not b.lam_s and pathlib.Path(a.__file__).parent == tmp_path / "a" / "coercion_forge"
        p = a.parse_program("1 + 2", "lams")
        assert a.lam_s.typecheck_program(p).ty == a.types.INT
        p = a.genWellTyped(a.GenConfig(seed=1, maxDepth=8))
        assert a.simulationCheck(p).kind == "agree"
        assert a.invariantSuite(p) == []
    finally:
        for name in ("a", "b"):
            if str(tmp_path / name) in sys.path:
                sys.path.remove(str(tmp_path / name))
        for k in _package_names():
            del sys.modules[k]
        sys.modules.update(saved)
