"""Unit tests for the first-class-coercion calculus: typing and stepping."""

import pytest

from coercion_forge import lam_sx as X
from coercion_forge import surface
from coercion_forge.coercions import Fail, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.lam_sx import (
    App2,
    Blame,
    Compose,
    Const,
    CrcApp,
    CrcLit,
    EscapedTyVar,
    Let,
    Op,
    TypeCheckError,
    Var,
    decompose_oracle,
    evaluate,
    metric_f,
    step,
    term_size,
    typecheck,
)
from coercion_forge.terms import Stepped, StuckTerm
from coercion_forge.types import BOOL, CrcT, DYN, INT, Fun2T


def parse(text):
    return surface.parse_term(text, "lamsx")


def show(t):
    return surface.print_term(t, "lamsx")


def inj(g):
    return InjSeq(Id(g), g)


def proj(g, label="p"):
    return ProjSeq(g, label, Id(g))


class TestTyping:
    def test_abstraction_carries_a_continuation(self):
        f = parse("\\ (x:Int, k:Int). (x + 1)<k>")
        assert typecheck(f).ty == Fun2T(INT, INT)

    def test_application_returns_the_continuation_target(self):
        t = parse("(\\ (x:Int, k:Int). x<k>)(5, Int!)")
        assert typecheck(t).ty == DYN

    def test_coercion_literal_types_as_its_endpoints(self):
        assert typecheck(CrcLit(inj(INT))).ty == CrcT(INT, DYN)
        assert typecheck(CrcLit(proj(BOOL))).ty == CrcT(DYN, BOOL)

    def test_composition_chains_endpoint_types(self):
        t = Compose(CrcLit(inj(INT)), CrcLit(proj(INT)))
        assert typecheck(t).ty == CrcT(INT, INT)

    def test_composition_rejects_endpoint_mismatch(self):
        with pytest.raises(TypeCheckError):
            typecheck(Compose(CrcLit(inj(INT)), CrcLit(inj(BOOL))))

    def test_body_must_answer_through_the_continuation(self):
        with pytest.raises(TypeCheckError) as e:
            typecheck(parse("\\ (x:Int, k:Int). 5"))
        assert not isinstance(e.value, EscapedTyVar)

    def test_leaked_answer_type_is_flagged(self):
        with pytest.raises(EscapedTyVar):
            typecheck(parse("\\ (x:Int, k:Int). k"))

    def test_let_binds_first_class_coercions(self):
        t = parse("let k = Int! ;; Int?^p in 5<k>")
        assert typecheck(t).ty == INT


class TestStep:
    def test_composition_runs_eagerly(self):
        t = Compose(CrcLit(inj(INT)), CrcLit(proj(INT)))
        assert step(t) == Stepped("c", "R-Cmp", CrcLit(Id(INT)))

    def test_let_substitutes_a_coercion_value(self):
        t = Let("k", CrcLit(inj(INT)), CrcApp(Const(5), Var("k")))
        assert step(t) == Stepped(
            "c", "R-Let", CrcApp(Const(5), CrcLit(inj(INT))))

    def test_let_waits_for_its_bound_term(self):
        t = Let("k", Compose(CrcLit(inj(INT)), CrcLit(proj(INT))), Var("k"))
        r = step(t)
        assert r.rule == "R-Cmp"
        assert r.term == Let("k", CrcLit(Id(INT)), Var("k"))

    def test_identity_coercion_drops(self):
        assert step(parse("5<id{Int}>")) == Stepped("c", "R-Id", Const(5))

    def test_failure_coercion_blames(self):
        t = CrcApp(Const(5), CrcLit(Fail(INT, "p", BOOL)))
        assert step(t) == Stepped("c", "R-Fail", Blame("p"))

    def test_wrap_binds_the_composed_continuation(self):
        t = parse("(\\ (x:Int, k:Int). x<k>)<Int?^p => Int!>(2<Int!>, id{Dyn})")
        while True:
            r = step(t)
            t = r.term
            if r.rule == "R-Wrap":
                break
        assert isinstance(t, Let)
        assert t.bound == Compose(CrcLit(inj(INT)), CrcLit(IdStar()))
        assert isinstance(t.body, App2)
        assert t.body.cont == Var(t.var)

    def test_conditional_branches(self):
        assert step(parse("if true then 1 else 2")).rule == "R-IfTrue"
        assert step(parse("if false then 1 else 2")).rule == "R-IfFalse"

    def test_blame_aborts_the_enclosing_context(self):
        r = step(Op("+", Blame("p"), Const(1)))
        assert r == Stepped("e", "E-Abort", Blame("p"))

    def test_stuck_term_raises(self):
        with pytest.raises(StuckTerm):
            step(App2(Const(1), Const(2), CrcLit(Id(INT))))

    def test_an_integer_condition_is_stuck_as_the_oracle_says(self):
        t = X.If(Const(1), Const(2), Const(3))
        assert decompose_oracle(t) == []
        with pytest.raises(StuckTerm):
            step(t)


class TestEvaluate:
    def test_worked_reduction_sequence(self):
        text = ("(\\ (x:Dyn, k:Dyn). let k1 = Int! ;; k in"
                " (x<Int?^p> + 2)<k1>)<Int! => Int?^p>(3, Int!)")
        t = parse(text)
        typecheck(t)
        trace = []
        out = evaluate(t, on_step=lambda n, r: trace.append(
            (r.kind, r.rule, show(r.term))))
        assert out.kind == "value"
        assert show(out.term) == "5<<Int!>>"
        lam = "\\ (x:Dyn, k:Dyn). let k1 = Int! ;; k in (x<Int?^p> + 2)<k1>"
        assert trace == [
            ("c", "R-Crc", f"({lam})<<Int! => Int?^p>>(3, Int!)"),
            ("e", "R-Wrap", f"let k = Int?^p ;; Int! in ({lam})(3<Int!>, k)"),
            ("c", "R-Cmp", f"let k = Int?^p ; Int! in ({lam})(3<Int!>, k)"),
            ("c", "R-Let", f"({lam})(3<Int!>, Int?^p ; Int!)"),
            ("c", "R-Crc", f"({lam})(3<<Int!>>, Int?^p ; Int!)"),
            ("e", "R-Beta",
             "let k1 = Int! ;; Int?^p ; Int! in (3<<Int!>><Int?^p> + 2)<k1>"),
            ("c", "R-Cmp", "let k1 = Int! in (3<<Int!>><Int?^p> + 2)<k1>"),
            ("c", "R-Let", "(3<<Int!>><Int?^p> + 2)<Int!>"),
            ("c", "R-MergeV", "(3<Int! ;; Int?^p> + 2)<Int!>"),
            ("c", "R-Cmp", "(3<id{Int}> + 2)<Int!>"),
            ("c", "R-Id", "(3 + 2)<Int!>"),
            ("e", "R-Op", "5<Int!>"),
            ("c", "R-Crc", "5<<Int!>>"),
        ]

    def test_blame_propagates_to_the_top(self):
        out = evaluate(parse("5<Int!><Bool?^p> + 1"))
        assert out.kind == "blame"
        assert out.term == Blame("p")


class TestMeasures:
    def test_term_size_counts_coercion_terms(self):
        assert term_size(Const(5)) == 1
        assert term_size(CrcLit(inj(INT))) == 2
        assert term_size(Compose(CrcLit(inj(INT)), CrcLit(proj(INT)))) == 5
        assert term_size(parse("let k = Int! in 5<k>")) == 6

    def test_metric_weighs_pending_frames(self):
        assert metric_f(Const(5)) == 0
        assert metric_f(CrcApp(Const(5), CrcLit(Id(INT)))) > 0


class TestDecomposeOracle:
    def test_unique_redex_matches_step(self):
        t = parse("let k = Int! ;; Int?^p in 5<k>")
        decs = decompose_oracle(t)
        assert len(decs) == 1
        r = step(t)
        assert decs[0].rule == r.rule
        assert decs[0].term == r.term

    def test_values_have_no_decomposition(self):
        assert decompose_oracle(Const(5)) == []
        assert decompose_oracle(CrcLit(inj(INT))) == []
