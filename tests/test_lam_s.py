"""Unit tests for the space-efficient calculus: typing, stepping, measures."""

import pytest

from coercion_forge import lam_s as S
from coercion_forge import surface
from coercion_forge.coercions import Fail, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.lam_s import (
    Abs,
    App,
    Blame,
    Const,
    CoercedVal,
    CrcApp,
    GlobalRef,
    If,
    Op,
    TypeCheckError,
    Var,
    decompose_oracle,
    evaluate,
    evaluate_program,
    max_coercion_size,
    metric_f,
    step,
    substitute,
    term_size,
    typecheck,
    typecheck_program,
)
from coercion_forge.terms import Stepped, StuckTerm
from coercion_forge.types import BOOL, DYN, INT, FunT


def parse(text):
    return surface.parse_term(text, "lams")


def show(t):
    return surface.print_term(t, "lams")


def inj(g):
    return InjSeq(Id(g), g)


def proj(g, label="p"):
    return ProjSeq(g, label, Id(g))


class TestTyping:
    def test_constants_and_operators(self):
        assert typecheck(parse("5")).ty == INT
        assert typecheck(parse("true")).ty == BOOL
        assert typecheck(parse("1 + 2 * 3")).ty == INT
        assert typecheck(parse("1 < 2")).ty == BOOL

    def test_abstraction_and_application(self):
        f = parse("\\x:Int. x + 1")
        assert typecheck(f).ty == FunT(INT, INT)
        assert typecheck(parse("(\\x:Int. x + 1) 4")).ty == INT

    def test_coercion_application_retargets(self):
        assert typecheck(parse("5<Int!>")).ty == DYN
        assert typecheck(parse("5<Int!><Int?^p>")).ty == INT

    def test_conditional_merges_branches(self):
        assert typecheck(parse("if true then 1 else 2")).ty == INT

    def test_rejects_operand_mismatch(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("1 + true"))

    def test_rejects_self_application(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("(\\x:Int. x x) 5"))

    def test_rejects_coercion_source_mismatch(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("5<Bool?^p>"))

    def test_program_typing_uses_declared_signatures(self):
        p = surface.parse_program(
            "letrec f (x:Int) : Int = if x = 0 then 0 else f (x - 1) in f 3",
            "lams",
        )
        assert typecheck_program(p).ty == INT


class TestStep:
    def test_operator_is_an_e_step(self):
        assert step(parse("1 + 2")) == Stepped("e", "R-Op", Const(3))

    def test_beta_substitutes(self):
        r = step(parse("(\\x:Int. x + x) 4"))
        assert r.rule == "R-Beta"
        assert r.term == Op("+", Const(4), Const(4))

    def test_identity_coercion_drops(self):
        r = step(CrcApp(Const(5), Id(INT)))
        assert r == Stepped("c", "R-Id", Const(5))

    def test_delayed_coercion_sticks(self):
        r = step(parse("5<Int!>"))
        assert r.rule == "R-Crc"
        assert r.term == CoercedVal(Const(5), inj(INT))

    def test_failure_coercion_blames(self):
        r = step(CrcApp(Const(5), Fail(INT, "p", BOOL)))
        assert r == Stepped("c", "R-Fail", Blame("p"))

    def test_adjacent_frames_merge_before_inner_steps(self):
        t = parse("(1 + 2)<Int!><Int?^p>")
        r = step(t)
        assert r.rule == "R-MergeC"
        assert show(r.term) == "(1 + 2)<id{Int}>"

    def test_coerced_value_merges_with_pending_frame(self):
        t = CrcApp(CoercedVal(Const(3), inj(INT)), proj(INT))
        r = step(t)
        assert r.rule == "R-MergeV"
        assert r.term == CrcApp(Const(3), Id(INT))

    def test_wrap_splits_function_coercion(self):
        t = parse("(\\x:Int. x)<Int?^p -> Int!> (2<Int!>)")
        rules = []
        while True:
            r = step(t)
            rules.append(r.rule)
            t = r.term
            if r.rule == "R-Wrap":
                break
        assert rules == ["R-Crc", "R-Crc", "R-Wrap"]
        assert show(t) == "(\\x:Int. x) (2<<Int!>><Int?^p>)<Int!>"
        assert parse(show(t)) == t

    def test_global_unfolds_only_when_applied(self):
        defs = {"f": parse("\\x:Int. x + 1")}
        r = step(App(GlobalRef("f"), Const(4)), defs)
        assert r.rule == "R-Unfold"
        assert r.term == App(defs["f"], Const(4))
        assert step(GlobalRef("f"), defs).__class__.__name__ == "IsValue"

    def test_blame_aborts_the_enclosing_context(self):
        r = step(Op("+", Blame("p"), Const(1)))
        assert r == Stepped("e", "E-Abort", Blame("p"))

    def test_stuck_term_raises(self):
        with pytest.raises(StuckTerm):
            step(App(Const(1), Const(2)))

    def test_an_integer_condition_is_stuck_as_the_oracle_says(self):
        t = If(Const(1), Const(2), Const(3))
        assert decompose_oracle(t) == []
        with pytest.raises(StuckTerm):
            step(t)


class TestEvaluate:
    def test_worked_reduction_sequence(self):
        text = "(\\x:Dyn. (x<Int?^p> + 2)<Int!>)<Int! -> Int?^p> 3<Int!>"
        trace = []
        out = evaluate(parse(text), on_step=lambda n, r: trace.append(
            (r.kind, r.rule, show(r.term))))
        assert out.kind == "value"
        assert show(out.term) == "5<<Int!>>"
        assert trace == [
            ("c", "R-Crc", "(\\x:Dyn. (x<Int?^p> + 2)<Int!>)<<Int! -> Int?^p>> 3<Int!>"),
            ("e", "R-Wrap", "(\\x:Dyn. (x<Int?^p> + 2)<Int!>) (3<Int!>)<Int?^p><Int!>"),
            ("c", "R-MergeC", "(\\x:Dyn. (x<Int?^p> + 2)<Int!>) (3<Int!>)<Int?^p ; Int!>"),
            ("c", "R-Crc", "(\\x:Dyn. (x<Int?^p> + 2)<Int!>) (3<<Int!>>)<Int?^p ; Int!>"),
            ("e", "R-Beta", "(3<<Int!>><Int?^p> + 2)<Int!><Int?^p ; Int!>"),
            ("c", "R-MergeC", "(3<<Int!>><Int?^p> + 2)<Int!>"),
            ("c", "R-MergeV", "(3<id{Int}> + 2)<Int!>"),
            ("c", "R-Id", "(3 + 2)<Int!>"),
            ("e", "R-Op", "5<Int!>"),
            ("c", "R-Crc", "5<<Int!>>"),
        ]

    def test_blame_propagates_to_the_top(self):
        out = evaluate(parse("5<Int!><Bool?^p> + 1"))
        assert out.kind == "blame"
        assert out.term == Blame("p")

    def test_fuel_runs_out(self):
        p = surface.parse_program(
            "letrec f (x:Int) : Int = f x in f 0", "lams")
        out = evaluate_program(p, fuel=50)
        assert out.kind == "out_of_fuel"
        assert out.steps == 50

    def test_cycle_detection_reports_divergence(self):
        p = surface.parse_program(
            "letrec f (x:Int) : Int = f x in f 0", "lams")
        out = evaluate_program(p, fuel=10**6, detect_cycles=True)
        assert out.kind == "diverges"

    def test_even_odd_program(self):
        p = surface.parse_program(
            "letrec even (x:Int) : Dyn = if x = 0 then true<Bool!>"
            " else odd (x - 1)<Bool!>\n"
            "and odd (x:Int) : Bool = if x = 0 then false"
            " else even (x - 1)<Bool?^p>\n"
            "in odd 4",
            "lams",
        )
        out = evaluate_program(p)
        assert out.kind == "value"
        assert out.term == Const(False)


class TestSubstitution:
    def test_shadowed_binder_is_untouched(self):
        t = parse("\\x:Int. x + y")
        got = substitute(t, {"y": Const(1), "x": Const(9)})
        assert got == parse("\\x:Int. x + 1")

    def test_capture_is_avoided_by_renaming(self):
        t = parse("\\x:Int. x + y")
        got = substitute(t, {"y": Var("x")})
        assert isinstance(got, Abs)
        assert got.var != "x"
        assert got.body == Op("+", Var(got.var), Var("x"))


class TestMeasures:
    def test_term_size_counts_nodes_and_coercions(self):
        assert term_size(Const(5)) == 1
        assert term_size(parse("1 + 2")) == 3
        assert term_size(CrcApp(Const(5), Id(INT))) == 3
        assert term_size(CoercedVal(Const(5), inj(INT))) == 4

    def test_max_coercion_size_scans_everywhere(self):
        t = parse("(\\x:Dyn. x<Int?^p>) 3<Int!>")
        assert max_coercion_size(t) == 2
        assert max_coercion_size(Const(5)) == 0

    def test_metric_weighs_pending_frames_heaviest(self):
        assert metric_f(Const(5)) == 0
        assert metric_f(CrcApp(Const(5), Id(INT))) == 6
        assert metric_f(CoercedVal(Const(5), inj(INT))) == 9
        assert metric_f(Op("+", CrcApp(Const(1), Id(INT)), Const(2))) == 6

    def test_metric_decreases_on_c_steps(self):
        t = parse("(1 + 2)<Int!><Int?^p>")
        r = step(t)
        while r.__class__.__name__ == "Stepped":
            if r.kind == "c":
                assert metric_f(r.term) < metric_f(t)
            t = r.term
            r = step(t)


class TestDecomposeOracle:
    def test_unique_redex_matches_step(self):
        t = parse("(1 + 2)<Int!><Int?^p>")
        decs = decompose_oracle(t)
        assert len(decs) == 1
        r = step(t)
        assert decs[0].rule == r.rule
        assert decs[0].term == r.term

    def test_values_have_no_decomposition(self):
        assert decompose_oracle(Const(5)) == []
        assert decompose_oracle(parse("\\x:Int. x")) == []
