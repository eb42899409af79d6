"""Tests for the concrete syntax: parsing, printing, and alpha-equivalence."""

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge.coercions import Fun, Id, InjSeq, ProjSeq
from coercion_forge.surface import (
    ParseError,
    alpha_eq,
    alpha_eq_program,
    dialect_of_path,
    format_trace_line,
    parse_coercion,
    parse_program,
    parse_term,
    parse_type,
    print_coercion,
    print_program,
    print_term,
    print_type,
)
from coercion_forge.types import BOOL, DYN, INT, Fun2T, FunT


def inj(g):
    return InjSeq(Id(g), g)


class TestPrecedence:
    def test_suffix_binds_the_whole_application_chain(self):
        t = parse_term("f x<Int!>", "lams")
        assert t == S.CrcApp(S.App(S.Var("f"), S.Var("x")), inj(INT))

    def test_parenthesized_argument_takes_its_own_suffix(self):
        t = parse_term("f (x<Int!>)", "lams")
        assert t == S.App(S.Var("f"), S.CrcApp(S.Var("x"), inj(INT)))

    def test_worked_example_reading(self):
        t = parse_term(
            "(\\x:Dyn. (x<Int?^p> + 2)<Int!>)<Int! -> Int?^p> 3<Int!>", "lams")
        assert isinstance(t, S.CrcApp)
        assert t.crc == inj(INT)
        assert isinstance(t.subject, S.App)
        assert t.subject.arg == S.Const(3)

    def test_bare_application_cannot_be_an_operator_operand(self):
        with pytest.raises(ParseError, match="parenthesized application"):
            parse_term("f x + 2", "lams")
        assert parse_term("(f x) + 2", "lams") == S.Op(
            "+", S.App(S.Var("f"), S.Var("x")), S.Const(2))

    def test_multiplication_binds_tighter_than_addition(self):
        assert parse_term("1 + 2 * 3", "lams") == S.Op(
            "+", S.Const(1), S.Op("*", S.Const(2), S.Const(3)))

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParseError):
            parse_term("1 < 2 = true", "lams")

    def test_composition_is_loosest(self):
        t = parse_term("Int! ;; Int?^p ; Int!", "lamsx")
        assert t == X.Compose(
            X.CrcLit(inj(INT)),
            X.CrcLit(ProjSeq(INT, "p", inj(INT))),
        )

    def test_negative_literals(self):
        assert parse_term("1 - -3", "lams") == S.Op("-", S.Const(1), S.Const(-3))


class TestCoercionSyntax:
    def test_sugar_forms_round_trip(self):
        for text in ("Int!", "Bool?^p", "id{Int}", "id{Dyn}",
                     "Int?^p ; Int!", "Int! -> Int?^p",
                     "bot{Int, p, Bool}", "(Dyn -> Dyn)!"):
            c = parse_coercion(text, "lams")
            assert print_coercion(c, "lams") == text

    def test_identities_are_dropped_while_parsing(self):
        a = parse_coercion("Int?^p ; id{Int} ; Int!", "lams")
        assert a == parse_coercion("Int?^p ; Int!", "lams")
        b = parse_coercion("(Int?^p ; id{Int}) -> (id{Bool} ; Bool!)", "lams")
        assert print_coercion(b, "lams") == "Int?^p -> Bool!"
        assert print_coercion(b, "lams", sugar=False) == (
            "(Int?^p ; id{Int}) -> (id{Bool} ; Bool!)")

    def test_conflicting_failure_tags_are_rejected(self):
        with pytest.raises(ParseError, match="distinct type tags"):
            parse_coercion("bot{Int, p, Int}", "lams")

    def test_identity_arrow_must_be_written_collapsed(self):
        with pytest.raises(ParseError, match="identity arrow"):
            parse_coercion("id{Int} -> id{Int}", "lams")
        c = parse_coercion("id{Int -> Int}", "lams")
        assert c == Id(FunT(INT, INT))

    def test_dialect_selects_the_arrow(self):
        c = parse_coercion("Int! => Int?^p", "lamsx")
        assert c == Fun(inj(INT), ProjSeq(INT, "p", Id(INT)))
        with pytest.raises(ParseError):
            parse_coercion("Int! => Int?^p", "lams")


class TestTypesAndPaths:
    def test_type_round_trips(self):
        for text in ("Int", "Bool", "Dyn", "Int -> Bool",
                     "(Int -> Int) -> Dyn", "Int -> Int -> Int"):
            assert print_type(parse_type(text, "lams")) == text

    def test_target_dialect_types(self):
        assert parse_type("Int => Bool", "lamsx") == Fun2T(INT, BOOL)
        assert print_type(Fun2T(INT, Fun2T(DYN, BOOL))) == "Int => Dyn => Bool"

    def test_dialect_of_path(self):
        assert dialect_of_path("a/b/prog.lams") == "lams"
        assert dialect_of_path("prog.lamsx") == "lamsx"
        with pytest.raises(ValueError):
            dialect_of_path("prog.txt")


class TestRoundTrips:
    SOURCE = (
        "5",
        "true",
        "\\x:Int. x + 1",
        "(\\x:Dyn. x<Int?^p>) (3<Int!>)",
        "if 1 < 2 then 1 else 2",
        "5<<Int!>>",
        "f x<Int!>",
        "(f x) + 2",
        "blame p",
        "(\\x:Dyn. (x<Int?^p> + 2)<Int!>)<Int! -> Int?^p> 3<Int!>",
    )
    TARGET = (
        "\\ (x:Int, k0:Int). (x + 1)<k0>",
        "let k = Int! ;; Int?^p in 5<k>",
        "(\\ (x:Int, k:Int). x<k>)(5, Int!)",
        "3<<Int!>><Int?^p>",
        "if true then 1<k> else 2<k>",
    )

    def test_source_terms_print_back_to_their_input(self):
        for text in self.SOURCE:
            t = parse_term(text, "lams")
            assert print_term(t, "lams") == text
            assert parse_term(print_term(t, "lams"), "lams") == t

    def test_target_terms_print_back_to_their_input(self):
        for text in self.TARGET:
            t = parse_term(text, "lamsx")
            assert print_term(t, "lamsx") == text
            assert parse_term(print_term(t, "lamsx"), "lamsx") == t

    def test_programs_round_trip(self):
        src = open("samples/evenodd.lams").read().strip()
        p = parse_program(src, "lams")
        assert print_program(p) == src
        assert alpha_eq_program(parse_program(print_program(p), "lams"), p)


class TestPrograms:
    def test_definition_names_resolve_to_global_references(self):
        p = parse_program("letrec f (x:Int) : Int = f x in f 1", "lams")
        assert p.defs[0].fun.body == S.App(S.GlobalRef("f"), S.Var("x"))
        assert p.main == S.App(S.GlobalRef("f"), S.Const(1))

    def test_shadowed_definition_names_stay_variables(self):
        p = parse_program(
            "letrec f (x:Int) : Int = x and g (f:Int) : Int = f 1\n"
            "in (\\f:Int. f) (g (f 1))", "lams")
        f, g = S.GlobalRef("f"), S.GlobalRef("g")
        assert p.defs[1].fun.body == S.App(S.Var("f"), S.Const(1))
        assert p.main == S.App(S.Abs("f", INT, S.Var("f")), S.App(g, S.App(f, S.Const(1))))

    def test_shadowed_target_definition_names_stay_variables(self):
        p = parse_program(
            "letrec f (x:Int, k:Int) = f(x, k)\n"
            "and g (x:Int, f:Int) = f(x, f)\n"
            "in (\\ (f:Int, k:Int). f<g>)(let f = f in f, f)", "lamsx")
        f, g = X.GlobalRef("f"), X.GlobalRef("g")
        assert p.defs[0].fun.body == X.App2(f, X.Var("x"), X.Var("k"))
        assert p.defs[1].fun.body == X.App2(X.Var("f"), X.Var("x"), X.Var("f"))
        fun = X.Abs2("f", INT, "k", INT, X.CrcApp(X.Var("f"), g))
        assert p.main == X.App2(fun, X.Let("f", f, X.Var("f")), f)

    def test_free_names_outside_programs_stay_variables(self):
        assert parse_term("f 1", "lams") == S.App(S.Var("f"), S.Const(1))

    def test_duplicate_definition_names_are_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program(
                "letrec f (x:Int) : Int = x and f (y:Int) : Int = y in f 1",
                "lams")


class TestDiagnostics:
    def test_error_messages_carry_position_and_expectation(self):
        with pytest.raises(ParseError, match=r"line 1:4: expected a term, found end of input"):
            parse_term("5 +", "lams")
        with pytest.raises(ParseError, match=r"line 1:1: expected a term, found '='"):
            parse_term("=banana", "lams")

    def test_trace_line_format(self):
        line = format_trace_line(3, "c", "R-Id", S.Const(5), "lams")
        assert line == "step 3 c R-Id: 5"


class TestAlphaEquivalence:
    def test_binders_rename_freely(self):
        a = parse_term("\\x:Int. x + 1", "lams")
        b = parse_term("\\y:Int. y + 1", "lams")
        assert alpha_eq(a, b)

    def test_free_variables_must_match_exactly(self):
        assert not alpha_eq(parse_term("x", "lams"), parse_term("y", "lams"))

    def test_booleans_are_not_integers(self):
        assert not alpha_eq(S.Const(True), S.Const(1))
        assert not alpha_eq(S.Const(False), S.Const(0))

    def test_target_binders_rename_freely(self):
        a = parse_term("\\ (x:Int, k:Int). x<k>", "lamsx")
        b = parse_term("\\ (y:Int, q:Int). y<q>", "lamsx")
        assert alpha_eq(a, b)
        c = parse_term("\\ (x:Int, k:Int). x<id{Int}>", "lamsx")
        assert not alpha_eq(a, c)

    def test_programs_compare_up_to_definition_bodies(self):
        p1 = parse_program("letrec f (x:Int) : Int = x in f 1", "lams")
        p2 = parse_program("letrec f (y:Int) : Int = y in f 1", "lams")
        p3 = parse_program("letrec f (x:Int) : Int = x in f 2", "lams")
        assert alpha_eq_program(p1, p2)
        assert not alpha_eq_program(p1, p3)
