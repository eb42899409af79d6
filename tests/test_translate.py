"""Tests for the coercion-passing translation between the two calculi."""

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface
from coercion_forge.coercions import Fail, Fun, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.translate import (
    identity_at,
    psi_crc,
    psi_type,
    trans_program,
    trans_state,
    trans_term,
)
from coercion_forge.terms import Stepped
from coercion_forge.types import BOOL, DYN, INT, Fun2T, FunT


def inj(g):
    return InjSeq(Id(g), g)


def proj(g, label="p"):
    return ProjSeq(g, label, Id(g))


def parse_s(text):
    return surface.parse_term(text, "lams")


def typed(text, env=None):
    return S.typecheck(parse_s(text), env)


def show_x(t):
    return surface.print_term(t, "lamsx")


class TestTypeTranslation:
    def test_base_and_dynamic_types_are_fixed(self):
        assert psi_type(INT) == INT
        assert psi_type(BOOL) == BOOL
        assert psi_type(DYN) == DYN

    def test_arrows_become_continuation_arrows_recursively(self):
        assert psi_type(FunT(INT, BOOL)) == Fun2T(INT, BOOL)
        got = psi_type(FunT(INT, FunT(DYN, BOOL)))
        assert got == Fun2T(INT, Fun2T(DYN, BOOL))

    def test_coercions_translate_structurally(self):
        assert psi_crc(IdStar()) == IdStar()
        assert psi_crc(proj(INT)) == proj(INT)
        star_fun = FunT(DYN, DYN)
        assert psi_crc(inj(star_fun)) == InjSeq(Id(Fun2T(DYN, DYN)), Fun2T(DYN, DYN))
        got = psi_crc(Fun(proj(INT), inj(star_fun)))
        assert got == Fun(proj(INT), InjSeq(Id(Fun2T(DYN, DYN)), Fun2T(DYN, DYN)))

    def test_failure_tags_translate_too(self):
        got = psi_crc(Fail(FunT(DYN, DYN), "p", INT))
        assert got == Fail(Fun2T(DYN, DYN), "p", INT)

    def test_identity_at_dispatches_on_dyn(self):
        assert identity_at(DYN) == IdStar()
        assert identity_at(INT) == Id(INT)


class TestValueTranslation:
    def test_constants_are_unchanged(self):
        assert trans_term(typed("5")) == X.Const(5)
        assert trans_term(typed("true")) == X.Const(True)

    def test_abstractions_gain_a_continuation_parameter(self):
        got = trans_term(typed("\\x:Int. x + 1"))
        assert show_x(got) == "\\ (x:Int, k0:Int). (x + 1)<k0>"

    def test_coerced_values_translate_their_coercion(self):
        t = S.CoercedVal(S.Const(5), inj(INT))
        got = trans_term(S.typecheck(t))
        assert got == X.CoercedVal(X.Const(5), inj(INT))


class TestTermTranslation:
    def test_application_forwards_the_continuation(self):
        got = trans_term(typed("(\\x:Int. x) 5"), X.CrcLit(inj(INT)))
        assert show_x(got) == "(\\ (x:Int, k0:Int). x<k0>)(5, Int!)"

    def test_coercion_application_becomes_a_composition_binding(self):
        got = trans_term(typed("((\\x:Int. x) 5)<Int!>"), X.CrcLit(proj(INT)))
        assert show_x(got) == (
            "let k0 = Int! ;; Int?^p in (\\ (x:Int, k1:Int). x<k1>)(5, k0)")

    def test_conditionals_push_the_continuation_into_branches(self):
        got = trans_term(typed("if true then 1 else 2"), X.CrcLit(inj(INT)))
        assert isinstance(got, X.If)
        assert got.then == X.CrcApp(X.Const(1), X.CrcLit(inj(INT)))
        assert got.els == X.CrcApp(X.Const(2), X.CrcLit(inj(INT)))

    def test_blame_discards_the_continuation(self):
        t = S.typecheck(S.Blame("p"))
        assert trans_term(t, X.CrcLit(inj(INT))) == X.Blame("p")

    def test_operator_continuation_can_be_elided_when_identity(self):
        p = surface.parse_program("1 + 2 * 3", "lams")
        plain = trans_program(p).main
        assert show_x(plain) == "(1 + (2 * 3)<id{Int}>)<id{Int}>"
        tight = trans_program(p, optimize_op=True).main
        assert show_x(tight) == "1 + 2 * 3"


class TestPrograms:
    def test_worked_example_program(self):
        p = surface.parse_program(
            "(\\x:Dyn. (x<Int?^p> + 2)<Int!>)<Int! -> Int?^p> 3", "lams")
        got = trans_program(p).main
        expected = surface.parse_term(
            "(\\ (x:Dyn, k:Dyn). let k1 = Int! ;; k in (x<Int?^p> + 2)<k1>)"
            "<Int! => Int?^p>(3, id{Int})",
            "lamsx",
        )
        assert surface.alpha_eq(got, expected)

    def test_recursive_program_renames_definitions(self):
        src = open("samples/evenodd.lams").read()
        p = surface.parse_program(src, "lams")
        got = surface.print_program(trans_program(p), "lamsx")
        assert got == (
            "letrec evenk (x:Int, k0:Dyn) = if (x = 0)<id{Bool}>"
            " then let k1 = Bool! ;; k0 in true<k1>"
            " else let k2 = Bool! ;; k0 in oddk((x - 1)<id{Int}>, k2)\n"
            "and oddk (x:Int, k3:Bool) = if (x = 0)<id{Bool}>"
            " then false<k3>"
            " else let k4 = Bool?^p ;; k3 in evenk((x - 1)<id{Int}>, k4)\n"
            "in oddk(4, id{Bool})"
        )

    def test_translated_programs_typecheck_at_the_translated_type(self):
        for path in ("samples/evenodd.lams", "samples/example1.lams"):
            p = surface.parse_program(open(path).read(), "lams")
            out = trans_program(p)
            want = psi_type(S.typecheck_program(p).ty)
            assert X.typecheck_program(out).ty == want

    def test_translated_programs_compute_the_same_value(self):
        src = open("samples/evenodd.lams").read()
        p = surface.parse_program(src, "lams")
        out = trans_program(p)
        a = S.evaluate_program(p)
        b = X.evaluate_program(out)
        assert (a.kind, b.kind) == ("value", "value")
        assert a.term == S.Const(False)
        assert b.term == X.Const(False)

    def test_state_translation_matches_program_translation(self):
        src = open("samples/evenodd.lams").read()
        p = surface.parse_program(src, "lams")
        got = trans_state(p, p.main)
        assert surface.alpha_eq(got, trans_program(p).main)


class TestAdministrativeSteps:
    """An identity continuation reduces away in at most two c-steps."""

    def run_admin(self, text):
        m = typed(text)
        with_id = trans_term(m, X.CrcLit(identity_at(psi_type(m.ty))))
        direct = trans_term(m)
        steps = 0
        t = with_id
        while not surface.alpha_eq(t, direct):
            r = X.step(t)
            assert isinstance(r, Stepped) and r.kind == "c"
            t = r.term
            steps += 1
            assert steps <= 2
        return steps

    def test_values_take_one_identity_step(self):
        assert self.run_admin("5") == 1
        assert self.run_admin("\\x:Int. x") == 1

    def test_operators_and_applications_take_none(self):
        assert self.run_admin("1 + 2") == 0
        assert self.run_admin("(\\x:Int. x) 5") == 0

    def test_coercion_applications_take_two(self):
        assert self.run_admin("((\\x:Int. x) 5)<Int!>") == 2


class TestSubstitution:
    def test_translation_commutes_with_substitution(self):
        open_term = S.typecheck(parse_s("(x + 1)<Int!>"), {"x": INT})
        cont = X.CrcLit(proj(INT))
        translated = trans_term(open_term, cont)
        substituted_first = trans_term(typed("(7 + 1)<Int!>"), cont)
        substituted_after = X.substitute(translated, {"x": X.Const(7)})
        assert surface.alpha_eq(substituted_first, substituted_after)
