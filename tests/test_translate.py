"""Tests for the coercion-passing translation between the two calculi."""

import contextlib
import copy
import gc
import hashlib
import io
import pickle
import random
import weakref

import pytest

from coercion_forge import GenConfig, cli, genWellTyped, invariantSuite, simulationCheck
from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface
from coercion_forge.coercions import Fail, Fun, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.translate import (
    def_rename,
    identity_at,
    psi_crc,
    psi_type,
    trans_program,
    trans_state,
    trans_term,
)
from coercion_forge.terms import Stepped
from coercion_forge.types import BOOL, DYN, INT, Fun2T, FunT
from test_cli_robustness import PINNED_CHAINS


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
        got = surface.print_program(trans_program(p))
        assert got == (
            "letrec evenk (x:Int, k0:Dyn) = if (x = 0)<id{Bool}>"
            " then let k1 = Bool! ;; k0 in true<k1>"
            " else let k2 = Bool! ;; k0 in oddk((x - 1)<id{Int}>, k2)\n"
            "and oddk (x:Int, k3:Bool) = if (x = 0)<id{Bool}>"
            " then false<k3>"
            " else let k4 = Bool?^p ;; k3 in evenk((x - 1)<id{Int}>, k4)\n"
            "in oddk(4, id{Bool})"
        )

    def test_a_definition_is_renamed_past_every_name_in_use(self):
        p = surface.parse_program(
            "letrec even (x:Int) : Int = x in (\\evenk:Int. even evenk) 1", "lams")
        rename, avoid = def_rename(p)
        assert rename == {"even": "evenkk"}
        assert {"even", "evenk", "evenkk", "x"} <= avoid
        got = surface.print_program(trans_program(p))
        assert got.startswith("letrec evenkk (x:Int, k0:Int) = x<k0>\nin ")
        X.typecheck_program(surface.parse_program(got, "lamsx"))

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


def checked_translation(text):
    """The printed translation of the lams program ``text``, after checking
    that it names no open hole, re-parses as lamsx and re-typechecks."""
    out = surface.print_program(trans_program(surface.parse_program(text, "lams")))
    assert "any" not in out, (text, out)
    X.typecheck_program(surface.parse_program(out, "lamsx"))
    return out


# Programs a part of which takes a hole that blame or a failure leaves open,
# in a place whose type reaches no enclosing type: the function or argument
# of an application, or the subject of a coercion.  Each translation once
# minted an identity at a type that named the open part ``any``.
WILDCARD_REPRODUCERS = [
    "((blame p) 1) 2",
    "((if true then blame p else blame q) 1) 2",
    "(blame p) ((\\x0:Int. blame p) 1)",
    "((blame p) (blame p)) (blame p)",
    "((1<bot{Int, p, Bool}>) 1) 2",
    "(\\x:Dyn. blame p)<bot{(Dyn -> Dyn), r, Int}>",
    "(\\x:Dyn. blame p)<<(Dyn -> Dyn)!>>",
    # a failure's subject takes its source tag, not Dyn, which a failure
    # refuses; a coerced value's subject takes the coercion's source type
    "(((\\x:Int. blame p) 1) 2)<bot{Int, p, Bool}>",
    "(\\x:Int. blame p)<<Int?^p -> Int!>>",
    # an arrow coercion with a failing argument part gives a function type
    # whose parameter is a hole
    "((\\x:Int. x)<bot{Int, p, Bool} -> id{Int}>) ((blame p) 1)",
    "(((blame p) 1) 2)<bot{Int, p, Bool} -> id{Int}>",
    "(if true then (\\x:Int. 1)<<bot{Int, p, Bool} -> id{Int}>> else blame q) ((blame p) 1)",
]


class TestNoWildcardInTranslations:
    @pytest.mark.parametrize("text", WILDCARD_REPRODUCERS)
    def test_the_translation_rechecks_and_ends_as_the_source_does(self, text):
        out = checked_translation(text)
        source = S.evaluate_program(surface.parse_program(text, "lams"))
        target = X.evaluate_program(surface.parse_program(out, "lamsx"))
        assert target.kind == source.kind

    def test_the_main_derivation_reads_an_open_hole_as_dyn(self):
        p = surface.parse_program("(\\x:Int. blame p) 1", "lams")
        assert S.typecheck_program(p).ty == DYN
        assert S.typecheck(p.main).ty == DYN
        # at an expected type, the hole takes it
        assert S.typecheck(p.main, expected=BOOL).ty == BOOL

    def test_every_small_blame_heavy_program_translates_to_one_that_rechecks(self):
        rng = random.Random(25)
        checked = 0
        for _ in range(2000):
            text = blame_heavy(rng, rng.randint(1, 4), [])
            try:
                S.typecheck_program(surface.parse_program(text, "lams"))
            except S.TypeCheckError:
                continue
            checked_translation(text)
            checked += 1
        # enough of the draws typecheck for the property to say something
        assert checked > 1000


def blame_heavy(rng, depth, scope):
    """The text of a random lams term at most ``depth`` deep, built from
    blame, failure coercions, conditionals, applications, abstractions and
    coerced values, the formers whose types can hold a hole."""
    kinds = ["blame", "leaf"]
    if depth > 0:
        kinds += ["app", "app", "if", "abs", "fail", "coerced"]
    kind = rng.choice(kinds)
    x = f"x{len(scope)}"

    def sub():
        return blame_heavy(rng, depth - 1, scope)

    if kind == "blame":
        return f"blame {rng.choice('pq')}"
    if kind == "leaf":
        return rng.choice(["1", "true"] + scope)
    if kind == "app":
        return f"({sub()}) ({sub()})"
    if kind == "if":
        cond = "true" if rng.random() < 0.5 else f"({sub()})"
        return f"if {cond} then ({sub()}) else ({sub()})"
    if kind == "abs":
        ty = rng.choice(["Int", "Bool", "Dyn", "(Dyn -> Dyn)"])
        return f"(\\{x}:{ty}. {blame_heavy(rng, depth - 1, scope + [x])})"
    if kind == "fail":
        crc = rng.choice(["bot{Int, p, Bool}", "bot{(Dyn -> Dyn), r, Int}",
                          "bot{Int, p, Bool} -> id{Int}"])
        return f"({sub()})<{crc}>"
    crc = rng.choice(["(Dyn -> Dyn)!", "bot{Int, p, Bool} -> id{Dyn}"])
    return f"(\\{x}:Dyn. {blame_heavy(rng, depth - 1, scope + [x])})<<{crc}>>"


def printed(argv):
    """The exit code, stdout and stderr of one in-process command-line run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# The sha256 of what ``check`` prints for each text below (its type, or its
# type error), and, for each lams text that checks, of what ``translate``
# prints and what ``check`` prints for that translation.  Computed with the
# typecheckers that gave blame and failures a wildcard type and checked
# subterms again to pin it.
CHECK_DIGEST = "de772cb5de0dfe46971ec1a6cb8e5fc48c5a7f6757a8ef0f76898a6d742eea6f"


def test_what_check_and_translate_print_matches_the_pinned_digest():
    texts = [("lams", t) for t in WILDCARD_REPRODUCERS] + PINNED_CHAINS
    for seed in (25, 26):
        rng = random.Random(seed)
        texts += [("lams", blame_heavy(rng, rng.randint(1, 4), [])) for _ in range(2000)]
    h = hashlib.sha256()
    for dialect, text in texts:
        runs = [printed(["check", "-e", text, "--dialect", dialect])]
        if runs[0][0] == cli.EXIT_OK and dialect == "lams":
            runs.append(printed(["translate", "-e", text]))
            if runs[1][0] == cli.EXIT_OK:
                runs.append(printed(["check", "--dialect", "lamsx", "-e", runs[1][1]]))
        h.update(repr((dialect, text, runs)).encode())
    assert h.hexdigest() == CHECK_DIGEST


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


class TestOneTypecheckPerProgram:
    """``trans_program`` takes the derivations ``lam_s.typecheck_program``
    keeps, so a program checked before it is translated is not checked
    again."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The (term, expected type) of every call of ``lam_s.typecheck``.

        A program check types each definition at its signature and the
        main term with no type expected; a run types each state at the main
        term's type.
        """
        checked = []
        typecheck = S.typecheck

        def counting(term, env=None, defs=None, expected=None, memo=None):
            checked.append((term, expected))
            return typecheck(term, env, defs, expected, memo)

        monkeypatch.setattr(S, "typecheck", counting)
        return checked

    def test_a_generated_program_is_checked_once(self, checked):
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        assert len(p.defs) == 2
        px = trans_program(p)
        want = [(d.fun, d.ty) for d in p.defs] + [(p.main, None)]
        assert len(checked) == len(want)
        assert all(a is b and s == t for (a, s), (b, t) in zip(checked, want))
        # the same translation as from a fresh check
        q = S.ProgramS(p.defs, p.main)
        assert surface.print_program(trans_program(q)) == surface.print_program(px)

    def test_an_equal_program_that_is_another_object_is_checked_afresh(self, checked):
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        q = S.ProgramS(p.defs, p.main)
        assert q == p and q is not p
        checked.clear()
        trans_program(q)
        assert [t is p.main for t, _ in checked] == [False, False, True]

    def test_an_ill_typed_program_raises_at_every_call(self, checked):
        p = S.ProgramS((), parse_s("1 + true"))
        for n in (1, 2):
            with pytest.raises(S.TypeCheckError, match="expected Int, found Bool"):
                trans_program(p)
            assert len(checked) == n

    def test_an_optimized_translation_leaves_the_kept_plain_one_in_place(self):
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        plain = trans_program(p)
        tight = trans_program(p, optimize_op=True)
        # made afresh at each call, and never handed out for a plain one
        assert trans_program(p, optimize_op=True) is not tight
        assert trans_program(p) is plain

    def test_invariant_suite_checks_the_source_program_once(self, checked):
        p = genWellTyped(GenConfig(seed=6, maxDepth=8))
        # the answer kept now is another program's
        S.typecheck_program(S.ProgramS(p.defs, p.main))
        checked.clear()
        assert invariantSuite(p, max_states=5) == []
        # the program is checked once, where the source run asks for its
        # typing memo, and its translation takes that check's answer; the
        # run then types its start state, at the main term's type
        main = [ty for t, ty in checked if t is p.main]
        assert main == [None, S.typecheck_program(p).ty]

    def test_all_checks_of_a_batch_check_and_translate_each_program_once(self, checked):
        # every simulation first, then every invariant suite: each program
        # is checked once more, with a typing memo, where its first run asks
        # for one, and translated once, whatever ran in between
        programs = [genWellTyped(GenConfig(seed=s, maxDepth=8)) for s in range(20)]
        checked.clear()
        for p in programs:
            assert simulationCheck(p).kind == "agree"
        translations = [trans_program(p) for p in programs]
        for p in programs:
            assert invariantSuite(p) == []
        for p, px in zip(programs, translations):
            # the program check, then each run's start state at its type
            ty = S.typecheck_program(p).ty
            assert [t for m, t in checked if m is p.main] == [None, ty, ty]
            assert trans_program(p) is px

    def test_a_copy_or_a_pickle_of_a_program_is_checked_afresh(self, checked):
        # the record's typing memo is keyed by the identity of the program's
        # nodes, which a copy does not share
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        S.run_memo(p)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            checked.clear()
            assert q == p and q._checked is None
            assert surface.print_program(trans_program(q)) == surface.print_program(trans_program(p))
            assert [ty for t, ty in checked if t is q.main] == [None]

    def test_a_program_is_freed_after_both_checks(self):
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        verdicts = simulationCheck(p), invariantSuite(p)
        assert verdicts[0].kind == "agree" and verdicts[1] == []
        program = weakref.ref(p)
        del p, verdicts
        gc.collect()
        assert program() is None
