"""Unit tests for the space-efficient calculus: typing, stepping, measures."""

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface, terms
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
from coercion_forge.terms import Stepped, StuckTerm, refocused
from coercion_forge.translate import trans_program
from coercion_forge.types import BOOL, DYN, INT, Fun2T, FunT, Hole, settled
from test_cli_robustness import PINNED_CHAINS
from test_translate import WILDCARD_REPRODUCERS


def parse(text):
    return surface.parse_term(text, "lams")


def show(t):
    return surface.print_term(t, "lams")


def inj(g):
    return InjSeq(Id(g), g)


def proj(g, label="p"):
    return ProjSeq(g, label, Id(g))


def evaluate_in(mod, text, fuel):
    out = mod.evaluate(surface.parse_term(text, "lams" if mod is S else "lamsx"), fuel=fuel)
    return out.kind, out.term, out.steps


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

    def test_blame_in_function_position_takes_the_type_its_argument_pins(self):
        typed = typecheck(parse("(blame p) 5"), expected=BOOL)
        assert typed.ty == BOOL
        assert typed.children[0].ty == FunT(INT, BOOL)

    def test_a_function_literal_whose_answer_is_open_answers_at_the_expected_type(self):
        typed = typecheck(parse("(\\x:Int. blame p) 1"), expected=INT)
        assert typed.children[0].ty == FunT(INT, INT)
        # with no expectation, the hole left open reads as Dyn
        assert typecheck(parse("(\\x:Int. blame p) 1")).children[0].ty == FunT(INT, DYN)

    def test_rejects_operand_mismatch(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("1 + true"))

    def test_rejects_self_application(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("(\\x:Int. x x) 5"))

    def test_rejects_coercion_source_mismatch(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse("5<Bool?^p>"))

    @pytest.mark.parametrize("dialect, text", PINNED_CHAINS + [("lams", t) for t in WILDCARD_REPRODUCERS])
    def test_a_check_visits_each_node_once(self, monkeypatch, dialect, text):
        # blame and failures take holes that what they meet fills, so no
        # subterm is checked again: each calculus's ``_tc`` runs once per
        # node of a program, and of the translation of a lams program
        p = surface.parse_program(text, dialect)
        programs = [(S if dialect == "lams" else X, p)]
        if dialect == "lams":
            # translated after the source check is counted: ``trans_program``
            # checks its program, and ``typecheck_program`` keeps what it found
            programs.append((X, lambda: trans_program(p)))
        for mod, q in programs:
            q = q() if callable(q) else q
            calls = []
            tc = mod._tc

            def counting(term, *rest, tc=tc, calls=calls):
                calls.append(term)
                return tc(term, *rest)

            monkeypatch.setattr(mod, "_tc", counting)
            mod.typecheck_program(q)
            monkeypatch.undo()
            nodes = [n for t in (q.main, *(d.fun for d in q.defs)) for n in terms.walk(t)]
            assert len(calls) == len(nodes) and {id(t) for t in calls} == {id(n) for n in nodes}

    def test_a_derivation_handed_back_holds_no_hole(self):
        # open holes read as Dyn; filled ones are replaced by what fills them
        typed = typecheck(parse("((blame p) 1) ((\\x:Int. blame q) 2)"))
        stack = [typed]
        while stack:
            d = stack.pop()
            assert settled(d.ty) is d.ty, d
            stack.extend(d.children)
        assert typed.ty == DYN
        assert typed.children[0].children[0].ty == FunT(INT, FunT(DYN, DYN))

    def test_the_memo_keeps_no_derivation_whose_type_a_later_fill_could_change(self):
        # the function's answer is open until the application's context
        # fills it, so neither it nor the application is kept under its key;
        # at the expected type Int, both are fixed and kept
        t = parse("(\\x:Int. blame p) 1")
        memo = {}
        typecheck(t.fun, memo=memo)
        assert (id(t.fun), None) not in memo
        typecheck(t, expected=INT, memo=memo)
        assert memo[(id(t), INT)].ty == INT
        for key, d in memo.items():
            if key != "defs":
                stack = [d]
                while stack:
                    d = stack.pop()
                    assert settled(d.ty) is d.ty, (key, d)
                    stack.extend(d.children)

    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("mod, arrow", [(S, FunT), (X, Fun2T)], ids=["lams", "lamsx"])
    def test_a_hole_the_caller_passes_in_is_settled_too(self, mod, arrow, memoized):
        # what a check keeps is read off the types, so a hole passed in the
        # expected type, an environment or the signatures is settled as one
        # the check made is, and the memo keeps no derivation that holds it
        def check(term, **given):
            memo = {} if memoized else None
            typed = mod.typecheck(term, memo=memo, **given)
            kept = [d for key, d in (memo or {}).items() if key != "defs"]
            stack = [typed, *kept]
            while stack:
                d = stack.pop()
                assert settled(d.ty) is d.ty, d
                stack.extend(d.children)
            return typed.ty

        assert check(Blame("p"), expected=arrow(Hole(), INT)) == arrow(DYN, INT)
        assert check(Var("x"), env={"x": arrow(Hole(), INT)}) == arrow(DYN, INT)
        assert check(GlobalRef("f"), defs={"f": arrow(Hole(), INT)}) == arrow(DYN, INT)

    @pytest.mark.parametrize("memoized", [False, True])
    @pytest.mark.parametrize("mod, arrow", [(S, FunT), (X, Fun2T)], ids=["lams", "lamsx"])
    def test_a_check_fills_no_hole_the_caller_passes_in(self, mod, arrow, memoized):
        # each check meets copies of the caller's open holes, so a later
        # check under the same expected type, environment or signatures is
        # not held to what an earlier one filled a hole with
        def call(fun, arg):
            return App(fun, arg) if mod is S else X.App2(fun, arg, X.CrcLit(Id(INT)))

        def twice(term, ty1, ty2, **given):
            memo = {} if memoized else None  # one memo, as a run's states share it
            for v, ty in ((1, ty1), (True, ty2)):
                assert mod.typecheck(term(Const(v)), memo=memo, **given).ty == ty
                assert h.ty is None

        h = Hole()
        twice(lambda c: c, INT, BOOL, expected=h)
        twice(lambda c: call(Var("g"), c), INT, INT, env={"g": arrow(h, INT)})
        twice(lambda c: call(GlobalRef("f"), c), INT, INT, defs={"f": arrow(h, INT)})

    def test_program_typing_uses_declared_signatures(self):
        p = surface.parse_program(
            "letrec f (x:Int) : Int = if x = 0 then 0 else f (x - 1) in f 3",
            "lams",
        )
        assert typecheck_program(p).ty == INT


class TestStep:
    def test_operator_is_an_e_step(self):
        assert step(parse("1 + 2")) == Stepped("R-Op", Const(3))

    def test_beta_substitutes(self):
        r = step(parse("(\\x:Int. x + x) 4"))
        assert r.rule == "R-Beta"
        assert r.term == Op("+", Const(4), Const(4))

    def test_identity_coercion_drops(self):
        r = step(CrcApp(Const(5), Id(INT)))
        assert r == Stepped("R-Id", Const(5))

    def test_delayed_coercion_sticks(self):
        r = step(parse("5<Int!>"))
        assert r.rule == "R-Crc"
        assert r.term == CoercedVal(Const(5), inj(INT))

    def test_failure_coercion_blames(self):
        r = step(CrcApp(Const(5), Fail(INT, "p", BOOL)))
        assert r == Stepped("R-Fail", Blame("p"))

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
        assert r == Stepped("E-Abort", Blame("p"))

    def test_stuck_term_raises(self):
        with pytest.raises(StuckTerm):
            step(App(Const(1), Const(2)))

    def test_an_integer_condition_is_stuck_as_the_oracle_says(self):
        t = If(Const(1), Const(2), Const(3))
        assert decompose_oracle(t) == []
        with pytest.raises(StuckTerm):
            step(t)

    def test_a_deeply_stuck_term_raises_stuck_term(self):
        # the message names the stuck node and its depth; printing the
        # whole term would recurse once per level
        t = If(Const(1), Const(0), Const(0))
        for _ in range(3000):
            t = Op("+", t, Const(1))
        want = r"^no rule applies to If\(Const, Const, Const\) at depth 3000$"
        with pytest.raises(StuckTerm, match=want):
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

    @pytest.mark.parametrize("mod", [S, X], ids=["lams", "lamsx"])
    def test_a_run_may_take_all_its_fuel(self, mod):
        # fuel bounds the steps; a run that ends in exactly that many is not
        # out of fuel
        assert evaluate_in(mod, "5", 0) == ("value", mod.Const(5), 0)
        assert evaluate_in(mod, "1 + 2", 1) == ("value", mod.Const(3), 1)
        assert evaluate_in(mod, "1 + 2", 0) == ("out_of_fuel", parse("1 + 2"), 0)
        blames = "5<Int!><Bool?^p>"
        steps = evaluate_in(mod, blames, 100)[2]
        assert evaluate_in(mod, blames, steps) == ("blame", Blame("p"), steps)
        assert evaluate_in(mod, blames, steps - 1)[::2] == ("out_of_fuel", steps - 1)

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


def unread_run(t, defs=None):
    """Step ``t`` as ``evaluate`` does, each step given the step before unread.

    The run starts from a step that left ``t`` in the empty context, so
    no step is taken from a read one; ``step`` on a term reads its result.
    Returns the steps, the frame each step's search started by returning a
    value to (None where it did not), and the StuckTerm that ended the run,
    if one did.  The terms are read only once the run is over.
    """
    steps, pops, stuck = [], [], None
    r = refocused("start", t, None)
    while True:
        pops.append(
            r._ctx[0]
            if r.__class__ is Stepped and S.is_value(r._focus) and r._ctx is not None
            else None
        )
        try:
            r = step(r, defs)
        except StuckTerm as e:
            stuck = e
            break
        if r.__class__ is not Stepped:
            break
        steps.append(r)
    return steps, pops, stuck


class _Fields:
    """A stand-in node: each field is the variable named after it."""

    def __getattr__(self, name):
        return Var(name)


class TestPop:
    """A value in the focus returns to the innermost frame.  Its node's rule
    fires from the frame's node and the value, without building the node,
    unless a later child is not a value yet; each run below takes such a
    step from an unread step, as ``evaluate`` does, and is checked against
    the oracle step by step."""

    FRAMES = {
        S.op_left: "op-left",
        S.op_right: "op-right",
        S._app_fun: "app-fun",
        S._app_arg: "app-arg",
        S._crc_subject: "crc-subject",
        S.if_cond: "if-cond",
    }

    # text, the frames a value returns to in its run, the rules it fires
    CASES = [
        ("(1 + 2) + 3", {"op-left"}, ["R-Op", "R-Op"]),
        ("(1 + 2) + (3 + 4)", {"op-left", "op-right"}, ["R-Op", "R-Op", "R-Op"]),
        ("1 + (2 + 3)", {"op-right"}, ["R-Op", "R-Op"]),
        ("((\\x:Int. \\y:Int. x) 1) 2", {"app-fun"}, ["R-Beta", "R-Beta"]),
        ("(if true then \\x:Int. x else \\x:Int. x) (1 + 2)",
         {"app-fun", "app-arg"}, ["R-IfTrue", "R-Op", "R-Beta"]),
        ("(\\x:Int. x) (1 + 2)", {"app-arg"}, ["R-Op", "R-Beta"]),
        ("((\\x:Int. x)<Int! -> Int?^p>) (if true then 1 else 2)",
         {"app-fun", "app-arg", "crc-subject"},
         ["R-Crc", "R-IfTrue", "R-Wrap", "R-Crc", "R-Beta", "R-MergeV", "R-Id"]),
        ("(1 + 2)<Int!>", {"crc-subject"}, ["R-Op", "R-Crc"]),
        ("(if true then 1<<Int!>> else 2<<Int!>>)<Int?^p>",
         {"crc-subject"}, ["R-IfTrue", "R-MergeV", "R-Id"]),
        ("(if true then 1 else 2)<Int?^p -> Int!>", {"crc-subject"}, ["R-IfTrue", "R-Crc"]),
        ("(1 < 2)<Bool!><Bool?^p>", {"crc-subject"}, ["R-MergeC", "R-Op", "R-Id"]),
        ("if 1 < 2 then 3 else 4", {"if-cond"}, ["R-Op", "R-IfTrue"]),
        ("if 2 < 1 then 3 else 4", {"if-cond"}, ["R-Op", "R-IfFalse"]),
    ]

    @pytest.mark.parametrize("text, frames, rules", CASES, ids=[c[0] for c in CASES])
    def test_a_value_returned_to_a_frame_steps_as_the_oracle(self, text, frames, rules):
        t = parse(text)
        steps, pops, stuck = unread_run(t)
        assert {self.FRAMES[f] for f in pops if f is not None} == frames
        assert [r.rule for r in steps] == rules
        assert stuck is None
        prev = t
        for r in steps:
            assert [(d.kind, d.rule, d.term) for d in decompose_oracle(prev)] == [
                (r.kind, r.rule, r.term)]
            prev = r.term
        assert decompose_oracle(prev) == []

    def test_the_cases_cover_every_frame(self):
        assert len(self.FRAMES) == 6
        assert set().union(*[c[1] for c in self.CASES]) == set(self.FRAMES.values())

    def test_each_frame_is_an_entry_of_the_oracle_s_table(self):
        # each refill rebuilds a former of ``_FRAMES`` with the hole at a
        # child the table lists and every other field in place, and
        # together the refills cover the table
        hole = Var("hole")
        got = []
        for refill in self.FRAMES:
            t = refill(_Fields(), hole)
            [i] = [i for i, k in enumerate(t._kids) if getattr(t, k) is hole]
            assert all(getattr(t, f) == Var(f) for f in t._fields if getattr(t, f) is not hole)
            got.append((t.__class__, i))
        table = [(cls, i) for cls, sorts in S._FRAMES.items() for i in range(len(sorts))]
        assert len(table) == 6
        assert len(set(got)) == len(got) and set(got) == set(table)

    # a stuck node reached by a pop: stepping the state whose focus it is
    # from the root names the same node at the same depth
    @pytest.mark.parametrize("text, want", [
        ("if 0 + 1 then 2 else 3", "If(Const, Const, Const) at depth 0"),
        ("(if 0 + 1 then 2 else 3) + 4", "If(Const, Const, Const) at depth 1"),
        ("(if true then 1 else 2) 3", "App(Const, Const) at depth 0"),
        ("((\\x:Int. x) 1) + (\\y:Int. y)", "Op(Const, Abs) at depth 0"),
        ("(\\y:Int. y) + ((\\x:Int. x) 1)", "Op(Abs, Const) at depth 0"),
        ("(if true then 1 else 2)<Int?^p>", "CrcApp(Const) at depth 0"),
        ("(if true then y else 2)<Int!> + 1", "CrcApp(Var) at depth 1"),
    ])
    def test_a_stuck_parent_reached_by_a_pop_is_reported_as_from_the_root(self, text, want):
        steps, pops, stuck = unread_run(parse(text))
        assert pops[-1] is not None
        assert str(stuck) == f"no rule applies to {want}"
        with pytest.raises(StuckTerm) as e:
            step(steps[-1].term)
        assert str(e.value) == str(stuck)
