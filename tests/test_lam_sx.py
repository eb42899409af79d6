"""Unit tests for the first-class-coercion calculus: typing and stepping."""

import pytest

from coercion_forge import lam_sx as X
from coercion_forge import surface
from coercion_forge.coercions import Fail, Id, IdStar, InjSeq, ProjSeq
from coercion_forge.harness import even_odd_target
from coercion_forge.lam_sx import (
    Abs2,
    App2,
    Blame,
    Compose,
    Const,
    CrcApp,
    CrcLit,
    EscapedTyVar,
    GlobalRef,
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
from coercion_forge.terms import Stepped, StuckTerm, free_vars, refocused
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

    def test_blame_in_function_position_takes_the_type_its_arguments_pin(self):
        typed = typecheck(parse("(blame p)(5, Int!)"))
        assert typed.ty == DYN
        assert typed.children[0].ty == Fun2T(INT, INT)

    def test_let_binds_first_class_coercions(self):
        t = parse("let k = Int! ;; Int?^p in 5<k>")
        assert typecheck(t).ty == INT

    def test_each_use_of_a_let_bound_variable_meets_its_open_holes_afresh(self):
        # one use is the function and another its argument, so a hole the
        # two shared would have to hold a type that holds itself
        assert typecheck(parse("let v = blame p in v(v, id{Int})")).ty == INT
        # the second use is not held to the type the first one took
        assert typecheck(parse("let v = blame p in 1<v><v>")).ty == DYN

    def test_a_coercion_checked_after_an_unrelated_hole_is_kept(self):
        # the first continuation is checked from the hole blame leaves, so
        # nothing is kept for it; the second, from Int, keeps its answer
        t = parse("((blame p)(1, id{Int})) + 2<id{Int}>")
        memo = {}
        assert typecheck(t, memo=memo).ty == INT
        applied = [key for key in memo if key != "defs" and key[-1] == "applied"]
        assert applied == [(id(t.right.crc), INT, "applied")]
        kt, tgt = memo[applied[0]]
        assert kt.term is t.right.crc and kt.ty == CrcT(INT, INT) and tgt == INT


class TestStep:
    def test_composition_runs_eagerly(self):
        t = Compose(CrcLit(inj(INT)), CrcLit(proj(INT)))
        assert step(t) == Stepped("R-Cmp", CrcLit(Id(INT)))

    def test_let_substitutes_a_coercion_value(self):
        t = Let("k", CrcLit(inj(INT)), CrcApp(Const(5), Var("k")))
        assert step(t) == Stepped("R-Let", CrcApp(Const(5), CrcLit(inj(INT))))

    def test_let_waits_for_its_bound_term(self):
        t = Let("k", Compose(CrcLit(inj(INT)), CrcLit(proj(INT))), Var("k"))
        r = step(t)
        assert r.rule == "R-Cmp"
        assert r.term == Let("k", CrcLit(Id(INT)), Var("k"))

    def test_identity_coercion_drops(self):
        assert step(parse("5<id{Int}>")) == Stepped("R-Id", Const(5))

    def test_failure_coercion_blames(self):
        t = CrcApp(Const(5), CrcLit(Fail(INT, "p", BOOL)))
        assert step(t) == Stepped("R-Fail", Blame("p"))

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
        assert r == Stepped("E-Abort", Blame("p"))

    def test_stuck_term_raises(self):
        with pytest.raises(StuckTerm):
            step(App2(Const(1), Const(2), CrcLit(Id(INT))))

    def test_an_integer_condition_is_stuck_as_the_oracle_says(self):
        t = X.If(Const(1), Const(2), Const(3))
        assert decompose_oracle(t) == []
        with pytest.raises(StuckTerm):
            step(t)

    def test_a_deeply_stuck_term_raises_stuck_term(self):
        # the message names the stuck node and its depth; printing the
        # whole term would recurse once per level
        t = X.If(Const(1), Const(0), Const(0))
        for _ in range(3000):
            t = Op("+", t, Const(1))
        want = r"^no rule applies to If\(Const, Const, Const\) at depth 3000$"
        with pytest.raises(StuckTerm, match=want):
            step(t)

    def test_a_stuck_application_names_its_parts(self):
        want = r"^no rule applies to App2\(Const, Const, CrcLit\) at depth 0$"
        with pytest.raises(StuckTerm, match=want):
            step(App2(Const(1), Const(2), CrcLit(Id(INT))))


class TestSubstitution:
    # each binder binds a name free in the substituted term, so it is renamed
    @pytest.mark.parametrize("text, sub, want", [
        ("let k = Int! in x<k>", {"x": "k"}, "let k1 = Int! in k<k1>"),
        ("\\ (y:Int, k:Int). x<k>", {"x": "k"}, "\\ (y:Int, k1:Int). k<k1>"),
        ("\\ (y:Int, k:Int). x + y", {"x": "y + k"}, "\\ (y1:Int, k1:Int). (y + k) + y1"),
    ], ids=["let", "continuation", "both-binders"])
    def test_capture_is_avoided_by_renaming(self, text, sub, want):
        got = X.substitute(parse(text), {x: parse(m) for x, m in sub.items()})
        assert got == parse(want), show(got)


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

    @pytest.mark.parametrize("text, rules", [
        ("5<(Int! ;; Int?^p) ;; id{Int}>", ["R-Cmp", "R-Cmp", "R-Id"]),
        ("5<id{Int} ;; (Int! ;; Int?^p)>", ["R-Cmp", "R-Cmp", "R-Id"]),
        ("(\\ (x:Int, k:Int). x<k>)(5, Int! ;; Int?^p)", ["R-Cmp", "R-Beta", "R-Id"]),
    ], ids=["compose-left", "compose-right", "continuation-argument"])
    def test_steps_in_every_frame_agree_with_the_oracle_and_keep_the_type(self, text, rules):
        t = parse(text)
        ty = typecheck(t).ty
        fired = []
        while isinstance(r := step(t), Stepped):
            assert [(d.rule, d.kind, d.term) for d in decompose_oracle(t)] == [
                (r.rule, r.kind, r.term)]
            t = r.term
            assert typecheck(t, expected=ty).ty == ty
            fired.append(r.rule)
        assert decompose_oracle(t) == []
        assert (fired, t) == (rules, Const(5))

    def test_values_have_no_decomposition(self):
        assert decompose_oracle(Const(5)) == []
        assert decompose_oracle(CrcLit(inj(INT))) == []


class TestEnvironmentMachine:
    """The search carries an environment: R-Beta and R-Let go on into the
    body under one, and a state's term is built only when it is read."""

    @pytest.fixture
    def substitutions(self, monkeypatch):
        calls = []
        substitute = X.substitute

        def counted(t, sub):
            calls.append(t)
            return substitute(t, sub)

        monkeypatch.setattr(X, "substitute", counted)
        return calls

    def test_an_unread_run_substitutes_nothing(self, substitutions):
        out = X.evaluate_program(even_odd_target(200))
        assert (out.kind, out.term, out.steps) == ("value", Const(False), 1806)
        assert substitutions == []

    def test_a_deep_body_steps_without_recursion(self):
        # x + 1 + ... + 1, left-nested 10^4 deep: the search goes down it
        # under the environment R-Beta starts, and the state is never read
        body = Var("x")
        for _ in range(10**4):
            body = Op("+", body, Const(1))
        f = Abs2("x", INT, "k", INT, body)
        try:
            out = evaluate(App2(GlobalRef("f"), Const(1), CrcLit(Id(INT))), {"f": f})
        except RecursionError:
            # reported outside the handler: pytest's search of a traceback
            # for recursion compares the frames' locals, here deep terms,
            # and takes minutes
            out = None
        assert out is not None, "R-Beta copied the body recursively"
        assert (out.kind, out.term, out.steps) == ("value", Const(10001), 10002)

    # A value with the free name y goes into a body where a binder binds y,
    # so the step renames that binder, as the oracle's substitution does.
    @pytest.mark.parametrize("text, renamed", [
        ("(\\ (x:Int, k:Int). let y = 1 in (x + y)<k>)(y, id{Int})",
         "let y1 = 1 in (y + y1)<id{Int}>"),
        ("(\\ (x:Int, k:Int). (\\ (y:Int, k:Int). (x + y)<k>)(1, k))(y, id{Int})",
         "(\\ (y1:Int, k:Int). (y + y1)<k>)(1, id{Int})"),
        ("(\\ (x:Int -> Int, k:Int -> Int). let y = 1 in x<k>)"
         "(\\ (w:Int, k2:Int). y<k2>, id{Int -> Int})",
         "let y1 = 1 in (\\ (w:Int, k2:Int). y<k2>)<id{Int -> Int}>"),
        ("let x = y in let y = 1 in x + y", "let y1 = 1 in y + y1"),
    ], ids=["beta-under-let", "beta-under-abstraction", "beta-then-id", "let-under-let"])
    def test_a_binder_step_on_an_open_value_renames_as_the_oracle(self, text, renamed):
        t = parse(text)
        assert step(t).term == decompose_oracle(t)[0].term == parse(renamed)
        # The same run in the body of a call, under the environment
        # {y1: 0, kz: id{Int}}, whose name y1 a renaming must not avoid.
        # Each state is built after the steps up to it were taken unread.
        defs = {"h": Abs2("y1", INT, "kz", INT, t)}
        want = [App2(GlobalRef("h"), Const(0), CrcLit(Id(INT)))]
        while d := decompose_oracle(want[-1], defs):
            want.append(d[0].term)
        assert parse(renamed) in want
        for n in range(1, len(want)):
            r = want[0]
            for _ in range(n):
                r = step(r, defs)
            assert r.term == want[n]

    def test_an_open_value_keeps_its_free_name_in_a_frame_under_another_environment(self):
        # g returns its free y to the frame (_ + y), which f's call put under
        # {y: 5, k: id{Int}}; f is a definition, so that call's state is unread
        defs = {"f": parse("\\ (y:Int, k:Int). ((g(1, id{Int})) + y)<k>"),
                "g": parse("\\ (z:Int, k2:Int). y")}
        defs["f"] = X.substitute(defs["f"], {"g": GlobalRef("g")})
        r, rules = App2(GlobalRef("f"), Const(5), CrcLit(Id(INT))), []
        with pytest.raises(StuckTerm, match=r"^no rule applies to Op\(Var, Const\) at depth 1$"):
            while True:
                r = step(r, defs)
                rules.append(r.rule)
        assert rules == ["R-Unfold", "R-Beta", "R-Unfold", "R-Beta"]
        assert r.term == parse("(y + 5)<id{Int}>")

    def test_if_false_drops_the_then_branch_unsubstituted(self, substitutions):
        f = parse("\\ (x:Int, k:Int). if (x = 0)<id{Bool}>"
                  " then let k1 = k in (x + x + x + x)<k1> else (x + 1)<k>")
        defs = {"f": f}
        t = App2(GlobalRef("f"), Const(4), CrcLit(Id(INT)))
        # the oracle's run, every state built whole
        want = [t]
        while d := decompose_oracle(want[-1], defs):
            want.append(d[0].term)
        r = step(t, defs)  # R-Unfold; read, as its state is built from a term
        del substitutions[:]
        rules = []
        while (r := step(r, defs)).rule != "R-IfFalse":
            rules.append(r.rule)
        assert rules == ["R-Beta", "R-Op", "R-Id"]
        assert substitutions == []
        assert r._focus is f.body.els
        assert r.term == want[5]
        # the read applies the environment to the branch kept, and only to it
        assert substitutions[0] is f.body.els
        assert not any(m is f.body.then for m in substitutions)


def unread_run(t, defs=None):
    """Step ``t`` as ``evaluate`` does, each step given the step before unread.

    The run starts from a step that left ``t`` in the empty context, so
    no step is taken from a read one; ``step`` on a term reads its result.
    Returns the steps; for each step whose search started by returning a
    value to a frame, that frame and whether the value came from the same
    environment as the frame's node ("same"), or from another and was
    closed ("closed") or open ("open"), else None; and the StuckTerm that
    ended the run, if one did.  The terms are read only once the run is
    over, since a read applies the frames' environments.
    """
    steps, pops, stuck = [], [], None
    r = refocused("start", t, None)
    while True:
        pop = None
        if r.__class__ is Stepped and X.is_value(r._focus) and r._ctx is not None:
            env, k = X._EMPTY, r._ctx
            if k[0] is X._close:
                _, env, k = k
            if k is not None:
                e = k[1][1]
                if e is env:
                    pop = k[0], "same"
                elif e and not free_vars(r._focus) <= env.keys():
                    pop = k[0], "open"
                else:
                    pop = k[0], "closed"
        pops.append(pop)
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
        X._APP2_FUN: "app2-fun",
        X._APP2_ARG: "app2-arg",
        X._APP2_CONT: "app2-cont",
        X._CRC_SUBJECT: "crc-subject",
        X._CRC_CRC: "crc-crc",
        X._LET_BOUND: "let-bound",
        X._COMPOSE_LEFT: "compose-left",
        X._COMPOSE_RIGHT: "compose-right",
        X._OP_LEFT: "op-left",
        X._OP_RIGHT: "op-right",
        X._IF_COND: "if-cond",
    }

    ID = "\\ (x:Int, k:Int). x<k>"

    # text, the (frame, environment case) of each value returned in its
    # run, the rules it fires
    CASES = [
        (f"(if true then {ID} else {ID})(1, id{{Int}})",
         {("app2-fun", "same")}, ["R-IfTrue", "R-Beta", "R-Id"]),
        (f"(if true then {ID} else {ID})(1 + 2, id{{Int}})",
         {("app2-fun", "same"), ("app2-arg", "same")},
         ["R-IfTrue", "R-Op", "R-Beta", "R-Id"]),
        (f"({ID})(1 + 2, id{{Int}})", {("app2-arg", "same")}, ["R-Op", "R-Beta", "R-Id"]),
        (f"({ID})(1 + 2, Int! ;; Int?^p)", {("app2-arg", "same"), ("app2-cont", "same")},
         ["R-Op", "R-Cmp", "R-Beta", "R-Id"]),
        (f"({ID})<Int?^p => Int!>(2<Int!>, id{{Dyn}})",
         {("app2-fun", "same"), ("app2-arg", "same"), ("crc-crc", "same"),
          ("let-bound", "same")},
         ["R-Crc", "R-Crc", "R-Wrap", "R-Cmp", "R-Let", "R-MergeV", "R-Cmp", "R-Id",
          "R-Beta", "R-Crc"]),
        ("(1 + 2)<id{Int}>", {("crc-subject", "same")}, ["R-Op", "R-Id"]),
        ("(if true then 1<<Int!>> else 2<<Int!>>)<Int?^p>",
         {("crc-subject", "same"), ("crc-crc", "same")},
         ["R-IfTrue", "R-MergeV", "R-Cmp", "R-Id"]),
        ("(1 + 2)<Int! ;; Int?^p>", {("crc-subject", "same"), ("crc-crc", "same")},
         ["R-Op", "R-Cmp", "R-Id"]),
        ("5<Int! ;; Int?^p>", {("crc-crc", "same")}, ["R-Cmp", "R-Id"]),
        ("let k = Int! ;; Int?^p in 5<k>", {("let-bound", "same")},
         ["R-Cmp", "R-Let", "R-Id"]),
        ("5<(Int! ;; Int?^p) ;; id{Int}>",
         {("compose-left", "same"), ("crc-crc", "same")}, ["R-Cmp", "R-Cmp", "R-Id"]),
        ("5<(Int! ;; Int?^p) ;; (id{Int} ;; id{Int})>",
         {("compose-left", "same"), ("compose-right", "same"), ("crc-crc", "same")},
         ["R-Cmp", "R-Cmp", "R-Cmp", "R-Id"]),
        ("5<id{Int} ;; (Int! ;; Int?^p)>",
         {("compose-right", "same"), ("crc-crc", "same")}, ["R-Cmp", "R-Cmp", "R-Id"]),
        ("(1 + 2) + 3", {("op-left", "same")}, ["R-Op", "R-Op"]),
        ("(1 + 2) + (3 + 4)", {("op-left", "same"), ("op-right", "same")},
         ["R-Op", "R-Op", "R-Op"]),
        ("1 + (2 + 3)", {("op-right", "same")}, ["R-Op", "R-Op"]),
        ("if 1 < 2 then 3 else 4", {("if-cond", "same")}, ["R-Op", "R-IfTrue"]),
        ("if 2 < 1 then 3 else 4", {("if-cond", "same")}, ["R-Op", "R-IfFalse"]),
        # the body's condition returns to a frame under the body's environment
        ("(\\ (x:Int, k:Int). (if x < 2 then 3 else 4)<k>)(1, id{Int})",
         {("if-cond", "same"), ("crc-subject", "same")},
         ["R-Beta", "R-Op", "R-IfTrue", "R-Id"]),
        # the body's answer returns to a frame under no environment
        (f"(({ID})(1, id{{Int}})) + 2", {("op-left", "closed")}, ["R-Beta", "R-Id", "R-Op"]),
        # an inner call's answer returns to a frame under the outer call's environment
        ("(\\ (x:Int, k:Int). (((\\ (y:Int, k2:Int). y<k2>)(x, id{Int})) + x)<k>)"
         "(1, id{Int})",
         {("op-left", "closed"), ("crc-subject", "same")},
         ["R-Beta", "R-Beta", "R-Id", "R-Op", "R-Id"]),
    ]

    @pytest.mark.parametrize("text, pops, rules", CASES, ids=[c[0] for c in CASES])
    def test_a_value_returned_to_a_frame_steps_as_the_oracle(self, text, pops, rules):
        t = parse(text)
        steps, got, stuck = unread_run(t)
        assert {(self.FRAMES[f], case) for f, case in filter(None, got)} == pops
        assert [r.rule for r in steps] == rules
        assert stuck is None
        prev = t
        for r in steps:
            assert [(d.kind, d.rule, d.term) for d in decompose_oracle(prev)] == [
                (r.kind, r.rule, r.term)]
            prev = r.term
        assert decompose_oracle(prev) == []

    def test_the_cases_cover_every_frame(self):
        assert len(self.FRAMES) == 11
        covered = {f for c in self.CASES for f, _ in c[1]}
        assert covered == set(self.FRAMES.values())

    def test_each_frame_is_an_entry_of_the_oracle_s_table(self):
        # each refill rebuilds a former of ``_FRAMES`` with the hole at a
        # child the table lists and every other field in place, and
        # together the refills cover the table
        hole = Var("hole")
        got = []
        for refill in self.FRAMES:
            t = refill([_Fields(), X._EMPTY], hole)
            [i] = [i for i, k in enumerate(t._kids) if getattr(t, k) is hole]
            assert all(getattr(t, f) == Var(f) for f in t._fields if getattr(t, f) is not hole)
            got.append((t.__class__, i))
        table = [(cls, i) for cls, sorts in X._FRAMES.items() for i in range(len(sorts))]
        assert len(table) == 11
        assert len(set(got)) == len(got) and set(got) == set(table)

    def test_an_open_value_returned_to_a_frame_under_another_environment_is_substituted(self):
        # g returns its free y to the frame (_ + y), which f's call put
        # under {y: 5, k: id{Int}}: the frame's node is built with that
        # environment applied, and the free y is not looked up in it
        defs = {"f": parse("\\ (y:Int, k:Int). ((g(1, id{Int})) + y)<k>"),
                "g": parse("\\ (z:Int, k2:Int). y")}
        defs["f"] = X.substitute(defs["f"], {"g": GlobalRef("g")})
        t = App2(GlobalRef("f"), Const(5), CrcLit(Id(INT)))
        steps, pops, stuck = unread_run(t, defs)
        assert [(self.FRAMES[p[0]], p[1]) for p in pops if p] == [("op-left", "open")]
        assert str(stuck) == "no rule applies to Op(Var, Const) at depth 1"
        prev = t
        for r in steps:
            assert [(d.kind, d.rule, d.term) for d in decompose_oracle(prev, defs)] == [
                (r.kind, r.rule, r.term)]
            prev = r.term
        assert prev == parse("(y + 5)<id{Int}>")

    # a stuck node reached by a pop: stepping the state whose focus it is
    # from the root names the same node at the same depth
    @pytest.mark.parametrize("text, want", [
        ("if 0 + 1 then 2 else 3", "If(Const, Const, Const) at depth 0"),
        ("(if 0 + 1 then 2 else 3) + 4", "If(Const, Const, Const) at depth 1"),
        ("(if true then 1 else 2)(3, id{Int})", "App2(Const, Const, CrcLit) at depth 0"),
        (f"(({ID})(1, id{{Int}})) + (if true then Int! else Int!)",
         "Op(Const, CrcLit) at depth 0"),
        ("(if true then Int! else Int!) + 1", "Op(CrcLit, Const) at depth 0"),
        ("(if true then 1 else 2)<Int?^p>", "CrcApp(Const, CrcLit) at depth 0"),
        ("5<if true then 1 else 2>", "CrcApp(Const, Const) at depth 0"),
        ("5<(if true then 1 else 2) ;; Int!>", "Compose(Const, CrcLit) at depth 1"),
        ("5<Int! ;; (if true then 1 else 2)>", "Compose(CrcLit, Const) at depth 1"),
        ("(\\ (x:Int, k:Int). (if x + 1 then 2 else 3)<k>)(1, id{Int})",
         "If(Const, Const, Const) at depth 1"),
    ])
    def test_a_stuck_parent_reached_by_a_pop_is_reported_as_from_the_root(self, text, want):
        steps, pops, stuck = unread_run(parse(text))
        assert pops[-1] is not None
        assert str(stuck) == f"no rule applies to {want}"
        with pytest.raises(StuckTerm) as e:
            step(steps[-1].term)
        assert str(e.value) == str(stuck)

    def test_a_stuck_if_names_what_its_branches_stand_for_under_the_environment(self):
        # the branches are the body's x, which R-Beta's environment binds
        # to 2: the message names the constant, as the read state holds it
        t = parse("(\\ (x:Int, k:Int). if 1 then x else x)(2, id{Int})")
        steps, pops, stuck = unread_run(t)
        assert [r.rule for r in steps] == ["R-Beta"]
        assert str(stuck) == "no rule applies to If(Const, Const, Const) at depth 0"
