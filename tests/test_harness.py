"""Tests for the verification harness: generation, differential runs,
simulation and invariant checks, and the space benchmark."""

import bisect
import dataclasses
import itertools
import random
from collections import Counter

import pytest

from coercion_forge import cli, coercions, harness
from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import surface, terms, translate
from coercion_forge.harness import (
    GenConfig,
    GenerationExhausted,
    SpaceReport,
    Verdict,
    differentialRun,
    even_odd_program,
    genWellTyped,
    invariantSuite,
    simulationCheck,
    spaceBench,
)
from coercion_forge.coercions import InjSeq
from coercion_forge.types import BOOL, Fun2T, FunT, INT


class TestGeneration:
    def test_seed_determines_the_program(self):
        a = genWellTyped(GenConfig(seed=11, maxDepth=6))
        b = genWellTyped(GenConfig(seed=11, maxDepth=6))
        assert a == b
        assert surface.print_program(a) == surface.print_program(b)

    def test_different_seeds_differ(self):
        mains = {surface.print_program(genWellTyped(GenConfig(seed=s)))
                 for s in range(20)}
        assert len(mains) > 15

    def test_generated_programs_typecheck(self):
        for s in range(30):
            p = genWellTyped(GenConfig(seed=s, maxDepth=5))
            S.typecheck_program(p)

    def test_explicit_target_type_is_respected(self):
        for s in range(5):
            p = genWellTyped(GenConfig(seed=s, targetType=BOOL))
            assert S.typecheck_program(p).ty == BOOL

    def test_default_targets_are_base_types(self):
        for s in range(30):
            p = genWellTyped(GenConfig(seed=s))
            assert S.typecheck_program(p).ty in (INT, BOOL)

    def test_unusable_configurations_are_rejected(self):
        with pytest.raises(GenerationExhausted):
            genWellTyped(GenConfig(seed=0, maxDepth=-1))
        with pytest.raises(GenerationExhausted):
            genWellTyped(GenConfig(seed=0, targetType=Fun2T(INT, INT)))


def _same_draw(draw_a, draw_b, states=2000) -> None:
    """``draw_a`` and ``draw_b`` give the same answer from each of ``states``
    generator states, and leave the generator in the same state."""
    rng = random.Random(2024)
    for _ in range(states):
        start = rng.getstate()
        a = draw_a(rng), rng.getrandbits(64)
        rng.setstate(start)
        b = draw_b(rng), rng.getrandbits(64)
        assert a == b
        rng.setstate(start)
        rng.random()


class TestDraws:
    # the generator draws through the primitives its draws reduce to, and
    # these pin that reduction on whichever CPython runs the tests: each
    # seed draws the program it always drew

    @pytest.mark.parametrize(
        "shape", itertools.product((False, True), repeat=5),
        ids=lambda shape: "".join("1" if b else "0" for b in shape),
    )
    def test_a_production_draw_is_the_cum_weights_draw(self, shape):
        kinds, cum = harness._productions(*shape)
        # the expression ``_Gen.term`` draws a production with
        _same_draw(
            lambda rng: kinds[bisect.bisect_right(cum, rng.random() * cum[-1], 0, len(kinds) - 1)],
            lambda rng: rng.choices(kinds, cum_weights=cum)[0],
        )

    @pytest.mark.parametrize("new, old", [
        (lambda rng: rng.choice(harness._LEAF_INTS), lambda rng: rng.randint(-4, 9)),
        (lambda rng: rng.choice(harness._DIGITS), lambda rng: rng.randint(0, 9)),
        (lambda rng: rng.choice(harness._LEAF_VARS), lambda rng: f"x{rng.randint(0, 2)}"),
    ], ids=["leaf-ints", "digits", "leaf-vars"])
    def test_a_choice_draws_what_randint_drew(self, new, old):
        _same_draw(new, old)


class TestDifferentialRun:
    def test_matching_values(self):
        v = differentialRun(even_odd_program(4), seed=7)
        assert v.kind == "agree"
        assert (v.source, v.target) == ("value false", "value false")
        assert v.to_json() == (
            '{"kind": "agree", "detail": "same observable outcome",'
            ' "seed": 7, "source": "value false", "target": "value false"}')

    def test_matching_blame(self):
        p = surface.parse_program("5<Int!><Bool?^p>", "lams")
        v = differentialRun(p)
        assert v.kind == "agree"
        assert (v.source, v.target) == ("blame p", "blame p")

    def test_matching_coerced_values(self):
        p = surface.parse_program("5<Int!>", "lams")
        v = differentialRun(p)
        assert v.kind == "agree"
        assert v.source == "value 5<<Int!>>"

    def test_divergence_counts_as_fuel_exhaustion(self):
        p = surface.parse_program(
            "letrec loop (x:Int) : Int = loop x\nin loop 0", "lams")
        v = differentialRun(p, fuel=2000)
        assert v.kind == "agree"
        assert v.detail == "both ran out of fuel"
        assert v.source.startswith("diverges")

    @pytest.mark.parametrize("src, tgt", [("1", "true"), ("0", "false"),
                                          ("1<Int!>", "true<<Int!>>")])
    def test_an_integer_and_a_boolean_disagree(self, monkeypatch, src, tgt):
        # the translation cannot produce this pair, so a faulty one is planted
        target = surface.parse_program(tgt, "lamsx")
        monkeypatch.setattr(translate, "trans_program", lambda p: target)
        v = differentialRun(surface.parse_program(src, "lams"))
        assert v.kind == "disagree", v

    @pytest.mark.parametrize("fuel, detail, source", [
        (603, "one side ran out of fuel", "out_of_fuel after 603 steps"),
        (604, "same observable outcome", "value false"),
    ])
    def test_a_run_that_ends_at_its_fuel_is_not_out_of_fuel(self, fuel, detail, source):
        # odd 100 takes 6n+4 = 604 source steps
        v = differentialRun(even_odd_program(100), fuel=fuel)
        assert (v.kind, v.detail, v.source, v.target) == ("agree", detail, source, "value false")

    def test_the_optimized_translation_agrees_and_keeps_every_invariant(
            self, monkeypatch, corpus):
        # the translation ``translate --opt-trop`` prints, whose Tr-Op drops
        # the identity coercion on an operator's result
        plain = translate.trans_program
        monkeypatch.setattr(translate, "trans_program", lambda p: plain(p, optimize_op=True))
        dropped = 0
        for s, p in enumerate(corpus[:100]):
            assert differentialRun(p, seed=s).kind == "agree", s
            assert invariantSuite(p, seed=s) == [], s
            dropped += plain(p, optimize_op=True) != plain(p)
        assert dropped > 50

    def test_an_ill_typed_source_gets_the_verdict_the_simulation_gives(self, monkeypatch):
        # neither side runs: the source would compute 2, since 1 + True is 2
        def no_run(*args, **kw):
            raise AssertionError("ran an ill-typed source")

        monkeypatch.setattr(S, "evaluate_program", no_run)
        p = surface.parse_program("1 + true", "lams")
        v = differentialRun(p, seed=5)
        assert v.to_json() == simulationCheck(p, seed=5).to_json() == (
            '{"kind": "invariant-violation", "detail": "source does not typecheck:'
            ' expected Int, found Bool", "seed": 5, "witness": "1 + true"}')

    def test_witness_replays(self):
        p = genWellTyped(GenConfig(seed=3))
        v = differentialRun(p, seed=3)
        replay = surface.parse_program(v.witness, "lams")
        assert surface.alpha_eq_program(replay, p)


class TestVerdictJson:
    def test_agree_hides_the_witness(self):
        v = Verdict("agree", "fine", "value 1", "value 1", "1 + 0", seed=4)
        assert v.to_json() == (
            '{"kind": "agree", "detail": "fine", "seed": 4,'
            ' "source": "value 1", "target": "value 1"}')

    def test_disagreement_carries_the_witness(self):
        v = Verdict("disagree", "differs", "value 1", "value 2", "1 + 0")
        assert v.to_json() == (
            '{"kind": "disagree", "detail": "differs", "source": "value 1",'
            ' "target": "value 2", "witness": "1 + 0"}')


class TestSimulationAndInvariants:
    def test_simulation_holds_on_the_benchmark(self):
        v = simulationCheck(even_odd_program(4))
        assert v.kind == "agree"
        assert v.to_json() == (
            '{"kind": "agree", "detail": "simulation held on every checked step"}')

    def test_invariants_hold_on_the_benchmark(self):
        assert invariantSuite(even_odd_program(4)) == []

    def test_a_target_step_that_computes_wrongly_is_not_simulated(self, monkeypatch):
        # a planted fault in the target stepper's arithmetic only
        monkeypatch.setattr(X, "delta", lambda op, a, b: S.delta(op, a, b) + 1)
        v = simulationCheck(surface.parse_program("1 + 2", "lams"), seed=5)
        assert (v.kind, v.detail, v.source, v.target) == (
            "invariant-violation",
            "source step 1 (e R-Op) not simulated within 8 target steps", "3", "4")
        assert v.to_json() == (
            '{"kind": "invariant-violation", "detail": "source step 1 (e R-Op) not'
            ' simulated within 8 target steps", "seed": 5, "source": "3", "target": "4",'
            ' "witness": "1 + 2"}')

    def test_simulation_follows_a_function_literal_whose_answer_is_open(self):
        # each state is translated at the main term's type, so the literal's
        # continuation takes Int at every state, as in the program
        p = surface.parse_program("(\\f:Int -> Int. f 1) (\\x:Int. blame p)", "lams")
        assert simulationCheck(p).kind == "agree"
        assert invariantSuite(p) == []

    def test_invariants_hold_on_a_blame_run(self):
        p = surface.parse_program(
            "(if 5<Int!><Bool?^p> then 1 else 2) + 3", "lams")
        assert invariantSuite(p) == []

    def test_a_fault_in_the_refocusing_search_is_caught(self, refocus_fault, corpus):
        programs = corpus[:100]
        assert _flagged(invariantSuite(p) for p in programs) == _REFOCUS_SEEDS
        verdicts = [simulationCheck(p) for p in programs]
        assert _flagged(v.kind != "agree" for v in verdicts) == _REFOCUS_SEEDS
        # the faulty step leaves states that do not typecheck; each is reported
        preservation = [v for v in verdicts if "source preservation failed" in v.detail]
        assert preservation and all(v.kind == "invariant-violation" for v in preservation)

    def test_a_fault_in_the_pop_is_caught(self, pop_fault, corpus):
        # the checks read every state; a step given a read step never
        # returns a value to a frame, so they give every other step the
        # one before unread
        programs = corpus[:100]
        reports = [invariantSuite(p) for p in programs]
        assert _flagged(reports) == _POP_SEEDS
        assert all(v.detail.endswith("oracle chose R-IfTrue, stepper chose R-IfTrue")
                   for r in reports for v in r)
        # the fault strikes on both sides, so the simulation sees it only
        # where one side pops and the other does not
        verdicts = [simulationCheck(p) for p in programs]
        assert _flagged(v.kind != "agree" for v in verdicts) == _POP_SIMULATION_SEEDS
        assert all("(e R-IfTrue) not simulated" in v.detail
                   for v in verdicts if v.kind != "agree")

    def test_a_fault_in_the_lookup_under_an_environment_is_caught(self, env_lookup_fault, corpus):
        # the checks give every other step the one before unread, so the
        # target's search goes on under the environments R-Beta and R-Let
        # start; the oracle sees the state read, with no environment
        reports = [invariantSuite(p) for p in corpus[:100]]
        assert _flagged(reports) == _ENV_LOOKUP_SEEDS
        assert all(v.detail.startswith("target oracle chose") for r in reports for v in r)
        # the target runs once, so its search goes on under them there too
        verdicts = [simulationCheck(p) for p in corpus[:100]]
        assert _flagged(v.kind != "agree" for v in verdicts) == _ENV_LOOKUP_SEEDS
        assert all(" not simulated within " in v.detail for v in verdicts if v.kind != "agree")

    def test_a_label_no_program_holds_is_caught(self, request, corpus):
        # the fault strikes in both calculi alike, so the runs agree; the
        # label scan sees a blame label that comes from no program coercion
        programs = corpus[:200]
        before = [S.evaluate_program(p, 10**5, detect_cycles=True) for p in programs]
        request.getfixturevalue("zz_fault")
        after = [S.evaluate_program(p, 10**5, detect_cycles=True) for p in programs]
        changed = _flagged(a != b for a, b in zip(before, after))
        # all but one end in blame zz; seed 184 diverges in a cycle of
        # states that hold a failure labelled zz
        assert len(changed) == 88
        assert [s for s in changed if after[s].kind != "blame"] == [184]
        assert all(after[s].term.label == "zz" for s in changed if s != 184)
        assert all(differentialRun(programs[s]).kind == "agree" for s in changed[:10])
        reports = [invariantSuite(p) for p in programs]
        assert set(changed) <= set(_flagged(reports))
        assert {v.detail.split(" after ")[0] for r in reports for v in r} == {
            "blame label zz is not in the program", "target blame label zz is not in the program"}

    def test_a_failure_with_swapped_tags_is_caught_by_the_typing_of_each_state(
        self, conflict_swap_fault, corpus
    ):
        # both calculi blame alike, so the runs agree; a failure made from
        # a conflict converts from the projection's tag, not the value's,
        # and the state that holds it does not typecheck
        programs = corpus[:200]
        reports = [invariantSuite(p) for p in programs]
        verdicts = [simulationCheck(p) for p in programs]
        flagged = _flagged(reports)
        assert len(flagged) == 88
        assert _flagged(v.kind != "agree" for v in verdicts) == flagged
        assert all(differentialRun(programs[s]).kind == "agree" for s in flagged[:10])
        details = [v.detail for r in reports for v in r] + [v.detail for v in verdicts if v.kind != "agree"]
        assert all("preservation failed after R-" in d and ": failure source " in d for d in details)

    def test_no_corpus_run_composes_two_arrow_coercions(self, fun_covariant_fault, corpus, monkeypatch):
        # so the checks cannot see a CC-Fun that composes the arguments in
        # the wrong order, which only the worked arrow examples catch
        compose = S.compose
        arrows = []

        def counting(s, t, fun_ctor):
            arrows.append(s.__class__ is t.__class__ is coercions.Fun)
            return compose(s, t, fun_ctor)

        for mod in (S, X):
            monkeypatch.setattr(mod, "compose", counting)
        programs = corpus[:200]
        assert not any(invariantSuite(p) for p in programs)
        assert all(simulationCheck(p).kind == "agree" for p in programs)
        assert arrows and not any(arrows)

    def test_a_blame_node_with_a_label_no_program_holds_is_caught(self, monkeypatch):
        # a planted R-Fail in the source stepper that blames zz instead of
        # the failure's label: no coercion of any state holds zz
        fire = S._crc

        def blames_zz(n, m, k):
            r = fire(n, m, k)
            if r.rule == "R-Fail":
                terms._set_focus(r, S.Blame("zz"))
            return r

        monkeypatch.setattr(S, "_crc", blames_zz)
        p = surface.parse_program("(if 5<Int!><Bool?^p> then 1 else 2) + 3", "lams")
        details = [v.detail for v in invariantSuite(p)]
        assert "blame label zz is not in the program after R-Fail" in details


def _flagged(findings) -> list:
    """The positions, here the corpus seeds, of the findings that are truthy."""
    return [seed for seed, f in enumerate(findings) if f]


# The corpus seeds among 0-99 on which each planted fault is reported.
_REFOCUS_SEEDS = [
    3, 4, 5, 6, 10, 11, 13, 16, 18, 19, 21, 26, 28, 29, 30, 31, 33, 34, 35, 36,
    37, 41, 42, 43, 47, 48, 49, 50, 52, 53, 54, 56, 58, 60, 61, 64, 65, 66, 67, 68,
    69, 70, 72, 73, 74, 75, 78, 80, 81, 82, 84, 85, 86, 87, 88, 90, 91, 94, 97, 98,
]
_POP_SEEDS = [3, 4, 18, 21, 28, 35, 42, 43, 48, 49, 66, 67, 72, 82, 85, 88, 90, 91, 97]
_POP_SIMULATION_SEEDS = [18, 21, 35, 42, 43, 49, 67, 72, 82, 85, 90]
_ENV_LOOKUP_SEEDS = [3, 4, 13, 21, 28, 49, 60, 66, 72, 73, 80, 82, 85, 90, 97]


# A run that never ends: from the third state on, the source and its
# translation each come back to their states with period 2.
_LOOP = r"letrec loop (x:Int) : Int = loop x in (\x0:Int. 4<Int!>) (loop 2)<Int?^r>"


def _record_steps(monkeypatch, mod) -> list:
    """Record every ``Stepped`` that ``mod.step`` returns from now on.

    The steps are kept unread: the check reads each one after it has
    decided what the next step is given.
    """
    steps = []
    step = mod.step

    def recording(t, defs=None):
        r = step(t, defs)
        if r.__class__ is terms.Stepped:
            steps.append(r)
        return r

    monkeypatch.setattr(mod, "step", recording)
    return steps


def _count_calls(monkeypatch, owner, name, state_of) -> Counter:
    """Count the calls of ``owner.name`` from now on per state, the state
    being what ``state_of`` picks from a call's arguments; a call for which
    it gives None is not counted."""
    counts = Counter()
    fn = getattr(owner, name)

    def counting(*args):
        state = state_of(*args)
        if state is not None:
            counts[state] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return counts


def _count_translations(monkeypatch) -> Counter:
    """Count the states each run translator made from now on translates
    (:func:`translate.state_translator`), per state."""
    counts = Counter()
    make = translate.state_translator

    def counting(p, memo):
        tr = make(p, memo)

        def counted(state):
            counts[state] += 1
            return tr(state)
        return counted

    monkeypatch.setattr(translate, "state_translator", counting)
    return counts


def _misname_revisits(monkeypatch, mods) -> None:
    """Plant a stepper fault in each of ``mods`` that strikes only at a state
    the run has been at before: there an e-step comes back named R-Let, a
    composition rule, so it counts as a c-step."""
    for mod in mods:
        step = mod.step
        seen = set()

        def misnames(t, defs=None, step=step, seen=seen):
            r = step(t, defs)
            if r.__class__ is not terms.Stepped:
                return r
            # read only after the step, so the search it took is the same
            state = t.term if t.__class__ is terms.Stepped else t
            if state in seen and r.kind == "e":
                return terms.Stepped("R-Let", r.term)
            seen.add(state)
            return r

        monkeypatch.setattr(mod, "step", misnames)


class TestEachStateCheckedOnce:
    """A run's checks of a state are made at its first visit and replayed at
    the later ones; the stepper is run, and checked, at every step."""

    def test_the_invariant_checks_run_once_per_distinct_state(self, monkeypatch):
        p = surface.parse_program(_LOOP, "lams")
        programs = {S: p, X: translate.trans_program(p)}
        main_ty = S.typecheck_program(p).ty
        steps, oracle, typed = {}, {}, {}
        for mod in (S, X):
            steps[mod] = _record_steps(monkeypatch, mod)
            oracle[mod] = _count_calls(monkeypatch, mod, "decompose_oracle", lambda t, defs: t)
            typed[mod] = _count_calls(
                monkeypatch, mod, "typecheck",
                lambda t, env=None, defs=None, ty=None, memo=None: (t, ty))
        assert invariantSuite(p) == []
        for mod, q in programs.items():
            states = [q.main, *(r.term for r in steps[mod])]
            assert len(steps[mod]) == 300 and len(states) == 301
            distinct = Counter(set(states))
            assert len(distinct) < 10
            assert oracle[mod] == distinct
            # the program check types each definition at its signature and
            # the main term with no type expected, once; a run types each
            # distinct state once, at the main term's type
            program = Counter([(d.fun, d.ty) for d in q.defs] + [(q.main, None)])
            states_typed = Counter({(t, translate.psi_type(main_ty)): 1 for t in distinct})
            assert typed[mod] == program + states_typed

    def test_simulation_translates_each_distinct_state_once(self, monkeypatch):
        p = surface.parse_program(_LOOP, "lams")
        steps = _record_steps(monkeypatch, S)
        translated = _count_translations(monkeypatch)
        assert simulationCheck(p).kind == "agree"
        states = [p.main, *(r.term for r in steps)]
        assert len(steps) == 250
        assert len(translated) < 10
        assert translated == Counter(set(states))

    def test_the_target_runs_once(self, monkeypatch):
        # the target starts at the translated main term and goes on from the
        # step that matched; it never starts again from a translated state
        p = surface.parse_program(_LOOP, "lams")
        given = _count_calls(
            monkeypatch, X, "step",
            lambda t, defs=None: "step" if t.__class__ is terms.Stepped else "term")
        assert simulationCheck(p).kind == "agree"
        # one target step per source step: the first from the term, the
        # other 249 from the step before
        assert given == {"term": 1, "step": 249}

    def test_a_fault_only_at_revisited_states_is_reported(self, monkeypatch):
        p = surface.parse_program(_LOOP, "lams")
        _misname_revisits(monkeypatch, (S, X))
        # each of the 298 steps from a state seen before, on each side
        assert Counter(v.detail for v in invariantSuite(p)) == {
            "oracle chose R-Unfold, stepper chose R-Let": 149,
            "oracle chose R-Beta, stepper chose R-Let": 149,
            "metric did not decrease on c-step R-Let: 20 -> 20": 298,
            "target oracle chose R-Unfold, stepper chose R-Let": 149,
            "target oracle chose R-Beta, stepper chose R-Let": 149,
        }
        # the simulation takes the target's rule names on trust (the oracle
        # comparison above checks them), so the fault is planted in the
        # source stepper alone
        monkeypatch.undo()
        _misname_revisits(monkeypatch, (S,))
        v = simulationCheck(p)
        assert v.kind == "invariant-violation"
        assert v.detail == "source step 3 (c R-Let) not simulated within 8 target steps"


# One program whose runs take e- and c-steps on both sides: the source
# merges, adds and drops an identity; the target also composes and binds.
_PLANT = "(1 + 2)<Int!><Int?^p>"
_SIDES = {"lams": (S, FunT), "lamsx": (X, Fun2T)}


def _violations(p=None):
    p = p if p is not None else surface.parse_program(_PLANT, "lams")
    return [(v.detail, v.source) for v in invariantSuite(p)]


class TestInvariantMessages:
    """Each check of ``invariantSuite`` reports its own message, pinned here
    by planting one fault per message on each side."""

    EXPECTED = {
        ("empty oracle", "lams"): [
            ("oracle found 0 redexes, want exactly 1", "(1 + 2)<Int!><Int?^p>"),
            ("oracle found 0 redexes, want exactly 1", "(1 + 2)<id{Int}>"),
            ("oracle found 0 redexes, want exactly 1", "3<id{Int}>"),
        ],
        ("empty oracle", "lamsx"): [
            ("target oracle found 0 redexes, want exactly 1",
             "let k0 = Int! ;; Int?^p in (1 + 2)<k0>"),
            ("target oracle found 0 redexes, want exactly 1",
             "let k0 = id{Int} in (1 + 2)<k0>"),
            ("target oracle found 0 redexes, want exactly 1", "(1 + 2)<id{Int}>"),
            ("target oracle found 0 redexes, want exactly 1", "3<id{Int}>"),
        ],
        ("wrong rule", "lams"): [
            ("oracle chose R-Bogus, stepper chose R-MergeC", "(1 + 2)<Int!><Int?^p>"),
            ("oracle chose R-Bogus, stepper chose R-Op", "(1 + 2)<id{Int}>"),
            ("oracle chose R-Bogus, stepper chose R-Id", "3<id{Int}>"),
        ],
        ("wrong rule", "lamsx"): [
            ("target oracle chose R-Bogus, stepper chose R-Cmp",
             "let k0 = Int! ;; Int?^p in (1 + 2)<k0>"),
            ("target oracle chose R-Bogus, stepper chose R-Let",
             "let k0 = id{Int} in (1 + 2)<k0>"),
            ("target oracle chose R-Bogus, stepper chose R-Op", "(1 + 2)<id{Int}>"),
            ("target oracle chose R-Bogus, stepper chose R-Id", "3<id{Int}>"),
        ],
        ("stale oracle", "lams"): [
            ("oracle chose R-MergeC, stepper chose R-Op", "(1 + 2)<id{Int}>"),
            ("oracle chose R-MergeC, stepper chose R-Id", "3<id{Int}>"),
            ("oracle found a redex in a terminal state", "3"),
        ],
        ("stale oracle", "lamsx"): [
            ("target oracle chose R-Cmp, stepper chose R-Let",
             "let k0 = id{Int} in (1 + 2)<k0>"),
            ("target oracle chose R-Cmp, stepper chose R-Op", "(1 + 2)<id{Int}>"),
            ("target oracle chose R-Cmp, stepper chose R-Id", "3<id{Int}>"),
            ("oracle found a redex in a terminal target state", "3"),
        ],
        ("flat metric", "lams"): [
            ("metric did not decrease on c-step R-MergeC: 7 -> 7", "(1 + 2)<id{Int}>"),
            ("metric did not decrease on c-step R-Id: 7 -> 7", "3"),
        ],
        # the metric bounds the source calculus's composition steps only
        ("flat metric", "lamsx"): [],
        ("wrong delta", "lams"): [
            ("preservation failed after R-Op: expected Int, found Bool", "true<id{Int}>"),
        ],
        ("wrong delta", "lamsx"): [
            ("target preservation failed after R-Op: "
             "expected (Bool ~> any), found (Int ~> Int)", "true<id{Int}>"),
        ],
        ("no canonical form", "lams"): [
            ("non-canonical coercion id{Int} after R-MergeC", "(1 + 2)<id{Int}>"),
            ("non-canonical coercion id{Int} after R-Op", "3<id{Int}>"),
        ],
        ("no canonical form", "lamsx"): [
            ("non-canonical target coercion id{Int} after R-Cmp",
             "let k0 = id{Int} in (1 + 2)<k0>"),
            ("non-canonical target coercion id{Int} after R-Let", "(1 + 2)<id{Int}>"),
            ("non-canonical target coercion id{Int} after R-Op", "3<id{Int}>"),
        ],
    }

    @pytest.mark.parametrize("fault, dialect", list(EXPECTED))
    def test_a_planted_fault_gives_its_message(self, monkeypatch, fault, dialect):
        mod, fun_t = _SIDES[dialect]
        oracle = mod.decompose_oracle
        if fault == "empty oracle":
            monkeypatch.setattr(mod, "decompose_oracle", lambda t, defs=None: [])
        elif fault == "wrong rule":
            monkeypatch.setattr(mod, "decompose_oracle", lambda t, defs=None: [
                dataclasses.replace(d, rule="R-Bogus") for d in oracle(t, defs)])
        elif fault == "stale oracle":
            first = []

            def stale(t, defs=None):
                # answers the decomposition of the first state, at every state
                if not first:
                    first.append(oracle(t, defs))
                return first[0]

            monkeypatch.setattr(mod, "decompose_oracle", stale)
        elif fault == "flat metric":
            monkeypatch.setattr(mod, "metric_f", lambda t: 7)
        elif fault == "wrong delta":
            monkeypatch.setattr(mod, "delta", lambda op, a, b: True)
        else:
            monkeypatch.setattr(harness, "is_canonical", lambda c, f: f is not fun_t)
        assert _violations() == self.EXPECTED[fault, dialect]

    # R-Op rewrites 1 + 1 and leaves the function and true in place; the
    # planted step swaps those two, reused by identity, so a typing memo
    # keyed by node must not carry their old derivations over
    _SWAP = r"(\x:Int. \y:Bool. x) (1 + 1) true"

    @staticmethod
    def _swap_after_r_op(monkeypatch, mod, swap):
        """Make ``mod``'s stepper and oracle both apply ``swap`` to R-Op's result."""
        step, oracle = mod.step, mod.decompose_oracle

        def swapped_step(t, defs=None):
            r = step(t, defs)
            if getattr(r, "rule", None) != "R-Op":
                return r
            return dataclasses.replace(r, term=swap(r.term))

        def swapped_oracle(t, defs=None):
            return [dataclasses.replace(d, term=swap(d.term)) if d.rule == "R-Op" else d
                    for d in oracle(t, defs)]

        monkeypatch.setattr(mod, "step", swapped_step)
        monkeypatch.setattr(mod, "decompose_oracle", swapped_oracle)

    def test_swapped_off_spine_subterms_break_preservation(self, monkeypatch):
        def swap(t):
            # (f 2) b  becomes  (b 2) f
            return S.App(S.App(t.arg, t.fun.arg), t.fun.fun)

        self._swap_after_r_op(monkeypatch, S, swap)
        p = surface.parse_program(self._SWAP, "lams")
        assert _violations(p) == [
            ("preservation failed after R-Op: applied non-function of type Bool",
             "true 2 (\\x:Int. \\y:Bool. x)"),
        ]

    def test_swapped_off_spine_target_subterms_break_preservation(self, monkeypatch):
        def swap(t):
            # f(2<k>, k1)(b, k2)  becomes  b(2<k>, k1)(f, k2)
            inner = t.fun
            return X.App2(X.App2(t.arg, inner.arg, inner.cont), inner.fun, t.cont)

        self._swap_after_r_op(monkeypatch, X, swap)
        p = surface.parse_program(self._SWAP, "lams")
        assert _violations(p) == [
            ("target preservation failed after R-Op: applied non-function of type Bool",
             "(true(2<id{Int}>, id{Bool => Int}))"
             "(\\ (x:Int, k0:Bool => Int). (\\ (y:Bool, k1:Int). x<k1>)<k0>, id{Int})"),
        ]

    # Int! stays off the spine while the left operand runs for three steps
    _OFF_SPINE = "((1 + 2) + (3 + 4)) + 5<Int!><Int?^p>"
    OFF_SPINE_EXPECTED = {
        "lams": [
            ("non-canonical coercion Int! after R-Op", "3 + (3 + 4) + 5<Int!><Int?^p>"),
            ("non-canonical coercion Int! after R-Op", "3 + 7 + 5<Int!><Int?^p>"),
            ("non-canonical coercion Int! after R-Op", "10 + 5<Int!><Int?^p>"),
        ],
        "lamsx": [
            ("non-canonical target coercion Int! after R-Op",
             "((3<id{Int}> + (3 + 4)<id{Int}>)<id{Int}> + (let k0 = Int! ;; Int?^p in 5<k0>))"
             "<id{Int}>"),
            ("non-canonical target coercion Int! after R-Id",
             "((3 + (3 + 4)<id{Int}>)<id{Int}> + (let k0 = Int! ;; Int?^p in 5<k0>))<id{Int}>"),
            ("non-canonical target coercion Int! after R-Op",
             "((3 + 7<id{Int}>)<id{Int}> + (let k0 = Int! ;; Int?^p in 5<k0>))<id{Int}>"),
            ("non-canonical target coercion Int! after R-Id",
             "((3 + 7)<id{Int}> + (let k0 = Int! ;; Int?^p in 5<k0>))<id{Int}>"),
            ("non-canonical target coercion Int! after R-Op",
             "(10<id{Int}> + (let k0 = Int! ;; Int?^p in 5<k0>))<id{Int}>"),
            ("non-canonical target coercion Int! after R-Id",
             "(10 + (let k0 = Int! ;; Int?^p in 5<k0>))<id{Int}>"),
        ],
    }

    @pytest.mark.parametrize("dialect", list(_SIDES))
    def test_an_off_spine_fault_is_reported_at_every_state(self, monkeypatch, dialect):
        # the scan skips the subtrees of earlier states that reported
        # nothing, so a fault left in place is reported again at each state
        _, fun_t = _SIDES[dialect]
        monkeypatch.setattr(
            harness, "is_canonical", lambda c, f: f is not fun_t or c.__class__ is not InjSeq)
        p = surface.parse_program(self._OFF_SPINE, "lams")
        assert _violations(p) == self.OFF_SPINE_EXPECTED[dialect]

    def test_an_ill_typed_source_stops_before_translating(self, monkeypatch):
        def no_translation(p):
            raise AssertionError("translated an ill-typed source")

        monkeypatch.setattr(translate, "trans_program", no_translation)
        p = S.ProgramS((), S.Op("+", S.Const(1), S.Const(True)))
        (v,) = invariantSuite(p, seed=5)
        assert v.to_json() == (
            '{"kind": "invariant-violation", "detail": "source does not typecheck:'
            ' expected Int, found Bool", "seed": 5, "witness": "1 + true"}')

    def test_an_ill_typed_source_is_not_simulated(self):
        p = S.ProgramS((), S.Op("+", S.Const(1), S.Const(True)))
        assert simulationCheck(p, seed=5).to_json() == (
            '{"kind": "invariant-violation", "detail": "source does not typecheck:'
            ' expected Int, found Bool", "seed": 5, "witness": "1 + true"}')

    def test_an_ill_typed_translation_follows_the_source_reports(self, monkeypatch):
        bad = X.ProgramX((), X.Op("+", X.Const(1), X.Const(True)))
        monkeypatch.setattr(translate, "trans_program", lambda p: bad)
        monkeypatch.setattr(S, "metric_f", lambda t: 7)
        assert _violations() == [
            ("metric did not decrease on c-step R-MergeC: 7 -> 7", "(1 + 2)<id{Int}>"),
            ("metric did not decrease on c-step R-Id: 7 -> 7", "3"),
            ("translation does not typecheck: expected Int, found Bool", ""),
        ]


def _derivation_pairs(a, b):
    """Corresponding nodes of two typing derivations, shapes checked on the way."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        assert a.term is b.term and len(a.children) == len(b.children)
        yield a, b
        stack.extend(zip(a.children, b.children))


def _walk_typed(d):
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.children)


class TestTypingMemo:
    def test_the_memo_changes_no_derivation_on_the_corpus(self, monkeypatch, corpus):
        """At every state the two checks visit, the run's memo answers what a
        from-scratch check does, and consecutive states reuse derivations."""
        nodes = shared = 0
        # id(memo) -> the memo's latest derivation, which stays alive, so no
        # later derivation's nodes can take its ids
        last = {}

        def checking(typecheck):
            def tc(term, env=None, defs=None, expected=None, memo=None):
                nonlocal nodes, shared
                # a type error on either side shows as a violation below
                got = typecheck(term, env, defs, expected, memo)
                if memo is None:
                    return got
                want = typecheck(term, env, defs, expected)
                prev = last.get(id(memo))
                before = {id(d) for d in _walk_typed(prev)} if prev else set()
                last[id(memo)] = got
                for g, w in _derivation_pairs(got, want):
                    assert g.ty == w.ty
                    nodes += 1
                    shared += id(g) in before
                return got
            return tc

        for mod in (S, X):
            monkeypatch.setattr(mod, "typecheck", checking(mod.typecheck))
        for s, p in enumerate(corpus[:100]):
            assert simulationCheck(p, seed=s).kind == "agree"
            assert invariantSuite(p, seed=s) == []
        assert nodes > 100_000
        assert shared > nodes // 2

    def test_the_memo_never_answers_under_a_binder(self):
        # one node checked in the bodies of two binders that type x differently
        body = S.App(S.Var("x"), S.Const(1))
        term = S.If(
            S.TRUE,
            S.App(S.Abs("x", FunT(INT, INT), body), S.Abs("z", INT, S.Var("z"))),
            S.App(S.Abs("x", FunT(BOOL, INT), body), S.Abs("z", BOOL, S.Const(0))),
        )
        for memo in (None, {}):
            with pytest.raises(S.TypeCheckError, match="expected Bool, found Int"):
                S.typecheck(term, memo=memo)

    def test_a_memo_refuses_other_definitions(self):
        p = even_odd_program(3)
        q = surface.parse_program(
            "letrec even (x:Int) : Int = x\nin even 3", "lams")
        memo = {}
        S.typecheck(p.main, {}, p.def_types(), None, memo)
        # equal definitions in another dict are the same definitions
        S.typecheck(p.main, {}, dict(p.def_types()), None, memo)
        with pytest.raises(ValueError, match="other definitions"):
            S.typecheck(q.main, {}, q.def_types(), None, memo)
        with pytest.raises(ValueError, match="other definitions"):
            translate.state_translator(q, memo)(q.main)
        px, qx = translate.trans_program(p), translate.trans_program(q)
        memo = {}
        X.typecheck(px.main, {}, px.def_types(), None, memo)
        with pytest.raises(ValueError, match="other definitions"):
            X.typecheck(qx.main, {}, qx.def_types(), None, memo)


def _source_states(p, limit=250):
    """The states of ``p``'s source run that ``simulationCheck`` visits."""
    states = [p.main]
    defs = p.def_terms()
    while len(states) <= limit:
        r = S.step(states[-1], defs)
        if not hasattr(r, "term"):
            break
        states.append(r.term)
    return states


def _memo_types(memo: dict) -> dict:
    """Each key of a typing memo with the type of its derivation, or with
    the types of an applied coercion's derivation and target."""
    out = {}
    for key, v in memo.items():
        if v.__class__ is terms.Typed:
            v = v.ty
        elif v.__class__ is tuple:
            v = (v[0].ty, v[1])
        out[key] = v
    return out


def _count_checks(monkeypatch, mod) -> Counter:
    """Count the calls of ``mod.typecheck`` from now on per (term, expected
    type, whether a typing memo was given)."""
    return _count_calls(
        monkeypatch, mod, "typecheck",
        lambda t, env=None, defs=None, ty=None, memo=None: (t, ty, memo is not None))


class TestOneCheckPerProgram:
    def test_both_checks_share_one_typing_and_one_translation(self, monkeypatch):
        """``simulationCheck`` then ``invariantSuite`` check the source
        program once and translate it once, whatever ran in between, and
        each source run starts from a copy of the memo the program's record
        keeps and adds nothing to it.  The translation keeps nothing: each
        ``invariantSuite`` checks it once, with a memo."""
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        other = genWellTyped(GenConfig(seed=4, maxDepth=8))
        assert p.defs
        typed = {mod: _count_checks(monkeypatch, mod) for mod in (S, X)}
        # ``def_rename`` collects the names of the main term and of each
        # definition: one call for each, per program it works on
        named = _count_calls(monkeypatch, translate, "_all_names", lambda t: t)

        def both():
            return simulationCheck(p), invariantSuite(p)

        first = both()
        assert first[0].kind == "agree" and first[1] == []
        px = translate.trans_program(p)
        for mod, q in ((S, p), (X, px)):
            assert typed[mod][(q.main, None, True)] == 1
            assert typed[mod][(q.main, None, False)] == 0
        assert named == Counter([p.main, *(d.fun for d in p.defs)])
        before = _memo_types(S.run_memo(p))
        # another program's checks in between change nothing of ``p``'s
        assert simulationCheck(other).kind == "agree" and invariantSuite(other) == []
        named.clear()
        assert both() == first
        assert translate.trans_program(p) is px
        assert typed[S][(p.main, None, True)] == 1
        assert typed[X][(px.main, None, True)] == 2
        assert _memo_types(S.run_memo(p)) == before
        assert not named

    def test_a_source_program_keeps_its_check_by_one_rule(self, monkeypatch):
        """A program check fills no typing memo; the first run memo checks
        the program once more, with one, and a second checks nothing."""
        p = genWellTyped(GenConfig(seed=3, maxDepth=8))
        q = S.ProgramS(p.defs, p.main)
        # an equal program that is another object has a record of its own
        assert q == p and q._checked is None and p._checked is not None
        typed = _count_checks(monkeypatch, S)

        def one_check(with_memo):
            checks = [(d.fun, d.ty) for d in q.defs] + [(q.main, None)]
            return Counter((t, ty, with_memo) for t, ty in checks)

        ty = S.typecheck_program(q).ty
        # another program's checks in between
        other = surface.parse_program("1 + 2", "lams")
        S.run_memo(other)
        del typed[other.main, None, False], typed[other.main, None, True]
        assert S.typecheck_program(q).ty == ty
        assert typed == one_check(False)
        typed.clear()
        memo = S.run_memo(q)
        assert typed == one_check(True)
        # the record's check is now the one with a memo, and it answers both
        assert S.typecheck_program(q).ty == ty
        memo["a run's own"] = True
        assert "a run's own" not in S.run_memo(q)
        assert typed == one_check(True)

    def test_a_translated_program_keeps_nothing(self, monkeypatch):
        """Each program check of a translation checks it afresh, and each
        run memo comes from a check of its own."""
        px = translate.trans_program(genWellTyped(GenConfig(seed=3, maxDepth=8)))
        typed = _count_checks(monkeypatch, X)

        def one_check(with_memo):
            checks = [(d.fun, d.ty) for d in px.defs] + [(px.main, None)]
            return Counter((t, ty, with_memo) for t, ty in checks)

        ty = X.typecheck_program(px).ty
        assert X.typecheck_program(px).ty == ty
        assert typed == one_check(False) + one_check(False)
        typed.clear()
        memo = X.run_memo(px)
        memo["a run's own"] = True
        assert "a run's own" not in X.run_memo(px)
        assert typed == one_check(True) + one_check(True)

    def test_the_command_line_re_check_of_a_translation_fills_no_memo(self, monkeypatch, capsys):
        typed = _count_checks(monkeypatch, X)
        assert cli.main(["translate", "samples/evenodd.lams"]) == 0
        assert capsys.readouterr().out
        assert typed and not any(with_memo for _, _, with_memo in typed)


def test_the_first_run_of_an_unchecked_program_checks_it_once(monkeypatch):
    """A program nothing has checked gets its record from the first run
    memo's check, which fills the memo; it is not checked first with none."""
    p = surface.parse_program("letrec f (x:Int) : Int = x + 1 in f 2", "lams")
    typed = _count_checks(monkeypatch, S)
    assert simulationCheck(p).kind == "agree"
    assert typed[p.main, None, True] == 1 and typed[p.main, None, False] == 0
    assert typed[p.defs[0].fun, p.defs[0].ty, True] == 1


class TestTranslationMemo:
    def test_the_memo_translates_each_state_alpha_equivalently(self, monkeypatch, corpus):
        """At every distinct source state ``simulationCheck`` visits, the
        run's memo gives a translation alpha-equivalent to a from-scratch
        one, and reuses most of the earlier states' translations.  A state
        the run comes back to is not translated again."""
        work = [0]

        def counting(method):
            def counted(self, m):
                work[0] += 1
                return method(self, m)
            return counted

        # a call the memo answers is counted, but goes no deeper
        for name in ("c", "value"):
            monkeypatch.setattr(translate.Translator, name,
                                counting(getattr(translate.Translator, name)))
        make = translate.state_translator
        reused = scratch = states = 0

        def checking(p, memo):
            tr = make(p, memo)

            def checked(state):
                nonlocal reused, scratch, states
                work[0] = 0
                got = tr(state)
                done = work[0]
                work[0] = 0
                # a from-scratch translation: ``trans_state``'s, with no memo
                want = make(p, None)(state)
                assert surface.alpha_eq(got, want), surface.print_term(state, "lams")
                scratch += work[0]
                reused += work[0] - done
                states += 1
                return got
            return checked

        monkeypatch.setattr(translate, "state_translator", checking)
        steps = _record_steps(monkeypatch, S)
        for s, p in enumerate(corpus[:100]):
            assert simulationCheck(p, seed=s).kind == "agree"
        # the states visited are each run's start and one per source step;
        # those not translated, the per-run memo of translations served
        served = 100 + len(steps) - states
        assert served > 0
        assert states + served > 2000
        assert reused > scratch // 2

    # a program whose own binders take the names the translation mints first
    _K_NAMES = r"(\k0:Int. \k1:Bool. if k1 then k0 + 1<Int!><Int?^p> else 0) (2 + 3) true"

    def test_names_are_minted_once_per_run_and_fresh_against_every_state(
            self, monkeypatch, corpus):
        minted = []
        fresh = translate._NameSupply.fresh

        def recording(supply):
            name = fresh(supply)
            minted.append(name)
            return name

        monkeypatch.setattr(translate._NameSupply, "fresh", recording)
        k_names = surface.parse_program(self._K_NAMES, "lams")
        assert {"k0", "k1"} <= translate._all_names(k_names.main)
        total = 0
        for p in [k_names, *corpus[:40]]:
            minted.clear()
            tr = translate.state_translator(p, {})
            states = _source_states(p)
            for state in states:
                tr(state)
            assert len(set(minted)) == len(minted), minted
            names = set().union(*map(translate._all_names, states))
            assert not names & set(minted), names & set(minted)
            assert minted or p is not k_names
            total += len(minted)
        assert total > 100

    def test_a_node_typed_at_two_types_is_translated_at_each(self):
        # one Abs node, whose blame body takes the type each use expects:
        # a memo keyed by the node would give both uses one translation
        shared = S.Abs("x", INT, S.Blame("p"))

        def use(ty):
            return S.App(S.Abs("f", FunT(INT, ty), S.App(S.Var("f"), S.Const(1))), shared)

        p = S.ProgramS((), S.Op("+", use(INT), S.If(use(BOOL), S.Const(1), S.Const(2))))
        tr = translate.state_translator(p, {})
        states = _source_states(p)
        assert len(states) > 2
        for state in states:
            got = tr(state)
            assert surface.alpha_eq(got, translate.trans_state(p, state))


def _step_without_merging(state, defs=None):
    """Naive λS, stepped by the decomposition oracle: a pending coercion
    frame may hold another, and R-MergeC never fires, so coercions applied
    in tail position pile up on the context (Herman, Tomb & Flanagan,
    "Space-efficient gradual typing", 2007)."""
    t = state.term if state.__class__ is terms.Stepped else state
    splits = terms.decompose(
        t, defs,
        {cls: ("plain",) * len(sorts) for cls, sorts in S._FRAMES.items()},
        S._VALUE_CLASSES,
        lambda n, d: None if (r := S._local_redexes(n, d)) and r[0] == "R-MergeC" else r)
    if not splits:
        return terms.IS_BLAME if t.__class__ is S.Blame else terms.IS_VALUE
    (d,) = splits
    return terms.Stepped(d.rule, d.term)


class TestSpaceBench:
    def test_criterion_4_fails_on_a_stepper_that_does_not_merge(self, monkeypatch):
        # the negative control of criterion 4: the term grows as 3n + 16
        # and the metric as 10n + 10
        monkeypatch.setattr(S, "step", _step_without_merging)
        reports = {n: spaceBench(n, "lams", sample_stride=1) for n in (10, 30, 100)}
        assert [(r.steps, r.maxCoercionSize, r.maxTermSize, r.maxMetricF)
                for r in reports.values()] == [
            (69, 2, 46, 110), (199, 2, 106, 310), (654, 2, 316, 1010)]
        # criterion 4's two term-size assertions fail on these reports
        assert len({r.maxTermSize for r in reports.values()}) != 1
        assert not reports[100].maxTermSize <= reports[10].maxTermSize
        # and its coercion-size assertion alone cannot see the leak: each
        # pending coercion stays small, there are only more of them
        assert len({r.maxCoercionSize for r in reports.values()}) == 1

    def test_source_benchmark_report(self):
        assert spaceBench(10, "lams") == SpaceReport(10, 64, 2, 22, 30)
        assert spaceBench(2, "lams") == SpaceReport(2, 16, 2, 22, 30)

    def test_target_benchmark_report(self):
        assert spaceBench(10, "lamsx") == SpaceReport(10, 96, 2, 32, 18)

    def test_peaks_are_flat_in_the_input(self):
        small = spaceBench(10, "lams")
        big = spaceBench(200, "lams")
        assert (big.maxCoercionSize, big.maxTermSize, big.maxMetricF) == (
            small.maxCoercionSize, small.maxTermSize, small.maxMetricF)

    def test_sampling_stride_still_sees_the_maxima(self):
        dense = spaceBench(200, "lams", sample_stride=1)
        sparse = spaceBench(200, "lams", sample_stride=53)
        assert dense == sparse

    def test_report_json(self):
        r = spaceBench(2, "lams")
        assert r.to_json() == (
            '{"n": 2, "steps": 16, "maxCoercionSize": 2,'
            ' "maxTermSize": 22, "maxMetricF": 30}')

    def test_unknown_dialect_is_rejected(self):
        with pytest.raises(ValueError):
            spaceBench(2, "lam")

    @pytest.mark.parametrize("dialect", ["lams", "lamsx"])
    def test_a_negative_n_is_rejected(self, dialect):
        # ``odd -3`` would parse as ``odd - 3`` and get stuck
        with pytest.raises(ValueError, match="^n must be at least 0, got -3$"):
            spaceBench(-3, dialect)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_a_stride_below_one_is_rejected(self, stride):
        with pytest.raises(ValueError, match=f"^sample_stride must be at least 1, got {stride}$"):
            spaceBench(5, "lams", sample_stride=stride)
