"""Tests for the verification harness: generation, differential runs,
simulation and invariant checks, and the space benchmark."""

import pytest

from coercion_forge import lam_s as S
from coercion_forge import surface, translate
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
from coercion_forge.types import BOOL, Fun2T, INT


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

    def test_invariants_hold_on_a_blame_run(self):
        p = surface.parse_program(
            "(if 5<Int!><Bool?^p> then 1 else 2) + 3", "lams")
        assert invariantSuite(p) == []


class TestSpaceBench:
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
