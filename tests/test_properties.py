"""Property tests: composition laws, translation homomorphism, round trips.

Coercion inputs are built as chains of primitive conversions whose
endpoints line up, so every drawn pair or triple is composable by
construction; conflicts (and thus failure coercions) still arise whenever
an injection meets a projection at a different tag through Dyn.
"""

from hypothesis import given, settings, strategies as st

from coercion_forge import lam_s as S
from coercion_forge import surface
from coercion_forge.coercions import (
    Fun,
    Id,
    IdStar,
    InjSeq,
    ProjSeq,
    compose,
    crc_source,
    crc_target,
    is_canonical,
)
from coercion_forge.harness import GenConfig, differentialRun, genWellTyped
from coercion_forge.translate import psi_crc, psi_type, trans_program
from coercion_forge.types import BOOL, DYN, INT, Fun2T, FunT, fill

STAR_FUN = FunT(DYN, DYN)
_LABELS = ("p", "q", "r")
_POOL = (INT, BOOL, DYN)


def _to_dyn(a):
    return IdStar() if a == DYN else InjSeq(Id(a), a)


def _from_dyn(b, label):
    return IdStar() if b == DYN else ProjSeq(b, label, Id(b))


@st.composite
def _conversion(draw, ty):
    """One canonical coercion out of ``ty``; returns (coercion, new type)."""
    label = draw(st.sampled_from(_LABELS))
    if ty == DYN:
        choice = draw(st.sampled_from(("proj-base", "proj-fun", "id")))
        if choice == "proj-base":
            g = draw(st.sampled_from((INT, BOOL)))
            return _from_dyn(g, label), g
        if choice == "proj-fun":
            return ProjSeq(STAR_FUN, label, Id(STAR_FUN)), STAR_FUN
        return IdStar(), DYN
    if isinstance(ty, FunT):
        choices = ["id", "narrow"]
        if ty == STAR_FUN:
            choices.append("inj")
        choice = draw(st.sampled_from(choices))
        if choice == "id":
            return Id(ty), ty
        if choice == "inj":
            return InjSeq(Id(STAR_FUN), STAR_FUN), DYN
        a = draw(st.sampled_from(_POOL))
        b = draw(st.sampled_from(_POOL))
        if ty == STAR_FUN:
            # special case: both slots dynamic would be an identity arrow
            if a == DYN and b == DYN:
                a = INT
            return Fun(_to_dyn(a), _from_dyn(b, label)), FunT(a, b)
        return Fun(_from_dyn(ty.arg, label), _to_dyn(ty.res)), STAR_FUN
    choice = draw(st.sampled_from(("id", "inj")))
    if choice == "id":
        return Id(ty), ty
    return _to_dyn(ty), DYN


@st.composite
def conversion_chain(draw, min_size=1, max_size=6):
    start = draw(st.sampled_from((INT, BOOL, DYN, STAR_FUN, FunT(INT, BOOL))))
    ty = start
    chain = []
    for _ in range(draw(st.integers(min_size, max_size))):
        c, ty = draw(_conversion(ty))
        chain.append(c)
    return start, chain


def fold(chain, fun_ctor):
    acc = chain[0]
    for c in chain[1:]:
        acc = compose(acc, c, fun_ctor)
    return acc


class TestCompositionLaws:
    @given(conversion_chain())
    def test_composites_stay_canonical(self, drawn):
        _, chain = drawn
        assert is_canonical(fold(chain, FunT), FunT)

    @given(conversion_chain(min_size=2))
    def test_composites_keep_their_endpoints(self, drawn):
        start, chain = drawn
        comp = fold(chain, FunT)
        # each call makes a failure's open endpoint a fresh hole, which
        # the type it is compared with may fill
        assert fill(crc_source(comp, FunT), crc_source(chain[0], FunT))
        assert fill(crc_source(comp, FunT), start)
        assert fill(crc_target(comp, FunT), crc_target(chain[-1], FunT))

    @given(conversion_chain(min_size=3, max_size=6),
           st.integers(1, 4), st.integers(1, 4))
    def test_composition_is_associative(self, drawn, i, j):
        _, chain = drawn
        lo, hi = sorted((min(i, len(chain) - 1), min(j, len(chain) - 1)))
        if lo == hi:
            hi = min(hi + 1, len(chain) - 1)
            if lo == hi:
                return
        a, b, c = chain[:lo], chain[lo:hi], chain[hi:]
        left = compose(compose(fold(a, FunT), fold(b, FunT), FunT),
                       fold(c, FunT), FunT)
        right = compose(fold(a, FunT),
                        compose(fold(b, FunT), fold(c, FunT), FunT), FunT)
        assert left == right

    @given(conversion_chain())
    def test_identity_is_neutral(self, drawn):
        start, chain = drawn
        comp = fold(chain, FunT)
        left_id = IdStar() if start == DYN else Id(start)
        assert compose(left_id, comp, FunT) == comp


class TestTranslationHomomorphism:
    @given(conversion_chain(min_size=2))
    def test_psi_commutes_with_composition(self, drawn):
        _, chain = drawn
        for split in range(1, len(chain)):
            s = fold(chain[:split], FunT)
            t = fold(chain[split:], FunT)
            assert psi_crc(compose(s, t, FunT)) == compose(
                psi_crc(s), psi_crc(t), Fun2T)

    @given(conversion_chain())
    def test_psi_preserves_canonical_form_and_endpoints(self, drawn):
        _, chain = drawn
        comp = fold(chain, FunT)
        image = psi_crc(comp)
        assert is_canonical(image, Fun2T)
        # compared as printed: a failure's open endpoint is a fresh hole
        assert repr(psi_type(crc_source(comp, FunT))) == repr(crc_source(image, Fun2T))
        assert repr(psi_type(crc_target(comp, FunT))) == repr(crc_target(image, Fun2T))


class TestRoundTrips:
    @given(conversion_chain())
    def test_printed_coercions_reparse(self, drawn):
        _, chain = drawn
        comp = fold(chain, FunT)
        text = surface.print_coercion(comp, "lams")
        assert surface.parse_coercion(text, "lams") == comp
        image = psi_crc(comp)
        text_x = surface.print_coercion(image, "lamsx")
        assert surface.parse_coercion(text_x, "lamsx") == image

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_printed_programs_reparse(self, seed):
        p = genWellTyped(GenConfig(seed=seed, maxDepth=5))
        # the program, and its translation, whose terms hold coercions
        for prog, dialect in ((p, "lams"), (trans_program(p), "lamsx")):
            text = surface.print_program(prog)
            again = surface.parse_program(text, dialect)
            assert surface.alpha_eq_program(again, prog)
            assert surface.print_program(again) == text


class TestGeneratedPrograms:
    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_generated_programs_typecheck(self, seed):
        p = genWellTyped(GenConfig(seed=seed, maxDepth=6))
        S.typecheck_program(p)

    @given(st.integers(0, 2000))
    @settings(max_examples=20, deadline=None)
    def test_both_calculi_agree(self, seed):
        p = genWellTyped(GenConfig(seed=seed, maxDepth=5))
        assert differentialRun(p, fuel=3000, seed=seed).kind == "agree"
