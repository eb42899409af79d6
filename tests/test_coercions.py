"""Unit tests for canonical coercions and eager composition.

Covers every composition rule individually plus the worked examples that
exercise collapse, conflict, and arrow composition end to end.
"""

import hashlib

import pytest

from coercion_forge import lam_s, lam_sx
from coercion_forge.coercions import (
    CoercionTypeError,
    CompositionTypeMismatch,
    Fail,
    Fun,
    Id,
    IdStar,
    InjSeq,
    ProjSeq,
    check_crc,
    compose,
    crc_source,
    crc_target,
    is_canonical,
    is_identity,
    mk_fun,
    size,
)
from coercion_forge.types import (
    ANY,
    BOOL,
    DYN,
    INT,
    CrcT,
    Fun2T,
    FunT,
    TyVar,
    TypeCheckError,
    consistent,
    matches,
)
from coercion_forge.translate import psi_crc, psi_type


def inj(g):
    """Bare injection G! in canonical form: id_G ; G!."""
    return InjSeq(Id(g), g)


def proj(g, label="p"):
    """Bare projection G?^p in canonical form: G?^p ; id_G."""
    return ProjSeq(g, label, Id(g))


STAR_FUN = FunT(DYN, DYN)


class TestWorkedExamples:
    """The five composition walkthroughs, one assertion each."""

    def test_injection_meets_matching_projection(self):
        assert compose(inj(BOOL), proj(BOOL), FunT) == Id(BOOL)

    def test_injection_meets_clashing_projection(self):
        got = compose(inj(STAR_FUN), proj(INT), FunT)
        assert got == Fail(STAR_FUN, "p", INT)

    def test_arrow_composition(self):
        left = Fun(proj(INT), inj(BOOL))
        right = Fun(inj(INT), IdStar())
        assert compose(left, right, FunT) == Fun(Id(INT), inj(BOOL))

    def test_projection_then_injection_stays_pending(self):
        got = compose(proj(INT), inj(INT), FunT)
        assert got == ProjSeq(INT, "p", inj(INT))

    def test_pending_pair_simplifies_under_injection(self):
        pending = ProjSeq(INT, "p", inj(INT))
        assert compose(inj(INT), pending, FunT) == inj(INT)


class TestCompositionRules:
    """One case per rule of the composition function."""

    def test_identity_at_dyn_on_the_left(self):
        assert compose(IdStar(), proj(INT), FunT) == proj(INT)

    def test_projection_on_the_left_recurses(self):
        left = ProjSeq(INT, "p", inj(INT))
        got = compose(left, proj(INT, "q"), FunT)
        assert got == proj(INT, "p")

    def test_injection_absorbs_identity_at_dyn(self):
        assert compose(inj(BOOL), IdStar(), FunT) == inj(BOOL)

    def test_collapse_on_matching_tags(self):
        assert compose(inj(INT), proj(INT, "q"), FunT) == Id(INT)

    def test_failure_on_the_left_wins(self):
        failure = Fail(INT, "p", BOOL)
        assert compose(failure, proj(BOOL), FunT) == failure

    def test_conflict_on_distinct_tags(self):
        got = compose(inj(BOOL), proj(INT, "q"), FunT)
        assert got == Fail(BOOL, "q", INT)

    def test_failure_on_the_right_wins(self):
        failure = Fail(INT, "p", BOOL)
        assert compose(Id(INT), failure, FunT) == failure

    def test_injection_on_the_right_recurses(self):
        assert compose(Id(INT), inj(INT), FunT) == inj(INT)

    def test_identity_on_the_left_vanishes(self):
        arrow = Fun(proj(INT), inj(BOOL))
        assert compose(Id(FunT(INT, BOOL)), arrow, FunT) == arrow

    def test_identity_on_the_right_vanishes(self):
        arrow = Fun(inj(INT), proj(INT))
        assert compose(arrow, Id(FunT(INT, INT)), FunT) == arrow

    def test_arrow_composition_collapses_to_identity(self):
        left = Fun(proj(INT), inj(BOOL))
        right = Fun(inj(INT), ProjSeq(BOOL, "q", Id(BOOL)))
        assert compose(left, right, FunT) == Id(FunT(INT, BOOL))
        assert compose(left, right, Fun2T) == Id(Fun2T(INT, BOOL))

    def test_ill_typed_pair_is_rejected(self):
        with pytest.raises(CompositionTypeMismatch):
            compose(inj(INT), Id(INT), FunT)
        with pytest.raises(CompositionTypeMismatch):
            compose(Id(INT), IdStar(), FunT)


class TestShapes:
    def test_sizes(self):
        assert size(IdStar()) == 1
        assert size(inj(INT)) == 2
        assert size(ProjSeq(INT, "p", inj(INT))) == 3
        assert size(Fun(proj(INT), inj(BOOL))) == 5
        assert size(Fail(INT, "p", BOOL)) == 1

    def test_identity_at_dyn_is_not_spelled_id(self):
        with pytest.raises(ValueError):
            Id(DYN)

    def test_failure_tags_must_differ(self):
        with pytest.raises(ValueError):
            Fail(INT, "p", INT)

    def test_canonical_positives(self):
        for c in (IdStar(), Id(INT), inj(INT), proj(BOOL),
                  ProjSeq(INT, "p", inj(INT)), Fun(proj(INT), inj(BOOL)),
                  Fail(INT, "p", BOOL)):
            assert is_canonical(c, FunT), c

    def test_canonical_negatives(self):
        assert not is_canonical(InjSeq(IdStar(), INT), FunT)
        assert not is_canonical(Fun(Id(INT), Id(BOOL)), FunT)
        assert not is_canonical(InjSeq(inj(INT), INT), FunT)

    def test_mk_fun_collapses_double_identity(self):
        assert mk_fun(Id(INT), Id(BOOL), FunT) == Id(FunT(INT, BOOL))
        assert mk_fun(Id(INT), inj(BOOL), FunT) == Fun(Id(INT), inj(BOOL))


class TestTyping:
    def test_endpoints(self):
        c = ProjSeq(INT, "p", inj(INT))
        assert crc_source(c, FunT) == DYN
        assert crc_target(c, FunT) == DYN
        arrow = Fun(proj(INT), inj(BOOL))
        assert crc_source(arrow, FunT) == FunT(INT, BOOL)
        assert crc_target(arrow, FunT) == FunT(DYN, DYN)

    def test_check_accepts_well_typed(self):
        assert check_crc(inj(INT), INT, FunT) == DYN
        assert check_crc(proj(BOOL), DYN, FunT) == BOOL

    def test_check_rejects_wrong_source(self):
        with pytest.raises(CoercionTypeError):
            check_crc(inj(INT), BOOL, FunT)
        with pytest.raises(CoercionTypeError):
            check_crc(proj(BOOL), INT, FunT)

    def test_a_coercion_type_error_is_the_typecheckers_error(self):
        # so a typechecker lets it go up as its own, with its message
        assert issubclass(CoercionTypeError, TypeCheckError)
        assert lam_s.TypeCheckError is TypeCheckError
        assert lam_sx.TypeCheckError is TypeCheckError


class TestConsistency:
    """``consistent`` on the types only the target calculus has; a failure's
    tags are ground, so ``check_crc`` never asks about these."""

    def test_rigid_variables_are_consistent_with_themselves_alone(self):
        assert consistent(TyVar(-1), TyVar(-1))
        assert not consistent(TyVar(-1), TyVar(-2))
        assert not consistent(TyVar(-1), INT)
        assert consistent(TyVar(-1), DYN)

    def test_coercion_types_are_consistent_part_by_part(self):
        assert consistent(CrcT(INT, DYN), CrcT(DYN, BOOL))
        assert not consistent(CrcT(INT, BOOL), CrcT(INT, INT))
        assert not consistent(CrcT(INT, BOOL), Fun2T(INT, BOOL))
        assert consistent(Fun2T(DYN, INT), Fun2T(BOOL, DYN))


# ---------------------------------------------------------------------------
# The coercion algebra in the small scope

LABELS = ("p", "q")
SCOPE_SIZE = 3


def _scope(fun_ctor):
    """The canonical coercions of size at most ``SCOPE_SIZE`` over Int, Bool,
    Dyn and one arrow level, labelled ``p`` or ``q``, built by the grammar;
    then near misses of the grammar, which are not canonical."""
    star = fun_ctor(DYN, DYN)
    grounds = (INT, BOOL, star)
    arrows = [fun_ctor(a, b) for a in (INT, BOOL, DYN) for b in (INT, BOOL, DYN)]

    def canonical(level):
        # size -> coercions of each layer; an arrow coercion's parts are of level 0
        g, i, s = {}, {}, {}
        below = canonical(0) if level else {}
        for n in range(1, SCOPE_SIZE + 1):
            if n == 1:
                g[n] = [Id(a) for a in (INT, BOOL, *(arrows if level else ()))]
                fails = [Fail(a, p, b) for a in grounds for p in LABELS for b in grounds if a != b]
                i[n] = g[n] + fails
                s[n] = [IdStar()] + i[n]
                continue
            g[n] = [
                Fun(a, r)
                for k in range(1, n - 1)
                for a in below.get(k, ())
                for r in below.get(n - 1 - k, ())
                if not (is_identity(a) and is_identity(r))
            ]
            i[n] = g[n] + [InjSeq(c, G) for c in g[n - 1] for G in grounds]
            s[n] = i[n] + [ProjSeq(G, p, c) for G in grounds for p in LABELS for c in i[n - 1]]
        return s

    scope = [c for cs in canonical(1).values() for c in cs]
    near = [Fun(a, r) for a in (IdStar(), Id(INT)) for r in (IdStar(), Id(BOOL))]
    other = Fun2T if fun_ctor is FunT else FunT
    near += [InjSeq(Id(a), a) for a in (fun_ctor(INT, INT), other(DYN, DYN))]
    near += [ProjSeq(a, "p", Id(INT)) for a in (DYN, fun_ctor(INT, INT), other(DYN, DYN))]
    near += [InjSeq(inj(INT), INT), InjSeq(IdStar(), INT), Fail(DYN, "q", INT)]
    return scope, near


def _typed(scope, fun_ctor):
    """(coercion, its ``repr``, source, target, size) for each coercion of
    ``scope`` that ``check_crc`` accepts at its own source."""
    typed = []
    for c in scope:
        src = crc_source(c, fun_ctor)
        try:
            check_crc(c, src, fun_ctor)
        except CoercionTypeError:
            continue
        typed.append((c, repr(c), src, crc_target(c, fun_ctor), size(c)))
    return typed


def _composable(typed):
    """The pairs of ``typed`` entries whose types meet up to the wildcard:
    the pairs ``compose`` is given."""
    for s in typed:
        for t in typed:
            if matches(s[3], t[2]):
                yield s, t


def _algebra_lines(fun_ctor):
    """What ``is_canonical``, ``crc_source``, ``crc_target`` and ``check_crc``
    give on each coercion of the scope, and ``compose`` on each composable
    pair of the well-typed canonical ones; and the pair counts by size."""
    scope, near = _scope(fun_ctor)
    lines = []
    for c in scope + near:
        src, tgt = crc_source(c, fun_ctor), crc_target(c, fun_ctor)
        try:
            checked = repr(check_crc(c, src, fun_ctor))
        except CoercionTypeError as e:
            checked = f"CoercionTypeError {e}"
        lines.append(f"{c!r} {is_canonical(c, fun_ctor)} {src!r} {tgt!r} {checked}")
    counts: dict[int, int] = {}
    for (s, s_text, _, s_tgt, m), (t, t_text, t_src, _, n) in _composable(_typed(scope, fun_ctor)):
        counts[m + n] = counts.get(m + n, 0) + 1
        try:
            got = repr(compose(s, t, fun_ctor))
        except CompositionTypeMismatch:
            # only a failure's unconstrained source meets a type it refuses
            assert t_src is ANY and s_tgt == DYN, (s, t)
            got = "CompositionTypeMismatch"
        lines.append(f"{s_text} ; {t_text} = {got}")
    return lines, counts


# Computed with the ``match``-dispatched algebra.
ALGEBRA_DIGEST = "0e762f2f9f388e5da26e6273d5030281f9f87f5972fe247fdde2b488a44eaa3d"


class TestSmallScope:
    def test_the_scope_is_the_canonical_grammar(self):
        for fun_ctor in (FunT, Fun2T):
            scope, near = _scope(fun_ctor)
            assert len(scope) == len(set(scope)) == 609
            assert all(is_canonical(c, fun_ctor) for c in scope)
            assert not any(is_canonical(c, fun_ctor) for c in near)

    def test_the_algebra_matches_the_pinned_digest(self):
        h = hashlib.sha256()
        for fun_ctor in (FunT, Fun2T):
            lines, counts = _algebra_lines(fun_ctor)
            # composable pairs by the sum of their sizes
            assert counts == {2: 444, 3: 1122, 4: 9252, 5: 6030, 6: 44964}
            h.update("\n".join(lines).encode() + b"\n")
        assert h.hexdigest() == ALGEBRA_DIGEST


def _composed(s, t, fun_ctor):
    try:
        return compose(s, t, fun_ctor)
    except CompositionTypeMismatch:
        return CompositionTypeMismatch


class TestPsi:
    """Ψ, the translation of coercions, against the algebra of both calculi."""

    def test_psi_keeps_the_endpoints_up_to_psi_on_types(self):
        scope, _ = _scope(FunT)
        assert len(scope) == 609
        for c in scope:
            d = psi_crc(c)
            assert crc_source(d, Fun2T) == psi_type(crc_source(c, FunT)), c
            assert crc_target(d, Fun2T) == psi_type(crc_target(c, FunT)), c

    def test_psi_commutes_with_composition(self):
        # every pair the algebra composes in the FunT scope: composing and
        # then translating gives what translating both and composing gives,
        # or neither composes
        typed = _typed(_scope(FunT)[0], FunT)
        psi = {c: psi_crc(c) for c, *_ in typed}
        pairs = 0
        for (s, *_), (t, *_) in _composable(typed):
            want = _composed(s, t, FunT)
            if want is not CompositionTypeMismatch:
                want = psi_crc(want)
            assert _composed(psi[s], psi[t], Fun2T) == want, (s, t)
            pairs += 1
        assert pairs == 444 + 1122 + 9252 + 6030 + 44964
