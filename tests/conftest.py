"""Shared fixtures: the generated program corpus used by the heavier suites."""

import sys

import pytest

from coercion_forge import GenConfig, coercions, genWellTyped, lam_s, lam_sx, terms


@pytest.fixture(scope="session")
def corpus():
    """500 deterministic well-typed programs, seeds 0 through 499."""
    return [genWellTyped(GenConfig(seed=s, maxDepth=8)) for s in range(500)]


@pytest.fixture
def refocus_fault(monkeypatch):
    """Plant a fault in the refocusing search of both calculi.

    Reading a step's term plugs it right but leaves the next search a
    context without its outermost frame.  Only a check that gives each
    step the step before, as every run does, reaches that context.
    """
    plugged = terms.Stepped.term.fget

    def drops_the_outermost_frame(s):
        fresh = s._focus is not None and terms._get_term(s) is None
        t = plugged(s)
        if fresh and s._ctx is not None:
            frames = []
            k = s._ctx
            while k[2] is not None:
                frames.append(k[:2])
                k = k[2]
            k = None
            for refill, n in reversed(frames):
                k = (refill, n, k)
            terms._set_ctx(s, k)
        return t

    monkeypatch.setattr(terms.Stepped, "term", property(drops_the_outermost_frame))


@pytest.fixture
def pop_fault(monkeypatch):
    """Plant a fault in the pop of both calculi: R-IfTrue fired as the
    condition's value returns to its frame keeps the ``else`` branch.

    The same rule fired as the search reaches the ``if`` node keeps the
    right branch, so only a run in which a value returns to the frame, and
    a check of the step the stepper took there, sees the fault.
    """
    for mod in (lam_s, lam_sx):
        fire = mod._if

        def keeps_else(n, c, *rest, fire=fire):
            r = fire(n, c, *rest)
            # from a pop, the frame's node still holds the condition the
            # search went down, not its value
            if c is not n.cond and r.rule == "R-IfTrue":
                terms._set_focus(r, n.els)
            return r

        monkeypatch.setattr(mod, "_if", keeps_else)


def _plant_in_compose(monkeypatch, faulty) -> None:
    """Patch ``faulty`` in for ``coercions.compose`` in every module that
    imports it, so both calculi, their oracles included, compose alike."""
    compose = coercions.compose
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "coercion_forge" and getattr(mod, "compose", None) is compose:
            monkeypatch.setattr(mod, "compose", faulty)


def _conflicts(s, t) -> bool:
    """Whether CC-Conflict composes ``s`` with ``t``."""
    return s.__class__ is coercions.InjSeq and t.__class__ is coercions.ProjSeq and s.ground != t.ground


@pytest.fixture
def zz_fault(monkeypatch):
    """Plant a fault in composition: CC-Conflict blames ``zz``, a label no
    program holds, instead of the projection's label.

    A run and its translation blame ``zz`` together and agree.  Only a
    check of where a state's labels come from sees the fault.
    """
    compose = coercions.compose

    def blames_zz(s, t, fun_ctor):
        if _conflicts(s, t):
            return coercions.Fail(s.ground, "zz", t.ground)
        return compose(s, t, fun_ctor)

    _plant_in_compose(monkeypatch, blames_zz)


@pytest.fixture
def conflict_swap_fault(monkeypatch):
    """Plant a fault in composition: CC-Conflict makes the failure with its
    two tags swapped, so that it converts from the projection's tag.

    Both calculi blame the same label at the same step and agree.  The
    failure no longer converts from the value it is applied to, so only
    the typing of each state sees the fault.
    """
    compose = coercions.compose

    def swaps_the_tags(s, t, fun_ctor):
        if _conflicts(s, t):
            return coercions.Fail(t.ground, t.label, s.ground)
        return compose(s, t, fun_ctor)

    _plant_in_compose(monkeypatch, swaps_the_tags)


@pytest.fixture
def fun_covariant_fault(monkeypatch):
    """Plant a fault in composition: CC-Fun composes the argument
    coercions in the order of the results, ``s.arg`` then ``t.arg``.

    Only a run that composes an arrow coercion with an arrow coercion
    meets the fault.
    """
    compose = coercions.compose

    def covariant(s, t, fun_ctor):
        if s.__class__ is coercions.Fun and t.__class__ is coercions.Fun:
            args, ress = compose(s.arg, t.arg, fun_ctor), compose(s.res, t.res, fun_ctor)
            return coercions.mk_fun(args, ress, fun_ctor)
        return compose(s, t, fun_ctor)

    _plant_in_compose(monkeypatch, covariant)


@pytest.fixture
def env_lookup_fault(monkeypatch):
    """Plant a fault in ``lam_sx``'s lookup under an environment: a
    variable bound to an integer ``n`` stands for ``n + 1``.

    Only the search of a step given unread goes on under an environment; a
    read applies the pending environments by substitution, which the fault
    does not touch.
    """
    value = lam_sx._value

    def off_by_one(v, env):
        out = value(v, env)
        if v.__class__ is terms.Var and out.__class__ is terms.Const and out.val.__class__ is int:
            return terms.Const(out.val + 1)
        return out

    monkeypatch.setattr(lam_sx, "_value", off_by_one)
