"""The fused size walk ``measure`` against the three sizes defined one by one.

Criterion 4 asserts peaks of ``term_size``, ``max_coercion_size`` and
``metric_f``; both calculi compute all three in one walk, ``measure``.
Here it is checked against a separate walk for each size, written straight
from its definition, on every state of the space benchmark and of corpus
traces, in both calculi.  Given a step, ``lam_s.measure`` sizes its state
from its focus and context without plugging them; it is checked against
``measure`` of the plugged state.
"""

import itertools

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import terms, translate
from coercion_forge.coercions import Id, size
from coercion_forge.harness import _run, even_odd_program, even_odd_target, spaceBench
from coercion_forge.terms import Const, Op, Stepped, children, unread
from coercion_forge.types import INT


def term_size_s(t):
    if isinstance(t, (S.CrcApp, S.CoercedVal)):
        return 1 + term_size_s(t.subject) + size(t.crc)
    return 1 + sum(term_size_s(k) for k in children(t))


def max_coercion_size_s(t):
    if isinstance(t, (S.CrcApp, S.CoercedVal)):
        return max(size(t.crc), max_coercion_size_s(t.subject))
    return max((max_coercion_size_s(k) for k in children(t)), default=0)


def metric_f_s(t):
    if isinstance(t, S.CrcApp):
        return 4 * size(t.crc) + 2 + metric_f_s(t.subject)
    if isinstance(t, S.CoercedVal):
        return 4 * size(t.crc) + 1 + metric_f_s(t.subject)
    return sum(metric_f_s(k) for k in children(t))


def term_size_x(t):
    if isinstance(t, X.CrcLit):
        return size(t.crc)
    if isinstance(t, X.CoercedVal):
        return 1 + term_size_x(t.subject) + size(t.crc)
    return 1 + sum(term_size_x(k) for k in children(t))


def max_coercion_size_x(t):
    if isinstance(t, X.CrcLit):
        return size(t.crc)
    if isinstance(t, X.CoercedVal):
        return max(size(t.crc), max_coercion_size_x(t.subject))
    return max((max_coercion_size_x(k) for k in children(t)), default=0)


def metric_f_x(t):
    if isinstance(t, X.CrcApp) and isinstance(t.crc, X.CrcLit):
        return 4 * size(t.crc.crc) + 2 + metric_f_x(t.subject)
    if isinstance(t, X.CoercedVal):
        return 4 * size(t.crc) + 1 + metric_f_x(t.subject)
    return sum(metric_f_x(k) for k in children(t))


SPEC = {
    S: (term_size_s, max_coercion_size_s, metric_f_s),
    X: (term_size_x, max_coercion_size_x, metric_f_x),
}


def check_states(mod, states):
    sizes = SPEC[mod]
    assert states
    for t in states:
        want = tuple(f(t) for f in sizes)
        assert mod.measure(t) == want, t
        assert (mod.term_size(t), mod.max_coercion_size(t), mod.metric_f(t)) == want, t


@pytest.mark.parametrize("dialect", ["lams", "lamsx"])
def test_measure_matches_the_three_sizes_on_the_space_benchmark(dialect):
    mod, start = (
        (S, even_odd_program(10).main) if dialect == "lams" else (X, even_odd_target(10).main)
    )
    states = [start]
    report = spaceBench(10, dialect, on_step=lambda k, r: states.append(r.term))
    assert len(states) == report.steps + 1
    check_states(mod, states)


def trace(mod, prog, fuel=2000):
    states = [prog.main]
    mod.evaluate_program(prog, fuel, lambda k, r: states.append(r.term))
    return states


def test_measure_matches_the_three_sizes_on_corpus_traces(corpus):
    for p in corpus[:50]:
        check_states(S, trace(S, p))
        check_states(X, trace(X, translate.trans_program(p)))


@pytest.mark.parametrize("mod", [S, X])
def test_measure_walks_a_term_of_any_depth(mod):
    # 10^5 pending identities, each a node and a coercion of size 1
    crc = Id(INT) if mod is S else X.CrcLit(Id(INT))
    t = Const(1)
    for _ in range(10**5):
        t = mod.CrcApp(t, crc)
    assert mod.measure(t) == (200001, 1, 600000)


# every refill of a λS frame: the table's, and the coercion frame's, which
# ``_measure`` sizes in its own branch
_REFILLS = {*S._BESIDE_HOLE, S._crc_subject}


def _refills(k):
    out = set()
    while k is not None:
        out.add(k[0])
        k = k[2]
    return out


def test_a_step_is_sized_from_its_focus_and_frames_on_corpus_runs(corpus):
    # ``_run`` hands on by turns the step read and its unread twin, so the
    # focus of each step is where the stepper left it after either; the
    # step is sized before its term is read, and its twin made after the
    # read, whose focus the read has moved to the parent.  A run is cut
    # where ``invariantSuite`` cuts it, as some runs diverge.
    refills = set()
    steps = 0
    for p in corpus[:100]:
        for r in itertools.islice(_run(S, p.main, p.def_terms()), 300):
            if r.__class__ is not Stepped:
                break
            got = S.measure(r)
            refills |= _refills(r._ctx)
            want = S.measure(r.term)
            assert got == want == S.measure(unread(r)), r.term
            steps += 1
    assert steps > 2500
    assert refills == _REFILLS


def test_a_step_is_sized_from_its_focus_and_frames_on_the_space_benchmark():
    seen = []

    def on_step(k, r):
        # the twin plugs its own term, so the run goes on as the benchmark's does
        seen.append((S.measure(r), S.measure(unread(r).term), _refills(r._ctx)))

    report = spaceBench(10, "lams", sample_stride=1, on_step=on_step)
    assert len(seen) == report.steps
    assert all(got == want for got, want, _ in seen)
    assert set().union(*[k for _, _, k in seen]) <= _REFILLS


def test_a_step_under_ten_thousand_frames_is_sized_without_recursion():
    # ((1 + 1) + 1) + ...: the first step adds the innermost pair, 10^4
    # frames down
    t = Const(1)
    for _ in range(10**4 + 1):
        t = Op("+", t, Const(1))
    whole = Stepped("start", t)
    # a step built whole is its term in the empty context
    assert S.measure(whole) == (2 * 10**4 + 3, 0, 0)
    r = S.step(whole)
    assert terms._get_term(r) is None and terms._depth(r._ctx) == 10**4
    assert S.measure(r) == (2 * 10**4 + 1, 0, 0)


@pytest.mark.parametrize(
    "mod, program", [(S, even_odd_program), (X, even_odd_target)], ids=["lam_s", "lam_sx"]
)
def test_the_three_sizes_of_a_step_take_one_walk(mod, program, monkeypatch):
    steps = []
    mod.evaluate_program(program(3), on_step=lambda k, r: steps.append(r))
    # each state's sizes, from a twin's term, so each step is sized unread
    wants = [mod.measure(unread(r).term) for r in steps]
    walk = mod._measure
    walks = []
    monkeypatch.setattr(mod, "_measure", lambda *a: walks.append(a) or walk(*a))
    for r, want in zip(steps, wants):
        sizes = (mod.term_size(r), mod.max_coercion_size(r), mod.metric_f(r))
        assert sizes == mod.measure(r) == want, r.term
    assert len(walks) == len(steps) > 20
