"""The fused size walk ``measure`` against the three sizes defined one by one.

Criterion 4 asserts peaks of ``term_size``, ``max_coercion_size`` and
``metric_f``; both calculi compute all three in one walk, ``measure``.
Here it is checked against a separate walk for each size, written straight
from its definition, on every state of the space benchmark and of corpus
traces, in both calculi.
"""

import pytest

from coercion_forge import lam_s as S
from coercion_forge import lam_sx as X
from coercion_forge import translate
from coercion_forge.coercions import Id, size
from coercion_forge.harness import even_odd_program, even_odd_target, spaceBench
from coercion_forge.terms import Const, children
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
