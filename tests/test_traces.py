"""Golden digests of the machines' steps and states, and of the generated
programs and their translations.

The (kind, rule, printed state) trace of each run below, and the
``spaceBench`` reports, hash to a pinned sha256.  A change to either
stepper that changes any step or any state, a rule name, a printed term
or a peak size, changes the digest.  A change that is meant to change the
states must say so and pin the new digest.

The printed programs the generator draws, and their printed translations,
hash to a second pinned sha256.  A change to the generator that draws
another program for any seed, or to the translation that changes a
translated program, changes it.

The translations ``simulationCheck`` makes of a run's states, with the
continuation names the run translator mints, hash to a third.  Every name
those states hold is one of their program's.
"""

import hashlib

from coercion_forge import (
    GenConfig,
    genWellTyped,
    lam_s,
    lam_sx,
    simulationCheck,
    spaceBench,
    surface,
    translate,
)
from coercion_forge.types import BOOL, DYN, INT, FunT

# Computed with the stepper that built each state from its parent node on
# every pop, before a value returned to a frame fired its node's rule
# without building it.
DIGEST = "55099332f4f0e3ff18d001da045253f03f5128e7672f495b6da427a687cb2e84"


def _run_lines(mod, dialect: str, p, stride: int) -> list[str]:
    """The trace of ``p``'s run with every ``stride``-th state read and printed."""
    lines = []

    def on_step(n, r):
        if n % stride == 0:
            lines.append(f"{n} {r.kind} {r.rule} {surface.print_term(r.term, dialect)}")
        else:
            lines.append(f"{n} {r.kind} {r.rule}")

    out = mod.evaluate_program(p, 20000, on_step)
    lines.append(f"{out.kind} {out.steps} {surface.print_term(out.term, dialect)}")
    return lines


def trace_digest(programs) -> str:
    h = hashlib.sha256()
    for i, p in enumerate(programs):
        px = translate.trans_program(p)
        # every state read, so each search starts at the parent the read
        # built; then, for the first half, every 7th, so most values
        # return to a frame
        for stride in (1, 7) if 2 * i < len(programs) else (1,):
            for mod, dialect, q in ((lam_s, "lams", p), (lam_sx, "lamsx", px)):
                h.update("\n".join(_run_lines(mod, dialect, q, stride)).encode())
                h.update(b"\n")
    for dialect in ("lams", "lamsx"):
        for n in (0, 1, 10, 1001):
            h.update(spaceBench(n, dialect).to_json().encode() + b"\n")
    return h.hexdigest()


def test_the_traces_and_space_reports_match_the_pinned_digest(corpus):
    assert trace_digest(corpus[:60]) == DIGEST


# Computed with the generator that built its list of weighted productions
# at every node and drew with ``weights=``, and the translation that
# typechecked each program again and read the Tr-rules off ``match`` chains.
GENERATION_DIGEST = "f6de6d1989c1219d513ad790c46582319f2799398340c41903038b0a43754e82"


def generation_digest() -> str:
    """The printed programs of seeds 0-499 at depths 6 and 8, and of seeds
    0-49 at target types ``Dyn``, ``Int -> Bool`` and ``Dyn -> Int``, each
    with its printed translation.

    The target types reach the productions of a function type (``abs`` and
    the function coercion) and leaves at a function type.
    """
    configs = [GenConfig(seed=s, maxDepth=d) for d in (6, 8) for s in range(500)]
    targets = (DYN, FunT(INT, BOOL), FunT(DYN, INT))
    configs += [GenConfig(seed=s, targetType=t) for t in targets for s in range(50)]
    h = hashlib.sha256()
    for config in configs:
        p = genWellTyped(config)
        h.update(surface.print_program(p).encode() + b"\n")
        h.update(surface.print_program(translate.trans_program(p)).encode() + b"\n")
    return h.hexdigest()


def test_the_generated_programs_and_translations_match_the_pinned_digest():
    assert generation_digest() == GENERATION_DIGEST


# Computed with the oracles that dispatched on ``match`` and yielded their
# splits from generators.
ORACLE_DIGEST = "ce0d881c4385e545d00d742fbf7e7de7102f7a1a43d138242b864ad3fe14b263"


def oracle_digest(programs) -> str:
    """Each oracle's splits (path, rule, printed term) of every state of each
    program's run, and of its translation's, every state read."""
    h = hashlib.sha256()
    for p in programs:
        for mod, dialect, q in ((lam_s, "lams", p), (lam_sx, "lamsx", translate.trans_program(p))):
            defs = q.def_terms()
            states = [q.main]
            mod.evaluate_program(q, 300, lambda n, r: states.append(r.term))
            for t in states:
                splits = mod.decompose_oracle(t, defs)
                h.update(f"{len(splits)}\n".encode())
                for d in splits:
                    h.update(f"{d.path} {d.rule} {surface.print_term(d.term, dialect)}\n".encode())
    return h.hexdigest()


def test_the_oracle_splits_match_the_pinned_digest(corpus):
    assert oracle_digest(corpus[:100]) == ORACLE_DIGEST


def simulated_translations(monkeypatch, programs) -> list:
    """(program, state, translation) of every state ``simulationCheck``
    translates on ``programs``, by the run translator it gets from
    ``state_translator``: one per distinct state of a run."""
    calls = []
    make = translate.state_translator

    def recording(p, memo):
        tr = make(p, memo)

        def recorded(state):
            out = tr(state)
            calls.append((p, state, out))
            return out
        return recorded

    monkeypatch.setattr(translate, "state_translator", recording)
    for p in programs:
        assert simulationCheck(p).kind == "agree"
    return calls


# Computed with the run translator that walked each state for its names
# and avoided them too.
STATE_DIGEST = "1900f00e4409bf3354f6572943363517fff8d334122d45019e84718e70018391"


def test_the_run_translations_match_the_pinned_digest(monkeypatch, corpus):
    calls = simulated_translations(monkeypatch, corpus[:200])
    h = hashlib.sha256()
    for _, _, out in calls:
        h.update(surface.print_term(out, "lamsx").encode() + b"\n")
    assert len(calls) == 2969
    assert h.hexdigest() == STATE_DIGEST


def test_every_simulated_state_holds_only_names_of_its_program(monkeypatch, corpus):
    names = {}
    for p, state, _ in simulated_translations(monkeypatch, corpus):
        if p not in names:
            names[p] = translate.def_rename(p)[1]
        assert translate._all_names(state) <= names[p], surface.print_term(state, "lams")
