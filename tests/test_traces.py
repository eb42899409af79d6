"""A golden digest of the machines' steps and states.

The (kind, rule, printed state) trace of each run below, and the
``spaceBench`` reports, hash to a pinned sha256.  A change to either
stepper that changes any step or any state, a rule name, a printed term
or a peak size, changes the digest.  A change that is meant to change the
states must say so and pin the new digest.
"""

import hashlib

from coercion_forge import lam_s, lam_sx, spaceBench, surface, translate

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
