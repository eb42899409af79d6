"""Verification harness: program generation, differential runs, simulation
and invariant checking, and the even/odd space benchmark.

Everything here is deterministic: a seed fully fixes a generated program,
and every check reports a replayable witness in surface syntax.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from . import lam_s as S
from . import lam_sx as X
from . import surface, translate
from .coercions import Coercion, Fail, Fun, Id, IdStar, InjSeq, ProjSeq, is_canonical
from .terms import Blame, CoercedVal, Const, Stepped, unread, walk, walk_unseen
from .types import BOOL, DYN, INT, Base, Dyn, FunT, Fun2T, Type, is_source_type


class GenerationExhausted(Exception):
    """Raised when no well-typed program fits the requested configuration."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    maxDepth: int = 6
    targetType: Optional[Type] = None


class _Witness:
    """The ``witness`` field of a :class:`Verdict`: the text it was given, or,
    when it was given a program, that program printed when first read.

    Most verdicts agree, and an agreeing verdict's JSON leaves the witness
    out, so the checks pass the program and no one prints it.
    """

    def __get__(self, v, owner=None):
        if v is None:
            return ""  # the field's default
        w = v.__dict__["_witness"]
        if w.__class__ is not str:
            w = v.__dict__["_witness"] = surface.print_program(w)
        return w

    def __set__(self, v, w) -> None:
        v.__dict__["_witness"] = w


@dataclass(frozen=True)
class Verdict:
    kind: str  # "agree", "disagree", or "invariant-violation"
    detail: str
    source: str = ""
    target: str = ""
    witness: str = _Witness()  # or the program, printed when first read
    seed: Optional[int] = None

    def to_json(self) -> str:
        fields = {"kind": self.kind, "detail": self.detail}
        if self.seed is not None:
            fields["seed"] = self.seed
        if self.source:
            fields["source"] = self.source
        if self.target:
            fields["target"] = self.target
        if self.kind != "agree" and self.witness:
            fields["witness"] = self.witness
        return json.dumps(fields)


@dataclass(frozen=True)
class SpaceReport:
    n: int
    steps: int
    maxCoercionSize: int
    maxTermSize: int
    maxMetricF: int
    # how the run ended, as :class:`terms.EvalOutcome` says; not in the JSON
    outcome: str = "value"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "steps": self.steps,
                "maxCoercionSize": self.maxCoercionSize,
                "maxTermSize": self.maxTermSize,
                "maxMetricF": self.maxMetricF,
            }
        )


class PeakSizes:
    """Running maxima of a dialect's three sizes over the states it is shown.

    A state is shown as a term or as the step that left it, and sized by
    the dialect's ``term_size``, ``max_coercion_size`` and ``metric_f``.
    A step keeps its sizes (``measure``), so the three take one walk
    of it, which in ``lam_s`` reads the step's focus and context and plugs
    nothing.
    """

    def __init__(self, mod, start) -> None:
        self._sizes = mod.term_size, mod.max_coercion_size, mod.metric_f
        self.term = self.crc = self.metric = 0
        self.see(start)

    def see(self, s) -> None:
        """Take in the sizes of ``s``, a term or a step.  At stride 1 this
        runs on every state, so it compares in place of ``max``."""
        term_size, max_coercion_size, metric_f = self._sizes
        n = term_size(s)
        if n > self.term:
            self.term = n
        n = max_coercion_size(s)
        if n > self.crc:
            self.crc = n
        n = metric_f(s)
        if n > self.metric:
            self.metric = n

    def report(self, n: int, steps: int, outcome: str) -> SpaceReport:
        return SpaceReport(n, steps, self.crc, self.term, self.metric, outcome)


# ---------------------------------------------------------------------------
# The even/odd programs


_EVEN_ODD_TEXT = """letrec even (x:Int) : Dyn = if x = 0 then true<Bool!> else odd (x - 1)<Bool!>
and odd (x:Int) : Bool = if x = 0 then false else even (x - 1)<Bool?^p>
in odd {N}"""

_LOOP_TEXT = "letrec loop (x:Int) : Int = loop x\nin 0"


@functools.cache
def _base_defs(text: str) -> tuple[S.Def, ...]:
    """The definitions of the program ``text``, parsed on first use and then shared.

    Only the definitions are kept, so the even/odd argument may be any number.
    """
    return surface.parse_program(text.replace("{N}", "0"), "lams").defs


def even_odd_program(n: int) -> S.ProgramS:
    """Mutual recursion through Dyn; ``odd n`` builds coercion chains."""
    return surface.parse_program(_EVEN_ODD_TEXT.replace("{N}", str(n)), "lams")


def even_odd_target(n: int) -> X.ProgramX:
    return translate.trans_program(even_odd_program(n))


# ---------------------------------------------------------------------------
# Deterministic generation of closed well-typed source programs


_LABELS = ("p", "q", "r")
_ARGPOOL = (INT, BOOL, DYN)
# The numbers and names a leaf or a call's argument draws from.  ``choice``
# over n items makes the one ``_randbelow(n)`` draw that ``randint`` makes
# over n numbers, with less work around it.
_LEAF_INTS = range(-4, 10)
_LEAF_VARS = ("x0", "x1", "x2")
_DIGITS = range(10)
# Weights of the generator's productions, next to a leaf's 1.0.
_COERCION_DENSITY = 0.3
_OP_WEIGHT = 1.0
_APP_WEIGHT = 0.6
_ABS_WEIGHT = 0.5


def _leaf(rng: random.Random, ty: Type) -> S.TermS:
    cls = ty.__class__
    if cls is Base:
        if ty.name == "Int":
            return S.Const(rng.choice(_LEAF_INTS))
        if ty.name == "Bool":
            return S.Const(rng.random() < 0.5)
    elif cls is Dyn:
        g = rng.choice((INT, BOOL))
        inner = _leaf(rng, g)
        return S.CrcApp(inner, InjSeq(Id(g), g))
    elif cls is FunT:
        return S.Abs(rng.choice(_LEAF_VARS), ty.arg, _leaf(rng, ty.res))
    raise GenerationExhausted(f"no leaf for target type {ty!r}")


def _to_dyn(a: Type) -> Coercion:
    return IdStar() if a.__class__ is Dyn else InjSeq(Id(a), a)


def _from_dyn(b: Type, lbl: str) -> Coercion:
    return IdStar() if b.__class__ is Dyn else ProjSeq(b, lbl, Id(b))


@functools.cache
def _productions(
    has_var: bool, base: bool, fun: bool, pooled: bool, has_call: bool
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The productions open at a node of one shape, and their cumulative weights.

    The shape says whether a variable of the node's type is in scope,
    whether the type is ``Base`` or ``FunT``, whether both sides of that
    ``FunT`` are in ``_ARGPOOL``, and whether a definition returns the type.
    """
    weighted: list[tuple[float, str]] = [(1.0, "leaf")]
    if has_var:
        weighted.append((1.2, "var"))
    if base:
        weighted.append((_OP_WEIGHT, "op"))
    weighted.append((0.4, "if"))
    weighted.append((_APP_WEIGHT, "app"))
    if fun:
        weighted.append((2.0 + _ABS_WEIGHT, "abs"))
        if pooled:
            weighted.append((_COERCION_DENSITY, "funcrc"))
    else:
        weighted.append((_COERCION_DENSITY * 2.0, "crc"))
    if has_call:
        weighted.append((1.5, "call"))
    return tuple(k for _, k in weighted), tuple(itertools.accumulate(w for w, _ in weighted))


@dataclass
class _Gen:
    rng: random.Random
    defs: dict[str, FunT] = field(default_factory=dict)

    def term(self, ty: Type, env: dict[str, Type], depth: int) -> S.TermS:
        rng = self.rng
        # most nodes lie under no binder, and most programs have no definitions
        vs = [x for x, t in env.items() if t == ty] if env else ()
        if depth <= 0:
            if vs and rng.random() < 0.5:
                return S.Var(rng.choice(vs))
            return _leaf(rng, ty)

        cls = ty.__class__
        fun = cls is FunT
        calls = [f for f, ft in self.defs.items() if ft.res == ty] if self.defs else ()
        kinds, cum_weights = _productions(
            bool(vs),
            cls is Base,
            fun,
            fun and ty.arg in _ARGPOOL and ty.res in _ARGPOOL,
            bool(calls),
        )
        # the draw ``Random.choices`` makes with these ``cum_weights``: one
        # random() call scaled by the total weight and one bisect, without
        # its checks and its list, so each seed draws the program it always drew
        kind = kinds[bisect_right(cum_weights, rng.random() * cum_weights[-1], 0, len(kinds) - 1)]
        d = depth - 1
        if kind == "leaf":
            return _leaf(rng, ty)
        if kind == "var":
            return S.Var(rng.choice(vs))
        if kind == "op":
            if ty.name == "Int":
                op = rng.choice(("+", "-", "*"))
                return S.Op(op, self.term(INT, env, d), self.term(INT, env, d))
            op = rng.choice(("=", "<"))
            return S.Op(op, self.term(INT, env, d), self.term(INT, env, d))
        if kind == "if":
            return S.If(self.term(BOOL, env, d), self.term(ty, env, d), self.term(ty, env, d))
        if kind == "app":
            a = rng.choice(_ARGPOOL)
            return S.App(self.term(FunT(a, ty), env, d), self.term(a, env, d))
        if kind == "abs":
            x = f"x{len(env)}"
            return S.Abs(x, ty.arg, self.term(ty.res, {**env, x: ty.arg}, d))
        if kind == "funcrc":
            c = Fun(_to_dyn(ty.arg), _from_dyn(ty.res, rng.choice(_LABELS)))
            if c == Fun(IdStar(), IdStar()):
                return self.term(FunT(DYN, DYN), env, d)
            return S.CrcApp(self.term(FunT(DYN, DYN), env, d), c)
        if kind == "crc":
            if cls is Dyn:
                g = rng.choice((INT, BOOL))
                return S.CrcApp(self.term(g, env, d), InjSeq(Id(g), g))
            return S.CrcApp(self.term(DYN, env, d), ProjSeq(ty, rng.choice(_LABELS), Id(ty)))
        if kind == "call":
            f = rng.choice(calls)
            return S.App(S.GlobalRef(f), self.call_arg(self.defs[f].arg, d))
        raise AssertionError(kind)

    def call_arg(self, ty: Type, depth: int) -> S.TermS:
        # Counting recursion must get small nonnegative inputs, or runs
        # would descend past zero and burn the whole fuel budget.
        rng = self.rng
        if ty.__class__ is Base and ty.name == "Int":
            r = rng.random()
            if r < 0.6:
                return S.Const(rng.choice(_DIGITS))
            op = "+" if r < 0.8 else "*"
            return S.Op(op, S.Const(rng.choice(_DIGITS)), S.Const(rng.choice(_DIGITS)))
        return self.term(ty, {}, min(depth, 2))


def genWellTyped(config: GenConfig) -> S.ProgramS:
    """Generate a closed, well-typed source program from the seed alone.

    Each node draws its production from the table of its shape (see
    :func:`_productions`).  The program is typechecked before it is
    returned, and its record (:func:`lam_s.check_program`) keeps the
    derivations, so translating it next checks nothing again.
    """
    target = config.targetType
    if target is not None and not is_source_type(target):
        raise GenerationExhausted(f"target type {target!r} is not a source type")
    if config.maxDepth < 0:
        raise GenerationExhausted("maxDepth must be nonnegative")

    rng = random.Random(config.seed)
    roll = rng.random()
    if roll < 0.25:
        defs = _base_defs(_EVEN_ODD_TEXT)
    elif roll < 0.31:
        defs = _base_defs(_LOOP_TEXT)
    else:
        defs = ()
    if target is None:
        # Default corpus programs observe a base type; dynamic typing still
        # saturates the interiors through the coercion productions.
        target = rng.choice((INT, BOOL))

    gen = _Gen(rng, {d.name: d.ty for d in defs})
    for _ in range(5):
        main = gen.term(target, {}, config.maxDepth)
        p = S.ProgramS(defs, main)
        try:
            S.typecheck_program(p)
        except S.TypeCheckError:
            continue
        return p
    raise GenerationExhausted(f"no candidate typechecked for seed {config.seed}")


# ---------------------------------------------------------------------------
# Differential running


def _observe(out, dialect: str):
    term = out.term
    if out.kind == "blame":
        return ("blame", term.label)
    # the value's Python type is kept, since 1 == True
    if isinstance(term, Const):
        return ("const", type(term.val), term.val)
    if isinstance(term, CoercedVal) and isinstance(term.subject, Const):
        d = term.crc if dialect == "lamsx" else translate.psi_crc(term.crc)
        v = term.subject.val
        return ("const", type(v), v, surface.print_coercion(d, "lamsx"))
    return ("closure",)


def _outcome_str(out, dialect: str) -> str:
    if out.kind == "out_of_fuel":
        return f"out_of_fuel after {out.steps} steps"
    if out.kind == "diverges":
        return f"diverges (state cycle within {out.steps} steps)"
    if out.kind == "blame":
        return f"blame {out.term.label}"
    return f"value {surface.print_term(out.term, dialect)}"


_FUELISH = ("out_of_fuel", "diverges")
_INNER_CAP = 8  # target steps allowed to simulate one source step


def differentialRun(p: S.ProgramS, fuel: int = 10**5, seed: Optional[int] = None) -> Verdict:
    """Run a program in both calculi and compare the observable outcomes.

    The target side gets ten times the fuel since its small steps are
    finer.  Fuel exhaustion on either side never counts as disagreement;
    a detected state cycle counts as exhaustion since no fuel would do.
    An ill-typed source gets :func:`simulationCheck`'s verdict, and neither side runs.
    """
    try:
        S.typecheck_program(p)
    except S.TypeCheckError as e:
        return Verdict("invariant-violation", f"source does not typecheck: {e}", "", "", p, seed)
    src = S.evaluate_program(p, fuel, detect_cycles=True)
    px = translate.trans_program(p)
    tgt = X.evaluate_program(px, fuel * 10, detect_cycles=True)
    s_str = _outcome_str(src, "lams")
    t_str = _outcome_str(tgt, "lamsx")

    if src.kind in _FUELISH or tgt.kind in _FUELISH:
        both = src.kind in _FUELISH and tgt.kind in _FUELISH
        detail = "both ran out of fuel" if both else "one side ran out of fuel"
        return Verdict("agree", detail, s_str, t_str, p, seed)
    if _observe(src, "lams") == _observe(tgt, "lamsx"):
        return Verdict("agree", "same observable outcome", s_str, t_str, p, seed)
    return Verdict("disagree", "observable outcomes differ", s_str, t_str, p, seed)


# ---------------------------------------------------------------------------
# Simulation checking


def _run(mod, start, defs):
    """The results of ``mod.step`` along the run from ``start``, up to the
    terminal one, each step taken only when the caller asks for it.

    Each step is given the step before, as :func:`terms.evaluate` gives
    it, so the checks run the steppers the way every run does: by turns
    read, as an observer of every state leaves it, and unread
    (:func:`terms.unread`, made before the caller reads the step), as a
    run with no observer leaves it.
    """
    at = start
    for i in itertools.count():
        r = mod.step(at, defs)
        if r.__class__ is not Stepped:
            yield r
            return
        at = unread(r) if i % 2 else r
        yield r


def simulationCheck(p: S.ProgramS, max_steps: int = 250, seed: Optional[int] = None) -> Verdict:
    """Check the step-for-step simulation of a source run by its translation.

    The source and its translation each run once (:func:`_run`), and the
    target goes on from the step that matched.  Each source e-step must be
    matched by at most one target e-step plus administrative c-steps, and
    each source c-step by c-steps only, both landing on the translation of
    the next source state.  A source, or a source state, that does not
    typecheck has no translation to land on, and is reported as such.

    Each distinct source state is translated once per call, by the run's
    translator (:func:`translate.state_translator`): a state the run comes
    back to, as a diverging run does, reuses its translation.  The run's
    typing memo starts as a copy of the program's (:func:`lam_s.run_memo`),
    and :func:`invariantSuite` on the same program takes the typing and
    the translation that its record (:func:`lam_s.check_program`) kept.
    """
    try:
        # consecutive states share most of their nodes, and the first shares
        # all but its root with the program: their typings are reused
        memo = S.run_memo(p)
        px = translate.trans_program(p)
    except S.TypeCheckError as e:
        return Verdict("invariant-violation", f"source does not typecheck: {e}", "", "", p, seed)
    translated = functools.cache(translate.state_translator(p, memo))

    t = translated(p.main)
    target_run = _run(X, t, px.def_terms())
    for i, r in enumerate(itertools.islice(_run(S, p.main, p.def_terms()), max_steps)):
        if r.__class__ is not Stepped:
            break
        nxt_s = r.term
        try:
            expected = translated(nxt_s)
        except S.TypeCheckError as e:
            detail = f"source preservation failed after {r.rule}: {e}"
            source = surface.print_term(nxt_s, "lams")
            return Verdict("invariant-violation", detail, source, "", p, seed)
        e_budget = 1 if r.kind == "e" else 0
        matched = r.kind == "e" and surface.alpha_eq(t, expected)
        used = 0
        while not matched and used < _INNER_CAP:
            rx = next(target_run)
            if rx.__class__ is not Stepped:
                break
            if rx.kind == "e":
                if e_budget == 0:  # the check fails here, so no later step needs rx
                    break
                e_budget -= 1
            t = rx.term
            used += 1
            matched = surface.alpha_eq(t, expected)
        if not matched:
            detail = (
                f"source step {i + 1} ({r.kind} {r.rule}) not simulated within "
                f"{_INNER_CAP} target steps"
            )
            source, target = surface.print_term(nxt_s, "lams"), surface.print_term(t, "lamsx")
            return Verdict("invariant-violation", detail, source, target, p, seed)
    return Verdict("agree", "simulation held on every checked step", "", "", p, seed)


# ---------------------------------------------------------------------------
# Invariant suite


def invariantSuite(
    p: S.ProgramS, max_states: int = 300, seed: Optional[int] = None
) -> list[Verdict]:
    """Check per-state invariants along both the source and target runs.

    Covered: type preservation in both calculi, agreement of the stepper
    with the decomposition oracle (which also establishes that redexes
    are unique), closure of canonical coercion forms, provenance of blame
    labels, and strict descent of the termination metric on source
    c-steps.

    Every blame label of a state, on a ``Blame`` node or in a coercion,
    must be one that ``p``, its main term or its definitions, holds:
    blame comes from a projection or a failure of the program, and
    composition and the translation only move labels.

    The checks of a state (typing, the coercion scan, the metric and the
    oracle's splits) depend on the state alone, so each distinct state's
    are made once per run and replayed, in the same order, whenever the
    run comes back to it.  The step itself, its comparison with the
    oracle's split and the metric's descent run at every step.
    """
    violations: list[Verdict] = []

    def bad(detail: str, state_str: str) -> None:
        violations.append(
            Verdict("invariant-violation", detail, state_str, "", p, seed)
        )

    carriers = (S.CrcApp, CoercedVal)
    held = set()
    for t in (p.main, *[d.fun for d in p.defs]):
        for m in walk(t):
            if m.__class__ in carriers:
                held |= _crc_labels(m.crc)
            elif m.__class__ is Blame:
                held.add(m.label)
    try:
        ty = S.typecheck_program(p).ty
    except S.TypeCheckError as e:
        bad(f"source does not typecheck: {e}", "")
        return violations
    _check_run(S, "lams", FunT, carriers, p, ty, max_states, held, bad)
    # the translation, of type Ψ(A), keeps nothing: its run checks it once
    px, ty = translate.trans_program(p), translate.psi_type(ty)
    err = _check_run(X, "lamsx", Fun2T, (X.CrcLit, CoercedVal), px, ty, max_states, held, bad)
    if err is not None:
        bad(f"translation does not typecheck: {err}", "")
    return violations


def _crc_labels(c: Coercion) -> set[str]:
    """The blame labels of ``c``: those of its projections and failures."""
    cls = c.__class__
    if cls is ProjSeq:
        return {c.label} | _crc_labels(c.body)
    if cls is Fail:
        return {c.label}
    if cls is InjSeq:
        return _crc_labels(c.body)
    if cls is Fun:
        return _crc_labels(c.arg) | _crc_labels(c.res)
    return set()


def _check_run(
    mod, dialect: str, fun_t: type, carriers: tuple, p, ty0, max_states: int, held: set, bad
) -> Optional[str]:
    """Check ``p``'s run in one calculus, whose function type is ``fun_t``
    and whose ``carriers`` hold a coercion in ``crc``; each violation goes
    to ``bad``.  Returns the type error if ``p`` does not typecheck, or
    its main term not at ``ty0``, the type each state is checked at.

    The label of each ``Blame`` node and of each coercion a carrier holds
    must be in ``held``, the labels of the source program; it is checked
    where the canonical scan meets the node.

    The run is stepped by :func:`_run`, as each side of
    :func:`simulationCheck` is, so both checks follow the same searches.
    Its typing memo is ``mod.run_memo``'s.
    """
    side = "" if dialect == "lams" else "target "
    sigs = p.def_types()
    defs = p.def_terms()
    try:
        # consecutive states share most of their nodes, and the first shares
        # all but its root with the program: their typings are reused
        memo = mod.run_memo(p)
    except mod.TypeCheckError as e:
        return str(e)

    def report(detail: str) -> None:
        bad(detail, surface.print_term(state, dialect))

    # id -> node, for the nodes of earlier states whose scan reported
    # nothing; the subtree of each is canonical and holds only the
    # program's labels, so a scan that skips it finds what a full one would
    canonical: dict = {}
    # the metric bounds the composition steps of the source calculus only
    check_metric = dialect == "lams"
    # (type error, what the scan of the new nodes found, oracle splits,
    # metric): what the checks of a state found, worked out at its first
    # visit and replayed at every later one, so a diverging run checks each
    # state of its cycle once
    @functools.cache
    def check(t) -> tuple:
        try:
            mod.typecheck(t, {}, sigs, ty0, memo)
        except mod.TypeCheckError as e:
            return (str(e), (), None, None)
        new = walk_unseen(t, canonical)
        found = []
        for m in new:
            cls = m.__class__
            if cls in carriers:
                if not is_canonical(m.crc, fun_t):
                    crc = surface.print_coercion(m.crc, dialect)
                    found.append(f"non-canonical {side}coercion {crc}")
                labels = sorted(_crc_labels(m.crc) - held)
            elif cls is Blame:
                labels = () if m.label in held else (m.label,)
            else:
                continue
            for label in labels:
                found.append(f"{side}blame label {label} is not in the program")
        if not found:
            canonical.update([(id(m), m) for m in new])
        metric = mod.metric_f(t) if check_metric else None
        return (None, found, mod.decompose_oracle(t, defs), metric)

    state = p.main
    # what the scan finds in the start state is not reported there, only
    # stored for a run that comes back to it
    err, _, oracle, prev_metric = check(state)
    if err is not None:
        return err
    for r in itertools.islice(_run(mod, state, defs), max_states):
        if r.__class__ is not Stepped:
            if oracle:
                report(f"oracle found a redex in a terminal {side}state")
            break
        if len(oracle) != 1:
            report(f"{side}oracle found {len(oracle)} redexes, want exactly 1")
        elif oracle[0].rule != r.rule or oracle[0].term != r.term:
            report(f"{side}oracle chose {oracle[0].rule}, stepper chose {r.rule}")
        state = r.term
        err, found, oracle, m = check(state)
        if err is not None:
            report(f"{side}preservation failed after {r.rule}: {err}")
            break
        for detail in found:
            report(f"{detail} after {r.rule}")
        if check_metric:
            if r.kind == "c" and not m < prev_metric:
                report(f"metric did not decrease on c-step {r.rule}: {prev_metric} -> {m}")
            prev_metric = m
    return None


# ---------------------------------------------------------------------------
# Space benchmark


def spaceBench(
    n: int,
    dialect: str = "lams",
    fuel: int = 10**7,
    sample_stride: Optional[int] = None,
    on_step=None,
) -> SpaceReport:
    """Evaluate ``odd n`` (or its translation) and report peak sizes.

    For large runs the sizes are sampled every ``sample_stride`` steps;
    the benchmark states cycle with a short period, so a stride coprime
    to the period still observes the true maxima.  At stride 1 the size
    accounting runs on every state, so it is kept cheap: :class:`PeakSizes`
    walks each observed state once, from the step's focus and context
    without plugging them in ``lams``, and each coercion keeps its size
    (:func:`coercions.size`), so the coercions a state carries on from the
    one before are not walked again.
    """
    if n < 0:
        raise ValueError(f"n must be at least 0, got {n}")
    if sample_stride is not None and sample_stride < 1:
        raise ValueError(f"sample_stride must be at least 1, got {sample_stride}")
    if dialect == "lams":
        mod = S
        p = even_odd_program(n)
    elif dialect == "lamsx":
        mod = X
        p = even_odd_target(n)
    else:
        raise ValueError(f"unknown dialect {dialect!r}")

    stride = sample_stride if sample_stride is not None else (1 if n <= 1000 else 53)
    peaks = PeakSizes(mod, p.main)
    see = peaks.see

    def observe(k: int, r) -> None:
        if k % stride == 0:
            see(r)
        if on_step is not None:
            on_step(k, r)

    out = mod.evaluate_program(p, fuel, observe)
    peaks.see(out.term)
    return peaks.report(n, out.steps, out.kind)
