"""Verification harness: program generation, differential runs, simulation
and invariant checking, and the even/odd space benchmark.

Everything here is deterministic: a seed fully fixes a generated program,
and every check reports a replayable witness in surface syntax.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from . import lam_s as S
from . import lam_sx as X
from . import surface, translate
from .coercions import Coercion, Fun, Id, IdStar, InjSeq, ProjSeq, is_canonical
from .terms import IsBlame, IsValue, walk
from .types import BOOL, DYN, INT, Base, Dyn, FunT, Fun2T, Type, is_source_type


class GenerationExhausted(Exception):
    """Raised when no well-typed program fits the requested configuration."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    maxDepth: int = 6
    targetType: Optional[Type] = None
    coercionDensity: float = 0.3
    opWeight: float = 1.0
    appWeight: float = 0.6
    absWeight: float = 0.5


@dataclass(frozen=True)
class Verdict:
    kind: str  # "agree", "disagree", or "invariant-violation"
    detail: str
    source: str = ""
    target: str = ""
    witness: str = ""
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

    It asks for each size by name (``term_size``, ``max_coercion_size``,
    ``metric_f``).  Those are projections of the dialect's ``measure``,
    which keeps its last answer, so each state is still walked once, and
    whatever counts calls of the three size functions (as perfbench's
    ``lam_s.size`` layer does) still sees the size accounting.
    """

    def __init__(self, mod, start) -> None:
        self._mod = mod
        self.term = self.crc = self.metric = 0
        self.see(start)

    def see(self, t) -> None:
        mod = self._mod
        n = mod.term_size(t)
        c = mod.max_coercion_size(t)
        f = mod.metric_f(t)
        if n > self.term:
            self.term = n
        if c > self.crc:
            self.crc = c
        if f > self.metric:
            self.metric = f

    def report(self, n: int, steps: int) -> SpaceReport:
        return SpaceReport(n, steps, self.crc, self.term, self.metric)


# ---------------------------------------------------------------------------
# The even/odd programs


_EVEN_ODD_TEXT = """letrec even (x:Int) : Dyn = if x = 0 then true<Bool!> else odd (x - 1)<Bool!>
and odd (x:Int) : Bool = if x = 0 then false else even (x - 1)<Bool?^p>
in odd {N}"""

_LOOP_TEXT = "letrec loop (x:Int) : Int = loop x\nin 0"


def even_odd_program(n: int) -> S.ProgramS:
    """Mutual recursion through Dyn; ``odd n`` builds coercion chains."""
    return surface.parse_program(_EVEN_ODD_TEXT.replace("{N}", str(n)), "lams")


def even_odd_target(n: int) -> X.ProgramX:
    return translate.trans_program(even_odd_program(n))


# ---------------------------------------------------------------------------
# Deterministic generation of closed well-typed source programs


_LABELS = ("p", "q", "r")
_ARGPOOL = (INT, BOOL, DYN)


def _leaf(rng: random.Random, ty: Type) -> S.TermS:
    match ty:
        case Base("Int"):
            return S.Const(rng.randint(-4, 9))
        case Base("Bool"):
            return S.Const(rng.random() < 0.5)
        case Dyn():
            g = rng.choice((INT, BOOL))
            inner = _leaf(rng, g)
            return S.CrcApp(inner, InjSeq(Id(g), g))
        case FunT(a, b):
            x = f"x{rng.randint(0, 2)}"
            return S.Abs(x, a, _leaf(rng, b))
    raise GenerationExhausted(f"no leaf for target type {ty!r}")


def _to_dyn(a: Type) -> Coercion:
    return IdStar() if a == DYN else InjSeq(Id(a), a)


def _from_dyn(b: Type, lbl: str) -> Coercion:
    return IdStar() if b == DYN else ProjSeq(b, lbl, Id(b))


@dataclass
class _Gen:
    rng: random.Random
    cfg: GenConfig
    defs: dict[str, FunT] = field(default_factory=dict)

    def term(self, ty: Type, env: dict[str, Type], depth: int) -> S.TermS:
        rng = self.rng
        if depth <= 0:
            vs = [x for x, t in env.items() if t == ty]
            if vs and rng.random() < 0.5:
                return S.Var(rng.choice(vs))
            return _leaf(rng, ty)

        weighted: list[tuple[float, str]] = [(1.0, "leaf")]
        vs = [x for x, t in env.items() if t == ty]
        if vs:
            weighted.append((1.2, "var"))
        if isinstance(ty, Base):
            weighted.append((self.cfg.opWeight, "op"))
        weighted.append((0.4, "if"))
        weighted.append((self.cfg.appWeight, "app"))
        if isinstance(ty, FunT):
            weighted.append((2.0 + self.cfg.absWeight, "abs"))
            if ty.arg in _ARGPOOL and ty.res in _ARGPOOL:
                weighted.append((self.cfg.coercionDensity, "funcrc"))
        else:
            weighted.append((self.cfg.coercionDensity * 2.0, "crc"))
        calls = [f for f, ft in self.defs.items() if ft.res == ty]
        if calls:
            weighted.append((1.5, "call"))

        kinds = [k for _, k in weighted]
        weights = [w for w, _ in weighted]
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        d = depth - 1
        match kind:
            case "leaf":
                return _leaf(rng, ty)
            case "var":
                return S.Var(rng.choice(vs))
            case "op":
                if ty == INT:
                    op = rng.choice(("+", "-", "*"))
                    return S.Op(op, self.term(INT, env, d), self.term(INT, env, d))
                op = rng.choice(("=", "<"))
                return S.Op(op, self.term(INT, env, d), self.term(INT, env, d))
            case "if":
                return S.If(
                    self.term(BOOL, env, d), self.term(ty, env, d), self.term(ty, env, d)
                )
            case "app":
                a = rng.choice(_ARGPOOL)
                return S.App(self.term(FunT(a, ty), env, d), self.term(a, env, d))
            case "abs":
                assert isinstance(ty, FunT)
                x = f"x{len(env)}"
                return S.Abs(x, ty.arg, self.term(ty.res, {**env, x: ty.arg}, d))
            case "funcrc":
                assert isinstance(ty, FunT)
                c = Fun(_to_dyn(ty.arg), _from_dyn(ty.res, rng.choice(_LABELS)))
                if c == Fun(IdStar(), IdStar()):
                    return self.term(FunT(DYN, DYN), env, d)
                return S.CrcApp(self.term(FunT(DYN, DYN), env, d), c)
            case "crc":
                if ty == DYN:
                    g = rng.choice((INT, BOOL))
                    return S.CrcApp(self.term(g, env, d), InjSeq(Id(g), g))
                return S.CrcApp(
                    self.term(DYN, env, d), ProjSeq(ty, rng.choice(_LABELS), Id(ty))
                )
            case "call":
                f = rng.choice(calls)
                return S.App(S.GlobalRef(f), self.call_arg(self.defs[f].arg, d))
        raise AssertionError(kind)

    def call_arg(self, ty: Type, depth: int) -> S.TermS:
        # Counting recursion must get small nonnegative inputs, or runs
        # would descend past zero and burn the whole fuel budget.
        rng = self.rng
        if ty == INT:
            r = rng.random()
            if r < 0.6:
                return S.Const(rng.randint(0, 9))
            op = "+" if r < 0.8 else "*"
            return S.Op(op, S.Const(rng.randint(0, 9)), S.Const(rng.randint(0, 9)))
        return self.term(ty, {}, min(depth, 2))


def genWellTyped(config: GenConfig) -> S.ProgramS:
    """Generate a closed, well-typed source program from the seed alone."""
    target = config.targetType
    if target is not None and not is_source_type(target):
        raise GenerationExhausted(f"target type {target!r} is not a source type")
    if config.maxDepth < 0:
        raise GenerationExhausted("maxDepth must be nonnegative")

    rng = random.Random(config.seed)
    roll = rng.random()
    if roll < 0.25:
        base = even_odd_program(0)
        defs = base.defs
    elif roll < 0.31:
        base = surface.parse_program(_LOOP_TEXT, "lams")
        defs = base.defs
    else:
        defs = ()
    if target is None:
        # Default corpus programs observe a base type; dynamic typing still
        # saturates the interiors through the coercion productions.
        target = rng.choice((INT, BOOL))

    gen = _Gen(rng, config, {d.name: d.ty for d in defs})
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
    if out.kind == "out_of_fuel":
        return ("out_of_fuel",)
    mod = S if dialect == "lams" else X
    # the value's Python type is kept, since 1 == True
    if isinstance(term, mod.Const):
        return ("const", type(term.val), term.val)
    if isinstance(term, mod.CoercedVal) and isinstance(term.subject, mod.Const):
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


def differentialRun(
    p: S.ProgramS, fuel: int = 10**5, seed: Optional[int] = None, detect_cycles: bool = True
) -> Verdict:
    """Run a program in both calculi and compare the observable outcomes.

    The target side gets ten times the fuel since its small steps are
    finer.  Fuel exhaustion on either side never counts as disagreement;
    a detected state cycle counts as exhaustion since no fuel would do.
    """
    witness = surface.print_program(p)
    src = S.evaluate_program(p, fuel, detect_cycles=detect_cycles)
    px = translate.trans_program(p)
    tgt = X.evaluate_program(px, fuel * 10, detect_cycles=detect_cycles)
    s_str = _outcome_str(src, "lams")
    t_str = _outcome_str(tgt, "lamsx")

    if src.kind in _FUELISH or tgt.kind in _FUELISH:
        both = src.kind in _FUELISH and tgt.kind in _FUELISH
        detail = "both ran out of fuel" if both else "one side ran out of fuel"
        return Verdict("agree", detail, s_str, t_str, witness, seed)
    if _observe(src, "lams") == _observe(tgt, "lamsx"):
        return Verdict("agree", "same observable outcome", s_str, t_str, witness, seed)
    return Verdict("disagree", "observable outcomes differ", s_str, t_str, witness, seed)


# ---------------------------------------------------------------------------
# Simulation checking


def simulationCheck(
    p: S.ProgramS, max_steps: int = 250, inner_cap: int = 8, seed: Optional[int] = None
) -> Verdict:
    """Check the step-for-step simulation of a source run by its translation.

    Each source e-step must be matched by at most one target e-step plus
    administrative c-steps, and each source c-step by c-steps only, in
    both cases landing on the translation of the next source state.
    """
    witness = surface.print_program(p)
    px = translate.trans_program(p)
    sdefs = p.def_terms()
    xdefs = px.def_terms()

    cur_t = translate.trans_state(p, p.main)
    cur_s = p.main
    for i in range(max_steps):
        r = S.step(cur_s, sdefs)
        if isinstance(r, (IsValue, IsBlame)):
            break
        nxt_s = r.term
        expected = translate.trans_state(p, nxt_s)

        t = cur_t
        e_budget = 1 if r.kind == "e" else 0
        matched = r.kind == "e" and surface.alpha_eq(t, expected)
        used = 0
        while not matched and used < inner_cap:
            rx = X.step(t, xdefs)
            if isinstance(rx, (IsValue, IsBlame)):
                break
            if rx.kind == "e":
                if e_budget == 0:
                    break
                e_budget -= 1
            t = rx.term
            used += 1
            if surface.alpha_eq(t, expected):
                matched = True
        if not matched:
            detail = (
                f"source step {i + 1} ({r.kind} {r.rule}) not simulated within "
                f"{inner_cap} target steps"
            )
            return Verdict(
                "invariant-violation",
                detail,
                surface.print_term(nxt_s, "lams"),
                surface.print_term(t, "lamsx"),
                witness,
                seed,
            )
        cur_s, cur_t = nxt_s, expected
    return Verdict("agree", "simulation held on every checked step", "", "", witness, seed)


# ---------------------------------------------------------------------------
# Invariant suite


def invariantSuite(
    p: S.ProgramS, max_states: int = 300, seed: Optional[int] = None
) -> list[Verdict]:
    """Check per-state invariants along both the source and target runs.

    Covered: type preservation in both calculi, agreement of the stepper
    with the decomposition oracle (which also establishes that redexes
    are unique), closure of canonical coercion forms, and strict descent
    of the termination metric on source c-steps.
    """
    witness = surface.print_program(p)
    violations: list[Verdict] = []

    def bad(detail: str, state_str: str) -> None:
        violations.append(
            Verdict("invariant-violation", detail, state_str, "", witness, seed)
        )

    # source side
    sigs = p.def_types()
    sdefs = p.def_terms()
    try:
        ty0 = S.typecheck_program(p).ty
    except S.TypeCheckError as e:
        return [Verdict("invariant-violation", f"source does not typecheck: {e}", "", "", witness, seed)]
    state = p.main
    prev_metric = S.metric_f(state)
    for _ in range(max_states):
        oracle = S.decompose_oracle(state, sdefs)
        r = S.step(state, sdefs)
        if isinstance(r, (IsValue, IsBlame)):
            if oracle:
                bad("oracle found a redex in a terminal state", surface.print_term(state, "lams"))
            break
        if len(oracle) != 1:
            bad(f"oracle found {len(oracle)} redexes, want exactly 1", surface.print_term(state, "lams"))
        elif oracle[0].rule != r.rule or oracle[0].term != r.term or oracle[0].kind != r.kind:
            bad(
                f"oracle chose {oracle[0].rule}, stepper chose {r.rule}",
                surface.print_term(state, "lams"),
            )
        state = r.term
        try:
            ty = S.typecheck(state, {}, sigs, ty0)
        except S.TypeCheckError as e:
            bad(f"preservation failed after {r.rule}: {e}", surface.print_term(state, "lams"))
            break
        del ty
        for c in [m.crc for m in walk(state) if m.__class__ in (S.CrcApp, S.CoercedVal)]:
            if not is_canonical(c, FunT):
                bad(
                    f"non-canonical coercion {surface.print_coercion(c)} after {r.rule}",
                    surface.print_term(state, "lams"),
                )
        m = S.metric_f(state)
        if r.kind == "c" and not m < prev_metric:
            bad(
                f"metric did not decrease on c-step {r.rule}: {prev_metric} -> {m}",
                surface.print_term(state, "lams"),
            )
        prev_metric = m

    # target side
    px = translate.trans_program(p)
    xsigs = px.def_types()
    xdefs = px.def_terms()
    try:
        xty0 = X.typecheck_program(px).ty
    except X.TypeCheckError as e:
        return violations + [
            Verdict("invariant-violation", f"translation does not typecheck: {e}", "", "", witness, seed)
        ]
    xstate = px.main
    for _ in range(max_states):
        oracle = X.decompose_oracle(xstate, xdefs)
        r = X.step(xstate, xdefs)
        if isinstance(r, (IsValue, IsBlame)):
            if oracle:
                bad("oracle found a redex in a terminal target state", surface.print_term(xstate, "lamsx"))
            break
        if len(oracle) != 1:
            bad(
                f"target oracle found {len(oracle)} redexes, want exactly 1",
                surface.print_term(xstate, "lamsx"),
            )
        elif oracle[0].rule != r.rule or oracle[0].term != r.term or oracle[0].kind != r.kind:
            bad(
                f"target oracle chose {oracle[0].rule}, stepper chose {r.rule}",
                surface.print_term(xstate, "lamsx"),
            )
        xstate = r.term
        try:
            X.typecheck(xstate, {}, xsigs, xty0)
        except X.TypeCheckError as e:
            bad(f"target preservation failed after {r.rule}: {e}", surface.print_term(xstate, "lamsx"))
            break
        for c in [m.crc for m in walk(xstate) if m.__class__ in (X.CrcLit, X.CoercedVal)]:
            if not is_canonical(c, Fun2T):
                bad(
                    f"non-canonical target coercion {surface.print_coercion(c, 'lamsx')} after {r.rule}",
                    surface.print_term(xstate, "lamsx"),
                )
    return violations


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
    to the period still observes the true maxima.
    """
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
            see(r.term)
        if on_step is not None:
            on_step(k, r)

    out = mod.evaluate_program(p, fuel, observe)
    peaks.see(out.term)
    return peaks.report(n, out.steps)
