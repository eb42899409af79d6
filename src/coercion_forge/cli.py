"""Command-line front end for the interpreters, translator, and harness.

Exit codes: 0 value/success, 1 blame, 2 type or parse error, 3 invariant
violation or disagreement, 4 out of fuel, 5 internal error (an unexpected
exception, reported in one line and never as exit 1, which means blame).
Program output goes to stdout, diagnostics to stderr, so golden tests can
diff stdout alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from typing import Optional, Sequence

from . import harness, lam_s, lam_sx, surface, terms, translate
from .surface import ParseError
from .types import TypeCheckError

EXIT_OK = 0
EXIT_BLAME = 1
EXIT_STATIC = 2
EXIT_VIOLATION = 3
EXIT_FUEL = 4
EXIT_INTERNAL = 5

_OUTCOME_EXIT = {
    "value": EXIT_OK,
    "blame": EXIT_BLAME,
    "out_of_fuel": EXIT_FUEL,
    "diverges": EXIT_FUEL,
}


class CliError(Exception):
    """Failure carrying its exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _mod(dialect: str):
    return lam_s if dialect == "lams" else lam_sx


def _fuel(args: argparse.Namespace, fallback: int) -> int:
    if getattr(args, "fuel", None) is not None:
        value, origin = args.fuel, "--fuel"
    elif (raw := os.environ.get("COERCION_FORGE_FUEL")) is not None:
        try:
            value = int(raw)
        except ValueError:
            raise CliError(
                EXIT_STATIC, f"COERCION_FORGE_FUEL must be an integer, got {raw!r}"
            ) from None
        origin = "COERCION_FORGE_FUEL"
    else:
        return fallback
    if value <= 0:
        raise CliError(EXIT_STATIC, f"{origin} must be positive, got {value}")
    return value


def _load(args: argparse.Namespace):
    """Parse the FILE or -e input into (program, dialect)."""
    if args.expr is not None:
        text, dialect, where = args.expr, args.dialect, "<expr>"
    elif args.file is None:
        raise CliError(EXIT_STATIC, "no input given (FILE or -e EXPR)")
    else:
        try:
            dialect = surface.dialect_of_path(args.file)
        except ValueError as e:
            raise CliError(EXIT_STATIC, str(e)) from None
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise CliError(
                EXIT_STATIC, f"cannot read {args.file}: {e.strerror or e}"
            ) from None
        except UnicodeDecodeError as e:
            raise CliError(EXIT_STATIC, f"cannot read {args.file}: {e}") from None
        where = args.file
    try:
        return surface.parse_program(text, dialect), dialect
    except ParseError as e:
        raise CliError(EXIT_STATIC, f"{where}: {e}") from None


def _typecheck(p, dialect: str):
    try:
        return _mod(dialect).typecheck_program(p)
    except TypeCheckError as e:
        raise CliError(EXIT_STATIC, f"type error: {e}") from None


def cmd_check(args: argparse.Namespace) -> int:
    p, dialect = _load(args)
    typed = _typecheck(p, dialect)
    print(surface.print_type(typed.ty))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    p, dialect = _load(args)
    _typecheck(p, dialect)
    mod = _mod(dialect)
    fuel = _fuel(args, terms.DEFAULT_FUEL)

    peaks = harness.PeakSizes(mod, p.main) if args.metrics else None

    def observe(n: int, r) -> None:
        if args.trace:
            print(surface.format_trace_line(n, r.kind, r.rule, r.term, dialect))
        if peaks is not None:
            peaks.see(r)

    if args.trace:
        print(surface.print_term(p.main, dialect))
    try:
        out = mod.evaluate_program(p, fuel, observe)
    except terms.StuckTerm as e:
        raise CliError(EXIT_VIOLATION, f"stuck term (step invariant broken): {e}") from None
    if out.kind == "value" or out.kind == "blame":
        print(surface.print_term(out.term, dialect))
    else:
        print(f"out of fuel after {out.steps} steps", file=sys.stderr)
    if peaks is not None:
        # n=0 marks a direct run; the field is the benchmark parameter otherwise.
        print(peaks.report(0, out.steps, out.kind).to_json())
    return _OUTCOME_EXIT[out.kind]


def cmd_translate(args: argparse.Namespace) -> int:
    p, dialect = _load(args)
    if dialect != "lams":
        raise CliError(EXIT_STATIC, "translate takes a lams program")
    _typecheck(p, "lams")
    px = translate.trans_program(p, optimize_op=args.opt_trop)
    text = surface.print_program(px)
    # The emitted text must re-parse and re-typecheck; failing here is a
    # translator bug, not a user error.
    try:
        lam_sx.typecheck_program(surface.parse_program(text, "lamsx"))
    except (ParseError, TypeCheckError) as e:
        raise CliError(EXIT_VIOLATION, f"translated program failed re-check: {e}") from None
    print(text)
    return EXIT_OK


def cmd_simcheck(args: argparse.Namespace) -> int:
    p, dialect = _load(args)
    if dialect != "lams":
        raise CliError(EXIT_STATIC, "simcheck takes a lams program")
    _typecheck(p, "lams")
    v = harness.simulationCheck(p, max_steps=_fuel(args, 250))
    print(v.to_json())
    return EXIT_OK if v.kind == "agree" else EXIT_VIOLATION


_SEED_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


def cmd_fuzz(args: argparse.Namespace) -> int:
    m = _SEED_RANGE.match(args.seeds)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
    elif args.seeds.isdigit():
        lo = hi = int(args.seeds)
    else:
        raise CliError(EXIT_STATIC, f"--seeds wants A..B or a single seed, got {args.seeds!r}")
    if hi < lo:
        raise CliError(EXIT_STATIC, f"empty seed range {args.seeds!r}")
    fuel = _fuel(args, 10**5)

    agree = disagree = 0
    # (side, first word of its outcome): "out_of_fuel", "diverges", "value" or "blame"
    ended: Counter = Counter()
    for seed in range(lo, hi + 1):
        try:
            p = harness.genWellTyped(harness.GenConfig(seed=seed, maxDepth=args.depth))
        except harness.GenerationExhausted as e:
            print(f"seed {seed}: {e}", file=sys.stderr)
            continue
        v = harness.differentialRun(p, fuel=fuel, seed=seed)
        print(v.to_json())
        if v.kind == "agree":
            agree += 1
        else:
            disagree += 1
        ended["source", v.source.split(" ", 1)[0]] += 1
        ended["target", v.target.split(" ", 1)[0]] += 1
    print(
        f"{agree + disagree} runs: {agree} agree, {disagree} disagree; "
        f"out of fuel: {ended['source', 'out_of_fuel']} source, "
        f"{ended['target', 'out_of_fuel']} target; "
        f"diverged: {ended['source', 'diverges']} source, {ended['target', 'diverges']} target",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if disagree else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    dialect = args.dialect
    on_step = None
    if args.trace:
        p = (
            harness.even_odd_program(args.n)
            if dialect == "lams"
            else harness.even_odd_target(args.n)
        )
        print(surface.print_term(p.main, dialect))

        def on_step(n: int, r) -> None:
            print(surface.format_trace_line(n, r.kind, r.rule, r.term, dialect))

    report = harness.spaceBench(args.n, dialect=dialect, fuel=_fuel(args, 10**7), on_step=on_step)
    if report.outcome == "out_of_fuel":
        print(f"out of fuel after {report.steps} steps", file=sys.stderr)
    print(report.to_json())
    return _OUTCOME_EXIT[report.outcome]


def _nonneg(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return n


def _add_input(sub: argparse.ArgumentParser, dialects: Sequence[str] = ("lams", "lamsx")) -> None:
    sub.add_argument("file", nargs="?", help="program file (.lams or .lamsx)")
    sub.add_argument("-e", dest="expr", metavar="EXPR", help="inline program text instead of FILE")
    sub.add_argument(
        "--dialect",
        choices=dialects,
        default="lams",
        help="dialect for -e input (files use their extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coercion-forge",
        description="Interpreters, coercion-passing translation, and verification "
        "harness for space-efficient coercion calculi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program and print its type")
    _add_input(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate a program to a value or blame")
    _add_input(p_eval)
    p_eval.add_argument("--fuel", type=int, help="step budget (default 10^6)")
    p_eval.add_argument("--trace", action="store_true", help="print every evaluation step")
    p_eval.add_argument(
        "--metrics", action="store_true", help="append a SpaceReport line with peak sizes"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_tr = sub.add_parser("translate", help="translate a lams program to coercion-passing style")
    _add_input(p_tr, dialects=("lams",))
    p_tr.add_argument(
        "--opt-trop",
        action="store_true",
        dest="opt_trop",
        help="drop identity coercions around operator results (breaks step-exact simulation)",
    )
    p_tr.set_defaults(handler=cmd_translate)

    p_sim = sub.add_parser(
        "simcheck", help="check that the translated program simulates the source step by step"
    )
    _add_input(p_sim, dialects=("lams",))
    p_sim.add_argument("--fuel", type=int, help="source steps to follow (default 250)")
    p_sim.set_defaults(handler=cmd_simcheck)

    p_fuzz = sub.add_parser("fuzz", help="differential-test generated programs")
    p_fuzz.add_argument(
        "--seeds", required=True, help="seed range A..B (inclusive) or a single seed"
    )
    p_fuzz.add_argument("--depth", type=_nonneg, default=6, help="generator depth bound")
    p_fuzz.set_defaults(handler=cmd_fuzz)

    p_bench = sub.add_parser("bench", help="run the even/odd space benchmark")
    p_bench.add_argument("target", choices=["evenodd"])
    p_bench.add_argument("n", type=_nonneg)
    p_bench.add_argument("--dialect", choices=["lams", "lamsx"], default="lams")
    p_bench.add_argument(
        "--trace", action="store_true", help="print the initial term and every step before the report"
    )
    p_bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except Exception as e:  # a fault of the program, not of its input
        detail = " ".join(str(e).split())
        print(f"error: internal: {type(e).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
