"""The benchmark's workloads and the loops that measure them.

Each workload calls coercion-forge's public functions, checks every result
it gets, and is measured in passes: a pass is one unit of its work, and the
run repeats passes until its time is up and reports medians over them.
"""

from __future__ import annotations

import importlib
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from . import tracing
from .meter import Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so that one slow import or a
# cold file cache does not decide the figure.
SETUP_REPEATS = 5

# Criterion 1 pins the peaks of ``odd 4``; space efficiency keeps them the
# same for every n.  Step counts are a * n + b.
EVENODD_PEAKS = {"lams": (2, 22, 30), "lamsx": (2, 32, 18)}
EVENODD_STEPS = {"lams": (6, 4), "lamsx": (9, 6)}

E2E_UNITS = {
    "setup_s": "s",
    "lams_step_us": "us",
    "lamsx_step_us": "us",
    "programs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_SUFFIXES = (".calls", ".steps_e", ".steps_c")


class ProgramMissing(Exception):
    """coercion_forge cannot be imported from the checkout's ``src``."""


def import_program():
    """Import coercion_forge afresh from ``src``, so that set-up pays for the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == tracing.PACKAGE or k.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    try:
        cf = importlib.import_module(tracing.PACKAGE)
    except ImportError as e:
        raise ProgramMissing(f"cannot import {tracing.PACKAGE} from {SRC}: {e}") from e
    if Path(cf.__file__).resolve().parent != SRC / tracing.PACKAGE:
        raise ProgramMissing(f"{tracing.PACKAGE} was imported from {cf.__file__}, not from {SRC}")
    return cf


class Checks:
    """Counts of correctness checks; a check that raises counts as failed."""

    KEPT = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, what: str, fn, problem) -> None:
        """Call ``fn`` and check its result; ``problem(result)`` says what is wrong, or is None."""
        try:
            result = fn()
        except Exception as e:  # the benchmark records the failure and goes on
            self.record(what, f"{type(e).__name__}: {e}")
            return
        self.record(what, problem(result))

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < self.KEPT:
                self.failures.append(f"{what}: {problem}")


def _no_mark() -> None:
    pass


# Each workload names the function of both dialects whose calls give its
# per-step figures, and how to count the steps a call took.


def _outcome_steps(outcome) -> int:
    return outcome.steps


def _stepped(result) -> int:
    return 1 if hasattr(result, "kind") else 0


# ---------------------------------------------------------------------------
# Workloads


class EvenOdd:
    """Criterion 4's traffic: ``odd n`` under ``spaceBench`` in both dialects.

    Dominated by stepping, composition, substitution and, in ``lams`` at
    stride 1, the size walks.  The program is fixed, so the seed does not
    change it.  n stays above 1000 so that ``lamsx`` runs at its default
    stride of 53, as in criterion 4.
    """

    name = "evenodd"
    clocked = ("evaluate_program", _outcome_steps)

    def __init__(self, n: int = 2000):
        self.n = n

    def prepare(self, cf, seed: int):
        # spaceBench parses and translates the program itself; set-up times
        # the same front-end work once.
        return cf.harness.even_odd_program(self.n), cf.harness.even_odd_target(self.n)

    def run_pass(self, cf, inputs, index: int, checks: Checks, mark=_no_mark) -> int:
        mark()
        for dialect, kwargs in (("lams", {"sample_stride": 1}), ("lamsx", {})):
            checks.run(
                f"evenodd n={self.n} {dialect}",
                lambda: cf.harness.spaceBench(self.n, dialect, **kwargs),
                lambda r: self._problem(dialect, r),
            )
        return 2

    def _problem(self, dialect: str, report):
        a, b = EVENODD_STEPS[dialect]
        peaks = (report.maxCoercionSize, report.maxTermSize, report.maxMetricF)
        if report.steps != a * self.n + b:
            return f"{report.steps} steps, want {a * self.n + b}"
        if peaks != EVENODD_PEAKS[dialect]:
            return f"peaks {peaks}, want {EVENODD_PEAKS[dialect]}"
        return None


class Fuzz:
    """Criterion 5 and ``coercion-forge fuzz``: generate, then run differentially.

    Many short programs, so the front end carries much of the work.  Pass
    k covers the ``batch`` generator seeds after ``seed * 10**6 + k * batch``.
    """

    name = "fuzz"
    clocked = ("evaluate_program", _outcome_steps)

    def __init__(self, batch: int = 500):
        self.batch = batch

    def prepare(self, cf, seed: int):
        return seed * 10**6

    def run_pass(self, cf, first: int, index: int, checks: Checks, mark=_no_mark) -> int:
        h = cf.harness
        start = first + index * self.batch
        for s in range(start, start + self.batch):
            mark()
            checks.run(
                f"fuzz seed {s}",
                lambda: h.differentialRun(h.genWellTyped(h.GenConfig(seed=s, maxDepth=8)), fuel=10**5, seed=s),
                lambda v: None if v.kind == "agree" else v.to_json(),
            )
        return self.batch


class Verify:
    """Criteria 6 and 7: ``simulationCheck`` then ``invariantSuite`` per program.

    Typecheck on every intermediate state dominates; stepping is a small
    share.  The corpus is fixed, generator seeds 0 .. corpus-1 at depth 8,
    which is the head of the corpus criteria 6 and 7 check: the cost of a
    program is so skewed that corpora drawn per seed differ by far more
    than any usable bound.  The seed sets the order the programs are checked in.
    """

    name = "verify"
    clocked = ("step", _stepped)

    def __init__(self, corpus: int = 80):
        self.corpus = corpus

    def prepare(self, cf, seed: int):
        h = cf.harness
        programs = [(s, h.genWellTyped(h.GenConfig(seed=s, maxDepth=8))) for s in range(self.corpus)]
        random.Random(seed).shuffle(programs)
        return programs

    def run_pass(self, cf, programs, index: int, checks: Checks, mark=_no_mark) -> int:
        h = cf.harness
        for s, p in programs:
            mark()
            checks.run(
                f"simulationCheck seed {s}",
                lambda: h.simulationCheck(p, seed=s),
                lambda v: None if v.kind == "agree" else v.to_json(),
            )
            checks.run(
                f"invariantSuite seed {s}",
                lambda: h.invariantSuite(p, seed=s),
                lambda vs: "; ".join(v.to_json() for v in vs) or None,
            )
        return len(programs)


WORKLOADS = {w.name: w for w in (EvenOdd, Fuzz, Verify)}


# ---------------------------------------------------------------------------
# Measuring


def setup(workload, seed: int):
    """Import and prepare the inputs ``SETUP_REPEATS`` times; the last is used.

    Returns the program, its inputs, and the median set-up time at the
    reference speed and as measured.
    """
    meter = Meter()
    times = []
    for _ in range(SETUP_REPEATS):
        meter.begin_pass()
        cf = import_program()
        inputs = workload.prepare(cf, seed)
        times.append(meter.end_pass())
    return (
        cf,
        inputs,
        statistics.median(t["wall"] for t in times),
        statistics.median(t["raw_wall"] for t in times),
    )


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for about ``seconds`` and return its result record."""
    cf, inputs, setup_s, setup_raw = setup(workload, seed)
    checks = Checks()
    record = {"workload": workload.name, "seed": seed, "trace": int(trace), **environment()}
    if trace:
        metrics, extra = _traced(workload, cf, inputs, seconds, checks)
    else:
        metrics, extra = _untraced(workload, cf, inputs, seconds, checks)
        metrics = {"setup_s": setup_s, **metrics, "peak_rss_mb": _peak_rss_mb()}
        extra["raw"]["setup_s"] = setup_raw
    record.update(extra)
    record.update(
        correct=checks.failed == 0,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        metrics=metrics,
    )
    return record


def _untraced(workload, cf, inputs, seconds: float, checks: Checks):
    meter = Meter()
    name, steps_of = workload.clocked
    undo = []
    for metric, mod in (("lams_step_us", cf.lam_s), ("lamsx_step_us", cf.lam_sx)):
        fn = getattr(mod, name, None)
        if fn is not None:
            undo += tracing.rebind(fn, meter.timed(metric, fn, steps_of))
    passes = []
    deadline = perf_counter() + seconds
    try:
        while True:
            meter.begin_pass()
            programs = workload.run_pass(cf, inputs, len(passes), checks)
            passes.append({"programs": programs, **meter.end_pass()})
            if perf_counter() >= deadline:
                break
    finally:
        tracing.restore(undo)

    metrics, raw = {}, {}
    for metric in ("lams_step_us", "lamsx_step_us"):
        timed = [p["timed"][metric] for p in passes if p["timed"].get(metric, (0, 0, 0))[2]]
        if timed:
            metrics[metric] = statistics.median(t[0] / t[2] * 1e6 for t in timed)
            raw[metric] = statistics.median(t[1] / t[2] * 1e6 for t in timed)
    metrics["programs_per_s"] = statistics.median(p["programs"] / p["wall"] for p in passes)
    raw["programs_per_s"] = statistics.median(p["programs"] / p["raw_wall"] for p in passes)
    slowness = sum(p["raw_wall"] for p in passes) / sum(p["wall"] for p in passes)
    return metrics, {"passes": len(passes), "slowness": slowness, "raw": raw, "samples": passes}


def _traced(workload, cf, inputs, seconds: float, checks: Checks):
    """Alternate untraced and traced runs of pass 0 until the time is up."""
    tracer = tracing.Tracer(cf)
    plain, traced, passes = [], [], []
    spans = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        workload.run_pass(cf, inputs, 0, checks)
        plain.append(perf_counter() - t0)

        tracer.begin_pass()
        tracer.install()
        try:
            t0 = perf_counter()
            workload.run_pass(cf, inputs, 0, checks, tracer.begin_program)
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        traced.append(wall)
        passes.append(tracer.pass_metrics(wall))
        if not spans:
            spans = list(tracer.span_records())
        if perf_counter() >= deadline:
            break

    first = passes[0]
    metrics = {}
    for name, value in first.items():
        if _is_exact(name):
            values = [p[name] for p in passes]
            checks.record(f"traced {name}", None if len(set(values)) == 1 else f"differs between passes: {values}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"passes": len(passes), "absent": tracer.absent, "spans": spans}


def _is_exact(name: str) -> bool:
    """Whether the traced metric is a count, or a ratio of counts, that must repeat."""
    return name.endswith(COUNT_SUFFIXES) or name in ("harness.decided_ratio", "harness.sim_target_per_source")


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".us"):
        return "us"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
