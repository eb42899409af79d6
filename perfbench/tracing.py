"""Tracing from outside the program.

The program has no spans of its own, so the benchmark replaces each public
function of the traced modules, at every name its callers look up (``lam_s``
calls ``compose`` through ``lam_s.compose``), by a wrapper that records a
span.  A recursive function is timed and counted at its outermost call only;
inner calls go straight to the original.  Everything is undone afterwards.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

PACKAGE = "coercion_forge"
MODULES = ("lam_s", "lam_sx", "coercions", "translate", "surface", "harness")

# Each layer metric sums the outermost calls into these functions.  A layer
# whose functions are not all present is reported absent.
LAYERS = {
    "lam_s.step": ("lam_s.step",),
    "lam_sx.step": ("lam_sx.step",),
    "lam_s.size": ("lam_s.term_size", "lam_s.max_coercion_size", "lam_s.metric_f"),
    "lam_sx.size": ("lam_sx.term_size", "lam_sx.max_coercion_size", "lam_sx.metric_f"),
    "coercions.compose": ("coercions.compose",),
    "lam_s.substitute": ("lam_s.substitute",),
    "lam_sx.substitute": ("lam_sx.substitute",),
    "lam_s.typecheck": ("lam_s.typecheck", "lam_s.typecheck_program"),
    "lam_sx.typecheck": ("lam_sx.typecheck", "lam_sx.typecheck_program"),
    "lam_s.oracle": ("lam_s.decompose_oracle",),
    "lam_sx.oracle": ("lam_sx.decompose_oracle",),
    "surface.alpha_eq": ("surface.alpha_eq", "surface.alpha_eq_program"),
    "translate.trans_state": ("translate.trans_state",),
    "translate.trans_program": ("translate.trans_program",),
    "surface.parse": (
        "surface.parse_term",
        "surface.parse_coercion",
        "surface.parse_type",
        "surface.parse_program",
    ),
    "surface.print": (
        "surface.print_type",
        "surface.print_coercion",
        "surface.print_term",
        "surface.print_program",
    ),
    "harness.gen": ("harness.genWellTyped",),
}

# The stepper of each dialect, whose results give the e/c step counts.
STEPPERS = {"lam_s": "lam_s.step", "lam_sx": "lam_sx.step"}
SIMULATION = "harness.simulationCheck"

# The first spans of a traced pass are kept for writing out; the metrics
# are accumulated online and do not depend on this cap.
SPAN_CAP = 50_000


def package_modules() -> list[types.ModuleType]:
    return [
        m
        for k, m in list(sys.modules.items())
        if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
    ]


def rebind(original, replacement) -> list[tuple[dict, str, object]]:
    """Point every package-level name bound to ``original`` at ``replacement``.

    Returns the undo list for :func:`restore`.
    """
    undo = []
    for mod in package_modules():
        names = vars(mod)
        for name, value in list(names.items()):
            if value is original:
                names[name] = replacement
                undo.append((names, name, original))
    return undo


def restore(undo: list[tuple[dict, str, object]]) -> None:
    for names, name, value in reversed(undo):
        names[name] = value


def public_functions(cf: types.ModuleType) -> dict[str, types.FunctionType]:
    """``module.name`` -> function, for the public functions each traced module defines."""
    out = {}
    for short in MODULES:
        mod = getattr(cf, short)
        for name, value in vars(mod).items():
            if (
                not name.startswith("_")
                and isinstance(value, types.FunctionType)
                and value.__module__ == mod.__name__
            ):
                out[f"{short}.{name}"] = value
    return out


class Tracer:
    """Spans and per-layer counters for the public functions of the traced modules.

    ``install`` and ``uninstall`` bracket one traced pass; ``begin_pass``
    clears the counters, ``begin_program`` marks where the next checked
    program starts, and ``pass_metrics`` reads the counters of the pass.
    """

    def __init__(self, cf: types.ModuleType):
        funcs = public_functions(cf)
        self.names = list(funcs)
        self._originals = list(funcs.values())
        index = {q: i for i, q in enumerate(self.names)}
        self.absent = sorted(
            layer for layer, members in LAYERS.items() if any(q not in index for q in members)
        )
        self.layers = [layer for layer in LAYERS if layer not in self.absent]
        self._layers_of = [[] for _ in self.names]
        for g, layer in enumerate(self.layers):
            for q in LAYERS[layer]:
                self._layers_of[index[q]].append(g)
        self.modules = sorted({q.split(".")[0] for q in self.names})
        self._module_of = [self.modules.index(q.split(".")[0]) for q in self.names]
        self._stepper = {index[q]: d for d, q in STEPPERS.items() if q in index}
        self._simulation = index.get(SIMULATION)
        self._undo: list = []
        self._active = [False] * len(self.names)
        self._depth = [0] * len(self.layers)
        self._layer_start = [0.0] * len(self.layers)
        self.layer_calls = [0] * len(self.layers)
        self.layer_time = [0.0] * len(self.layers)
        self.self_time = [0.0] * len(self.modules)
        self._stack: list[list] = []  # [span id, start, time in child spans]
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.begin_pass()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for i, fn in enumerate(self._originals):
            self._undo += rebind(fn, self._wrap(i, fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- counters -----------------------------------------------------------

    def begin_pass(self) -> None:
        # The wrappers hold these lists, so they are cleared in place.
        self._active[:] = [False] * len(self._active)
        for counters in (self._depth, self.layer_calls):
            counters[:] = [0] * len(counters)
        for timers in (self._layer_start, self.layer_time, self.self_time):
            timers[:] = [0.0] * len(timers)
        self._stack.clear()
        self.spans.clear()
        self._next_span = 0
        self.steps = {d: {"e": 0, "c": 0} for d in STEPPERS}
        self.sim_steps = {d: 0 for d in STEPPERS}
        self._terminal = {d: False for d in STEPPERS}
        self._in_program = False
        self.programs = 0
        self.decided = 0

    def begin_program(self) -> None:
        self._close_program()
        self._in_program = True

    def _close_program(self) -> None:
        if self._in_program:
            self.programs += 1
            self.decided += all(self._terminal.values())
        self._terminal = {d: False for d in STEPPERS}
        self._in_program = False

    def _wrap(self, i: int, fn):
        active, depth, layer_start = self._active, self._depth, self._layer_start
        layer_calls, layer_time, self_time = self.layer_calls, self.layer_time, self.self_time
        stack, spans = self._stack, self.spans
        layers = self._layers_of[i]
        module = self._module_of[i]
        dialect = self._stepper.get(i)
        tracer = self

        def traced(*args, **kwargs):
            if active[i]:
                return fn(*args, **kwargs)
            active[i] = True
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1][0] if stack else -1
            start = perf_counter()
            for g in layers:
                if depth[g] == 0:
                    layer_start[g] = start
                depth[g] += 1
            frame = [sid, start, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_time[module] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if sid < SPAN_CAP:
                    spans.append((sid, i, start, end, parent))
                for g in layers:
                    depth[g] -= 1
                    if depth[g] == 0:
                        layer_calls[g] += 1
                        layer_time[g] += end - layer_start[g]
                active[i] = False
            if dialect is not None:
                tracer._count_step(dialect, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_step(self, dialect: str, result) -> None:
        kind = getattr(result, "kind", None)
        if kind in ("e", "c"):
            self.steps[dialect][kind] += 1
            if self._simulation is not None and self._active[self._simulation]:
                self.sim_steps[dialect] += 1
        elif type(result).__name__ in ("IsValue", "IsBlame"):
            self._terminal[dialect] = True

    # -- results ------------------------------------------------------------

    def pass_metrics(self, wall: float) -> dict[str, float]:
        """The per-layer metrics of the pass that took ``wall`` seconds."""
        self._close_program()
        out: dict[str, float] = {}
        for g, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.layer_calls[g]
            out[f"{layer}.us"] = self.layer_time[g] * 1e6
        for d in self._stepper.values():
            out[f"{d}.steps_e"] = self.steps[d]["e"]
            out[f"{d}.steps_c"] = self.steps[d]["c"]
        for m, mod in enumerate(self.modules):
            out[f"{mod}.self_share"] = self.self_time[m] / wall
        if len(self._stepper) == len(STEPPERS):
            out["harness.decided_ratio"] = self.decided / self.programs if self.programs else 0.0
            if self._simulation is not None:
                src = self.sim_steps["lam_s"]
                out["harness.sim_target_per_source"] = self.sim_steps["lam_sx"] / src if src else 0.0
        return out

    def span_records(self):
        """The kept spans of the pass as dicts, in the order they ended."""
        for sid, i, start, end, parent in self.spans:
            yield {"id": sid, "name": self.names[i], "start": start, "end": end, "parent": parent}
