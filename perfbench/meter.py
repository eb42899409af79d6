"""Time at a reference machine speed.

On a shared machine the CPU's speed drifts by tens of per cent, within a
second as well as over minutes, so wall times from runs made at different
moments do not compare.  The meter therefore times a fixed piece of
pure-Python work every ``INTERVAL`` seconds and divides the wall time of the
stretch between two such calibrations by how much slower than
``REFERENCE_S`` the two ran.  On the shared 2-core VM where the benchmark was
defined, the ratio of workload time to calibration time stayed within a few
per cent while each alone moved by 20 %.
The calibration uses no coercion-forge code, so a change to the program
cannot move it; its own time is left out of every figure.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# The median time of ``calibrate`` on the 2-core Xeon VM under Python
# 3.11.7 on which the benchmark was defined.
REFERENCE_S = 0.0108

# Seconds of workload between calibrations; each calibration takes about
# a tenth of that.
INTERVAL = 0.1


@dataclass(frozen=True)
class _Leaf:
    v: int


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _build(k: int, depth: int):
    if depth == 0:
        return _Leaf(k)
    return _Node("+" if k % 2 else "*", _build(k * 3 + 1, depth - 1), _build(k + 7, depth - 1))


def _walk(t) -> int:
    match t:
        case _Leaf(v):
            return v & 7
        case _Node("+", left, right):
            return _walk(left) + _walk(right)
        case _Node(_, left, right):
            return _walk(left) ^ _walk(right)


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


_TREES = [_build(k, 9) for k in range(3)]


def calibrate() -> float:
    """Seconds taken by the fixed work: dictionary updates, calls, matching a tree.

    The work allocates almost nothing and runs with the collector off, so
    its time does not depend on how many objects the workload keeps alive.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        _fib(17)
        for tree in _TREES:
            _walk(tree)
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class Meter:
    """Wall time at the reference speed, per pass and inside the timed functions.

    ``timed`` wraps the function whose calls give the per-step figures; a
    calibration may run only between calls to it and between passes.
    """

    def __init__(self):
        self._previous = calibrate()
        self._segment_start = perf_counter()
        self._segment: dict[str, list] = {}  # name -> [seconds, steps] since the last calibration
        self._pass: dict = {}  # empty between passes

    def timed(self, name: str, fn, steps_of):
        """``fn`` wrapped to add its time and ``steps_of(result)`` under ``name``."""
        segment = self._segment.setdefault(name, [0.0, 0])
        checkpoint = self._checkpoint

        def timed(*args, **kwargs):
            checkpoint(False)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            segment[0] += perf_counter() - t0
            segment[1] += steps_of(result)
            return result

        return timed

    def begin_pass(self) -> None:
        self._checkpoint(True)
        self._pass = {"wall": 0.0, "raw_wall": 0.0, "timed": {n: [0.0, 0.0, 0] for n in self._segment}}

    def end_pass(self) -> dict:
        """The pass's wall time, raw and at the reference speed, and per timed name
        the seconds inside it, raw and at the reference speed, and the steps."""
        self._checkpoint(True)
        done, self._pass = self._pass, {}
        return done

    def _checkpoint(self, force: bool) -> None:
        now = perf_counter()
        wall = now - self._segment_start
        if wall < INTERVAL and not force:
            return
        current = calibrate()
        slowness = (self._previous + current) / 2 / REFERENCE_S
        self._previous = current
        if self._pass:
            self._pass["wall"] += wall / slowness
            self._pass["raw_wall"] += wall
            for name, segment in self._segment.items():
                totals = self._pass["timed"][name]
                totals[0] += segment[0] / slowness
                totals[1] += segment[0]
                totals[2] += segment[1]
        for segment in self._segment.values():
            segment[0], segment[1] = 0.0, 0
        self._segment_start = perf_counter()
