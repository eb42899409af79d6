"""Compare two checkouts on one perfbench workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload evenodd --pairs 10

PARENT and CHANGE are the roots of two checkouts.  Before the first pair
it brings the bytecode caches of both up to date with
``python -m compileall -q src perfbench``, and its output starts by saying
so: where ``PYTHONDONTWRITEBYTECODE`` is set, a cache older than its source
is compiled again in memory at every import and never rewritten, and such
caches have moved ``setup_s`` by a fifth to a third.  Pair i runs
``python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
in each checkout, one after the other; the parent goes first in even pairs
and the change in odd ones.  Each run's metrics are read from the JSON
object that ``run.py`` prints last.

For every end-to-end metric it prints each side's median and quartiles,
the change's median as a ratio of the parent's, and in how many pairs the
change did better, by the direction ``BENCHMARK.json`` gives the metric
(ties count for neither side).  A gain is shown when the change wins at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles.  Runs in which a check failed
are counted and reported.

A few pairs can show a gain that is not there: a change with no measured
effect read ``programs_per_s`` on ``verify`` 4.7 % higher over 3 pairs, and
0.4 % higher over 8.  Claim a gain from 10 pairs or more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced perfbench run in the checkout ``root``."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def compile_caches(root: Path) -> None:
    """Bring the bytecode caches of the checkout ``root`` up to date."""
    cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, parent: list[float], change: list[float], lower_is_better: bool) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    gap = abs(cm - pm)
    better = cm < pm if lower_is_better else cm > pm
    shown = better and wins >= 0.9 * len(parent) and gap > p3 - p1
    return (
        f"{name:16} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  change {cm:10.4g} [{c1:.4g}, {c3:.4g}]"
        f"  ratio {cm / pm if pm else float('nan'):.3f}  change better in {wins}/{len(parent)}"
        f"  gap {gap:.3g} vs parent IQR {p3 - p1:.3g}{'  gain shown' if shown else ''}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of each run; by default the run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1, help="the seed of pair 0; pair i uses first-seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    for root in sides.values():
        compile_caches(root)
    print("bytecode caches of both checkouts brought up to date (python -m compileall -q src perfbench)")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds))
        line = "  ".join(
            f"{side} {m}={runs[side][-1]['metrics'][m]['value']:.4g}"
            for side in ("parent", "change") for m in lower if m in runs[side][-1]["metrics"]
        )
        print(f"pair {i} seed {seed} ({order[0]} first): {line}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {seconds:g} s runs, seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    for name, low in lower.items():
        if all(name in r["metrics"] for side in runs.values() for r in side):
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            print(summary(name, values["parent"], values["change"], low))
    for side, rs in runs.items():
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{side}: {failed} of {attempted} checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
