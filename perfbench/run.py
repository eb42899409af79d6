"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evenodd --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports coercion_forge from ``src``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  It prints one line per metric,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
Python version, CPU count, commit and seed, and the spans of a traced
run, goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402

OUT_DIR = workloads.ROOT / ".bench_build" / "perfbench"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must not be negative")

    workload = workloads.WORKLOADS[args.workload]()
    try:
        record = workloads.measure(workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    spans = record.pop("spans", [])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} passes={record['passes']}"
        f" python={record['python']} nproc={record['nproc']} commit={record['commit']}"
    )
    if "slowness" in record:
        print(f"# times scaled to the reference speed; the machine ran {record['slowness']:.3f}x as slow")
    metrics = {
        name: {"value": value, "unit": workloads.unit_of(name)}
        for name, value in record["metrics"].items()
    }
    raw = record.get("raw", {})
    for name, m in metrics.items():
        as_measured = f" (as measured {raw[name]:.6g})" if name in raw else ""
        print(f"{name:32} {m['value']:14.6g} {m['unit']}{as_measured}")
    ratio = record["failed"] / record["attempted"]
    print(f"{'failed_ratio':32} {ratio:14.6g} ratio ({record['failed']} of {record['attempted']} checks)")
    for name in record.get("absent", []):
        print(f"{name:32} {'absent':>14}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
