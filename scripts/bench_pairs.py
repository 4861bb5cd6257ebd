"""Alternating before/after pairs of the benchmark on two checkouts.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify-n32 \
        --pairs 10 --seconds 28 [--seed 0] [--out pairs.json]

PARENT and CHANGE are the roots of two checkouts of this repository.  Each
pair runs the unchanged ``perfbench/run.py --trace 0`` once in each checkout,
one run at a time, with the order alternating from pair to pair (parent first
in odd pairs, change first in even ones), so a drift of the machine falls on
both sides alike.  For every end-to-end metric the script prints each pair,
each side's median and interquartile range (IQR), and the number of pairs the
change wins.  A gain holds when the change wins nearly every pair and the
medians differ by more than the parent's IQR.  Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the checkout at root; returns its metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    record = json.loads(lines[-1])
    if not record["correct"]:
        raise RuntimeError(f"{root}: {record['failed']} of {record['attempted']} operations failed")
    return {name: m["value"] for name, m in record["metrics"].items()}


def lower_is_better(root: Path) -> dict:
    """Metric name -> True where lower is better, from the checkout's BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("better", "lower") == "lower" for m in spec.get("end_to_end", [])}


def spread(values: list) -> tuple:
    """(median, IQR) of values; the IQR of a single value is 0."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, help="write every run's metrics to this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        print("error: need --pairs >= 1 and --seconds > 0", file=sys.stderr)
        return 2
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"error: {root} holds no perfbench/run.py", file=sys.stderr)
            return 2

    lower = lower_is_better(sides["parent"])
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        try:
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        a, b = runs["parent"][-1], runs["change"][-1]
        cells = "  ".join(f"{name} {a[name]:.4g} -> {b[name]:.4g}" for name in a)
        print(f"pair {i + 1:2d} ({order[0]} first)  {cells}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for name in runs["parent"][0]:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        sign = 1.0 if lower.get(name, True) else -1.0
        wins = sum(sign * (b - a) < 0.0 for a, b in zip(before, after))
        (m0, iqr0), (m1, iqr1) = spread(before), spread(after)
        print(f"  {name:<12} parent median {m0:.4g} (IQR {iqr0:.3g})  change median "
              f"{m1:.4g} (IQR {iqr1:.3g})  change {(m1 - m0) / m0:+.1%}, "
              f"wins {wins}/{args.pairs}, median gap {abs(m1 - m0):.3g} "
              f"{'>' if abs(m1 - m0) > iqr0 else '<='} parent IQR")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "seconds": args.seconds, **runs}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
