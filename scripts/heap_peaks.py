"""Peak Python heap of one operation of each benchmark workload, in two
checkouts.

Usage:

    python3 scripts/heap_peaks.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.  For
each checkout one fresh process runs with ``PYTHONPATH=<checkout>/src``,
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``.  It imports tumorctrl
and its command-line module first, so no source is compiled while memory is
traced.  Then, for every workload of PARENT's ``perfbench/workloads.py``, it
writes the seed-0 full-size inputs with that module's ``make_inputs``, builds
its ``Context`` and runs one ``run_op`` under ``tracemalloc``; the workload's
``check_op`` then checks the outputs.  The figure is tracemalloc's peak over
the operation: the largest heap that numpy and Python objects allocated
during it held at one time.  Two runs of one checkout agree to within about
0.5 kB, while ``peak_rss_mb`` also moves with the allocator's state and with
the text of the sources compiled at import.

For verify-n32 every ``tumorctrl.verify.check_<name>`` is wrapped as well.
The peak is never reset, so the operation's figure stays exact; a check's
figure is the running peak when the check returns, which is the check's own
peak where the check raised it (marked ``*``) and an upper bound otherwise.

The script prints each figure in kB (1000 bytes) as parent -> change with
the difference, and exits 1 if an operation or its output checks fail.  Uses
only the standard library and numpy (and pyyaml, which the benchmark's input
writer uses).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# run in a fresh process: argv is the workloads module and a scratch
# directory; prints {workload: {"op": peak, "checks": [[name, peak, raised]],
# "failures": [...]}} as JSON
_MEASURE_SCRIPT = """
import importlib.util, json, sys, tracemalloc
from pathlib import Path
import tumorctrl
from tumorctrl import cli, verify
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
tmp = Path(sys.argv[2])
checks = []

def wrapped(name, check):
    def run(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[1]
        out = check(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        checks.append([name, peak, peak > before])
        return out
    return run

for name in workloads.VERIFY_CHECKS:
    setattr(verify, f"check_{name}", wrapped(name, getattr(verify, f"check_{name}")))
report = {}
for workload in workloads.SIZES:
    files = workloads.make_inputs(workload, 0, "full", tmp / workload)
    ctx = workloads.Context(workload, files)
    checks.clear()
    tracemalloc.start()
    result = workloads.run_op(ctx, tmp / workload / "out")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    report[workload] = {"op": peak, "checks": list(checks),
                        "failures": workloads.check_op(ctx, result)[0]}
print(json.dumps(report))
"""


def measure(root: Path, workloads: Path, tmp: Path) -> dict:
    """The peaks of every workload with the checkout at root; raises if the
    measuring process fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    tmp.mkdir()
    proc = subprocess.run([sys.executable, "-c", _MEASURE_SCRIPT, str(workloads), str(tmp)],
                          cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        raise RuntimeError(f"{root}: exited {proc.returncode}: {last}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def line(label: str, before: int, after: int, marks: str = "") -> str:
    return (f"{label:<34} {before / 1e3:10.1f} -> {after / 1e3:10.1f} kB  "
            f"{(after - before) / 1e3:+9.1f} kB {marks}").rstrip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = roots["parent"] / "perfbench" / "workloads.py"
    for root in roots.values():
        if not (root / "src" / "tumorctrl").is_dir():
            print(f"error: {root} holds no src/tumorctrl", file=sys.stderr)
            return 2
    if not workloads.is_file():
        print(f"error: {workloads} does not exist", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="heap-peaks-") as tmp:
        try:
            peaks = {side: measure(root, workloads, Path(tmp) / side)
                     for side, root in roots.items()}
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    failed = 0
    for workload, before in peaks["parent"].items():
        after = peaks["change"][workload]
        print(line(workload, before["op"], after["op"]))
        for (name, b, b_raised), (_, a, a_raised) in zip(before["checks"], after["checks"]):
            marks = ("*" if b_raised else " ") + ("*" if a_raised else " ")
            print(line(f"  check {name}", b, a, marks))
        for side in peaks:
            for failure in peaks[side][workload]["failures"]:
                print(f"{workload} check failed in {side}: {failure}")
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
