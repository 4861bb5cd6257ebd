"""Self-test of the benchmark at a tiny size.  Run from a checkout's root:

    python3 perfbench/selftest.py

It checks that inputs are a pure function of the seed, that every workload
runs clean through run.py untraced and traced with the metric names of
BENCHMARK.json, that a corrupted output or a raising operation is counted as
a failed operation, that a reference mismatch fails, and that run.py refuses
to run in a directory without the program.  Exits non-zero on the first
failed assertion.  Takes about two minutes, most of it in verify-n32, whose
twelve checks have fixed sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_inputs() -> None:
    first = {w: workloads.make_inputs(w, 7, "full", SCRATCH / "a" / w)
             for w in workloads.SIZES}
    time.sleep(1.1)  # a file format that stamps the time would now differ
    for workload, a in first.items():
        b = workloads.make_inputs(workload, 7, "full", SCRATCH / "b" / workload)
        c = workloads.make_inputs(workload, 8, "full", SCRATCH / "c" / workload)
        assert workloads.inputs_digest(a) == workloads.inputs_digest(b), workload
        assert workloads.inputs_digest(a) != workloads.inputs_digest(c), workload


def check_runs(declared: dict) -> None:
    for workload in workloads.SIZES:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, \
                (workload, trace, proc.stdout)
            names = declared["per_layer" if trace else "end_to_end"]
            assert list(line["metrics"]) == list(names), (workload, trace)
            for name, metric in line["metrics"].items():
                assert metric["unit"] == names[name], (workload, name)
                assert np.isfinite(metric["value"]), (workload, name)
            print(f"ok  {workload} trace={trace}: {line['attempted']} operations")


def corrupt_simulate(result):
    path = result["out"] / "trajectory.npz"
    with np.load(path) as data:
        arrays = dict(data)
    arrays["phi"][arrays["phi"].shape[0] // 2] += 1e-6
    np.savez(path, **arrays)


def corrupt_sensitivity(result):
    result["lin"].xi[:] *= 1.0 + 1e-3


def corrupt_verify(result):
    path = result["out"] / "verify.json"
    records = json.loads(path.read_text())
    records[3]["passed"] = False
    path.write_text(json.dumps(records))


CORRUPT = {"simulate-n64": corrupt_simulate, "sensitivity-n128": corrupt_sensitivity,
           "verify-n32": corrupt_verify}


def check_failures_counted() -> None:
    for workload, corrupt in CORRUPT.items():
        files = workloads.make_inputs(workload, 3, "tiny", SCRATCH / "corrupt" / workload)
        ctx = workloads.Context(workload, files)
        loop = worker.Loop(ctx, SCRATCH / "corrupt" / workload / "out", None)

        def corrupted(ctx, out_dir, corrupt=corrupt):
            result = workloads.run_op(ctx, out_dir)
            corrupt(result)
            return result

        loop.op = corrupted
        loop.one()
        assert (loop.attempted, loop.failed) == (1, 1), (workload, loop.messages)
        print(f"ok  {workload}: corrupted output counted as failed: {loop.messages[0]}")

    def raising(ctx, out_dir):
        raise FloatingPointError("injected")

    loop.op = raising
    loop.one()
    assert (loop.attempted, loop.failed) == (2, 2), loop.messages
    assert workloads.compare_reference("simulate-n64", {"phi_T_norm": 1.0},
                                       {"phi_T_norm": 1.0 + 1e-6})


def check_refuses_without_program() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("simulate-n64", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/tumorctrl")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in declared[key]}
                for key in ("end_to_end", "per_layer")}
    assert declared["per_layer"] == spans.PER_LAYER_UNITS
    check_inputs()
    check_failures_counted()
    check_refuses_without_program()
    check_runs(declared)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
