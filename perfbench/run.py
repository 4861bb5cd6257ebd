"""Run one workload of the tumorctrl benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-n64 --seed 0 --seconds 20 --trace 0

Inputs are generated from --seed into .perfbench/ and handed to fresh worker
processes that import tumorctrl from the checkout's src/ with BLAS pinned to
one thread.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics (setup_s, op_s, peak_rss_mb); with --trace 1 it
carries the per-layer metrics of a traced run instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

WORKLOADS = tuple(workloads.SIZES)
# Fresh workers whose set-up time is sampled, the measuring worker included.
SETUP_SAMPLES = 5
# Untimed operations before the timed loop.  A new process spends its first
# forward solves at N = 64 in page faults until malloc's thresholds settle.
WARMUP = {"simulate-n64": 2, "sensitivity-n128": 1, "verify-n32": 0}
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every run ends within 180 s; a worker that outlives this is killed.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def _machine() -> dict:
    """Core count, CPU model and cache sizes, as far as the system shows them."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*((index / f).read_text().strip()
                                               for f in ("level", "type", "size"))))
        except OSError:
            continue
    info["caches"] = caches
    return info


class Runner:
    def __init__(self, root: Path, workload: str, work: Path, deadline: float):
        self.root = root
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{var: str(BLAS_THREADS) for var in THREAD_VARIABLES})

    def worker(self, name: str, *extra: str) -> tuple[dict, float]:
        """Run a worker to completion; return its result and its set-up time."""
        result_path = self.work / f"{name}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", self.workload, "--inputs", str(self.work / "inputs.json"),
               "--work", str(self.work), "--result", str(result_path), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, timeout=timeout,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0 or not result_path.is_file():
            raise RuntimeError(f"worker {name} exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        return result, result["ready"] - spawned


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the self-test")
    ap.add_argument("--record-reference", action="store_true",
                    help="store the default seed's output summary in reference.json")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tumorctrl" / "__init__.py").is_file():
        print(f"error: {root} holds no src/tumorctrl; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    files = workloads.make_inputs(args.workload, args.seed, args.size, work / "inputs")
    (work / "inputs.json").write_text(json.dumps(files))

    runner = Runner(root, args.workload, work, started + RUN_LIMIT_S)
    check_reference = (args.seed == workloads.DEFAULT_SEED and args.size == "full"
                       and not args.record_reference)
    try:
        setups = [runner.worker(f"setup{i}", "--setup-only")[1]
                  for i in range(SETUP_SAMPLES - 1)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--warmup", str(WARMUP[args.workload] if args.size == "full" else 0)]
        if check_reference:
            extra.append("--reference")
        result, setup = runner.worker("measure", *extra)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.record_reference:
        if result["failed"] or args.seed != workloads.DEFAULT_SEED or args.size != "full":
            print("error: record the reference from a clean full-size default-seed run",
                  file=sys.stderr)
            return 1
        table = (json.loads(workloads.REFERENCE_FILE.read_text())
                 if workloads.REFERENCE_FILE.is_file() else {})
        table[args.workload] = result["summary"]
        workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=2, sort_keys=True)
                                            + "\n")

    op_s = result["op_s"]
    end_to_end = {"setup_s": statistics.median(setups), "op_s": statistics.median(op_s),
                  "peak_rss_mb": result["peak_rss_mb"]}
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": workloads.inputs_digest(files),
              "blas_threads": BLAS_THREADS, "machine": _machine(),
              "setup_samples_s": setups, "end_to_end": end_to_end, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    env, machine = result["environment"], record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"inputs sha256 {record['inputs_sha256'][:16]}")
    print(f"numpy {env['numpy']}  scipy {env['scipy']}  BLAS {env['blas']} "
          f"{env['blas_version']} ({BLAS_THREADS} thread)  nproc {machine['nproc']}  "
          f"cpu {machine['cpu']}  caches {', '.join(machine['caches'])}")
    print(f"closed loop, 1 client: {result['attempted']} operations attempted, "
          f"{len(op_s)} timed{' untraced' if args.trace else ''}, "
          f"{result['failed']} failed (ops_failed_frac "
          f"{result['failed'] / result['attempted']:.6g})")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    for name, value in end_to_end.items():
        print(f"  {name:<38} {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        metrics, units = result["per_layer"], spans.PER_LAYER_UNITS
        for name, unit in units.items():
            print(f"  {name:<38} {metrics[name]:.6g} {unit}")
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
