"""Benchmark worker: one fresh process that sets up a workload and runs it.

Started by run.py with BLAS threads pinned and ``src`` of the checkout on
PYTHONPATH.  It times nothing of its own start-up: it reports the monotonic
clock when set-up is done, and run.py subtracts the moment it spawned the
process.  With ``--setup-only`` it stops there.  Otherwise it runs the
workload's operations one after another (a closed loop with one client),
checks every output, and writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

MAX_FAILURE_MESSAGES = 5


class Loop:
    """Closed-loop operation runner that counts attempts and failures."""

    def __init__(self, ctx, out_dir: Path, reference: dict | None):
        self.ctx = ctx
        self.out_dir = out_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.summary: dict | None = None
        self.op = workloads.run_op

    def one(self) -> float:
        """Run, time and check one operation; return its wall seconds."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.op(self.ctx, self.out_dir)
        except Exception as exc:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - t0
            self._fail([f"operation raised {type(exc).__name__}: {exc}"])
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            failures, summary = workloads.check_op(self.ctx, result)
        except Exception as exc:  # unreadable or missing output
            failures, summary = [f"output check raised {type(exc).__name__}: {exc}"], {}
        if not failures and self.reference is not None:
            failures = workloads.compare_reference(self.ctx.workload, summary,
                                                   self.reference)
        if self.summary is None:
            self.summary = summary
        if failures:
            self._fail(failures)
        return elapsed

    def _fail(self, failures: list[str]) -> None:
        self.failed += 1
        room = MAX_FAILURE_MESSAGES - len(self.messages)
        self.messages.extend(f"op {self.attempted}: {msg}" for msg in failures[:room])

    def timed(self, seconds: float) -> list[float]:
        """Operations until `seconds` have passed; at least one."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.one())
            if time.perf_counter() - start >= seconds:
                return times


def _bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON file naming the input files")
    ap.add_argument("--work", required=True, help="directory for operation outputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--warmup", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="compare each operation's summary with reference.json")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    files = json.loads(Path(args.inputs).read_text())
    ctx = workloads.Context(args.workload, files)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import tumorctrl

    reference = workloads.load_reference(args.workload) if args.reference else None
    if args.reference and reference is None:
        print(f"no reference values for {args.workload}", file=sys.stderr)
        return 1
    work = Path(args.work)
    loop = Loop(ctx, work / "out", reference)
    for _ in range(args.warmup):
        loop.one()

    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.op_id = 0
        loop.ctx = workloads.Context(args.workload, files)  # traced set-up
        tracer.op_id = -1
        traced_op = tracer.wrap("bench.op", workloads.run_op)
        untraced, traced, written = [], [], []

        def op(ctx, out_dir):
            tracer.op_id = loop.attempted
            try:
                result = traced_op(ctx, out_dir)
            finally:
                tracer.op_id = -1
            written.append(_bytes_in(out_dir) if out_dir.is_dir() else 0)
            return result

        # Untraced and traced operations alternate, so that drift in the
        # machine's speed does not enter the overhead estimate.  The untraced
        # ones pass through the idle wrappers.
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            loop.op = workloads.run_op
            untraced.append(loop.one())
            loop.op = op
            traced.append(loop.one())
        tracer.save(work / "spans.npz")
        metrics = spans.per_layer_metrics(tracer, len(traced))
        metrics["cli.bytes_written"] = statistics.median_low(written)
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced) - 1.0)
        metrics["ops_failed_frac"] = loop.failed / loop.attempted
        result["per_layer"] = metrics
        result["op_s"] = untraced
    else:
        result["op_s"] = loop.timed(args.seconds)

    shutil.rmtree(loop.out_dir, ignore_errors=True)  # checked already; keeps .perfbench small
    result.update(
        attempted=loop.attempted, failed=loop.failed, failures=loop.messages,
        summary=loop.summary,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        tumorctrl=str(Path(tumorctrl.__file__).resolve().parent),
        environment=environment())
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
