"""Run the five CLI commands and the sensitivity chain in two checkouts and
compare what they produce.

Usage:

    python3 scripts/compare_outputs.py PARENT CHANGE [--config PATH]

PARENT and CHANGE are the roots of two checkouts of this repository.  In each
checkout, ``simulate``, ``optimize``, ``verify``, ``adjoint-check`` and
``linearize-check`` run once each, every command in a fresh process with
``PYTHONPATH=<checkout>/src`` and ``OPENBLAS_NUM_THREADS=1``.  The config is
PATH for both checkouts, or by default each checkout's own
``configs/default.yaml``.  The outputs go to a temporary directory outside
both checkouts, which is removed afterwards.

Every written file is compared byte for byte.  The one thing ignored is the
``output_dir`` line of ``config.yaml``, which names the temporary directory.
For each file that differs the script prints the largest relative difference
of the numbers in it.

The benchmark's library chain, sensitivity-n128 at seed 0 and full size (a
fully implicit logarithmic forward solve, then the linearized, adjoint and
viscous-Galerkin solves), runs once per checkout, again in a fresh process
with the same environment.  Its inputs come from PARENT's
``perfbench/workloads.make_inputs``, and its operation and output checks from
that module's ``Context``, ``run_op`` and ``check_op``.  The chain's 14 arrays
are compared bit for bit, each with its largest relative difference when it
differs, and every ``check_op`` failure is printed.

The script exits 1 if a file, an exit code or a chain array differs or a
chain check fails, and 0 if everything is identical.  Uses only the standard
library and numpy (and pyyaml, which the benchmark's input writer uses).
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = ("simulate", "optimize", "verify", "adjoint-check", "linearize-check")
_SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')
CHAIN = "sensitivity-n128"
CHAIN_ARRAYS = ("times", "mu", "phi", "S", "newton_iterations", "eta", "xi", "zeta",
                "q", "p", "r", "viscous_q", "viscous_p", "viscous_r")
# run in a fresh process: argv is the workloads module, the input files as
# JSON and the .npz to write; prints check_op's failures as JSON
_CHAIN_SCRIPT = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
ctx = workloads.Context(%r, json.loads(sys.argv[2]))
result = workloads.run_op(ctx, None)
traj, lin, adj, visc = (result[k] for k in ("traj", "lin", "adj", "visc"))
np.savez(sys.argv[3], times=traj.times, mu=traj.mu, phi=traj.phi, S=traj.S,
         newton_iterations=traj.newton_iterations, eta=lin.eta, xi=lin.xi,
         zeta=lin.zeta, q=adj.q, p=adj.p, r=adj.r, viscous_q=visc.q,
         viscous_p=visc.p, viscous_r=visc.r)
print(json.dumps(workloads.check_op(ctx, result)[0]))
""" % CHAIN


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


def run_commands(root: Path, config: Path, out: Path) -> dict:
    """Run every command of the checkout at root; returns command -> exit code."""
    env = _env(root)
    codes = {}
    for command in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "tumorctrl.cli", command, "--config", str(config),
             "--out", str(out / command), "--quiet"],
            cwd=out, env=env, capture_output=True, text=True)
        codes[command] = proc.returncode
    return codes


def read_output(path: Path) -> bytes:
    """The file's bytes, without the output_dir line of a written config."""
    data = path.read_bytes()
    if path.name == "config.yaml":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b"output_dir:"))
    return data


def numbers(path: Path, data: bytes):
    """(numbers, other tokens) of a written file: the arrays of an .npz, else
    the text split into tokens that parse as floats and tokens that do not."""
    if path.suffix == ".npz":
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            keys = sorted(npz.files)
            arrays = [np.asarray(npz[k], dtype=float) for k in keys]
        shapes = [(k, a.shape) for k, a in zip(keys, arrays)]
        return np.concatenate([a.ravel() for a in arrays] or [np.empty(0)]), shapes
    values, words = [], []
    for token in _SEPARATORS.split(data.decode("utf-8", errors="replace")):
        try:
            values.append(float(token))
        except ValueError:
            words.append(token)
    return np.array(values), words


def largest_relative_difference(path: Path, a: bytes, b: bytes) -> str:
    """A one-line account of how the two versions of a file differ."""
    x, x_rest = numbers(path, a)
    y, y_rest = numbers(path, b)
    if x_rest != y_rest or x.shape != y.shape:
        return "differs in structure"
    return relative_difference(x, y)


def relative_difference(x: np.ndarray, y: np.ndarray) -> str:
    """The largest relative difference of two equally shaped float arrays."""
    both_nan = np.isnan(x) & np.isnan(y)
    scale = np.maximum(np.abs(x), np.abs(y))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where((x == y) | both_nan, 0.0, np.abs(x - y) / scale)
    rel = np.where(np.isnan(rel), np.inf, rel)
    return f"largest relative difference {np.max(rel, initial=0.0):.3e} ({x.size} numbers)"


def compare(parent: Path, change: Path) -> int:
    """Print one line per file under the two output trees; returns the count of
    files that differ or exist on one side only."""
    files = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    differing = 0
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {'parent' if a.is_file() else 'change'}")
            differing += 1
            continue
        data_a, data_b = read_output(a), read_output(b)
        if data_a == data_b:
            print(f"{rel}: identical")
        else:
            print(f"{rel}: DIFFERS, {largest_relative_difference(rel, data_a, data_b)}")
            differing += 1
    return differing


def run_chain(root: Path, workloads: Path, files: dict, out: Path) -> list:
    """Run the chain with the checkout at root into the .npz out; returns the
    failures of its output checks, or the crash as one failure."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHAIN_SCRIPT, str(workloads), json.dumps(files), str(out)],
        cwd=out.parent, env=_env(root), capture_output=True, text=True)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return [f"exited {proc.returncode}: {last}"]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_chain(parent: Path, change: Path) -> int:
    """Print one line per chain array; returns the count of arrays that differ."""
    differing = 0
    with np.load(parent) as a, np.load(change) as b:
        for name in CHAIN_ARRAYS:
            x, y = a[name], b[name]
            if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
                print(f"{CHAIN} {name}: identical")
                continue
            differing += 1
            how = (relative_difference(x.astype(float).ravel(), y.astype(float).ravel())
                   if x.shape == y.shape else "differs in shape")
            print(f"{CHAIN} {name}: DIFFERS, {how}")
    return differing


def chain(roots: dict, tmp: Path) -> int:
    """Run the chain in both checkouts on the inputs of the parent's benchmark
    and compare its arrays; returns the count of differences and failures."""
    workloads = roots["parent"] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", workloads)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = module.make_inputs(CHAIN, 0, "full", tmp / "chain-inputs")
    bad, arrays = 0, {}
    for side, root in roots.items():
        arrays[side] = tmp / f"chain-{side}.npz"
        failures = run_chain(root, workloads, files, arrays[side])
        for failure in failures:
            print(f"{CHAIN} check failed in {side}: {failure}")
        bad += len(failures)
    if all(path.is_file() for path in arrays.values()):
        bad += compare_chain(arrays["parent"], arrays["change"])
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--config", type=Path, default=None,
                    help="config for both checkouts (default: each one's "
                         "configs/default.yaml)")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        outs, codes = {}, {}
        for side, root in roots.items():
            config = (args.config.resolve() if args.config is not None
                      else root / "configs" / "default.yaml")
            outs[side] = Path(tmp) / side
            outs[side].mkdir()
            codes[side] = run_commands(root, config, outs[side])
        bad = 0
        for command in COMMANDS:
            a, b = codes["parent"][command], codes["change"][command]
            if a == b:
                print(f"{command}: exit code {a}")
            else:
                print(f"{command}: exit code {a} in parent, {b} in change")
                bad += 1
        bad += compare(outs["parent"], outs["change"])
        bad += chain(roots, Path(tmp))
    print("all outputs identical" if bad == 0 else f"{bad} difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
