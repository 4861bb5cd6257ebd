"""Run the five CLI commands in two checkouts and compare what they write.

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
of the numbers in it.  It exits 1 if a file or an exit code differs, and 0
if everything is identical.  Uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = ("simulate", "optimize", "verify", "adjoint-check", "linearize-check")
_SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')


def run_commands(root: Path, config: Path, out: Path) -> dict:
    """Run every command of the checkout at root; returns command -> exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
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
    print("all outputs identical" if bad == 0 else f"{bad} difference(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
