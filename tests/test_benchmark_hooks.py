import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # the benchmark's traced run wraps tumorctrl's functions by name (among them
    # Potential.d2f, Proliferation.d2, solve_power_plus_mult and reference.rk4),
    # so deleting or renaming one breaks it; the wrappers patch numpy and the
    # package globally, hence the separate interpreter
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import spans; "
            "spans.install(spans.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["simulate-n64", "sensitivity-n128", "verify-n32"])
def test_benchmark_context_builds(tmp_path, workload):
    # the benchmark's set-up reads tumorctrl's names too (the config builders and
    # TumorSystem.MA ... MC_half), so renaming one must fail here
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ctx = workloads.Context(workload, workloads.make_inputs(workload, 0, "tiny", tmp_path))
    assert ctx.system.n_points == workloads.SIZES[workload]["tiny"][0]
