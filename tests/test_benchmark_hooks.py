import subprocess
import sys
from pathlib import Path

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
