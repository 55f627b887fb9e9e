"""The benchmark's smoke mode still runs: every workload, traced and untraced,
checks its outputs and finds every metric it declares.  A renamed entry point
that the tracer wraps would leave a per-layer metric absent and fail here.
Timings are never asserted."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("SMOKE")]
    assert len(lines) == 6, proc.stdout
    assert all(l.endswith(" PASS") for l in lines), proc.stdout
