"""The benchmark's smoke mode still runs: every workload, traced and untraced,
checks its outputs.  The smoke mode does not notice a layer the tracer failed
to wrap, so a second test installs the tracer and asserts that it found every
entry point it names: a renamed one, or one that is no longer a plain
function, fails there.  Timings are never asserted."""

import os
import subprocess
import sys

import superpbw.cli  # noqa: F401  (the tracer patches the modules loaded)
import superpbw.verify  # noqa: F401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("SMOKE")]
    assert len(lines) == 6, proc.stdout
    assert all(l.endswith(" PASS") for l in lines), proc.stdout


def test_tracer_finds_every_layer_it_names():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
