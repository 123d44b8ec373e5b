"""The benchmark's own self-check passes at test scale.

Catches a change that renames a function the benchmark's tracer wraps,
or makes a run non-deterministic. The subprocess inherits the
environment unchanged: the self-check also asserts that the benchmark
cannot import ``repro`` from a directory without the program's source.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
