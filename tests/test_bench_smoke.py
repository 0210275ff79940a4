"""The benchmark's own smoke run: the smallest input of every workload,
with every output check on, in fresh interpreters started by
``perfbench/run.py --smoke``.  It takes about a second."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("families", "suites", "cli-queries")


def test_benchmark_smoke_run_is_ok():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        assert any(line.startswith(f"ok {workload}:") for line in lines), proc.stdout
