"""The benchmark's own smoke run: the smallest input of every workload,
with every output check on, in fresh interpreters started by
``perfbench/run.py --smoke``.  It takes about a second."""

import json
import subprocess
import sys
from pathlib import Path

import fgr
import fgr.cli

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


def test_per_layer_metrics_name_traced_functions():
    # A per-layer metric reads the spans of <module>.<function>; a function
    # that is renamed, removed or left unwrapped would make it read nothing.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {
        metric["name"].rsplit(".", 1)[0]
        for metric in spec["per_layer"]
        if metric["name"].count(".") == 2
    }
    assert named, "no per-layer metric names a function"
    assert sorted(named - set(Tracer(fgr).names)) == []
