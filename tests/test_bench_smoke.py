"""The benchmark's smoke pass runs against this checkout's engine.

The benchmark is the one caller outside the tests that passes keywords such
as check_hwv_transformation(rtol=), find_nonvanishing_spec(max_degree=),
scaling_step(mode=) and ScalingConfig(log_capacity=); a signature change
that breaks it shows here.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is True, last
