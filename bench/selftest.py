"""Self-test of the benchmark, at smoke size.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit by
the mode that owns it, that the traced run's per-query fingerprint equals
the untraced run's, and that a directory holding only the benchmark fails
without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def fingerprint(stdout: str) -> str:
    lines = [line for line in stdout.splitlines()
             if line.startswith("fingerprint_sha256 ")]
    assert len(lines) == 1, "expected one fingerprint_sha256 line"
    return lines[0].split()[1]


def check_metrics(stdout: str, wanted: list[dict]) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {tuple(line.split()[1:4:2]) for line in stdout.splitlines()
               if line.startswith("metric ")}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert (m["name"], m["unit"]) in printed, f"{m['name']} not printed"


def test_metrics_printed_and_fingerprints_match():
    for workload in WORKLOADS:
        plain = run_bench(ROOT, workload, 0)
        traced = run_bench(ROOT, workload, 1)
        assert plain.returncode == 0, plain.stderr
        assert traced.returncode == 0, traced.stderr
        check_metrics(plain.stdout, SPEC["end_to_end"])
        check_metrics(traced.stdout, SPEC["per_layer"])
        assert fingerprint(plain.stdout) == fingerprint(traced.stdout), workload
        assert "fingerprints untraced == traced == capacity-off: true" \
            in traced.stdout


def test_fails_without_the_engine():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, WORKLOADS[0], 0)
        assert done.returncode != 0
        assert not done.stdout.strip(), done.stdout


if __name__ == "__main__":
    for test in (test_metrics_printed_and_fingerprints_match,
                 test_fails_without_the_engine):
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
