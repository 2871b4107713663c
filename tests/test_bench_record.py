"""tools/bench_record.py reads bench/run.py's standard output, no subprocess."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# a --trace 0 run's stdout, its fp and probe lines cut to one each
STDOUT = """\
# tenscale bench workload=certify seed=7 seconds=12.0 trace=0 smoke=1 (one process, one client, closed loop)
env nproc=2 affinity=2 machine=x86_64 python=3.11.7 numpy=2.4.6 blas='scipy-openblas 0.3.31.188.0' threads=OPENBLAS_NUM_THREADS=1
cycles=1 queries=12 probes=3
fingerprints equal over 4 passes: true
speed kernel median 1.2546 ms over 7 probes; reference 1 ms
fp 0000 hwv:SCALED:3 | ok=1 ms=0.134 raw_ms=0.168 numeric_warnings=0 nonfinite_capacity=0
probe certify:MISSED | MISSED (outside the timed passes) ms=1.000 steps=800 halt_checks=2
fingerprint_sha256 36266b7fa18361f2a9f0a82e6a06327bd17d3f2663c2d714078cff2994e3a020
each query timed in 4 passes, its lower median kept
failed_frac 0 ratio (0 of 12)
setup_s runs 0.2259 (raw 0.2423)
raw wall solve_ms_p50 0.16821
raw wall queries_per_s 1624.79
metric solve_ms_p50 0.134254 ms
metric queries_per_s 2038.4 1/s
metric correct_frac 1 ratio
{"correct": true, "attempted": 12, "failed": 0, "metrics": {}}
"""


def test_parser_keeps_every_recorded_line():
    run = bench_record.parse_run(STDOUT)
    assert list(run) == ["env", "fingerprint_sha256", "correct", "metrics",
                         "raw_wall"]
    assert run["env"].startswith("nproc=2 affinity=2 machine=x86_64")
    assert run["fingerprint_sha256"] == "36266b7fa18361f2a9f0a82e6a06327b" \
                                        "d17d3f2663c2d714078cff2994e3a020"
    assert run["correct"] is True
    assert run["metrics"] == {
        "solve_ms_p50": {"value": 0.134254, "unit": "ms"},
        "queries_per_s": {"value": 2038.4, "unit": "1/s"},
        "correct_frac": {"value": 1.0, "unit": "ratio"}}
    assert run["raw_wall"] == {"solve_ms_p50": 0.16821, "queries_per_s": 1624.79}
    # a run cut short has no result line, and one without a fingerprint
    # records nothing to compare
    cut = STDOUT.rsplit("\n", 2)[0]
    for stdout in ("", cut, STDOUT.replace("fingerprint_sha256", "digest")):
        with pytest.raises(bench_record.RecordError):
            bench_record.parse_run(stdout)
