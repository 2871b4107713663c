"""tools/bench_compare.py judges two BENCH documents, no subprocess."""
import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

SPEC = {"end_to_end": [
    {"name": "solve_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}


def document(pr, p50, qps, fingerprint="ab" * 32, correct=True):
    run = {"fingerprint_sha256": fingerprint, "correct": correct,
           "metrics": {"solve_ms_p50": {"value": p50, "unit": "ms"},
                       "queries_per_s": {"value": qps, "unit": "1/s"}},
           "raw_wall": {"solve_ms_p50": 9.0, "queries_per_s": 9.0}}
    return {"pr": pr, "seed": 7, "env": "nproc=2", "workloads": {"far": run}}


def rows(lines, workload="far"):
    return {line.split()[1]: line.split()[2:] for line in lines
            if line.startswith(workload + " ")}


def test_each_metric_is_judged_by_its_direction_and_bound():
    # by its direction only: one run per side judges no bound, so a change
    # past it reads "worse" like any other
    old = document(46, 2.0, 400.0)
    lines, same = bench_compare.compare(old, document(47, 1.5, 300.0), SPEC)
    assert same
    got = rows(lines)
    assert got["solve_ms_p50"] == ["2", "1.5", "-25.0%", "better"]
    assert got["queries_per_s"] == ["400", "300", "-25.0%", "worse"]
    got = rows(bench_compare.compare(old, document(47, 2.6, 400.0), SPEC)[0])
    assert got["solve_ms_p50"] == ["2", "2.6", "+30.0%", "worse"]
    assert got["queries_per_s"] == ["400", "400", "+0.0%", "equal"]
    got = rows(bench_compare.compare(document(46, 0.0, 0.0),
                                     document(47, 1.0, 1.0), SPEC)[0])
    assert got["solve_ms_p50"] == ["0", "1", "n/a", "worse"]
    assert got["queries_per_s"] == ["0", "1", "n/a", "better"]
    assert got["fingerprint_sha256"] == ["equal", "(abababab)"]
    assert got["correct"] == ["equal", "(True)"]


def test_a_differing_fingerprint_correct_or_workload_fails(tmp_path):
    old = document(46, 2.0, 400.0)
    for new in (document(47, 2.0, 400.0, fingerprint="cd" * 32),
                document(47, 2.0, 400.0, correct=False)):
        lines, same = bench_compare.compare(old, new, SPEC)
        assert not same and any("DIFFERS" in line for line in lines)
    extra = copy.deepcopy(old)
    extra["workloads"]["certify"] = extra["workloads"]["far"]
    lines, same = bench_compare.compare(old, extra, SPEC)
    assert not same and "certify   missing from the old file" in lines
    # main reads BENCHMARK.json's bounds and exits 1 on a difference
    paths = []
    for k, doc in enumerate((old, old, document(47, 2.0, 400.0, correct=False))):
        paths.append(tmp_path / f"BENCH_{k}.json")
        paths[-1].write_text(json.dumps(doc))
    assert bench_compare.main([str(paths[0]), str(paths[1])]) == 0
    assert bench_compare.main([str(paths[0]), str(paths[2])]) == 1
