#!/usr/bin/env python3
"""Record the benchmark's end-to-end numbers as BENCH_<N>.json.

Run from any directory:

    python3 tools/bench_record.py --pr 46

Each workload that BENCHMARK.json declares runs once, in its own
subprocess, as ``<command> --workload W --seed 7 --seconds T --trace 0``
from the repository root, T being BENCHMARK.json's ``run_seconds``.  The
file, written there, holds the ``env`` line, and per workload every
``metric`` line (name, value, unit), every ``raw wall`` line, the
``fingerprint_sha256`` and the final JSON line's ``correct``.  A run that exits nonzero, or prints no fingerprint or no
result line, stops the tool with exit status 1, and no file is written.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


class RecordError(RuntimeError):
    """A bench run failed or printed no result."""


def parse_run(stdout: str) -> dict:
    """The recorded keys of one ``--trace 0`` run's standard output; a run
    with no fingerprint line, or whose last line is not the result object,
    raises RecordError."""
    run = {"env": None, "fingerprint_sha256": None, "correct": None,
           "metrics": {}, "raw_wall": {}}
    lines = stdout.strip().splitlines()
    for line in lines:
        words = line.split()
        if words[:1] == ["env"]:
            run["env"] = line[len("env "):]
        elif words[:1] == ["fingerprint_sha256"] and len(words) == 2:
            run["fingerprint_sha256"] = words[1]
        elif words[:1] == ["metric"] and len(words) == 4:
            run["metrics"][words[1]] = {"value": float(words[2]), "unit": words[3]}
        elif words[:2] == ["raw", "wall"] and len(words) == 4:
            run["raw_wall"][words[2]] = float(words[3])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "correct" not in result:
        raise RecordError("no result line")
    if run["fingerprint_sha256"] is None:
        raise RecordError("no fingerprint_sha256 line")
    run["correct"] = result["correct"]
    return run


def record(pr: int) -> dict:
    """Run every declared workload once and collect the BENCH document."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"pr": pr, "seed": SEED, "seconds": seconds, "trace": 0,
           "command": spec["command"], "env": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        argv = [*spec["command"], "--workload", workload, "--seed", str(SEED),
                "--seconds", str(seconds), "--trace", "0"]
        print(f"bench_record: {' '.join(argv)}", file=sys.stderr)
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RecordError(f"{workload} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        try:
            run = parse_run(proc.stdout)
        except RecordError as exc:
            raise RecordError(f"{workload}: {exc}") from None
        doc["env"] = run.pop("env")  # one machine, so one line for all runs
        doc["workloads"][workload] = run
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        doc = record(args.pr)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"bench_record: wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
