#!/usr/bin/env python3
"""Compare two BENCH_<N>.json files metric by metric.

Run from any directory:

    python3 tools/bench_compare.py BENCH_46.json BENCH_47.json

For each workload of either file and each end-to-end metric that
BENCHMARK.json declares, it prints the old and the new value, the relative
change and its direction against the metric's ``better``: ``better``,
``worse`` or ``equal``.  It judges no ``bound``: one run per side is too
noisy for that, and a bound is judged only over alternating pairs of runs.
It reads the reference-speed ``metrics``, not ``raw_wall``, so files from
two machines compare.  It then prints whether each workload's
``fingerprint_sha256`` and ``correct`` are equal.  The exit status is 1 when
a fingerprint or ``correct`` differs, or a workload is missing from one
file, and 0 otherwise.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def judge(old: float, new: float, better: str) -> tuple[str, str]:
    """The relative change of new against old, formatted ("n/a" from 0), and
    its direction: "better", "worse" or "equal"."""
    if old == new:
        return "+0.0%", "equal"
    change = f"{(new - old) / abs(old):+.1%}" if old else "n/a"
    return change, "better" if (new < old) == (better == "lower") else "worse"


def compare(old: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether every workload is in both files with
    equal fingerprints and equal ``correct``."""
    lines = [f"old: pr {old.get('pr')}, {old.get('env')}",
             f"new: pr {new.get('pr')}, {new.get('env')}",
             f"{'workload':<9} {'metric':<18} {'old':>12} {'new':>12} "
             f"{'change':>8}  judged"]
    same = True
    workloads = [*old["workloads"], *(w for w in new["workloads"]
                                      if w not in old["workloads"])]
    for workload in workloads:
        a, b = old["workloads"].get(workload), new["workloads"].get(workload)
        if a is None or b is None:
            lines.append(f"{workload:<9} missing from the {'old' if a is None else 'new'} file")
            same = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["metrics"] or name not in b["metrics"]:
                lines.append(f"{workload:<9} {name:<18} not in both files")
                continue
            u, v = a["metrics"][name]["value"], b["metrics"][name]["value"]
            change, verdict = judge(u, v, metric["better"])
            lines.append(f"{workload:<9} {name:<18} {u:>12.6g} {v:>12.6g} "
                         f"{change:>8}  {verdict}")
        for key in ("fingerprint_sha256", "correct"):
            u, v = str(a[key])[:8], str(b[key])[:8]
            same = same and a[key] == b[key]
            lines.append(f"{workload:<9} {key:<18} " + (
                f"equal ({u})" if a[key] == b[key] else f"DIFFERS ({u} -> {v})"))
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = (json.loads(path.read_text()) for path in (args.old, args.new))
    lines, same = compare(old, new, spec)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
