#!/usr/bin/env python3
"""Seeded verdict benchmark for tenscale.

Run from the repository root:

    python3 bench/run.py --workload members --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload far --seed 0 --seconds 12 --trace 1
    python3 bench/run.py --smoke          # every workload at a tiny size

One process, one client, closed loop: each query is sent when the previous
one has returned.  The queries come from ``--seed`` alone (see
workloads.py); every answer is checked against engine-independent ground
truth (truth.py) after its timer stops.  ``--seconds`` fixes the number of
query cycles, so identical work runs on both sides of a comparison.

Times are reported at a reference speed of the host (speed.py): each wall
time is scaled by the machine's speed at that moment, measured with a fixed
numpy kernel between queries, or at the end of each set-up process; raw
wall times are printed alongside.

``--trace 0`` times every query in four passes, keeps its lower median, and
prints the end-to-end metrics.  ``--trace 1`` makes two rounds of three
passes, untraced, traced (tracer.py) and untraced with capacity logging
off, in alternating order, keeps each query's faster time per kind of
pass, and prints the per-layer metrics.  Either way every query's fingerprint
(answer, engine run verdicts, iterations and budgets, rejected halts) is
printed, the passes must agree on it, and the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``failed_frac`` is printed as a line of its own; the JSON carries
``correct_frac`` = 1 - failed_frac, a metric that is never 0.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# before numpy is imported: one BLAS thread keeps run-to-run spread low
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (("solve_ms_p50", "ms"), ("solve_ms_tail", "ms"),
              ("queries_per_s", "1/s"), ("steps_per_s", "1/s"),
              ("correct_frac", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("tensors.ms", "ms"), ("tensors.self.ms", "ms"),
    ("tensors.marginal.ms", "ms"), ("tensors.marginal.calls", "count"),
    ("tensors.trace_distance.ms", "ms"), ("tensors.trace_distance.calls", "count"),
    ("tensors.check_hermitian.ms", "ms"), ("tensors.apply_factor.ms", "ms"),
    ("tensors.apply_group.ms", "ms"), ("tensors.apply_group.calls", "count"),
    ("tensors.validate.ms", "ms"),
    ("scaling.ms", "ms"), ("scaling.self.ms", "ms"), ("scaling.factor.ms", "ms"),
    ("scaling.capacity.ms", "ms"), ("scaling.random_group.ms", "ms"),
    ("scaling.step_us", "us"), ("scaling.steps", "count"),
    ("scaling.rejected_halts", "count"), ("scaling.halt_checks", "count"),
    ("scaling.pad.calls", "count"), ("scaling.numeric_warnings", "count"),
    ("scaling.nonfinite_capacity", "count"),
    ("oracle.ms", "ms"), ("oracle.self.ms", "ms"), ("oracle.runs", "count"),
    ("oracle.sinkhorn.ms", "ms"),
    ("hwv.ms", "ms"), ("hwv.self.ms", "ms"), ("hwv.evaluate.ms", "ms"),
    ("hwv.evaluate.calls", "count"), ("hwv.enumerate.ms", "ms"),
    ("hwv.find_spec.ms", "ms"), ("hwv.verify_progress.ms", "ms"),
    ("hwv.transform_check.ms", "ms"),
    ("reduction.ms", "ms"), ("reduction.self.ms", "ms"),
    ("reduction.reduce_tensor.ms", "ms"), ("reduction.expand.calls", "count"),
    ("io.ms", "ms"), ("io.self.ms", "ms"), ("io.serialize.ms", "ms"),
    ("io.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)
SETUP_REPEATS = 5
# Timed passes over the query list with --trace 0.  Five passes spread over
# the run held the ten-seed spread of every end-to-end time near half that
# of three passes on a shared 2-core VM; four, with the same cycles at
# --seconds 12, keep the runs of a full benchmark check (4 + 22 per
# workload) within its 3420 s when the host runs 1.8x slower than usual.
PASSES = 4
# --trace 1: rounds of (untraced, traced, capacity-off) passes, the order
# reversed every other round, so that neither a difference of two kinds of
# pass nor the order they run in is left to a single timing.
TRACE_ROUNDS = 2
TRACE_KINDS = ("plain", "traced", "no_capacity")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_engine():
    """Import tenscale from this checkout's src/, never from elsewhere."""
    if not (SRC / "tenscale" / "__init__.py").is_file():
        fail(f"no engine sources at {SRC / 'tenscale'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tenscale
    if SRC not in Path(tenscale.__file__).resolve().parents:
        fail(f"imported tenscale from {tenscale.__file__}, not from {SRC}")
    return tenscale


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so engine handlers never eat it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    name: str
    start: float           # perf_counter at the call
    seconds: float         # wall time
    answer: str
    ok: bool
    missed: bool
    reason: str
    steps: int
    runs: str
    halt_checks: int
    rejected: int
    numeric_warnings: int
    other_warnings: int
    nonfinite: int
    report_bytes: int
    ref_seconds: float = 0.0  # wall time at the reference speed (speed.py)

    @property
    def fingerprint(self) -> str:
        return (f"{self.name} | answer={self.answer} runs={self.runs or '-'} "
                f"rejected_halts={self.rejected}")


def run_query(query, counters, log_capacity: bool) -> Record:
    import numpy as np
    import workloads as wl

    numeric = (ArithmeticError, np.linalg.LinAlgError)
    counters.reset()
    raw, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with deadline(query.deadline_s):
                raw = query.call(log_capacity)
        except DeadlineExceeded:
            error = ("DEADLINE", False)
        except numeric as exc:
            # a documented numeric failure is an honest negative on a non-member
            error = (f"NUMERIC:{type(exc).__name__}", not query.truth.member)
        except Exception as exc:  # noqa: BLE001 - any other escape is a failed query
            error = (f"ERROR:{type(exc).__name__}", False)
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
    if error is None:
        verdict = query.judge(raw)
    else:
        verdict = wl.Judgement(
            error[0], error[1], "" if error[1] else f"raised {error[0]}",
            missed=error[0].startswith("NUMERIC") and query.truth.member)
    reports = list(counters.reports)
    return Record(
        name=query.name, start=start, seconds=seconds, answer=verdict.answer,
        ok=verdict.ok,
        missed=verdict.missed, reason=verdict.reason,
        steps=sum(r.iterations for r in reports) + verdict.steps,
        runs=";".join(f"{r.verdict}:{r.iterations}:{r.budget}" for r in reports),
        halt_checks=counters.halt_checks, rejected=counters.rejected_halts(),
        numeric_warnings=sum(1 for w in caught
                             if issubclass(w.category, RuntimeWarning)),
        other_warnings=sum(1 for w in caught
                           if not issubclass(w.category, RuntimeWarning)),
        nonfinite=sum(1 for r in reports for rec in r.trace
                      if not math.isfinite(rec.capacity)) if log_capacity else 0,
        report_bytes=verdict.report_bytes)


def run_pass(queries, counters, reference, log_capacity: bool = True
             ) -> list[Record]:
    """Every query once, with speed probes between them; each record gets
    its time at the reference speed."""
    records = []
    counters.install()
    try:
        for q in queries:
            reference.maybe_probe()
            records.append(run_query(q, counters, log_capacity))
    finally:
        counters.restore()
    reference.probe()
    for r in records:
        r.ref_seconds = r.seconds * reference.factor(r.start + r.seconds / 2)
    return records


def run_traced_pass(queries, counters, reference, kind: str, tracer
                    ) -> list[Record]:
    """One pass of a --trace 1 round; the tracer spans only traced passes."""
    if kind != "traced":
        return run_pass(queries, counters, reference,
                        log_capacity=kind != "no_capacity")
    tracer.install()
    try:
        return run_pass(queries, counters, reference)
    finally:
        tracer.restore()


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, and
    never below the median; the maximum when there are too few samples."""
    if n <= 10:
        return 100
    return max(50, math.floor(100 * (1 - 10 / n)))


def environment_line() -> str:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env nproc={os.cpu_count()} affinity={affinity} "
            f"machine={platform.machine()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas!r} threads={threads}")


def measure_setup(args, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import, build the run's inputs
    and warm up, then exit: the set-up a run pays before its first query.
    Returned at the reference speed, by the speed probes each process
    makes once its set-up is done, and raw."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"] + (["--smoke"] if args.smoke else [])
    ref_times, times = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=False)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            fail(f"set-up run failed: {done.stderr}")
        times.append(seconds)
        ref_times.append(seconds * speed.REFERENCE_S / float(done.stdout.split()[-1]))
    return ref_times, times


def prepare(args, reference):
    """Build this run's queries and warm every code path once."""
    import workloads as wl
    from tracer import Counters

    cycles = 1 if args.smoke else wl.cycles_for(args.workload, args.seconds, PASSES)
    queries, probes = wl.build(args.workload, args.seed, cycles, args.smoke)
    warm, _ = wl.build(args.workload, args.seed, 1, smoke=True)
    run_pass(warm, Counters(), reference)
    return cycles, queries, probes


def summarize_records(records: list[Record], raw: bool = False
                      ) -> tuple[int, int, float, int]:
    """Count, failures, busy seconds (at the reference speed unless raw)
    and steps."""
    busy = sum(r.seconds if raw else r.ref_seconds for r in records)
    steps = sum(r.steps for r in records)
    failed = sum(1 for r in records if not r.ok)
    return len(records), failed, busy, steps


def best_of(passes: list[list[Record]]) -> list[Record]:
    """Each query's lower-median pass (of two passes, the faster).  What the
    reference speed does not catch of a slow phase, a median of passes
    spread over the run misses.  The fastest of four passes picks up the
    reference speed's own errors instead: over twelve seeds in a noisy hour
    on a shared 2-core x86-64 VM, the spreads (IQR over median) of p50, tail
    and queries_per_s were 0.13-0.19 with the fastest and 0.11-0.12 with the
    lower median on members, 0.11-0.14 and 0.06-0.09 on certify, and no
    wider with the lower median on far or large but for large's tail (0.04
    and 0.06)."""
    return [sorted(timings, key=lambda r: r.ref_seconds)[(len(timings) - 1) // 2]
            for timings in zip(*passes)]


def timing_metrics(records, raw: bool) -> dict:
    n, _, busy, steps = summarize_records(records, raw)
    times = [(r.seconds if raw else r.ref_seconds) * 1e3 for r in records]
    return {"solve_ms_p50": percentile(times, 50),
            "solve_ms_tail": percentile(times, tail_percentile(n)),
            "queries_per_s": n / busy,
            "steps_per_s": steps / busy}


def end_to_end(records, setup) -> tuple[dict, list[str]]:
    n, failed, _, _ = summarize_records(records)
    ref_setup, raw_setup = setup
    values = timing_metrics(records, raw=False)
    values.update({
        "correct_frac": 1 - failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(ref_setup),
    })
    raw = timing_metrics(records, raw=True)
    raw["setup_s"] = statistics.median(raw_setup)
    notes = [f"each query timed in {PASSES} passes, its lower median kept",
             f"solve_ms_tail is p{tail_percentile(n)} over {n} queries",
             f"failed_frac {failed / n:.6g} ratio ({failed} of {n})",
             f"setup_s runs {' '.join(f'{t:.4f}' for t in ref_setup)} "
             f"(raw {' '.join(f'{t:.4f}' for t in raw_setup)})"]
    notes += [f"raw wall {name} {value:.6g}" for name, value in raw.items()]
    return values, notes


def per_layer(tracer, traced_passes, plain, traced, no_capacity, probes) -> dict:
    """Per-layer metrics of one pass over the queries, at the reference
    speed: span totals averaged over the traced passes and scaled by their
    mean speed, differences taken between each query's fastest times.
    Numeric breakdowns also count the probes, which exist to surface them."""
    _, _, busy, steps = summarize_records(plain)
    _, _, traced_busy, _ = summarize_records(traced)
    _, _, no_cap_busy, _ = summarize_records(no_capacity)
    all_traced = [r for records in traced_passes for r in records]
    span_scale = 1e3 / TRACE_ROUNDS * summarize_records(all_traced)[2] \
        / summarize_records(all_traced, raw=True)[2]
    values = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self.ms"):
            values[name] = tracer.self_s[name.split(".")[0]] * span_scale
        elif name.endswith(".ms"):
            values[name] = tracer.totals[name[:-len(".ms")]] * span_scale
        elif name.endswith(".calls"):
            values[name] = tracer.calls[name[:-len(".calls")]] // TRACE_ROUNDS
    values.update({
        "scaling.capacity.ms": (busy - no_cap_busy) * 1e3,
        "scaling.step_us": busy / steps * 1e6 if steps else 0.0,
        "scaling.steps": steps,
        "scaling.rejected_halts": sum(r.rejected for r in plain),
        "scaling.halt_checks": sum(r.halt_checks for r in plain),
        "scaling.numeric_warnings": sum(r.numeric_warnings for r in plain + probes),
        "scaling.nonfinite_capacity": sum(r.nonfinite for r in plain + probes),
        "oracle.runs": tracer.oracle_runs // TRACE_ROUNDS,
        "io.report_bytes": sum(r.report_bytes for r in plain),
        "trace.overhead_frac": (traced_busy - busy) / busy,
    })
    return values


def print_records(tag: str, records: list[Record]) -> None:
    for i, r in enumerate(records):
        print(f"{tag} {i:04d} {r.fingerprint} | ok={int(r.ok)} "
              f"ms={r.ref_seconds * 1e3:.3f} raw_ms={r.seconds * 1e3:.3f} "
              f"numeric_warnings={r.numeric_warnings} "
              f"nonfinite_capacity={r.nonfinite}"
              + (f" other_warnings={r.other_warnings}" if r.other_warnings else "")
              + (f" reason={r.reason!r}" if r.reason else ""))


def run_workload(args) -> dict:
    """One workload end to end; prints its report and returns the result."""
    import speed
    from tracer import Counters, Tracer

    print(f"# tenscale bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} smoke={int(args.smoke)} "
          f"(one process, one client, closed loop)")
    print(environment_line())
    reference = speed.Reference()
    setup_times = measure_setup(args, 1 if args.smoke else SETUP_REPEATS)
    cycles, queries, probes = prepare(args, reference)
    print(f"cycles={cycles} queries={len(queries)} probes={len(probes)}")

    counters = Counters()
    if args.trace:
        tracer = Tracer()
        by_kind = {kind: [] for kind in TRACE_KINDS}
        for i in range(TRACE_ROUNDS):
            for kind in TRACE_KINDS[::-1] if i % 2 else TRACE_KINDS:
                by_kind[kind].append(
                    run_traced_pass(queries, counters, reference, kind, tracer))
        passes = [p for kind_passes in by_kind.values() for p in kind_passes]
        plain, traced, no_capacity = (best_of(by_kind[k]) for k in TRACE_KINDS)
    else:
        passes = [run_pass(queries, counters, reference) for _ in range(PASSES)]
        plain = best_of(passes)
    prints = [[r.fingerprint for r in records] for records in passes]
    same = all(p == prints[0] for p in prints)
    label = "untraced == traced == capacity-off" if args.trace \
        else f"equal over {PASSES} passes"
    print(f"fingerprints {label}: {str(same).lower()}")
    checks = [same] + [r.ok for records in passes for r in records]
    probe_records = run_pass(probes, counters, reference)
    print(f"speed kernel median {reference.median_kernel_s() * 1e3:.4f} ms over "
          f"{len(reference.seconds)} probes; reference "
          f"{speed.REFERENCE_S * 1e3:g} ms")

    print_records("fp", plain)
    for q, r in zip(probes, probe_records):
        # a named miss of the seed engine is shown, not failed; anything
        # else a probe gets wrong fails the run
        status = "answered" if r.ok else \
            "MISSED" if q.known_miss and r.missed else "FAILED"
        checks.append(status != "FAILED")
        print(f"probe {r.fingerprint} | {status} (outside the timed passes) "
              f"ms={r.seconds * 1e3:.3f} steps={r.steps} halt_checks={r.halt_checks} "
              f"numeric_warnings={r.numeric_warnings} nonfinite_capacity={r.nonfinite}"
              + (f" reason={r.reason!r}" if r.reason else ""))
    digest = hashlib.sha256("\n".join(
        r.fingerprint for r in plain + probe_records).encode()).hexdigest()
    print(f"fingerprint_sha256 {digest}")
    for r in plain:
        if not r.ok:
            print(f"failure {r.name}: {r.reason}")

    if args.trace:
        metrics = per_layer(tracer, by_kind["traced"], plain, traced, no_capacity,
                            probe_records)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(plain, setup_times)
        units = dict(END_TO_END)
        for note in notes:
            print(note)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    n, failed, _, _ = summarize_records(plain)
    return {"correct": all(checks), "attempted": n, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances; without --workload, every workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_engine()
    sys.path.insert(0, str(HERE))
    import speed
    import workloads as wl

    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    if args.workload is not None and args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.setup_only:
        # the machine's speed as set-up ends, for the parent to scale by
        reference = speed.Reference()
        prepare(args, reference)
        for _ in range(2 * speed.NEAREST):
            reference.probe()
        print(statistics.median(reference.seconds[-2 * speed.NEAREST:]))
        return 0

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    results = []
    for name in names:
        args.workload = name
        results.append(run_workload(args))
    if len(results) == 1:
        result = results[0]
    else:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results), "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
