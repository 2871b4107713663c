"""Seeded workloads: the queries each benchmark run sends, and their checks.

A workload is a list of queries built in set-up from ``--seed`` alone; the
engine sees only the generated inputs.  A query is one call into a public
entry point (``run_scaling``, ``run_general_scaling``, ``membership``,
``qmp``, ``kronecker_support``) or one certify task, paired with a judge
that checks the answer against ``truth`` and never against the engine.

Queries come in cycles.  Each cycle draws fresh instances of one fixed
template, so a run's mix of formats, targets and tolerances is the same on
every seed and only the drawn values change.  The number of cycles is
fixed by ``--seconds`` alone, so both sides of a before/after comparison
run identical work.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import tenscale as ts
from tenscale import io as tio

import truth as tr

MEMBERS = "members"
LARGE = "large"
FAR = "far"
CERTIFY = "certify"
WORKLOADS = (MEMBERS, LARGE, FAR, CERTIFY)

# Per-query wall-clock deadline; a query that misses it counts as failed.
DEADLINE_S = {MEMBERS: 30.0, LARGE: 30.0, FAR: 60.0, CERTIFY: 30.0}

# Safety cap on member queries: the slowest member draw seen while sizing
# took 1820 steps, so 5000 only trips on a stalled run.  In qmp and
# Kronecker queries a stalled run gives way to the next repeat.
MEMBER_CAP = 5000
# A single run_scaling member query has no repeat, and its step count has a
# long tail: a (1;2,2,2) nonuniform target at eps=1e-4 under engine seed
# 525944804 took 5,621 steps (2 s on a 2-core x86-64 VM).
SCALING_MEMBER_CAP = 20_000
# About ten steps reach eps on every large format; the cap stops a drifting
# run long before the deadline.
LARGE_CAP = 60
# Far and boundary caps: the seed's default budgets are 1.29e9 steps for
# W -> uniform and 14,421,798 for the Kronecker point, hours of work.  The
# timed far caps are short, so that a run times about a hundred queries
# and its median and tail percentile are taken over that many samples.
# W -> uniform makes its first halt check near step 80, so a capped W run
# of 120 steps makes about seven, all rejected.  The capped W runs and the
# membership run (two repeats of 60 steps) take about the same time, so the
# median falls among them and not at an edge between query kinds; the
# Kronecker run is the slowest kind, so the tail falls among its runs.
W_FAR_CAP = 120
W_MEMBERSHIP_CAP = 60
KRONECKER_OVERFLOW_CAP = 14_000
KRONECKER_FAR_CAP = 150
RANK_CAP = 1000
W_BOUNDARY_CAP = 500
D5_ZERO_CAP = 200

# Approximate query-seconds per cycle on a 2-core x86-64 VM (Python 3.11,
# numpy 2.4, one BLAS thread); they turn --seconds into a cycle count.
CYCLE_S = {MEMBERS: 0.33, LARGE: 0.35, FAR: 0.15, CERTIFY: 2.0}


@dataclass(frozen=True)
class Truth:
    """Engine-independent label: member, or non-member kept at least
    ``separation`` (max trace distance) away from every reachable point."""

    member: bool
    basis: str
    separation: Fraction | None = None


@dataclass
class Judgement:
    answer: str
    ok: bool
    reason: str = ""
    steps: int = 0         # steps taken outside engine reports (scaling_step loops)
    report_bytes: int = 0  # bytes of serialized reports
    missed: bool = False   # a named defect of the seed engine, and nothing worse


@dataclass
class Query:
    name: str
    call: Callable[[bool], object]  # argument: log_capacity
    judge: Callable[[object], Judgement]
    truth: Truth
    deadline_s: float
    # a defect of the seed engine: a probe whose miss (a negative answer on
    # a member, a failed progress check, a cross-oracle disagreement) is
    # printed as MISSED instead of failing the run
    known_miss: bool = False


def cycles_for(workload: str, seconds: float, passes: int) -> int:
    return max(1, round(seconds / (passes * CYCLE_S[workload])))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# The engine ends a run NOT_IN_POLYTOPE when a marginal of its randomized
# (and, for zero targets, restricted) tensor has an eigenvalue under 1e-12
# of its trace.  An ill-conditioned random basis change trips that on
# members; the far workload keeps the defect visible as a named probe, and
# member streams draw engine seeds that stay clear of it.


def member_engine_seed(rng, x: ts.Tensor, parts) -> int:
    """An engine seed whose randomized, restricted tensor keeps every
    marginal's smallest eigenvalue above 1e-8 of its trace.  This is
    set-up, not ground truth, so it builds that tensor with the engine's
    own public functions."""
    target = ts.TargetSpectrum(parts)
    while True:
        seed = _seed(rng)
        group = ts.random_group(x.dims, ts.DEFAULT_RAND_RANGE, seed)
        restricted, _, _ = ts.restrict_positive(ts.apply_group(group, x), target)
        if tr.min_eigenvalue_ratio(restricted.data) >= 1e-8:
            return seed


def large_engine_seed(rng, dims) -> int:
    """An engine seed whose random basis change has condition number at
    most 1e4 on every factor; checking the randomized marginals themselves
    would cost more set-up than the queries on these formats."""
    while True:
        seed = _seed(rng)
        group = ts.random_group(dims, ts.DEFAULT_RAND_RANGE, seed)
        if max(np.linalg.cond(m) for m in group) <= 1e4:
            return seed


def _cfg(eps: float, seed: int, cap: int, log_capacity: bool, **kw):
    return ts.ScalingConfig(epsilon=eps, seed=seed, max_iters=cap,
                            log_capacity=log_capacity, **kw)


# --------------------------------------------------------------------------
# Judges
# --------------------------------------------------------------------------


def decide(answer: str, positive: bool, witness_ok: Callable[[], bool],
           truth: Truth, eps: float, **extra) -> Judgement:
    if positive:
        if not witness_ok():
            return Judgement(answer, False, "witness rejected by recomputation",
                             **extra)
        if not truth.member and truth.separation is not None \
                and truth.separation > eps:
            return Judgement(answer, False, f"positive on a non-member ({truth.basis})",
                             **extra)
        return Judgement(answer, True, **extra)
    if truth.member:
        return Judgement(answer, False, f"negative on a member ({truth.basis})",
                         missed=True, **extra)
    return Judgement(answer, True, **extra)


def judge_report(report, data, parts, eps, truth, nbytes=0) -> Judgement:
    return decide(report.verdict, report.verdict == ts.SCALED,
                  lambda: tr.witness_holds(data, report.group, parts, eps),
                  truth, eps, report_bytes=nbytes)


def judge_decision(verdict, data, parts, eps, truth, nbytes=0) -> Judgement:
    sample = data if data is not None else verdict.sample.data
    return decide(verdict.answer, verdict.answer == ts.IN,
                  lambda: tr.witness_holds(sample, verdict.witness, parts, eps),
                  truth, eps, report_bytes=nbytes)


def judge_check(passed: bool, reason: str, steps: int = 0) -> Judgement:
    return Judgement("PASS" if passed else "FAIL", passed,
                     "" if passed else reason, steps=steps)


# --------------------------------------------------------------------------
# Query constructors
# --------------------------------------------------------------------------


def scaling_query(name, x: ts.Tensor, parts, eps, seed, cap, truth,
                  deadline, mode=ts.BOREL, serialize=False,
                  known_miss=False) -> Query:
    p = ts.TargetSpectrum(parts)

    def call(log_capacity):
        report = ts.run_scaling(x, p, _cfg(eps, seed, cap, log_capacity, mode=mode))
        nbytes = len(tio.dumps_canonical(tio.report_to_obj(report))) \
            if serialize else 0
        return report, nbytes

    return Query(name, call,
                 lambda out: judge_report(out[0], x.data, parts, eps, truth, out[1]),
                 truth, deadline, known_miss)


def membership_query(name, x, parts, eps, seed, cap, repeats, truth,
                     deadline) -> Query:
    p = ts.TargetSpectrum(parts)

    def call(log_capacity):
        verdict = ts.membership(x, p, eps, cfg=_cfg(eps, seed, cap, log_capacity),
                                repeats=repeats)
        return verdict, len(tio.dumps_canonical(tio.verdict_to_obj(verdict)))

    return Query(name, call,
                 lambda out: judge_decision(out[0], x.data, parts, eps, truth, out[1]),
                 truth, deadline)


def qmp_query(name, parts, dims, eps, seed, cap, truth, deadline) -> Query:
    p = ts.TargetSpectrum(parts)

    def call(log_capacity):
        return ts.qmp(p, dims, eps, cfg=_cfg(eps, seed, cap, log_capacity))

    return Query(name, call,
                 lambda v: judge_decision(v, None, parts, eps, truth),
                 truth, deadline)


def kronecker_query(name, triple, eps, seed, cap, repeats, truth, deadline,
                    serialize=False) -> Query:
    query = ts.KroneckerQuery(*triple)
    parts = query.normalized_point().parts

    def call(log_capacity):
        verdict = ts.kronecker_support(query, eps,
                                       cfg=_cfg(eps, seed, cap, log_capacity),
                                       repeats=repeats)
        nbytes = len(tio.dumps_canonical(tio.verdict_to_obj(verdict))) \
            if serialize else 0
        return verdict, nbytes

    return Query(name, call,
                 lambda out: judge_decision(out[0], None, parts, eps, truth, out[1]),
                 truth, deadline)


def mps_query(name, eps, seed, cap, deadline) -> Query:
    phi = ts.mps_parametrization(2, 2, 3)
    parts = ts.TargetSpectrum.uniform((2, 2, 2)).parts
    basis = "hyperdeterminant of the sample: nonzero is the dense GHZ orbit, " \
            "zero puts uniform outside by the W polytope"

    def judge(out):
        report, sample = out
        member = tr.hyperdeterminant(sample.data) != 0
        truth = Truth(member, basis, None if member
                      else tr.w_polytope_separation(parts))
        return decide(report.verdict, report.verdict == ts.SCALED,
                      lambda: tr.witness_holds(sample.data, report.group, parts, eps),
                      truth, eps)

    def call(log_capacity):
        return ts.run_general_scaling(phi, ts.TargetSpectrum(parts),
                                      _cfg(eps, seed, cap, log_capacity))

    return Query(name, call, judge, Truth(True, basis), deadline)


# --------------------------------------------------------------------------
# Instance generators
# --------------------------------------------------------------------------


def well_conditioned_basis(rng, n: int, max_cond: float = 25.0) -> np.ndarray:
    while True:
        m = rng.integers(-3, 4, size=(n, n))
        if np.linalg.cond(m) <= max_cond:
            return m.astype(complex)


QUBIT_MARGIN = Fraction(1, 20)


def latin_member(rng, n0: int, n: int, d: int, kind: str):
    """An integer tensor h . T whose orbit holds the latin tensor T, plus
    T's exact spectra: a member by construction."""
    shape = (n0,) + (n,) * (d - 1)
    if kind == "uniform":
        w = np.ones(shape, dtype=int)
    else:
        w = rng.integers(1, 4, size=shape)
        if kind == "zero":
            w[:, n - 1] = 0
    parts = tr.latin_spectra(w, n)
    h = [well_conditioned_basis(rng, n) for _ in range(d)]
    return ts.Tensor(tr.act(h, tr.latin_tensor(w, n))), parts


def qubit_polygon_point(rng):
    """Rational three-qubit spectra strictly inside the polygon."""
    while True:
        parts = tuple((1 - m, m) for m in
                      (Fraction(int(rng.integers(1, 10)), 20) for _ in range(3)))
        if tr.qubit_polygon_holds(parts, QUBIT_MARGIN):
            return parts


def random_integer_tensor(rng, shape, low, high) -> ts.Tensor:
    while True:
        data = rng.integers(low, high, size=shape)
        if np.any(data):
            return ts.Tensor(data.astype(complex))


def w_tensor() -> ts.Tensor:
    return ts.Tensor(tr.w_state())


# --------------------------------------------------------------------------
# members
# --------------------------------------------------------------------------

MEMBER_FORMATS = ((1, 2, 3), (1, 4, 3), (1, 3, 5), (2, 3, 3))  # (n0, n, d)
MEMBER_KINDS = ("uniform", "nonuniform", "zero")
MEMBER_EPS = (1e-2, 1e-3, 1e-4)
# (1;3^5) with a zero target stalls on rejected halts: every draw at 1e-4
# and about one in fourteen at 1e-3 ran into the deadline while sizing.
# The far workload keeps such an instance as a named probe; members stay
# at 1e-2 for this format and kind.
D5_ZERO_EPS = (1e-2,)


def members(rng, cycles: int, smoke: bool) -> list[Query]:
    deadline = DEADLINE_S[MEMBERS]
    formats = MEMBER_FORMATS[:1] if smoke else MEMBER_FORMATS
    modes = (ts.BOREL,) if smoke else (ts.BOREL, ts.PARABOLIC)
    kron_pool = tr.kronecker_candidates(4 if smoke else 6, 3)
    out = []
    for c in range(cycles):
        k = 0
        for n0, n, d in formats:
            for kind in MEMBER_KINDS:
                for mode in modes:
                    pool = D5_ZERO_EPS if (n, d, kind) == (3, 5, "zero") else MEMBER_EPS
                    eps = 1e-2 if smoke else pool[(c + k) % len(pool)]
                    k += 1
                    x, parts = latin_member(rng, n0, n, d, kind)
                    fmt = f"({n0};{','.join([str(n)] * d)})"
                    out.append(scaling_query(
                        f"run_scaling {fmt} {kind} eps={eps:g} {mode}", x, parts,
                        eps, member_engine_seed(rng, x, parts), SCALING_MEMBER_CAP,
                        Truth(True, "latin tensor in the orbit"), deadline, mode=mode))
        qubit_eps = 1e-2 if smoke else (1e-2, 1e-3)[c % 2]
        out.append(qmp_query(
            f"qmp (2,2,2) eps={qubit_eps:g}", qubit_polygon_point(rng), (2, 2, 2),
            qubit_eps, _seed(rng), MEMBER_CAP,
            Truth(True, "three-qubit polygon inequalities"), deadline))
        if not smoke:
            w = rng.integers(1, 4, size=(1, 3, 3))
            out.append(qmp_query(
                "qmp (3,3,3) eps=0.01", tr.latin_spectra(w, 3), (3, 3, 3), 1e-2,
                _seed(rng), MEMBER_CAP,
                Truth(True, "spectra of an explicit latin tensor"), deadline))
        for _ in range(1 if smoke else 2):
            triple = kron_pool[int(rng.integers(len(kron_pool)))]
            out.append(kronecker_query(
                f"kronecker_support {triple} eps=0.02", triple, 2e-2, _seed(rng),
                MEMBER_CAP, ts.DEFAULT_REPEATS,
                Truth(True, "positive Kronecker coefficient"), deadline))
        for _ in range(1 if smoke else 2):
            eps = 1e-2 if smoke else (1e-2, 1e-3)[c % 2]
            out.append(mps_query(f"run_general_scaling mps(2,2,3) eps={eps:g}",
                                     eps, _seed(rng), MEMBER_CAP, deadline))
    return out


# --------------------------------------------------------------------------
# large
# --------------------------------------------------------------------------

# (2;32^3) twice per cycle: the median and the tail percentile then fall
# among its runs, not in the gap between two formats.
LARGE_FORMATS = (((2, 32, 32, 32), 1e-2), ((1, 48, 48, 48), 1e-2),
                 ((4, 24, 24, 24), 1e-3), ((1, 8, 8, 8, 8), 1e-2),
                 ((2, 32, 32, 32), 1e-2))
SMOKE_LARGE_FORMATS = (((2, 8, 8, 8), 1e-2),)


def large(rng, cycles: int, smoke: bool) -> list[Query]:
    formats = SMOKE_LARGE_FORMATS if smoke else LARGE_FORMATS
    # fixed tensors, drawn once; only the engine seed changes per cycle
    tensors = [random_integer_tensor(rng, shape, -4, 5) for shape, _ in formats]
    truth = Truth(True, "generic tensor of a format that admits uniform "
                        "marginals (the latin tensor with w = 1)")
    out = []
    for _ in range(cycles):
        for (shape, eps), x in zip(formats, tensors):
            parts = ts.TargetSpectrum.uniform(shape[1:]).parts
            out.append(scaling_query(
                f"run_scaling {shape} uniform eps={eps:g}", x, parts, eps,
                large_engine_seed(rng, x.dims), LARGE_CAP, truth,
                DEADLINE_S[LARGE]))
    return out


# --------------------------------------------------------------------------
# far
# --------------------------------------------------------------------------

UNIFORM_QUBITS = ts.TargetSpectrum.uniform((2, 2, 2)).parts
RANK_TARGET = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)),
               (Fraction(1), Fraction(0)))
KRONECKER_FAR = ((4, 2), (3, 3), (2, 2, 2))


def kronecker_far_truth() -> Truth:
    parts = ts.KroneckerQuery(*KRONECKER_FAR).normalized_point().parts
    return Truth(False, "Bravyi two-qubit inequality |a-b| <= min(l1-l3, l2-l4) "
                        "fails on the restricted support",
                 tr.bravyi_separation(parts))


def far(rng, cycles: int, smoke: bool) -> list[Query]:
    deadline = DEADLINE_S[FAR]
    w_truth = Truth(False, "W polytope: sum lambda_max >= 2",
                    tr.w_polytope_separation(UNIFORM_QUBITS))
    kron_truth = kronecker_far_truth()
    rank_truth = Truth(not tr.rank_obstruction(RANK_TARGET, 1),
                       "rank obstruction r1 > n0 * r2 * r3",
                       tr.qubit_rank_separation(RANK_TARGET))
    scale = 20 if smoke else 1
    out = []
    for c in range(cycles):
        out.append(kronecker_query(
            f"kronecker_support {KRONECKER_FAR} eps=0.01 "
            f"cap={KRONECKER_FAR_CAP // scale}",
            KRONECKER_FAR, 1e-2, _seed(rng), KRONECKER_FAR_CAP // scale, 1,
            kron_truth, deadline, serialize=True))
        for mode in (ts.BOREL, ts.PARABOLIC):
            out.append(scaling_query(
                f"run_scaling W->uniform eps=0.001 {mode} cap={W_FAR_CAP // scale}",
                w_tensor(), UNIFORM_QUBITS, 1e-3, _seed(rng), W_FAR_CAP // scale,
                w_truth, deadline, mode=mode, serialize=True))
        out.append(membership_query(
            f"membership W->uniform eps=0.001 repeats=2 "
            f"cap={W_MEMBERSHIP_CAP // scale}",
            w_tensor(), UNIFORM_QUBITS, 1e-3, _seed(rng),
            W_MEMBERSHIP_CAP // scale, 2, w_truth, deadline))
        # one of five, the fastest kind: the median stays among the W runs
        x = random_integer_tensor(rng, (1, 2, 2, 2), 1, 6)
        out.append(scaling_query(
            "run_scaling monogamy ((1/2,1/2),(1,0),(1,0)) eps=0.05",
            x, RANK_TARGET, 5e-2, _seed(rng), RANK_CAP, rank_truth, deadline,
            serialize=True))
    return out


def far_probes(smoke: bool) -> list[Query]:
    """Fixed instances run once per process, outside the timed passes: the
    Kronecker run whose group overflows, too long to time in every pass, and
    members the seed engine misses (known_miss), whose negative answers are
    shown as MISSED without counting as failed."""
    deadline = DEADLINE_S[FAR]
    scale = 20 if smoke else 1
    w_parts = tr.w_spectra()
    # engine seed 0: the accumulated group overflows at step 13,360
    probes = [kronecker_query(
        f"kronecker_support {KRONECKER_FAR} eps=0.01 cap="
        f"{KRONECKER_OVERFLOW_CAP // scale} engine seed 0",
        KRONECKER_FAR, 1e-2, 0, KRONECKER_OVERFLOW_CAP // scale, 1,
        kronecker_far_truth(), deadline, serialize=True)]
    probes.append(scaling_query(
        f"W->(2/3,1/3)^3 eps=1e-6 cap={W_BOUNDARY_CAP // scale}",
        w_tensor(), w_parts, 1e-6, 1, W_BOUNDARY_CAP // scale,
        Truth(True, "the W state has these spectra exactly"), deadline,
        known_miss=True))
    # (1;4,4,4) member behind a basis change of condition ~1e6: the
    # randomized marginal falls under the 1e-12 singularity threshold
    h = [np.eye(4, dtype=complex) for _ in range(3)]
    h[1][0, 1] = 999
    w = np.ones((1, 4, 4), dtype=int)
    x = ts.Tensor(tr.act(h, tr.latin_tensor(w, 4)))
    probes.append(scaling_query(
        "ill-conditioned (1;4,4,4) member eps=1e-3", x, tr.latin_spectra(w, 4),
        1e-3, 0, MEMBER_CAP, Truth(True, "latin tensor in the orbit"), deadline,
        known_miss=True))
    x, parts = latin_member(np.random.default_rng(100), 1, 3, 5, "zero")
    probes.append(scaling_query(
        f"(1;3,3,3,3,3) zero target eps=1e-4 cap={D5_ZERO_CAP // scale}",
        x, parts, 1e-4, 0, D5_ZERO_CAP // scale,
        Truth(True, "latin tensor in the orbit"), deadline, known_miss=True))
    return probes


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

HWV_FORMATS = ((1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 2, 2))
TRANSFORM_SPECS = (
    ((1, 2, 2), (((1,), (1,)), (0,), ((0,), (0,)))),
    ((1, 2, 2), (((1, 1), (1, 1)), (0, 0), ((0, 1), (0, 1)))),
    ((2, 2, 2), (((2, 1), (3,)), (0, 1, 0), ((1, 2, 0), (0, 1, 2)))),
    ((1, 2, 2, 2), (((1, 1), (1, 1), (2,)), (0, 0), ((0, 1), (1, 0), (0, 1)))),
    ((1, 3, 2), (((2, 1, 1), (2, 2)), (0,) * 4, ((0, 1, 2, 3), (2, 3, 0, 1)))),
)
MUST_PASS = Truth(True, "theorem or exact identity")


HWV_CHUNK = 50


def hwv_tasks(shape, k, x: ts.Tensor) -> list[Query]:
    """One enumeration task, then the evaluations in tasks of at most
    HWV_CHUNK weight vectors, so that no single task dwarfs the others."""
    dims, n0 = shape[1:], shape[0]
    expected = tr.hwv_spec_count(dims, n0, k)
    enumerate_task = Query(
        f"enumerate_specs {shape} degree {k}",
        lambda _: sum(1 for _ in ts.enumerate_specs(dims, n0, k)),
        lambda count: judge_check(count == expected,
                                  f"{count} weight vectors, expected {expected}"),
        MUST_PASS, DEADLINE_S[CERTIFY])
    specs = list(ts.enumerate_specs(dims, n0, k))
    return [enumerate_task] + [hwv_task(shape, k, x, specs[i:i + HWV_CHUNK], i)
                               for i in range(0, len(specs), HWV_CHUNK)]


def hwv_task(shape, k, x: ts.Tensor, specs, first: int) -> Query:
    """Evaluate a chunk of weight vectors: each value must respect the
    evaluation bound, and for k <= 2 match a brute-force evaluation."""
    bound = float(np.prod(shape[1:])) ** k * float(np.linalg.norm(x.data)) ** k

    def judge(values):
        for spec, value in zip(specs, values):
            if abs(value) > bound * (1 + 1e-9):
                return judge_check(False, f"{spec} exceeds the evaluation bound")
            if k <= 2:
                ref = tr.hwv_bruteforce(spec.weight, spec.index_seq, spec.perms,
                                        x.data)
                if abs(value - ref) > 1e-9 * max(1.0, abs(ref)):
                    return judge_check(False, f"{spec} differs from brute force")
        return judge_check(True, "")

    last = first + len(specs) - 1
    return Query(f"evaluate_hwv {shape} degree {k} specs {first}..{last}",
                 lambda _: [ts.evaluate_hwv(spec, x) for spec in specs], judge,
                 MUST_PASS, DEADLINE_S[CERTIFY])


def upper_triangular(rng, n: int) -> np.ndarray:
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return 0.3 * m + np.diag(1.0 + rng.random(n)).astype(complex)


def transform_task(rng, shape, spec_fields) -> Query:
    spec = ts.HWVSpec(*spec_fields)
    x = random_integer_tensor(rng, shape, -3, 4)
    group = tuple(upper_triangular(rng, n) for n in shape[1:])
    return Query(f"check_hwv_transformation {shape}",
                 lambda _: ts.check_hwv_transformation(spec, x, group, rtol=1e-8),
                 lambda ok: judge_check(bool(ok), "transformation law failed"),
                 MUST_PASS, DEADLINE_S[CERTIFY])


def progress_task(rng, mode, steps_cap=40, raw_spec=False, label="") -> Query:
    """Instrumented run: every scaling_step must grow the potential by the
    verify_progress factor and fix its marginal to the target exactly.
    The spec is sought on the unit-norm start, or with ``raw_spec`` on the
    randomized integer tensor, as certify_probes does to show the defect
    described there."""
    x = random_integer_tensor(rng, (1, 2, 2, 2), 1, 4)
    gseed = _seed(rng)
    parts = ts.TargetSpectrum.uniform(x.dims).parts
    target = ts.TargetSpectrum(parts)

    def call(_):
        x0 = ts.apply_group(ts.random_group(x.dims, 16, gseed), x)
        g = [np.eye(n, dtype=complex) for n in x.dims]
        g[0] /= x0.norm()
        g = tuple(g)
        spec = ts.find_nonvanishing_spec(x0 if raw_spec else ts.apply_group(g, x0),
                                         target, max_degree=4)
        if spec is None:
            return None, 0, []
        steps, grew, fixed = 0, [], []
        for _ in range(steps_cap):
            y = ts.apply_group(g, x0)
            g_next, i, dists = ts.scaling_step(g, x0, target, mode=mode)
            steps += 1
            if max(dists) <= 1e-2:
                break
            y_next = ts.apply_group(g_next, x0)
            grew.append(ts.verify_progress(spec, y, y_next, eps_i=dists[i - 1]))
            fixed.append((g_next, i))
            g = list(g_next)
            g[0] = g[0] / y_next.norm()
            g = tuple(g)
        return x0, steps, list(zip(grew, fixed))

    def judge(out):
        x0, steps, checks = out
        if x0 is None:
            return judge_check(True, "", steps=steps)
        for grew, (g_next, i) in checks:
            rho = tr.marginals(tr.act(g_next, x0.data))[i - 1]
            target = np.diag([float(v) for v in reversed(parts[i - 1])])
            if not grew:
                reason = "potential grew too little"
            elif tr.trace_distance(rho, target) > 1e-8:
                reason = "step did not fix its marginal"
            else:
                continue
            return Judgement("FAIL", False, reason, steps=steps, missed=raw_spec)
        return judge_check(True, "", steps)

    return Query(f"progress run (1;2,2,2) {mode}{label}", call, judge, MUST_PASS,
                 DEADLINE_S[CERTIFY], known_miss=raw_spec)


# On the zero set of the hyperdeterminant, which 3.3% of the random triple
# draws hit, (2/3,1/3)^3 is the W point on the polytope's boundary and the
# seed engine is unreliable there: of 654 such draws, 21 direct and reduced
# runs disagreed and 7 direct runs raised ValueError on non-finite entries
# (none in 2,901 draws off it).  Timed triples are drawn off the zero set;
# certify_probes keeps one disagreement.
CROSS_PROBE_TENSOR = [[[[3, 4], [1, 4]], [[3, 2], [2, 2]]]]
ZERO_SET_TRIPLE = "triple on the hyperdeterminant's zero set"


def cross_oracle_task(rng, kind: str) -> Query:
    """Reduction cross-oracle: a direct Borel-orbit run and a uniform
    parabolic run on the reduced tensor must agree on the verdict."""
    two_thirds = ((Fraction(2, 3), Fraction(1, 3)),)
    if kind == "W":
        y, parts, lams = w_tensor(), UNIFORM_QUBITS, [(1, 1)] * 3
    elif kind == "pair":
        y = random_integer_tensor(rng, (1, 2, 2), 1, 6)
        parts, lams = two_thirds * 2, [(2, 1)] * 2
    elif kind == "triple":
        y = random_integer_tensor(rng, (1, 2, 2, 2), 1, 5)
        while tr.hyperdeterminant(y.data) == 0:
            y = random_integer_tensor(rng, (1, 2, 2, 2), 1, 5)
        parts, lams = two_thirds * 3, [(2, 1)] * 3
    else:
        y = ts.Tensor(np.array(CROSS_PROBE_TENSOR, dtype=complex))
        parts, lams = two_thirds * 3, [(2, 1)] * 3
    known_miss = kind == ZERO_SET_TRIPLE
    p = ts.TargetSpectrum(parts)

    def call(log_capacity):
        cfg = dict(epsilon=0.05, seed=0, randomize=False, max_iters=800,
                   log_capacity=log_capacity)
        direct = ts.run_scaling(y, p, ts.ScalingConfig(**cfg))
        scales = tuple(np.diag(1.0 / np.sqrt(ts.ReductionData(l).lam_ascending()))
                       .astype(complex) for l in lams)
        reduced = ts.reduce_tensor(ts.apply_group(scales, y), lams)
        via = ts.run_scaling(reduced, ts.TargetSpectrum.uniform(reduced.dims),
                             ts.ScalingConfig(mode=ts.PARABOLIC, **cfg))
        return direct, via

    def judge(out):
        direct, via = out
        if (direct.verdict == ts.SCALED) != (via.verdict == ts.SCALED):
            return Judgement("FAIL", False, "direct and reduced runs disagree",
                             missed=known_miss)
        if direct.verdict == ts.SCALED and not tr.witness_holds(
                y.data, direct.group, parts, 0.05):
            return judge_check(False, "direct witness rejected by recomputation")
        return judge_check(True, "")

    return Query(f"reduction cross-oracle {kind}", call, judge, MUST_PASS,
                 DEADLINE_S[CERTIFY], known_miss)


def identities_task(ell: int) -> Query:
    """Closed-form identities of the expansion maps for every partition of
    ell, with the ascending diagonal built here."""
    def call(_):
        out = []
        for lam in tr.partitions(ell):
            rd = ts.ReductionData(lam)
            lam_asc = np.diag(np.array(lam[::-1], dtype=float))
            out.append((
                ts.expand_matrix(rd, np.eye(rd.n)) - np.eye(ell),
                ts.expand_adjoint(rd, np.eye(ell)) - lam_asc,
                ts.normalized_expand(rd, lam_asc) - np.eye(ell),
                ts.normalized_expand_adjoint(rd, np.eye(ell)) - np.eye(rd.n)))
        return out

    def judge(out):
        worst = max(np.abs(m).max() for group in out for m in group)
        return judge_check(worst <= 1e-12, f"identity off by {worst:.2e}")

    return Query(f"reduction identities ell={ell}", call, judge, MUST_PASS,
                 DEADLINE_S[CERTIFY])


def sinkhorn_task(rng) -> Query:
    """Diagonal-support tensor scaling against classical Sinkhorn: both
    must reach the targets, and their row and column sums must agree."""
    n, m = (2, 3) if rng.integers(2) else (3, 3)
    a = rng.integers(1, 9, size=(n, m)).astype(float)
    rw = sorted((int(v) for v in rng.integers(1, 5, size=n)), reverse=True)
    cw = sorted((int(v) for v in rng.integers(1, 5, size=m)), reverse=True)
    parts = (tuple(Fraction(v, sum(rw)) for v in rw),
             tuple(Fraction(v, sum(cw)) for v in cw))
    r = [float(v) for v in parts[0]]
    c = [float(v) for v in parts[1]]

    def call(log_capacity):
        x = ts.matrix_to_diagonal_tensor(a / a.sum())
        rep = ts.run_scaling(x, ts.TargetSpectrum(parts), ts.ScalingConfig(
            epsilon=1e-5, seed=0, randomize=False, max_iters=4000,
            log_capacity=log_capacity))
        return x, rep, ts.sinkhorn(a, r, c, 1e-6, max_iters=4000)

    def judge(out):
        x, rep, sink = out
        if rep.verdict != ts.SCALED or not tr.witness_holds(x.data, rep.group,
                                                            parts, 1e-5):
            return judge_check(False, "tensor scaling missed a scalable matrix")
        rows, cols = sink.matrix.sum(axis=1), sink.matrix.sum(axis=0)
        if np.abs(rows - r).sum() > 1e-6 or np.abs(cols - c).sum() > 1e-6:
            return judge_check(False, "Sinkhorn sums off target")
        rhos = tr.marginals(tr.act(rep.group, x.data))
        tensor_rows = np.sort(np.diag(rhos[0]).real)
        tensor_cols = np.sort(np.diag(rhos[1]).real)
        if np.abs(tensor_rows - np.sort(rows)).max() > 1e-4 \
                or np.abs(tensor_cols - np.sort(cols)).max() > 1e-4:
            return judge_check(False, "tensor and Sinkhorn sums disagree")
        return judge_check(True, "")

    return Query(f"sinkhorn vs matrix_to_diagonal_tensor ({n}x{m})", call, judge,
                 MUST_PASS, DEADLINE_S[CERTIFY])


def certify(rng, cycles: int, smoke: bool) -> list[Query]:
    out = []
    for _ in range(cycles):
        for shape in HWV_FORMATS[:1] if smoke else HWV_FORMATS:
            for k in range(1, 3 if smoke else 5):
                x = random_integer_tensor(rng, shape, -3, 4)
                out.extend(hwv_tasks(shape, k, x))
        for shape, fields in TRANSFORM_SPECS[:1] if smoke else TRANSFORM_SPECS:
            out.append(transform_task(rng, shape, fields))
        for mode in (ts.BOREL, ts.PARABOLIC):
            out.append(progress_task(rng, mode))
        for kind in ("pair",) if smoke else ("W", "pair", "triple"):
            out.append(cross_oracle_task(rng, kind))
        for ell in range(1, 4 if smoke else 7):
            out.append(identities_task(ell))
        for _ in range(1 if smoke else 2):
            out.append(sinkhorn_task(rng))
    return out


# find_nonvanishing_spec compares |P(x)| with an absolute 1e-8, and on a
# randomized integer tensor (norm up to ~1e5) rounding of order eps * |x|^k
# passes that test: on one (1;2,2,2) tensor of norm 4.8e4 it chose a spec
# whose value at x / |x| is 4e-19, and the potential then failed to grow.
# Timed progress runs seek the spec on the unit-norm start instead.


def certify_probes() -> list[Query]:
    """Defects that timed certify tasks step around, run once outside the
    timed passes and shown as MISSED.  Progress runs that seek the spec on
    the randomized tensor: on rng 57 a spurious spec lets a run near the
    null cone go on until a factor's condition number reaches 2.4e4 and the
    step leaves its marginal 2.6e-8 off; on rng 159 the potential grows too
    little.  A triple cross-oracle on CROSS_PROBE_TENSOR: the direct run
    ends NOT_IN_POLYTOPE, the reduced run SCALED."""
    return [progress_task(np.random.default_rng(57), ts.PARABOLIC,
                          raw_spec=True, label=" raw spec, rng 57"),
            progress_task(np.random.default_rng(159), ts.BOREL,
                          raw_spec=True, label=" raw spec, rng 159"),
            cross_oracle_task(None, ZERO_SET_TRIPLE)]


# --------------------------------------------------------------------------


WORKLOAD_IDS = {MEMBERS: 1, LARGE: 2, FAR: 3, CERTIFY: 4}


def build(workload: str, seed: int, cycles: int, smoke: bool
          ) -> tuple[list[Query], list[Query]]:
    """The measured queries and the unmeasured probes of one run."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    if workload == MEMBERS:
        return members(rng, cycles, smoke), []
    if workload == LARGE:
        return large(rng, cycles, smoke), []
    if workload == FAR:
        return far(rng, cycles, smoke), far_probes(smoke)
    return certify(rng, cycles, smoke), certify_probes()
