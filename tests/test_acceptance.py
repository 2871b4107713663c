"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success; a failed assertion marks the
criterion red.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from conftest import (
    ascending,
    ghz_tensor,
    pinsker_gap,
    pure_state_spectra_gap,
    random_integer_tensor,
    random_upper_triangular,
    reduction_matrix,
    w_tensor,
)

MASTER_SEED = 515151


def report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def normalized_start(x, seed, rand_range=64):
    """Randomized, unit-norm starting tuple for manual stepping."""
    g = list(ts.random_group(x.dims, rand_range, seed))
    g[0] = g[0] / ts.apply_group(g, x).norm()
    return tuple(g)


# --------------------------------------------------------------------------
# 1. GHZ to uniform targets
# --------------------------------------------------------------------------


def test_criterion_01_ghz_uniform():
    x = ghz_tensor()
    p = ts.TargetSpectrum.uniform((2, 2, 2))
    start = time.perf_counter()
    rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3, seed=7))
    elapsed = time.perf_counter() - start
    assert rep.verdict == ts.SCALED
    assert rep.iterations < 50
    assert elapsed < 1.0
    y = ts.apply_group(rep.group, x)
    worst = max(ts.trace_distance(ts.marginal(y, i), np.eye(2) / 2)
                for i in (1, 2, 3))
    assert worst <= 1e-3
    report(1, f"GHZ reached uniform in {rep.iterations} iterations "
              f"({elapsed:.3f} s, max distance {worst:.2e})")


# --------------------------------------------------------------------------
# 2. Dense orbit: randomization enables, its absence stalls
# --------------------------------------------------------------------------


def test_criterion_02_dense_orbit_randomization():
    x = ghz_tensor()  # the diagonal unit tensor of format (1; 2, 2, 2)
    uniform = ts.TargetSpectrum.uniform((2, 2, 2))
    start = time.perf_counter()
    wins = sum(
        ts.run_scaling(x, uniform,
                       ts.ScalingConfig(epsilon=1e-2, seed=s,
                                        max_iters=2000)).verdict == ts.SCALED
        for s in range(50))
    elapsed = time.perf_counter() - start
    assert wins >= 45
    assert elapsed < 5.0

    # without randomization, triangular steps keep the tensor diagonal, so
    # its marginals stay mutually isospectral and a target with
    # non-isospectral factors is never reached
    skew = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2)),
                             (F(1, 2), F(1, 2))))
    g = (np.eye(2, dtype=complex) / x.norm(), np.eye(2, dtype=complex),
         np.eye(2, dtype=complex))
    reached = False
    for _ in range(40):
        y = ts.apply_group(g, x)
        spectra = [ts.spectrum(ts.marginal(y, i)) for i in (1, 2, 3)]
        for a, b in itertools.combinations(spectra, 2):
            assert np.abs(a - b).max() <= 1e-8
        g, i, dists = ts.scaling_step(g, x, skew)
        reached = reached or max(dists) <= 1e-2
    assert not reached
    report(2, f"{wins}/50 randomized seeds scaled ({elapsed:.2f} s); "
              "identity-start run stalled with isospectral marginals")


# --------------------------------------------------------------------------
# 3. Non-membership through the rank check after restriction
# --------------------------------------------------------------------------


def test_criterion_03_monogamy_rank_rejection():
    p = ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(1), F(0)), (F(1), F(0))))
    rng = np.random.default_rng(MASTER_SEED)
    x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=6)
    for seed in range(20):
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=0.05, seed=seed))
        assert rep.verdict == ts.NOT_IN_POLYTOPE
        assert rep.iterations == 0  # rejected by the rank check, no steps
    gap = pure_state_spectra_gap(((0.5, 0.5), (1.0, 0.0), (1.0, 0.0)))
    assert gap > 0.05
    report(3, f"20/20 seeds rejected; sampling oracle kept distance "
              f">= {gap:.3f} over 1e6 pure states")


# --------------------------------------------------------------------------
# 4. Per-step exactness of the fixed marginal and the norm
# --------------------------------------------------------------------------


def _random_full_rank_target(dims, rng):
    parts = []
    for n in dims:
        while True:
            weights = sorted(rng.integers(1, 7, size=n), reverse=True)
            total = sum(weights)
            vec = tuple(F(int(w), int(total)) for w in weights)
            if vec[-1] > 0:
                parts.append(vec)
                break
    return ts.TargetSpectrum(tuple(parts))


def _full_rank_tensor(shape, rng):
    """Random integer tensor every marginal of which is nonsingular, the
    same admission condition the engine's rank check enforces."""
    while True:
        x = random_integer_tensor(shape, rng, low=-4, high=5)
        margs = [np.linalg.eigvalsh(ts.marginal(x, i))
                 for i in range(1, len(shape))]
        if all(m[0] > 1e-9 * m.sum() for m in margs):
            return x


def test_criterion_04_per_step_exactness():
    rng = np.random.default_rng(MASTER_SEED + 4)
    # every factor dimension is at most the product of the others, so
    # full-rank marginals are reachable
    formats = [(1, 2, 2), (1, 2, 2, 2), (2, 3, 2), (1, 3, 3), (1, 3, 3, 3),
               (2, 2, 2), (2, 2, 3)]
    checked = 0
    for run in range(100):
        shape = formats[run % len(formats)]
        x = _full_rank_tensor(shape, rng)
        p = ts.TargetSpectrum.uniform(shape[1:]) if run % 3 == 0 \
            else _random_full_rank_target(shape[1:], rng)
        g = normalized_start(x, seed=int(rng.integers(0, 2**31)))
        for _ in range(10):
            g, i, dists = ts.scaling_step(g, x, p)
            y = ts.apply_group(g, x)
            fixed = ts.trace_distance(ts.marginal(y, i),
                                      np.diag(ascending(p, i)))
            assert fixed <= 1e-8
            assert abs(y.norm() - 1.0) <= 1e-8
            checked += 1
            if max(dists) <= 1e-9:
                break
    assert checked >= 900
    report(4, f"{checked} steps over 100 runs fixed their marginal to 1e-8 "
              "and kept unit norm")


# --------------------------------------------------------------------------
# 5. Divergence bound for triangular factorizations
# --------------------------------------------------------------------------


def test_criterion_05_divergence_dominates_distance():
    rng = np.random.default_rng(MASTER_SEED + 5)
    checked = 0
    # dense factors, then upper-triangular ones as the bound states it
    for form in (np.asarray, np.triu):
        for n in (2, 3, 4, 5):
            for _ in range(1000):
                r = form(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))
                r /= math.sqrt(np.trace(r @ r.conj().T).real)
                weights = rng.random(n) + 1e-3
                p = weights / weights.sum()
                lhs, rhs = pinsker_gap(p, r)
                assert lhs >= rhs - 1e-12
                checked += 1
    assert checked == 8000
    report(5, "divergence bound held on 1000 dense and 1000 upper-triangular "
              "random factors for each dimension 2..5")


# --------------------------------------------------------------------------
# 6. Trace distance dominates the spectral l1 distance
# --------------------------------------------------------------------------


def test_criterion_06_spectral_domination():
    rng = np.random.default_rng(MASTER_SEED + 6)
    for n in (2, 3, 4, 5):
        for _ in range(1000):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = (a + a.conj().T) / 2, (b + b.conj().T) / 2
            lhs = ts.trace_distance(a, b)
            rhs = float(np.abs(ts.spectrum(a) - ts.spectrum(b)).sum())
            assert lhs >= rhs - 1e-12
    report(6, "trace distance dominated sorted-spectrum l1 distance on "
              "1000 pairs per dimension 2..5")


# --------------------------------------------------------------------------
# 7. Weight-vector evaluation bound and transformation law
# --------------------------------------------------------------------------


def test_criterion_07_hwv_bound_and_transformation():
    rng = np.random.default_rng(MASTER_SEED + 7)
    formats = [(1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 2, 2)]
    total = 0
    for shape in formats:
        x = random_integer_tensor(shape, rng, low=-3, high=4)
        bound_base = float(np.prod(shape[1:]))
        for k in range(1, 5):
            for spec in ts.enumerate_specs(shape[1:], shape[0], k):
                value = abs(ts.evaluate_hwv(spec, x))
                assert value <= bound_base**k * x.norm()**k * (1 + 1e-9)
                total += 1

    # transformation law, 200 random triangular tuples per small spec
    small_specs = [
        ((1, 2, 2), ts.HWVSpec(((1,), (1,)), (0,), ((0,), (0,)))),
        ((1, 2, 2), ts.HWVSpec(((1, 1), (1, 1)), (0, 0), ((0, 1), (0, 1)))),
        ((2, 2, 2), ts.HWVSpec(((2, 1), (3,)), (0, 1, 0),
                               ((1, 2, 0), (0, 1, 2)))),
        ((1, 2, 2, 2), ts.HWVSpec(((1, 1), (1, 1), (2,)), (0, 0),
                                  ((0, 1), (1, 0), (0, 1)))),
        ((1, 3, 2), ts.HWVSpec(((2, 1, 1), (2, 2)), (0,) * 4,
                               ((0, 1, 2, 3), (2, 3, 0, 1)))),
    ]
    for shape, spec in small_specs:
        x = random_integer_tensor(shape, rng, low=-3, high=4)
        for _ in range(200):
            group = tuple(random_upper_triangular(n, rng, unit_scale=True)
                          for n in shape[1:])
            assert ts.check_hwv_transformation(spec, x, group, rtol=1e-8)
    report(7, f"evaluation bound held for {total} functionals of degree "
              "<= 4; transformation law held on 200 triangular tuples for "
              "each of 5 small functionals")


# --------------------------------------------------------------------------
# 8. Per-step growth of the potential along Borel steps
# --------------------------------------------------------------------------


def _instrumented_progress_run(x, seed):
    p = ts.TargetSpectrum.uniform(x.dims)
    g = list(ts.random_group(x.dims, 16, seed))
    x0 = ts.apply_group(g, x)  # integer entries
    spec = ts.find_nonvanishing_spec(x0, p, max_degree=4)
    if spec is None:
        return None  # instance outside the instrumented-run hypothesis
    k = spec.degree
    bound = float(np.prod(x.dims)) ** k

    norm0 = x0.norm()
    start = [np.eye(n, dtype=complex) for n in x.dims]
    start[0] /= norm0
    g = tuple(start)
    # potential sandwich: the start value is bounded below by the integer
    # gap, every iterate stays under the evaluation bound
    value = abs(ts.evaluate_hwv(spec, ts.Tensor(x0.data / norm0)))
    assert value >= (1 - 1e-6) / norm0**k
    steps = 0
    for _ in range(40):
        y = ts.apply_group(g, x0)
        assert abs(ts.evaluate_hwv(spec, y)) <= bound * (1 + 1e-6)
        g_next, i, dists = ts.scaling_step(g, x0, p)
        if max(dists) <= 1e-2:
            break
        y_next = ts.apply_group(g_next, x0)
        assert ts.verify_progress(spec, y, y_next, eps_i=dists[i - 1])
        g = list(g_next)
        g[0] = g[0] / y_next.norm()
        g = tuple(g)
        steps += 1
    return steps


def test_criterion_08_progress_inequality():
    rng = np.random.default_rng(MASTER_SEED + 8)
    steps = 0
    completed = 0
    attempt = 0
    while completed < 20:
        x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=4)
        outcome = _instrumented_progress_run(x, seed=attempt)
        attempt += 1
        if outcome is None:
            continue  # no nonvanishing functional of degree <= 4 here
        steps += outcome
        completed += 1
    assert steps > 0
    report(8, f"growth bound held on every step of 20 instrumented runs "
              f"({steps} triangular steps)")


# --------------------------------------------------------------------------
# 9. Reduction identities and the uniform-scaling cross-oracle
# --------------------------------------------------------------------------


def _borel_scalable(y, p, max_iters=800):
    rep = ts.run_scaling(y, p, ts.ScalingConfig(
        epsilon=0.05, seed=0, randomize=False, max_iters=max_iters))
    return rep.verdict == ts.SCALED


def _reduced_uniform_scalable(y, lams, max_iters=800):
    scales = tuple(np.diag(1.0 / np.sqrt(ts.ReductionData(l).lam_ascending()))
                   .astype(complex) for l in lams)
    reduced = ts.reduce_tensor(ts.apply_group(scales, y), lams)
    rep = ts.run_scaling(
        reduced, ts.TargetSpectrum.uniform(reduced.dims),
        ts.ScalingConfig(epsilon=0.05, seed=0, randomize=False,
                         max_iters=max_iters))
    return rep.verdict == ts.SCALED


def test_criterion_09_reduction_identities_and_cross_oracle():
    rng = np.random.default_rng(MASTER_SEED + 9)
    count = 0
    for ell in range(1, 7):
        for lam in ts.partitions_of(ell, ell):
            rd = ts.ReductionData(lam)
            assert np.abs(ts.expand_matrix(rd, np.eye(rd.n))
                          - np.eye(rd.ell)).max() <= 1e-12
            assert np.abs(ts.expand_adjoint(rd, np.eye(rd.ell))
                          - np.diag(rd.lam_ascending())).max() <= 1e-12
            assert np.abs(ts.normalized_expand(rd, np.diag(rd.lam_ascending()))
                          - np.eye(rd.ell)).max() <= 1e-12
            assert np.abs(ts.normalized_expand_adjoint(rd, np.eye(rd.ell))
                          - np.eye(rd.n)).max() <= 1e-12
            b = random_upper_triangular(rd.n, rng)
            det_lhs = np.linalg.det(ts.expand_matrix(rd, np.linalg.inv(b)))
            det_rhs = ts.character(((tuple(-v for v in reversed(rd.lam))),),
                                   (b,))
            assert abs(det_lhs - det_rhs) <= 1e-12 * max(abs(det_rhs), 1.0)
            mat = reduction_matrix(rd)
            lhs = mat @ b
            rhs = np.kron(np.eye(rd.width), ts.expand_matrix(rd, b)) @ mat
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(b).max())
            count += 1
    assert count == sum(1 for ell in range(1, 7)
                        for _ in ts.partitions_of(ell, ell))

    p_23 = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 2)
    p_unif3 = ts.TargetSpectrum.uniform((2, 2, 2))
    p_23_3 = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3)
    prod22 = np.zeros((1, 2, 2), dtype=complex)
    prod22[0, 0, 0] = 1
    instances = [
        (random_integer_tensor((1, 2, 2), rng, 1, 6), p_23, [(2, 1)] * 2),
        (random_integer_tensor((1, 2, 2), rng, 1, 6), p_23, [(2, 1)] * 2),
        (random_integer_tensor((1, 2, 2), rng, 1, 6), p_23, [(2, 1)] * 2),
        (ts.Tensor(prod22), p_23, [(2, 1)] * 2),
        (w_tensor(), p_unif3, [(1, 1)] * 3),
        (random_integer_tensor((1, 2, 2, 2), rng, 1, 5), p_unif3,
         [(1, 1)] * 3),
        (ghz_tensor(), p_unif3, [(1, 1)] * 3),
        (ghz_tensor(), p_23_3, [(2, 1)] * 3),
        (random_integer_tensor((1, 2, 2, 2), rng, 1, 5), p_23_3,
         [(2, 1)] * 3),
        (random_integer_tensor((1, 2, 2, 2), rng, 1, 5), p_23_3,
         [(2, 1)] * 3),
    ]
    agreements = 0
    for y, p, lams in instances:
        direct = _borel_scalable(y, p)
        via_reduction = _reduced_uniform_scalable(y, lams)
        assert direct == via_reduction
        agreements += 1
    assert agreements == 10
    report(9, f"algebraic identities exact to 1e-12 for all {count} "
              "partitions of size <= 6; cross-oracle agreed on 10/10 instances")


# --------------------------------------------------------------------------
# 10. Agreement with classical matrix scaling
# --------------------------------------------------------------------------


def test_criterion_10_matrix_scaling_agreement():
    rng = np.random.default_rng(MASTER_SEED + 10)
    for trial in range(20):
        n, m = (2, 3) if trial % 2 else (3, 3)
        a = rng.integers(1, 9, size=(n, m)).astype(float)
        r_weights = sorted(rng.integers(1, 5, size=n), reverse=True)
        c_weights = sorted(rng.integers(1, 5, size=m), reverse=True)
        total = float(sum(r_weights))
        scale = sum(c_weights) / total
        c_targets = [w / sum(c_weights) for w in c_weights]
        r_targets = [w / total for w in r_weights]
        p = ts.TargetSpectrum.from_floats([r_targets, c_targets])

        x = ts.matrix_to_diagonal_tensor(a / a.sum())
        rep = ts.run_scaling(x, p, ts.ScalingConfig(
            epsilon=1e-5, seed=0, randomize=False, max_iters=4000))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        tensor_rows = np.sort(np.real(np.diag(ts.marginal(y, 1))))
        tensor_cols = np.sort(np.real(np.diag(ts.marginal(y, 2))))

        sink = ts.sinkhorn(a, r_targets, c_targets, 1e-6, max_iters=4000)
        assert sink.converged
        sink_rows = np.sort(sink.matrix.sum(axis=1))
        sink_cols = np.sort(sink.matrix.sum(axis=0))
        assert np.abs(tensor_rows - sink_rows).max() <= 1e-4
        assert np.abs(tensor_cols - sink_cols).max() <= 1e-4
    report(10, "tensor and classical scalings agreed to 1e-4 on 20 "
               "diagonal-support instances")


# --------------------------------------------------------------------------
# 11. Capacity objective stays above the integer-entry floor
# --------------------------------------------------------------------------


def test_criterion_11_capacity_lower_bound():
    rng = np.random.default_rng(MASTER_SEED + 11)
    targets = [
        ts.TargetSpectrum.uniform((2, 2, 2)),
        ts.TargetSpectrum(((F(3, 4), F(1, 4)),) * 3),
        ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3)),
                          (F(2, 3), F(1, 3)))),
    ]
    floor = 1.0 / 8.0
    scaled_runs = 0
    for trial in range(20):
        x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=6)
        p = targets[trial % len(targets)]
        rep = ts.run_scaling(x, p, ts.ScalingConfig(
            epsilon=1e-2, seed=trial, rand_range=64, max_iters=3000))
        assert rep.verdict == ts.SCALED
        lowest = min(rec.capacity for rec in rep.trace)
        assert lowest >= floor - 1e-6
        scaled_runs += 1
    assert scaled_runs == 20
    report(11, "logged capacity never dipped below 1/8 - 1e-6 across 20 "
               "member instances")


# --------------------------------------------------------------------------
# 12. Kronecker front-end examples and exact scale invariance
# --------------------------------------------------------------------------


def test_criterion_12_kronecker_frontend():
    trivial = ts.kronecker_support(ts.KroneckerQuery((1,), (1,), (1,)),
                                   epsilon=0.1)
    assert trivial.answer == ts.IN
    antisym = ts.kronecker_support(ts.KroneckerQuery((1, 1), (1, 1), (1, 1)),
                                   epsilon=0.05)
    assert antisym.answer == ts.IN
    mixed = ts.kronecker_support(ts.KroneckerQuery((2,), (1, 1), (1, 1)),
                                 epsilon=0.05)
    assert mixed.answer == ts.IN

    base = ts.KroneckerQuery((2,), (1, 1), (1, 1))
    answers = []
    for s in (1, 2, 3):
        q = ts.KroneckerQuery(tuple(s * v for v in base.lam),
                              tuple(s * v for v in base.mu),
                              tuple(s * v for v in base.nu))
        assert q.normalized_point().parts == base.normalized_point().parts
        answers.append(ts.kronecker_support(q, epsilon=0.05).answer)
    assert answers == [ts.IN] * 3
    report(12, "three reference queries answered IN; normalized points and "
               "verdicts invariant under scaling by 1, 2, 3")
