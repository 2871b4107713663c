"""The raw-array scaling loop against the Tensor-level loop it replaced.

The reference below is the earlier loop, rebuilt from public functions: it
re-wraps the iterate in a Tensor every step, measures each distance with
trace_distance on a fresh marginal, and factors the chosen marginal with
upper_cholesky or block_cholesky.  The engine does the same arithmetic on
raw arrays, so it must match the reference bit for bit in verdict, step
count, budget, group and every step's factor, distances and norm.  The
capacity reads 1x1 block determinants off the diagonal instead of through
np.linalg.det, so it is compared within 1e-12 relative.
"""
import math
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from conftest import random_integer_tensor, w_tensor


def ref_distances(y, p):
    return [ts.trace_distance(ts.marginal(y, i), np.diag(p.ascending(i)))
            for i in range(1, y.num_factors + 1)]


def ref_capacity(borel, p, norm_y):
    value = norm_y
    for i in range(1, p.num_factors + 1):
        asc = p.ascending(i)
        lo = 0
        for size in p.block_sizes(i):
            det = abs(np.linalg.det(borel[i - 1][lo: lo + size, lo: lo + size]))
            if det == 0.0:
                return math.inf
            value *= det ** (-float(asc[lo]))
            lo += size
    return value


def ref_step_matrix(rho, target, blocks):
    r = ts.upper_cholesky(rho) if blocks is None else ts.block_cholesky(rho, blocks)
    return np.diag(np.sqrt(target)) @ np.linalg.inv(r)


def ref_core_loop(x0, p, cfg, epsilon, budget, confirm):
    d = x0.num_factors
    for i in range(1, d + 1):
        rho = ts.marginal(x0, i)
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] <= 1e-12 * max(float(np.trace(rho).real), 0.0) \
                or float(np.trace(rho).real) == 0.0:
            return ts.NOT_IN_POLYTOPE, ts.identity_group(x0.dims), []

    scale = x0.norm()
    borel = [np.eye(n, dtype=complex) for n in x0.dims]
    borel[0] /= scale
    y = ts.Tensor(x0.data / scale)
    blocks = [p.block_sizes(i) if cfg.mode == ts.PARABOLIC else None
              for i in range(1, d + 1)]
    targets = [p.ascending(i) for i in range(1, d + 1)]
    limit = cfg.max_iters if cfg.max_iters is not None else budget
    trace = []

    def verified_halt():
        nonlocal y
        y_check = ts.apply_group(tuple(borel), x0)
        nrm = y_check.norm()
        if nrm == 0.0:
            return False
        y = ts.Tensor(y_check.data / nrm)
        borel[0] = borel[0] / nrm
        if max(ref_distances(y, p)) > epsilon:
            return False
        return confirm(tuple(borel))

    for _ in range(limit):
        dists = ref_distances(y, p)
        if max(dists) <= epsilon:
            if verified_halt():
                return ts.SCALED, tuple(borel), trace
            dists = ref_distances(y, p)
        i = int(np.argmax(dists)) + 1
        try:
            a = ref_step_matrix(ts.marginal(y, i), targets[i - 1], blocks[i - 1])
        except ts.SingularMarginalError:
            return ts.NOT_IN_POLYTOPE, tuple(borel), trace
        y = ts.apply_factor(a, i, y)
        borel[i - 1] = a @ borel[i - 1]
        norm_after = y.norm()
        y = ts.Tensor(y.data / norm_after)
        borel[0] = borel[0] / norm_after
        cap = ref_capacity(borel, p, y.norm()) if cfg.log_capacity else math.nan
        trace.append(ts.IterationRecord(i, tuple(dists), norm_after, cap))

    if max(ref_distances(y, p)) <= epsilon and verified_halt():
        return ts.SCALED, tuple(borel), trace
    return ts.BUDGET_EXHAUSTED, tuple(borel), trace


def ref_verified_group(verdict, borel, pre, x, p, epsilon, restricted, norm_x0):
    if not restricted:
        return ts.compose_group(borel, pre)
    eps = epsilon
    while True:
        total = ts.compose_group(ts.pad_scaling(borel, p, eps, norm_x0), pre)
        if verdict != ts.SCALED:
            return total
        if max(ref_distances(ts.apply_group(total, x), p)) <= epsilon \
                or eps < 1e-12:
            return total
        eps /= 16.0


def ref_run_scaling(x, p, cfg):
    """run_scaling as it was, for an integer rand_range."""
    if cfg.randomize:
        g0 = ts.random_group(x.dims, cfg.rand_range, cfg.seed)
        log2_range = math.log2(cfg.rand_range)
    else:
        g0 = ts.identity_group(x.dims)
        log2_range = 0.0
    x0_full = ts.apply_group(g0, x)
    restricted = p.has_zeros()
    if restricted:
        x0, p_active, _ = ts.restrict_positive(x0_full, p)
        eps_active = cfg.epsilon / 2.0
    else:
        x0, p_active, eps_active = x0_full, p, cfg.epsilon
    assert x0.norm() > 0.0
    budget = ts.iteration_budget((x0.n0,) + x0.dims, x.entry_bitsize(),
                                 eps_active, log2_range)

    def confirm(borel):
        total = ref_verified_group(ts.SCALED, borel, g0, x, p, cfg.epsilon,
                                   restricted, x0_full.norm())
        return max(ref_distances(ts.apply_group(total, x), p)) <= cfg.epsilon

    verdict, borel, trace = ref_core_loop(x0, p_active, cfg, eps_active, budget,
                                          confirm)
    group = ref_verified_group(verdict, borel, g0, x, p, cfg.epsilon,
                               restricted, x0_full.norm())
    report = ts.ScalingReport(verdict, group, len(trace), trace, budget,
                              cfg.epsilon)
    if verdict == ts.SCALED:
        final = max(ref_distances(ts.apply_group(group, x), p))
        if final > cfg.epsilon:
            report.verdict = ts.BUDGET_EXHAUSTED
            report.note = f"post-hoc verification failed at {final:.3e}"
    return report


def assert_same_run(x, p, cfg):
    got = ts.run_scaling(x, p, cfg)
    want = ref_run_scaling(x, p, cfg)
    assert (got.verdict, got.iterations, got.budget, got.note) == \
        (want.verdict, want.iterations, want.budget, want.note)
    assert len(got.group) == len(want.group)
    assert all(np.array_equal(a, b) for a, b in zip(got.group, want.group))
    assert len(got.trace) == len(want.trace)
    for new, old in zip(got.trace, want.trace):
        assert (new.index, new.distances, new.norm) == \
            (old.index, old.distances, old.norm)
        if math.isfinite(old.capacity):
            assert new.capacity == pytest.approx(old.capacity, rel=1e-12)
        else:
            assert not math.isfinite(new.capacity)
    return got


NONUNIFORM = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),
                                (F(1, 2), F(1, 4), F(1, 4)),
                                (F(2, 5), F(2, 5), F(1, 5))))
ZERO = ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)),
                          (F(2, 3), F(1, 3), F(0)),
                          (F(1, 3), F(1, 3), F(1, 3))))


@pytest.mark.parametrize("mode", [ts.BOREL, ts.PARABOLIC])
@pytest.mark.parametrize("shape, target, eps, seed", [
    ((1, 2, 2, 2), "uniform", 1e-3, 0),
    ((1, 4, 4, 4), "uniform", 1e-3, 1),
    ((2, 3, 3, 3), "nonuniform", 1e-3, 2),
    ((2, 3, 3, 3), "zero", 1e-3, 3),
    ((1, 3, 3, 3, 3, 3), "uniform", 1e-3, 4),
    ((2, 3, 2), "uniform", 1e-4, 5),
])
def test_matches_tensor_level_loop(rng, mode, shape, target, eps, seed):
    x = random_integer_tensor(shape, rng)
    p = {"uniform": ts.TargetSpectrum.uniform(shape[1:]),
         "nonuniform": NONUNIFORM, "zero": ZERO}[target]
    cfg = ts.ScalingConfig(epsilon=eps, seed=seed, mode=mode, max_iters=3000)
    rep = assert_same_run(x, p, cfg)
    assert rep.iterations > 0


@pytest.mark.parametrize("mode", [ts.BOREL, ts.PARABOLIC])
def test_matches_on_capped_far_run(mode):
    # W -> uniform lies outside the W polytope: every step is a capped loop
    # step and the drifting iterate triggers rejected halts
    cfg = ts.ScalingConfig(epsilon=1e-3, seed=1, mode=mode, max_iters=400)
    rep = assert_same_run(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)), cfg)
    assert rep.verdict == ts.BUDGET_EXHAUSTED and rep.iterations == 400


def test_matches_on_unrandomized_start():
    x = ts.Tensor(np.array([[[[1, 2], [2, 2]], [[2, 2], [3, 2]]]], dtype=complex))
    p = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3)
    cfg = ts.ScalingConfig(epsilon=0.05, randomize=False, max_iters=300)
    assert_same_run(x, p, cfg)


def test_matches_on_rank_rejection():
    data = np.zeros((1, 2, 2, 2), dtype=complex)
    data[0, 0, 0, 0] = 1
    cfg = ts.ScalingConfig(epsilon=1e-2, seed=0)
    rep = assert_same_run(ts.Tensor(data), ts.TargetSpectrum.uniform((2, 2, 2)),
                          cfg)
    assert rep.verdict == ts.NOT_IN_POLYTOPE and rep.iterations == 0
