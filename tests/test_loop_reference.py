"""The raw-array scaling loop against a Tensor-level loop on the same rule.

The reference below is the loop rebuilt from public functions: it re-wraps
the iterate in a Tensor every step, measures each distance with
trace_distance, and factors the chosen marginal by the reversed Cholesky
with no singularity rule, which only the start's marginals meet.  Its
step follows the engine's one-pass rule: the iterate is stepped with
apply_factor(a, ...), which leaves it at unit norm as a rho a^dagger has
the target's trace 1, the stepped factor's marginal is the Hermitian part of
that congruence and every other one is a fresh marginal.  A halt measures
its witness first and resyncs only after a rejection; once a witness has
failed, each later halt resyncs first and measures the witness only if the
resync passes.  The engine does the same arithmetic on raw arrays, so it
must match the reference bit for bit in verdict, step count, budget, group
and every step's factor and distances.  The capacity is compared within
1e-12 relative.
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from conftest import random_integer_tensor, ref_capacity, w_tensor


def ref_marginals(y):
    return [ts.marginal(y, i) for i in range(1, y.num_factors + 1)]


def ref_distances(rhos, p):
    return [ts.trace_distance(rho, np.diag(p.ascending(i)))
            for i, rho in enumerate(rhos, start=1)]


def ref_step_matrix(rho, target):
    upper = np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1]
    return np.diag(np.sqrt(target)) @ np.linalg.inv(upper)


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
    rhos = ref_marginals(y)
    targets = [p.ascending(i) for i in range(1, d + 1)]
    limit = cfg.max_iters if cfg.max_iters is not None else budget
    trace = []
    rejected = False

    def resync():
        nonlocal y, rhos
        y_check = ts.apply_group(tuple(borel), x0)
        nrm = y_check.norm()
        if nrm == 0.0:
            return False
        y = ts.Tensor(y_check.data / nrm)
        borel[0] = borel[0] / nrm
        rhos = ref_marginals(y)
        return max(ref_distances(rhos, p)) <= epsilon

    def verified_halt():
        # the witness first; once one has failed, the resync first
        nonlocal rejected
        if rejected:
            return resync() and confirm(tuple(borel))
        if confirm(tuple(borel)):
            return True
        rejected = True
        resync()
        return False

    for _ in range(limit):
        dists = ref_distances(rhos, p)
        if max(dists) <= epsilon:
            if verified_halt():
                return ts.SCALED, tuple(borel), trace
            dists = ref_distances(rhos, p)
        i = int(np.argmax(dists)) + 1
        a = ref_step_matrix(rhos[i - 1], targets[i - 1])
        stepped = a.dot(rhos[i - 1]).dot(a.conj().T)
        y = ts.apply_factor(a, i, y)
        borel[i - 1] = a @ borel[i - 1]
        rhos = ref_marginals(y)
        stepped += stepped.conj().T
        stepped *= 0.5
        rhos[i - 1] = stepped
        # the step leaves y normalized up to rounding: the capacity reads 1
        cap = ref_capacity(borel, p, 1.0) if cfg.log_capacity else math.nan
        trace.append(ts.IterationRecord(i, tuple(dists), cap))

    if max(ref_distances(rhos, p)) <= epsilon and verified_halt():
        return ts.SCALED, tuple(borel), trace
    return ts.BUDGET_EXHAUSTED, tuple(borel), trace


def ref_verified_group(borel, pre, p, epsilon, restricted, norm_x0):
    if not restricted:
        return ts.compose_group(borel, pre)
    return ts.compose_group(ts.pad_scaling(borel, p, epsilon, norm_x0), pre)


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
        total = ref_verified_group(borel, g0, p, cfg.epsilon, restricted,
                                   x0_full.norm())
        return max(ref_distances(ref_marginals(ts.apply_group(total, x)), p)) \
            <= cfg.epsilon

    verdict, borel, trace = ref_core_loop(x0, p_active, cfg, eps_active, budget,
                                          confirm)
    group = ref_verified_group(borel, g0, p, cfg.epsilon, restricted,
                               x0_full.norm())
    report = ts.ScalingReport(verdict, group, len(trace), trace, budget,
                              cfg.epsilon)
    if verdict == ts.SCALED:
        final = max(ref_distances(ref_marginals(ts.apply_group(group, x)), p))
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
        assert (new.index, new.distances) == (old.index, old.distances)
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
MIXED = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),
                           (F(3, 5), F(2, 5)),
                           (F(2, 5), F(2, 5), F(1, 5))))
TWO_THIRDS = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3)
# an unrandomized member whose stepped marginal reads singular in floats
# after 218 steps; no step changes a rank, so the run goes on to its cap
GATE_START = ts.Tensor(np.array([[[[4, 4], [2, 3]], [[4, 2], [4, 2]]]],
                                dtype=complex))


@pytest.mark.parametrize("shape, target, eps, seed", [
    ((1, 2, 2, 2), "uniform", 1e-3, 0),
    ((1, 4, 4, 4), "uniform", 1e-3, 1),
    ((2, 3, 3, 3), "nonuniform", 1e-3, 2),
    ((2, 3, 3, 3), "zero", 1e-3, 3),
    ((1, 3, 3, 3, 3, 3), "uniform", 1e-3, 4),
    ((2, 3, 2), "uniform", 1e-4, 5),
    # mixed dimensions: the engine measures each dimension as one stack
    ((1, 3, 2, 3), "mixed", 1e-3, 6),
    ((1, 2, 3, 2), "uniform", 1e-3, 7),
    # a fixed start, not randomized and capped at 800 steps
    (GATE_START, "two_thirds", 0.05, 0),
])
def test_matches_tensor_level_loop(rng, shape, target, eps, seed):
    if isinstance(shape, ts.Tensor):
        x, randomize, cap = shape, False, 800
    else:
        x, randomize, cap = random_integer_tensor(shape, rng), True, 3000
    p = {"uniform": ts.TargetSpectrum.uniform(x.dims),
         "nonuniform": NONUNIFORM, "zero": ZERO, "mixed": MIXED,
         "two_thirds": TWO_THIRDS}[target]
    cfg = ts.ScalingConfig(epsilon=eps, seed=seed,
                           randomize=randomize, max_iters=cap)
    rep = assert_same_run(x, p, cfg)
    assert rep.iterations > 0
    if x is GATE_START:  # no singularity test after the start's
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 800)


def test_matches_on_capped_far_run():
    # W -> uniform lies outside the W polytope: every step is a capped loop
    # step and the drifting iterate triggers rejected halts
    cfg = ts.ScalingConfig(epsilon=1e-3, seed=1, max_iters=400)
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


# --------------------------------------------------------------------------
# The second driver: sampling through a parametrization
# --------------------------------------------------------------------------


def ref_run_general_scaling(phi, p, cfg):
    """run_general_scaling as it was, for an integer rand_range and a first
    sample that does not vanish."""
    rng = random.Random(cfg.seed)
    x = phi.evaluate(np.array([float(rng.randint(1, cfg.rand_range))
                               for _ in range(phi.param_dim)]))
    assert x.norm() > 0.0 and x.dims == p.dims
    pre = ts.identity_group(p.dims)
    restricted = p.has_zeros()
    if restricted:
        x0, p_active, _ = ts.restrict_positive(x, p)
        eps_active = cfg.epsilon / 2.0
    else:
        x0, p_active, eps_active = x, p, cfg.epsilon
    assert x0.norm() > 0.0
    budget = ts.general_iteration_budget((x0.n0,) + x0.dims, phi.coeff_bits,
                                         eps_active, phi.degree, phi.param_dim,
                                         math.log2(cfg.rand_range))

    def confirm(borel):
        total = ref_verified_group(borel, pre, p, cfg.epsilon, restricted,
                                   x.norm())
        return max(ref_distances(ref_marginals(ts.apply_group(total, x)), p)) \
            <= cfg.epsilon

    verdict, borel, trace = ref_core_loop(x0, p_active, cfg, eps_active, budget,
                                          confirm)
    group = ref_verified_group(borel, pre, p, cfg.epsilon, restricted,
                               x.norm())
    report = ts.ScalingReport(verdict, group, len(trace), trace, budget,
                              cfg.epsilon)
    if verdict == ts.SCALED:
        final = max(ref_distances(ref_marginals(ts.apply_group(group, x)), p))
        if final > cfg.epsilon:
            report.verdict = ts.BUDGET_EXHAUSTED
            report.note = f"post-hoc verification failed at {final:.3e}"
    return report, x


def assert_same_general_run(phi, p, cfg):
    got, got_x = ts.run_general_scaling(phi, p, cfg)
    want, want_x = ref_run_general_scaling(phi, p, cfg)
    assert np.array_equal(got_x.data, want_x.data)
    assert (got.verdict, got.iterations, got.budget, got.note) == \
        (want.verdict, want.iterations, want.budget, want.note)
    assert len(got.group) == len(want.group)
    assert all(np.array_equal(a, b) for a, b in zip(got.group, want.group))
    assert len(got.trace) == len(want.trace)
    for new, old in zip(got.trace, want.trace):
        assert (new.index, new.distances) == (old.index, old.distances)
        if math.isfinite(old.capacity):
            assert new.capacity == pytest.approx(old.capacity, rel=1e-12)
        else:
            assert not math.isfinite(new.capacity)
    return got


@pytest.mark.parametrize("n0, dims, target, eps, seed", [
    (1, (2, 2, 2), "uniform", 1e-3, 0),
    (2, (3, 3, 3), "nonuniform", 1e-3, 1),
    (2, (3, 3, 3), "zero", 1e-3, 2),
])
def test_general_matches_tensor_level_driver(n0, dims, target, eps, seed):
    p = {"uniform": ts.TargetSpectrum.uniform(dims),
         "nonuniform": NONUNIFORM, "zero": ZERO}[target]
    cfg = ts.ScalingConfig(epsilon=eps, seed=seed, max_iters=3000)
    rep = assert_same_general_run(ts.identity_parametrization(dims, n0=n0), p,
                                  cfg)
    assert rep.verdict == ts.SCALED and rep.iterations > 0


def test_general_matches_on_fixed_mps_ray():
    # the ray z -> z * x, the one reference run with coeff_bits above 1
    mats = [np.array([[1, 2], [0, 1]]), np.array([[0, 1], [3, -1]])]
    x = ts.mps_tensor(mats, d=3)
    phi = ts.Parametrization(
        param_dim=1, degree=1, coeff_bits=x.entry_bitsize(),
        evaluate=lambda z: ts.Tensor(complex(np.asarray(z).ravel()[0]) * x.data))
    cfg = ts.ScalingConfig(epsilon=1e-3, seed=3, max_iters=3000)
    rep = assert_same_general_run(phi, ts.TargetSpectrum.uniform((2, 2, 2)), cfg)
    assert rep.iterations > 0
