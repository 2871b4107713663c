"""Scaling engine: factorizations, budgets, steps, and full runs."""
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from conftest import (
    ghz_tensor,
    product_tensor,
    random_integer_tensor,
    w_tensor,
)


def normalized(x):
    return ts.Tensor(x.data / x.norm())


class TestTargetSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(1, 3), F(2, 3)),))  # increasing
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(1, 2), F(1, 3)),))  # sum != 1
        with pytest.raises(ValueError):
            ts.TargetSpectrum(())

    def test_lcm_uses_lowest_terms(self):
        p = ts.TargetSpectrum.from_strings([["4/6", "2/6"]])
        assert p.parts[0] == (F(2, 3), F(1, 3))
        assert p.denominator_lcm == 3

    def test_uniform_and_blocks(self):
        p = ts.TargetSpectrum.uniform((2, 3))
        assert p.denominator_lcm == 6
        assert p.block_sizes(1) == (2,)
        assert p.block_sizes(2) == (3,)
        q = ts.TargetSpectrum(((F(1, 2), F(1, 4), F(1, 4)),))
        assert q.block_sizes(1) == (2, 1)
        assert np.allclose(q.ascending(1), [0.25, 0.25, 0.5])

    def test_from_floats_repairs_sum(self):
        p = ts.TargetSpectrum.from_floats([[0.7, 0.3], [2 / 3, 1 / 3]])
        for vec in p.parts:
            assert sum(vec) == 1

    def test_ranks_and_zeros(self):
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2))))
        assert p.has_zeros() and p.ranks() == (1, 2)


class TestRandomizationBounds:
    def test_smallest_nontrivial_values(self):
        k, m = ts.randomization_bounds(1, 1, (2,))
        assert (k, m) == (16, 32)

    def test_direct_evaluation(self):
        k, m = ts.randomization_bounds(2, 2, (2, 2))
        assert k == 8**8 == 16777216
        assert m == 4 * k == 67108864

    def test_degenerate(self):
        assert ts.randomization_bounds(1, 1, (1,)) == (1, 2)


class TestRandomGroup:
    def test_range_one_gives_all_ones(self):
        g = ts.random_group((2, 3), 1, seed=9)
        for mat in g:
            assert np.array_equal(mat, np.ones_like(mat))

    def test_deterministic(self):
        a = ts.random_group((2, 2), 8, seed=5)
        b = ts.random_group((2, 2), 8, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_uniform_statistics(self):
        entries = []
        for seed in range(10_000):
            for mat in ts.random_group((2, 2), 8, seed=seed):
                entries.extend(mat.real.ravel())
        entries = np.array(entries)
        sigma = math.sqrt((8**2 - 1) / 12) / math.sqrt(entries.size)
        assert abs(entries.mean() - 4.5) <= 3 * sigma


class TestUpperCholesky:
    def test_identity(self):
        assert np.allclose(ts.upper_cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(ts.upper_cholesky(np.diag([4.0, 1.0])),
                           np.diag([2.0, 1.0]))

    def test_hand_solved(self):
        r = ts.upper_cholesky(np.array([[2.0, 1], [1, 1]]))
        assert np.allclose(r, [[1, 1], [0, 1]])

    def test_factorization_and_triangularity(self, rng):
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = a @ a.conj().T + 0.1 * np.eye(n)
            r = ts.upper_cholesky(rho)
            assert np.allclose(np.tril(r, -1), 0)
            assert np.all(np.diag(r).real > 0)
            assert np.linalg.norm(r @ r.conj().T - rho) \
                <= 1e-10 * np.linalg.norm(rho)

    def test_singular_raises(self):
        with pytest.raises(ts.SingularMarginalError):
            ts.upper_cholesky(np.diag([1.0, 0.0]))


class TestBlockCholesky:
    def test_single_block_is_hermitian_sqrt(self):
        r = ts.block_cholesky(np.diag([4.0, 1.0]), (2,))
        assert np.allclose(r, np.diag([2.0, 1.0]))
        assert np.allclose(r, r.conj().T)

    def test_all_singletons_match_upper_cholesky(self):
        rho = np.array([[2.0, 1], [1, 1]])
        assert np.allclose(ts.block_cholesky(rho, (1, 1)),
                           ts.upper_cholesky(rho))

    def test_mixed_blocks(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = a @ a.conj().T + 0.2 * np.eye(3)
        r = ts.block_cholesky(rho, (1, 2))
        assert np.allclose(r[1:, 0], 0)
        assert np.linalg.norm(r @ r.conj().T - rho) <= 1e-10 * np.linalg.norm(rho)
        block = r[1:, 1:]
        assert np.allclose(block, block.conj().T)

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            ts.block_cholesky(np.eye(3), (2, 2))


class TestIterationBudget:
    @staticmethod
    def direct(shape, bits, eps, log2m):
        d = len(shape) - 1
        return math.ceil((32 * math.log(2) / eps**2)
                         * (3 * sum(math.log2(n) for n in shape)
                            + bits + d * log2m))

    def test_matches_direct_formula(self):
        _, m = ts.randomization_bounds(2, 3, (2, 2, 2))
        log2m = math.log2(m)
        assert ts.iteration_budget((1, 2, 2, 2), 1, 1.0, log2m) \
            == self.direct((1, 2, 2, 2), 1, 1.0, log2m)

    def test_floor_of_one(self):
        assert ts.iteration_budget((1, 2, 2), 1, 1e9, 1.0) == 1

    def test_linear_in_bits(self):
        eps = 0.5
        t1 = ts.iteration_budget((1, 2, 2), 8, eps, 4.0)
        t2 = ts.iteration_budget((1, 2, 2), 16, eps, 4.0)
        expected = 32 * math.log(2) * 8 / eps**2
        assert abs((t2 - t1) - expected) <= 1


class TestScalingStep:
    def test_ghz_uniform_fixed_point(self):
        x = ghz_tensor()
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        g0 = (np.eye(2) / x.norm(), np.eye(2), np.eye(2))
        g1, i, dists = ts.scaling_step(g0, x, p)
        assert max(dists) <= 1e-12
        y = ts.apply_group(g1, x)
        assert ts.trace_distance(ts.marginal(y, i), np.eye(2) / 2) <= 1e-10
        assert abs(y.norm() - 1) <= 1e-8

    def test_flipped_w_first_step_is_noop(self):
        # the flipped three-term tensor already has ascending first marginal
        # diag(1/3, 2/3), so fixing factor 1 changes nothing
        x = normalized(w_tensor(flipped=True))
        p = ts.TargetSpectrum((((F(2, 3), F(1, 3)),) * 3))
        assert np.allclose(ts.marginal(x, 1), np.diag([1 / 3, 2 / 3]))
        g0 = ts.identity_group((2, 2, 2))
        g1, i, dists = ts.scaling_step(g0, x, p)
        assert i == 1 and dists[0] <= 1e-12  # ties break to the lowest factor
        y = ts.apply_group(g1, x)
        assert ts.trace_distance(ts.marginal(y, 1),
                                 np.diag([1 / 3, 2 / 3])) <= 1e-10

    def test_fixes_chosen_marginal_exactly(self, rng):
        x = normalized(random_integer_tensor((1, 3, 3), rng))
        p = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),) * 2)
        g, i, _ = ts.scaling_step(ts.identity_group((3, 3)), x, p)
        y = ts.apply_group(g, x)
        assert ts.trace_distance(ts.marginal(y, i),
                                 np.diag(p.ascending(i))) <= 1e-8
        assert abs(y.norm() - 1.0) <= 1e-8

    def test_rejects_mismatched_target(self, rng):
        # a one-entry target diagonal would broadcast against a 3x3 marginal
        x = normalized(random_integer_tensor((1, 3, 3), rng))
        p = ts.TargetSpectrum(((F(1),), (F(1, 2), F(1, 3), F(1, 6))))
        with pytest.raises(ValueError):
            ts.scaling_step(ts.identity_group((3, 3)), x, p)


class TestRunScaling:
    def test_dense_orbit_tensor_scales(self):
        x = ghz_tensor()  # the diagonal unit tensor of this format
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=0.01, seed=1))
        assert rep.verdict == ts.SCALED

    def test_product_tensor_rejected_at_rank_check(self):
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        for seed in range(5):
            rep = ts.run_scaling(product_tensor(), p,
                                 ts.ScalingConfig(epsilon=0.01, seed=seed))
            assert rep.verdict == ts.NOT_IN_POLYTOPE
            assert rep.iterations == 0

    def test_ghz_exact_uniform(self):
        rep = ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-3, seed=0))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, ghz_tensor())
        for i in (1, 2, 3):
            assert ts.trace_distance(ts.marginal(y, i), np.eye(2) / 2) <= 1e-3

    def test_scaled_verdict_reverified(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2, seed=4))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        assert max(ts.trace_distance(ts.marginal(y, i), np.eye(2) / 2)
                   for i in (1, 2, 3)) <= 1e-2

    def test_uniform_parabolic_needs_no_randomness(self):
        rep = ts.run_scaling(
            ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
            ts.ScalingConfig(epsilon=1e-3, mode=ts.PARABOLIC, randomize=False))
        assert rep.verdict == ts.SCALED and rep.iterations == 0

    def test_parabolic_equals_borel_for_distinct_targets(self, rng):
        x = random_integer_tensor((1, 2, 2), rng, low=1, high=6)
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(3, 4), F(1, 4))))
        cfg = ts.ScalingConfig(epsilon=1e-4, seed=2, max_iters=300)
        a = ts.run_scaling(x, p, cfg)
        b = ts.run_scaling(x, p, replace(cfg, mode=ts.PARABOLIC))
        assert a.verdict == b.verdict and a.iterations == b.iterations
        for ra, rb in zip(a.trace, b.trace):
            assert ra.index == rb.index
            assert np.allclose(ra.distances, rb.distances, atol=1e-10)
        for ma, mb in zip(a.group, b.group):
            assert np.allclose(ma, mb, atol=1e-10)

    def test_norm_kept_unit_along_run(self, rng):
        x = random_integer_tensor((1, 3, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((3, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3, seed=8))
        assert rep.verdict == ts.SCALED
        for rec in rep.trace:
            assert abs(rec.norm - 1.0) <= 1e-8

    def test_bit_reproducible_runs(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        cfg = ts.ScalingConfig(epsilon=1e-3, seed=12)
        a, b = ts.run_scaling(x, p, cfg), ts.run_scaling(x, p, cfg)
        assert a.verdict == b.verdict and a.iterations == b.iterations
        for ra, rb in zip(a.trace, b.trace):
            assert ra.distances == rb.distances
            assert ra.norm == rb.norm and ra.capacity == rb.capacity
        assert all(np.array_equal(ma, mb) for ma, mb in zip(a.group, b.group))

    def test_complex_integer_entries(self, rng):
        data = (rng.integers(-3, 4, size=(1, 2, 2, 2))
                + 1j * rng.integers(-3, 4, size=(1, 2, 2, 2)))
        x = ts.Tensor(data)
        assert x.is_gaussian_integer()
        rep = ts.run_scaling(x, ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-2, seed=5))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        assert max(ts.trace_distance(ts.marginal(y, i), np.eye(2) / 2)
                   for i in (1, 2, 3)) <= 1e-2

    def test_three_level_factors(self, rng):
        x = random_integer_tensor((1, 3, 3, 3), rng)
        p = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),
                               (F(1, 3), F(1, 3), F(1, 3)),
                               (F(1, 2), F(1, 4), F(1, 4))))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2, seed=1,
                                                    max_iters=3000))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        for i in (1, 2, 3):
            assert ts.trace_distance(ts.marginal(y, i),
                                     np.diag(p.ascending(i))) <= 1e-2

    def test_theoretical_range_runs_exactly(self):
        # the worst-case sampling range is huge but still floats for this
        # format; the run stays deterministic and succeeds
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        cfg = ts.ScalingConfig(epsilon=1e-2, seed=3,
                               rand_range=ts.THEORETICAL, max_iters=2000)
        rep = ts.run_scaling(ghz_tensor(), p, cfg)
        assert rep.verdict == ts.SCALED
        _, m = ts.randomization_bounds(2, 3, (2, 2, 2))
        g = ts.random_group((2, 2, 2), m, seed=3)
        assert all(1 <= v <= m for mat in g for v in mat.real.ravel())

    def test_null_cone_instance_never_claims_scaled(self):
        # this integer tensor has vanishing degree-4 invariants, so uniform
        # marginals are unreachable; near the boundary the incremental
        # iterate drifts and only the composed-group halting gate keeps the
        # verdict honest
        x = ts.Tensor(np.array([1, 1, 4, 2, 1, 1, 5, 3],
                               dtype=complex).reshape(1, 2, 2, 2))
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        assert ts.find_nonvanishing_spec(x, p, max_degree=4) is None
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2, seed=60,
                                                    rand_range=64,
                                                    max_iters=2000))
        assert rep.verdict == ts.BUDGET_EXHAUSTED
        assert rep.iterations == 2000

    def test_budget_exhaustion_reported(self):
        # the one-excitation tensor cannot reach uniform marginals, and its
        # marginals stay nonsingular, so the loop runs out of steps; the
        # halting check must not be fooled by drift off the orbit closure
        rep = ts.run_scaling(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-2, seed=0,
                                              max_iters=250))
        assert rep.verdict == ts.BUDGET_EXHAUSTED
        assert rep.iterations == 250
        y = ts.apply_group(rep.group, w_tensor())
        worst = max(ts.trace_distance(ts.marginal(ts.Tensor(y.data / y.norm()), i),
                                      np.eye(2) / 2) for i in (1, 2, 3))
        assert worst > 1e-2

    def test_validation(self):
        p = ts.TargetSpectrum.uniform((2, 2))
        with pytest.raises(ValueError):
            ts.run_scaling(ghz_tensor(), p, ts.ScalingConfig(epsilon=0.1))
        with pytest.raises(ValueError):
            ts.ScalingConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ts.ScalingConfig(epsilon=0.1, mode="sideways")
        with pytest.raises(ValueError):
            ts.ScalingConfig(epsilon=0.1, rand_range=0)

    def test_numeric_breakdown_is_an_arithmetic_error(self):
        # unrandomized, this start drives factor 2 of the accumulated group
        # past the float range within 800 steps while the normalized iterate
        # stays finite; the halt check's resync then cannot be formed
        x = ts.Tensor(np.array([[[[1, 2], [2, 2]], [[2, 2], [3, 2]]]],
                               dtype=complex))
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3)
        cfg = ts.ScalingConfig(epsilon=0.05, seed=0, randomize=False,
                               max_iters=800)
        with np.errstate(all="ignore"), \
                pytest.raises(ts.NumericBreakdownError) as info:
            ts.run_scaling(x, p, cfg)
        assert isinstance(info.value, ArithmeticError)
        assert not isinstance(info.value, ValueError)


class TestSingularTargets:
    def test_restrict_identity_when_full_rank(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((2, 2))
        x_plus, p_plus, ranks = ts.restrict_positive(x, p)
        assert np.array_equal(x_plus.data, x.data)
        assert p_plus.parts == p.parts and ranks == (2, 2)

    def test_restrict_keeps_last_coordinates(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2)),
                              (F(1, 2), F(1, 2))))
        x_plus, p_plus, ranks = ts.restrict_positive(x, p)
        assert x_plus.shape == (1, 1, 2, 2)
        assert np.array_equal(x_plus.data[0, 0], x.data[0, 1])
        assert ranks == (1, 2, 2) and p_plus.dims == (1, 2, 2)

    def test_restrict_embed_round_trip(self, rng):
        x = random_integer_tensor((1, 2, 3), rng)
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2), F(0))))
        x_plus, _, ranks = ts.restrict_positive(x, p)
        embedded = np.zeros_like(x.data)
        embedded[:, 2 - ranks[0]:, 3 - ranks[1]:] = x_plus.data
        again, _, _ = ts.restrict_positive(ts.Tensor(embedded), p)
        assert np.array_equal(again.data, x_plus.data)

    def test_pad_scaling_full_rank_identity(self):
        p = ts.TargetSpectrum.uniform((2, 2))
        b = (np.eye(2, dtype=complex) * 2, np.eye(2, dtype=complex))
        padded = ts.pad_scaling(b, p, epsilon=0.1, norm_x=1.0)
        assert all(np.array_equal(m, bm) for m, bm in zip(padded, b))

    def test_pad_scaling_single_factor_delta(self):
        # with one factor and a small tolerance the cap does not bind
        p = ts.TargetSpectrum(((F(1), F(0)),))
        eps, norm_x = 1e-4, 1.0
        padded = ts.pad_scaling((np.eye(1, dtype=complex),), p, eps, norm_x)
        assert padded[0][0, 0] == pytest.approx(eps / (4 * norm_x))

    def test_end_to_end_singular_target(self, rng):
        # factor 1 pinned pure, factors 2 and 3 free: realizable
        x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=5)
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2)),
                              (F(1, 2), F(1, 2))))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=0.02, seed=11))
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        for i in (1, 2, 3):
            assert ts.trace_distance(ts.marginal(y, i),
                                     np.diag(p.ascending(i))) <= 0.02

    def test_all_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(0), F(0)),))


class TestParametrizations:
    def test_identity_homogeneous(self):
        phi = ts.identity_parametrization((2, 2, 2))
        assert phi.degree == 1 and phi.param_dim == 8
        assert ts.check_homogeneity(phi, seed=3)

    def test_orbit_homogeneous(self, rng):
        phi = ts.orbit_parametrization(random_integer_tensor((1, 2, 2), rng))
        assert phi.degree == 2 and phi.param_dim == 8
        assert ts.check_homogeneity(phi, seed=4)

    def test_mps_homogeneous(self):
        phi = ts.mps_parametrization(2, 2, 3)
        assert phi.degree == 3 and phi.param_dim == 8
        assert ts.check_homogeneity(phi, seed=5)


class TestMpsTensor:
    def test_scalar_sites_give_product_tensor(self):
        mats = [np.array([[2.0]]), np.array([[3.0]])]
        x = ts.mps_tensor(mats, d=3)
        vals = np.array([2.0, 3.0])
        expected = np.einsum("i,j,k->ijk", vals, vals, vals)
        assert np.allclose(x.data[0], expected)

    def test_diagonal_sites_give_unit_tensor(self):
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        x = ts.mps_tensor(mats, d=3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 1] = 1
        assert np.allclose(x.data[0], expected)

    def test_cyclic_invariance(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        x = ts.mps_tensor(mats, d=4)
        rolled = np.transpose(x.data[0], (3, 0, 1, 2))
        assert np.allclose(x.data[0], rolled)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ts.mps_tensor([np.eye(2), np.eye(3)], d=2)


class TestGeneralScaling:
    def test_identity_map_uniform(self):
        phi = ts.identity_parametrization((2, 2, 2))
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        wins = 0
        for seed in range(10):
            rep, x = ts.run_general_scaling(
                phi, p, ts.ScalingConfig(epsilon=0.01, seed=seed, max_iters=2000))
            assert x.is_gaussian_integer()
            wins += rep.verdict == ts.SCALED
        assert wins >= 9

    def test_orbit_map_reproduces_direct_runs(self, rng):
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        gen = ghz_tensor()
        for seed in range(10):
            cfg = ts.ScalingConfig(epsilon=0.02, seed=seed, max_iters=2000)
            direct = ts.run_scaling(gen, p, cfg)
            via_orbit, _ = ts.run_general_scaling(
                ts.orbit_parametrization(gen), p, cfg)
            assert direct.verdict == via_orbit.verdict == ts.SCALED
        for seed in range(10):
            cfg = ts.ScalingConfig(epsilon=0.02, seed=seed, max_iters=500)
            direct = ts.run_scaling(product_tensor(), p, cfg)
            via_orbit, _ = ts.run_general_scaling(
                ts.orbit_parametrization(product_tensor()), p, cfg)
            assert direct.verdict == via_orbit.verdict == ts.NOT_IN_POLYTOPE

    def test_mps_run_produces_report(self):
        phi = ts.mps_parametrization(2, 2, 3)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep, x = ts.run_general_scaling(
            phi, p, ts.ScalingConfig(epsilon=0.05, seed=1, max_iters=2000))
        assert x.shape == (1, 2, 2, 2)
        assert rep.verdict in (ts.SCALED, ts.NOT_IN_POLYTOPE,
                               ts.BUDGET_EXHAUSTED)
        assert ts.check_homogeneity(phi, seed=7)

    def test_uniform_parabolic_allows_range_one(self):
        # a ray through the tensor itself plus range 1 removes all randomness
        phi = ts.fixed_tensor_parametrization(ghz_tensor())
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        cfg = ts.ScalingConfig(epsilon=1e-3, seed=0, rand_range=1,
                               mode=ts.PARABOLIC, max_iters=2000)
        rep, x = ts.run_general_scaling(phi, p, cfg)
        assert np.array_equal(x.data, ghz_tensor().data)
        assert rep.verdict == ts.SCALED and rep.iterations == 0

    def test_vanishing_sample_resampled_then_rejected(self):
        dead = ts.Parametrization(
            param_dim=2, degree=1,
            evaluate=lambda z: ts.Tensor(np.zeros((1, 2, 2))),
            description="identically zero")
        p = ts.TargetSpectrum.uniform((2, 2))
        rep, x = ts.run_general_scaling(dead, p,
                                        ts.ScalingConfig(epsilon=0.1, seed=0))
        assert rep.verdict == ts.NOT_IN_POLYTOPE
        assert "vanished" in rep.note
        assert x.norm() == 0

    def test_budget_matches_direct_formula(self):
        phi = ts.identity_parametrization((2, 2, 2))
        eps, rng_range = 0.5, 64
        t = ts.general_iteration_budget((1, 2, 2, 2), phi.coeff_bits, eps,
                                        phi.degree, phi.param_dim,
                                        math.log2(rng_range))
        logs_all = sum(math.log2(n) for n in (1, 2, 2, 2))
        logs_scaled = sum(math.log2(n) for n in (2, 2, 2))
        direct = math.ceil((32 * math.log(2) / eps**2) * (
            logs_scaled + 0.5 * (logs_all + 1 + 1 * (math.log2(8) + 6))))
        assert t == direct
