"""Decision front-ends: membership, marginal realizability, Kronecker."""
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from conftest import (ghz_tensor, pure_state_spectra_gap, random_integer_tensor,
                      w_tensor)


class TestMembership:
    def test_own_marginals_are_in(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=5)
        norm_sq = x.norm() ** 2
        spectra = [ts.spectrum(ts.marginal(x, i)) / norm_sq for i in (1, 2, 3)]
        p = ts.TargetSpectrum.from_floats(spectra)
        verdict = ts.membership(x, p, epsilon=0.05,
                                cfg=ts.ScalingConfig(epsilon=0.05, seed=0,
                                                     max_iters=3000))
        assert verdict.answer == ts.IN
        assert verdict.witness is not None

    def test_generic_uniform_in(self, rng):
        # IN rests on the engine's own check of the witness, so measure it
        # again here: a uniform and a zero target through membership, and a
        # qmp witness on the sample it scaled
        x = random_integer_tensor((1, 2, 2, 2), rng)
        uniform = ts.TargetSpectrum.uniform((2, 2, 2))
        zero = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2)),
                                  (F(1, 2), F(1, 2))))
        verdicts = [(ts.membership(x, uniform, epsilon=0.01), x, uniform),
                    (ts.membership(x, zero, epsilon=0.01), x, zero)]
        found = ts.qmp(uniform, (2, 2, 2), epsilon=0.01)
        verdicts.append((found, found.sample, uniform))
        for verdict, start, p in verdicts:
            assert verdict.answer == ts.IN
            y = ts.apply_group(verdict.witness, start)
            for i in (1, 2, 3):
                target = np.diag([float(v) for v in reversed(p.parts[i - 1])])
                assert ts.trace_distance(ts.marginal(y, i), target) <= 0.01

    def test_monogamy_violating_point_far(self, rng):
        # purity on two factors forces the remaining factor pure as well
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(1), F(0)),
                              (F(1), F(0))))
        verdict = ts.membership(x, p, epsilon=0.05,
                                cfg=ts.ScalingConfig(epsilon=0.05, seed=0,
                                                     max_iters=300))
        assert verdict.answer == ts.EPS_FAR and verdict.witness is None

    def test_near_pure_pair_point_far(self, rng):
        # full-rank variant of the same obstruction: two almost-pure factors
        # pin the first factor near purity, far from balanced
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(9, 10), F(1, 10)),
                              (F(9, 10), F(1, 10))))
        verdict = ts.membership(x, p, epsilon=0.05,
                                cfg=ts.ScalingConfig(epsilon=0.05, seed=0,
                                                     max_iters=400))
        assert verdict.answer == ts.EPS_FAR
        assert verdict.evidence.verdict == ts.BUDGET_EXHAUSTED
        gap = pure_state_spectra_gap(((0.5, 0.5), (0.9, 0.1), (0.9, 0.1)),
                                     samples=200_000)
        assert gap > 0.05

    def test_unrandomized_membership_makes_one_run(self, monkeypatch):
        # run_scaling reads the seed only for its basis change, so the
        # repeats of an unrandomized run would all be the same run
        calls = []

        def counted(*args):
            calls.append(args)
            return run(*args)

        run = ts.oracle.run_scaling
        monkeypatch.setattr(ts.oracle, "run_scaling", counted)
        cfg = ts.ScalingConfig(epsilon=1e-3, randomize=False, max_iters=300)
        verdict = ts.membership(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                                1e-3, cfg=cfg)
        assert verdict.answer == ts.EPS_FAR and len(calls) == 1
        with pytest.raises(ValueError, match="repeats"):
            ts.membership(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                          1e-3, cfg=cfg, repeats=0)
        assert len(calls) == 1

    def test_single_run_success_rate_supports_amplification(self):
        x = ghz_tensor()
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        wins = sum(
            ts.run_scaling(x, p, ts.ScalingConfig(epsilon=0.01, seed=s,
                                                  max_iters=2000)).verdict
            == ts.SCALED
            for s in range(30))
        assert wins >= 15  # at least the promised per-run success rate


class TestQmp:
    def test_uniform_point(self):
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        verdict = ts.qmp(p, (2, 2, 2), epsilon=0.01)
        assert verdict.answer == ts.IN

    def test_all_pure_point(self):
        p = ts.TargetSpectrum(((F(1), F(0)),) * 3)
        verdict = ts.qmp(p, (2, 2, 2), epsilon=0.1)
        assert verdict.answer == ts.IN

    def test_monogamy_point_far(self):
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(1), F(0)),
                              (F(1), F(0))))
        verdict = ts.qmp(p, (2, 2, 2), epsilon=0.1,
                         cfg=ts.ScalingConfig(epsilon=0.1, max_iters=300))
        assert verdict.answer == ts.EPS_FAR

    def test_in_sample_also_passes_membership(self):
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        verdict = ts.qmp(p, (2, 2, 2), epsilon=0.02)
        assert verdict.answer == ts.IN and verdict.sample is not None
        again = ts.membership(verdict.sample, p, epsilon=0.02)
        assert again.answer == ts.IN

    def test_dims_must_match(self):
        with pytest.raises(ValueError):
            ts.qmp(ts.TargetSpectrum.uniform((2, 2)), (2, 2, 2), 0.1)

    def test_repeats_must_be_positive(self, rng):
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        x = random_integer_tensor((1, 2, 2, 2), rng)
        for repeats in (0, -1):
            with pytest.raises(ValueError, match="repeats"):
                ts.membership(x, p, 0.1, repeats=repeats)
            with pytest.raises(ValueError, match="repeats"):
                ts.qmp(p, (2, 2, 2), 0.1, repeats=repeats)
            with pytest.raises(ValueError, match="repeats"):
                ts.kronecker_support(ts.KroneckerQuery((1, 1), (1, 1), (1, 1)),
                                     0.1, repeats=repeats)

    def test_overflowing_theoretical_sample_is_a_numeric_breakdown(self):
        # the uniform (6,6,6,6) point's theoretical range is M ~ 1e311: the
        # sample's entries overflow, which is no evidence for EPS_FAR
        p = ts.TargetSpectrum.uniform((6, 6, 6, 6))
        cfg = ts.ScalingConfig(epsilon=1e-2, rand_range=ts.THEORETICAL)
        with np.errstate(all="ignore"), \
                pytest.raises(ts.NumericBreakdownError):
            ts.qmp(p, (6, 6, 6, 6), 1e-2, cfg=cfg, repeats=1)

    def test_theoretical_sample_past_the_root_of_the_float_range_runs(self):
        # the uniform (6,6,6) point's theoretical range is M ~ 1e220: the
        # sample's sum of squares overflows, its norm does not
        p = ts.TargetSpectrum.uniform((6, 6, 6))
        cfg = ts.ScalingConfig(epsilon=1e-2, rand_range=ts.THEORETICAL)
        assert ts.qmp(p, (6, 6, 6), 1e-2, cfg=cfg, repeats=1).answer == ts.IN


class TestKronecker:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            ts.KroneckerQuery((2,), (1, 1), (1,))
        with pytest.raises(ValueError):
            ts.KroneckerQuery((2, 1), (3,), (3,), n=1)

    def test_normalized_point_padding(self):
        q = ts.KroneckerQuery((2,), (1, 1), (1, 1))
        p = q.normalized_point()
        assert p.parts == ((F(1), F(0)), (F(1, 2), F(1, 2)),
                           (F(1, 2), F(1, 2)))

    def test_trivial_one_dimensional(self):
        verdict = ts.kronecker_support(ts.KroneckerQuery((1,), (1,), (1,)),
                                       epsilon=0.1)
        assert verdict.answer == ts.IN

    def test_antisymmetric_square_point(self):
        verdict = ts.kronecker_support(
            ts.KroneckerQuery((1, 1), (1, 1), (1, 1)), epsilon=0.05)
        assert verdict.answer == ts.IN

    def test_row_versus_columns(self):
        verdict = ts.kronecker_support(
            ts.KroneckerQuery((2,), (1, 1), (1, 1)), epsilon=0.05)
        assert verdict.answer == ts.IN

    def test_overflowing_group_is_a_numeric_breakdown(self):
        # far from this point, the accumulated group's third factor leaves
        # the float range near step 13,360 while the normalized iterate stays
        # finite and no halt check runs; the capped run must not report the
        # non-finite group as EPS_FAR evidence
        cfg = ts.ScalingConfig(epsilon=0.01, seed=0, max_iters=14000)
        with np.errstate(all="ignore"), \
                pytest.raises(ts.NumericBreakdownError):
            ts.kronecker_support(ts.KroneckerQuery((4, 2), (3, 3), (2, 2, 2)),
                                 0.01, cfg=cfg, repeats=1)

    def test_scale_invariance_of_normalized_point(self):
        base = ts.KroneckerQuery((2,), (1, 1), (1, 1))
        for s in (2, 3):
            scaled = ts.KroneckerQuery(tuple(s * v for v in base.lam),
                                       tuple(s * v for v in base.mu),
                                       tuple(s * v for v in base.nu))
            assert scaled.normalized_point().parts \
                == base.normalized_point().parts


class TestSinkhorn:
    def test_already_doubly_stochastic(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        res = ts.sinkhorn(a, [1, 1], [1, 1], 1e-9)
        assert res.converged and res.iterations == 0

    def test_triangular_support_converges_approximately(self):
        res = ts.sinkhorn(np.array([[1.0, 1], [0, 1]]), [1, 1], [1, 1],
                          1e-3, max_iters=10_000)
        assert res.scalable and res.converged
        assert np.abs(res.matrix.sum(axis=1) - 1).sum() <= 1e-3

    def test_zero_column_not_scalable(self):
        res = ts.sinkhorn(np.array([[1.0, 0], [1, 0]]), [1, 1], [1, 1], 1e-3)
        assert not res.scalable and not res.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            ts.sinkhorn(np.array([[1.0, -1], [1, 1]]), [1, 1], [1, 1], 1e-3)
        with pytest.raises(ValueError):
            ts.sinkhorn(np.eye(2), [1, 1], [1, 2], 1e-3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ts.sinkhorn(np.array([[bad, 1], [1, 1]]), [1, 1], [1, 1], 1e-3)
        with pytest.raises(ValueError):
            ts.sinkhorn(np.eye(2), [1, 1], [1, 1], 1e-3, max_iters=-5)
        for eps in (0.0, -1e-3):
            with pytest.raises(ValueError):
                ts.sinkhorn(np.eye(2), [1, 1], [1, 1], eps)


class TestDiagonalEmbedding:
    def test_marginals_are_classical_sums(self, rng):
        a = rng.integers(1, 9, size=(2, 3)).astype(float)
        x = ts.matrix_to_diagonal_tensor(a)
        assert x.shape == (6, 2, 3)
        assert np.allclose(ts.marginal(x, 1), np.diag(a.sum(axis=1)))
        assert np.allclose(ts.marginal(x, 2), np.diag(a.sum(axis=0)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ts.matrix_to_diagonal_tensor(np.array([[1.0, -2], [0, 1]]))
