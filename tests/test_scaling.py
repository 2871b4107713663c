"""Scaling engine: factorizations, budgets, steps, and full runs."""
import inspect
import math
import random
import sys
import threading
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscale as ts
import tracer
from conftest import (
    MIXED,
    NONUNIFORM,
    ZERO,
    ascending,
    ghz_tensor,
    marginal_bruteforce,
    product_tensor,
    random_integer_tensor,
    ref_capacity,
    upper_cholesky,
    w_tensor,
)


def normalized(x):
    return ts.Tensor(x.data / x.norm())


def homogeneous(phi, seed):
    """Spot-check evaluate(t*z) == t**degree * evaluate(z) on random data,
    to a relative 1e-8."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(phi.param_dim) + 1j * rng.standard_normal(phi.param_dim)
    t = complex(rng.standard_normal() + 1j * rng.standard_normal())
    lhs = phi.evaluate(t * z).data
    rhs = t**phi.degree * phi.evaluate(z).data
    return np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestTargetSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(1, 3), F(2, 3)),))  # increasing
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(1, 2), F(1, 3)),))  # sum != 1
        with pytest.raises(ValueError):
            ts.TargetSpectrum(())

    def test_lcm_uses_lowest_terms(self):
        p = ts.TargetSpectrum([["4/6", "2/6"]])
        assert p.parts[0] == (F(2, 3), F(1, 3))
        assert p.denominator_lcm == 3

    def test_uniform_and_blocks(self):
        # a block of equal entries ascends as equal floats on the loop's
        # target diagonals, one stack per dimension group
        p = ts.TargetSpectrum.uniform((2, 3))
        assert p.denominator_lcm == 6
        assert [np.diagonal(diags[0]).tolist() for diags in p._loop_targets[0]] \
            == [[0.5, 0.5], [1 / 3] * 3]
        q = ts.TargetSpectrum(((F(1, 2), F(1, 4), F(1, 4)),))
        assert np.diagonal(q._loop_targets[0][0][0]).tolist() == [0.25, 0.25, 0.5]

    def test_from_floats_repairs_sum(self):
        p = ts.TargetSpectrum.from_floats([[0.7, 0.3], [2 / 3, 1 / 3]])
        for vec in p.parts:
            assert sum(vec) == 1
        with pytest.raises(ValueError, match="factor 2: entries must have a positive sum"):
            ts.TargetSpectrum.from_floats([[1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("row,message", [
        ([1.0000001, -1e-7], "entry -1e-07 is negative"),
        ([0.9999999, 1e-7], "entry 1e-07 is positive but rationalizes to 0")])
    def test_from_floats_keeps_each_entrys_sign(self, row, message):
        # each used to load as (1, 0): a negative entry accepted, a positive
        # one turned into a zero target that the run restricts away
        with pytest.raises(ValueError, match=f"^factor 2: {message}$"):
            ts.TargetSpectrum.from_floats([[0.5, 0.5], row])
        p = ts.TargetSpectrum.from_floats([[0.1] * 10, [1 / 3] * 3, [1.0, 0.0, -0.0]])
        assert p.parts == ((F(1, 10),) * 10, (F(1, 3),) * 3, (F(1), F(0), F(0)))

    def test_from_floats_reads_rounding_noise_as_zero(self):
        # a product state's marginals have rank 1; eigvalsh leaves noise of
        # either sign near 1e-17 where their spectra are 0
        x = ts.Tensor(np.einsum("i,j,k->ijk", [1.0, 2.0, 3.0], [2.0, 1.0], [1.0, 1.0])[None])
        spectra = [ts.spectrum(ts.marginal(x, i)) / x.norm() ** 2 for i in (1, 2, 3)]
        p = ts.TargetSpectrum.from_floats(spectra)
        assert p.parts == ((F(1), F(0), F(0)), (F(1), F(0)), (F(1), F(0)))
        p = ts.TargetSpectrum.from_floats([[1.0, 1.4e-17, -4.6e-17], [1.0, -1e-12]])
        assert p.parts == ((F(1), F(0), F(0)), (F(1), F(0)))
        with pytest.raises(ValueError, match="^factor 1: entry -1.1e-12 is negative$"):
            ts.TargetSpectrum.from_floats([[1.0, -1.1e-12]])

    @pytest.mark.parametrize("entry", [True, np.True_, math.inf, -math.inf, math.nan, "x"])
    @pytest.mark.parametrize("build", [ts.TargetSpectrum, ts.TargetSpectrum.from_floats])
    def test_one_input_rule_for_entries(self, build, entry):
        # a bool used to pass as 0 or 1, np.True_ raised TypeError and inf
        # OverflowError
        with pytest.raises(ValueError, match=f"factor 2: entry {entry!r} is not a finite"):
            build([[F(1, 2), F(1, 2)], [entry, 0]])

    def test_ranks_and_zeros(self):
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2))))
        assert p.has_zeros() and p.ranks() == (1, 2)

    def test_sum_off_by_a_tiny_fraction_raises(self):
        off = F(1, 10**18)
        with pytest.raises(ValueError, match="sum"):
            ts.TargetSpectrum(((F(1, 2) + off, F(1, 2)),))
        with pytest.raises(ValueError, match="sum"):
            ts.TargetSpectrum(((F(1, 3), F(1, 3), F(1, 3) - off),))
        ts.TargetSpectrum(((F(1, 2) + off, F(1, 2) - off),))

    def test_checks_range_and_order_exactly(self):
        with pytest.raises(ValueError, match="lie in"):
            ts.TargetSpectrum(((F(3, 2), F(-1, 2)),))
        with pytest.raises(ValueError, match="nonincreasing"):
            ts.TargetSpectrum(((F(1, 2) - F(1, 10**18), F(1, 2) + F(1, 10**18)),))

    def test_equality_and_hash_depend_on_the_parts_only(self):
        p = ts.TargetSpectrum([["1/2", "1/4", "1/4"], ["2/3", "1/3"]])
        q = ts.TargetSpectrum(((F(1, 2), F(1, 4), F(1, 4)), (F(2, 3), F(1, 3))))
        before = hash(p)
        p._loop_targets  # fills the cached floats
        assert p == q and hash(p) == hash(q) == before == hash((p.parts,))
        assert p != ts.TargetSpectrum(((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3))))
        assert repr(p) == repr(q)


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

    def test_draw_past_the_float_range_is_a_breakdown(self):
        # a draw from 1..2**1100 is almost surely past the largest float
        with pytest.raises(ts.NumericBreakdownError,
                           match="draw left the floating-point range"):
            ts.random_group((2,), 2**1100, 0)

    @pytest.mark.parametrize("rand_range", [1, 2, 3, 16, 2**16, 2**16 + 1,
                                            2**31, 2**32 - 1, 2**40 + 3])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4), (48, 48, 48)])
    def test_matches_the_per_entry_stream(self, rand_range, dims):
        # the bulk draw reproduces randint one entry at a time, rejections
        # included: every range just above a power of two rejects about half
        for seed in (0, 1, 7, 2**31 - 2):
            rng = random.Random(seed)
            want = [np.array([float(rng.randint(1, rand_range))
                              for _ in range(n * n)], dtype=complex).reshape(n, n)
                    for n in dims]
            got = ts.random_group(dims, rand_range, seed)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.flags.c_contiguous
                assert np.array_equal(a, b)


class TestUpperCholesky:
    """The tests' reversed-Cholesky reference, which the step-matrix and
    weight-vector tests measure against, and the start check on a singular
    input."""

    def test_identity(self):
        assert np.allclose(upper_cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(upper_cholesky(np.diag([4.0, 1.0])),
                           np.diag([2.0, 1.0]))

    def test_hand_solved(self):
        r = upper_cholesky(np.array([[2.0, 1], [1, 1]]))
        assert np.allclose(r, [[1, 1], [0, 1]])

    def test_factorization_and_triangularity(self, rng):
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = a @ a.conj().T + 0.1 * np.eye(n)
            r = upper_cholesky(rho)
            assert np.allclose(np.tril(r, -1), 0)
            assert np.all(np.diag(r).real > 0)
            assert np.linalg.norm(r @ r.conj().T - rho) \
                <= 1e-10 * np.linalg.norm(rho)

    def test_singular_raises(self):
        with pytest.raises(ts.SingularMarginalError):
            ts.scaling._check_start([np.diag([1.0, 0.0])[None]])

    def test_is_the_reversed_lower_factor(self):
        rho = np.array([[2.0, 1], [1, 1]])
        assert np.array_equal(upper_cholesky(rho),
                              np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1])
        # a 1x1 input: the Cholesky factor is the square root, bit for bit
        for value in (2.0, 0.3, 7.0 + 0j, 1e-300, 1e150):
            rho = np.array([[value]])
            root = np.array([[np.sqrt(complex(value))]])
            assert np.array_equal(upper_cholesky(rho), root)
            assert np.array_equal(np.linalg.cholesky(rho), root)


def assert_nonsingular(rho):
    """The start check on one matrix, by its own smallest eigenvalue."""
    ts.scaling._assert_nonsingular(rho, np.linalg.eigvalsh(rho)[0])


def gate_passed_case(n, log_low, seed):
    """A Hermitian rho with random eigenvectors whose n eigenvalues spread
    log-uniformly from 10**log_low to 1, so 10**log_low / n <= lambda_min / tr
    <= 10**log_low."""
    rng = np.random.default_rng(seed)
    spectrum = 10.0 ** np.sort(rng.uniform(log_low, 0.0, n))
    spectrum[0], spectrum[-1] = 10.0 ** log_low, 1.0
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


class TestFactorizationsAfterTheGate:
    """_assert_nonsingular is the one singularity check: on every rho it
    passes, the loop's block Cholesky step and the reference upper Cholesky
    factor succeed without a check of their own."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), log_low=st.floats(-11.0, 0.0),
           seed=st.integers(0, 2**32 - 1))
    def test_gate_passed_rho_factors(self, n, log_low, seed):
        rho = gate_passed_case(n, log_low, seed)
        try:
            assert_nonsingular(rho)
        except ts.SingularMarginalError:
            return
        r = upper_cholesky(rho)
        assert np.all(np.isfinite(r))
        assert not np.tril(r, -1).any()  # upper triangular
        assert np.linalg.norm(r @ r.conj().T - rho) \
            <= 1e-8 * np.linalg.norm(rho)
        a = ts.scaling._step_matrix(rho, np.ones(n), {})
        assert np.all(np.isfinite(a)) and not np.tril(a, -1).any()
        assert np.linalg.norm(a @ rho @ a.conj().T - np.eye(n)) \
            <= 1e-14 * np.linalg.cond(rho)

    def test_cases_reach_ten_times_the_threshold(self):
        # the strategy's far end: lambda_min / tr below 10 * SINGULARITY_RTOL,
        # which the check still passes
        rho = gate_passed_case(6, -11.0, seed=0)
        ratio = np.linalg.eigvalsh(rho)[0] / np.trace(rho).real
        assert 1 < ratio / ts.scaling.SINGULARITY_RTOL < 10
        assert_nonsingular(rho)


class TestAssertNonsingular:
    def test_each_matrix_is_checked_against_its_own_trace(self):
        # each matrix of these stacks, checked on its own: 1e-9 * I is
        # healthy against its own trace, though far below 1e-12 of the
        # largest trace in the stack
        healthy = np.stack([1e-9 * np.eye(3), np.diag([1e6, 1.0, 1.0]),
                            np.diag([3.0, 2.0, 1e-3])]).astype(complex)
        one_singular = healthy.copy()
        one_singular[1, 2, 2] = 1e-7
        one_zero = healthy.copy()
        one_zero[2] = 0.0
        for stack, singular in [(healthy, None), (one_singular, 1),
                                (one_zero, 2)]:
            for k, rho in enumerate(stack):
                if k == singular:
                    with pytest.raises(ts.SingularMarginalError):
                        assert_nonsingular(rho)
                else:
                    assert_nonsingular(rho)
        with pytest.raises(ts.SingularMarginalError):
            assert_nonsingular(np.zeros((2, 2)))

    def test_start_check_says_what_each_matrix_check_says(self):
        # one stacked eigvalsh per stack: LAPACK solves each matrix of a
        # stack as it solves it alone, so each matrix passes or fails with
        # the message its own check gives
        stack = np.stack([1e-9 * np.eye(3), np.diag([1e6, 1.0, 1e-7]),
                          np.diag([3.0, 2.0, 1e-3])]).astype(complex)
        with pytest.raises(ts.SingularMarginalError) as alone:
            assert_nonsingular(stack[1])
        with pytest.raises(ts.SingularMarginalError) as stacked:
            ts.scaling._check_start([np.eye(2)[None], stack])
        assert str(stacked.value) == str(alone.value)
        ts.scaling._check_start([np.eye(2)[None], stack[::2]])
        rng = np.random.default_rng(3)
        for n in (2, 3, 12, 48):
            g = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
            stack = g @ g.conj().swapaxes(1, 2)
            assert np.linalg.eigvalsh(stack)[:, 0].tolist() == \
                [np.linalg.eigvalsh(rho)[0] for rho in stack]


def conditioned_case(n, cond, dtype, seed):
    """A Hermitian rho of the given dtype with random eigenvectors whose
    eigenvalues spread log-uniformly from 1 / cond to 1, both ends taken."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if dtype == complex:
        g = g + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    spectrum = np.sort(10.0 ** rng.uniform(-math.log10(cond), 0.0, n))
    spectrum[0], spectrum[-1] = 1.0 / cond, 1.0
    rho = (u * spectrum) @ u.conj().T
    return (rho + rho.conj().T) / 2


def block_step_matrix(rho, root):
    """_step_matrix's block path for any n: one np.linalg.cholesky call on
    [[J rho J, I], [I, 2**900 I]], its lower-left block reversed and scaled."""
    n = len(rho)
    block = np.zeros((2 * n, 2 * n), rho.dtype)
    block[:n, n:] = block[n:, :n] = np.eye(n)
    block[n:, n:] = 2.0**900 * np.eye(n)
    block[:n, :n] = rho[::-1, ::-1]
    x = np.linalg.cholesky(block)[:n - 1:-1, n - 1::-1]
    return (x.conj() * root).T


class TestBlockStepMatrix:
    """_step_matrix takes inv(R), R the upper Cholesky factor, from one
    Cholesky call on a block matrix, with buffers that its caller owns; a
    2 x 2 rho takes that call's arithmetic written out, with its bits."""

    def test_qubit_branch_has_the_block_calls_bits(self):
        def outcome(step, rho, root):
            try:
                return step(rho, root)
            except np.linalg.LinAlgError:
                return None

        rng = np.random.default_rng(0)
        # c = 2**900; the last case's 1 / lambda_min is 4c / 3, but the
        # diagonal of inv(rho) is 2c / 3: its last pivot fails, no other
        t = 1 - 3 * 2.0**-22
        special = [np.array([[4.0, 2.0], [2.0, 1.0]]),  # rank 1, exactly
                   np.array([[2.0, 1 + 1j], [1 - 1j, 1.0]]),
                   np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]),
                   np.diag([1.0, 2.0**-950]), np.diag([2.0**-950, 1.0]),
                   2.0**-880 * np.array([[1.0, t], [t, 1.0]]),
                   np.array([[1.0, np.nan], [np.nan, 1.0]]),
                   np.diag([np.nan, 1.0]), np.diag([1.0, np.nan])]
        draws = [(rho, np.ones(2)) for rho in special]
        for k in range(1000):
            scale, cond = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(0, 12)
            root = np.sqrt(rng.dirichlet([1, 1]))
            for dtype in (float, complex):
                rho = scale * conditioned_case(2, cond, dtype, seed=k)
                if k % 50 == 0:  # rank 1 up to rounding
                    rho = scale * np.outer(rho[0], rho[0].conj())
                draws.append((rho, root))
        raised = 0
        for rho, root in draws:
            for r in {rho.dtype: rho, np.dtype(complex): rho.astype(complex)}.values():
                got = outcome(lambda r, root: ts.scaling._step_matrix(r, root, {}), r, root)
                want = outcome(block_step_matrix, r, root)
                if want is None or not np.isfinite(want).all():
                    # LAPACK fails, or OpenBLAS's potf2, which tests a pivot
                    # only for <= 0, returns NaN: the branch raises in both
                    assert got is None
                    raised += 1
                else:
                    assert got is not None and got.dtype == r.dtype
                    assert got.tobytes() == want.tobytes()  # signed zeros too
        assert 40 <= raised <= 100  # the special cases and most rank-1 draws
        ok = ts.scaling._step_matrix(np.diag([1.0, 2.0**-890]), np.ones(2), {})
        assert np.array_equal(ok, np.diag([1.0, 2.0**445]))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_matches_the_inverse_of_the_upper_factor(self, dtype, cond):
        # both are inverses of triangular factors of rho, so they agree to
        # rounding times the condition number: about 1e-15 relative for a
        # well-conditioned rho
        for n in range(1, 49):
            rho = conditioned_case(n, cond, dtype, seed=n)
            got = ts.scaling._step_matrix(rho, np.ones(n), {})
            want = np.linalg.inv(upper_cholesky(rho))
            assert got.dtype == rho.dtype
            assert not np.tril(got, -1).any()  # upper triangular, exactly
            assert np.all(got.diagonal().real > 0)
            assert np.linalg.norm(got - want) \
                <= 1e-15 * max(cond, 4.0) * np.linalg.norm(want)
            # and both fix the marginal to the same bound
            for a in (got, want):
                assert np.linalg.norm(a @ rho @ a.conj().T - np.eye(n)) \
                    <= 1e-14 * max(cond, 4.0)

    def test_rows_take_the_target_root(self):
        rho = conditioned_case(4, 1e3, complex, seed=0)
        root = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4]))
        blocks = {}
        a = ts.scaling._step_matrix(rho, root, blocks)
        assert np.array_equal(a, ts.scaling._step_matrix(rho, np.ones(4), {})
                              * root[:, None])
        assert np.linalg.norm(a @ rho @ a.conj().T - np.diag(root**2)) <= 1e-12
        # one buffer per dimension and dtype, reused by the next call
        assert list(blocks) == [(4, np.dtype(complex))]
        block = blocks[4, np.dtype(complex)]
        ts.scaling._step_matrix(rho.real.copy(), root, blocks)
        ts.scaling._step_matrix(rho, root, blocks)
        assert blocks[4, np.dtype(complex)] is block and len(blocks) == 2

    def test_trailing_block_bounds_the_smallest_eigenvalue(self):
        # c = 2**900: the trailing block c I - inv(rho) is positive definite
        # while 1 / lambda_min(rho) < c, where the plain factor still exists
        ok = ts.scaling._step_matrix(np.diag([1.0, 2.0**-890]), np.ones(2), {})
        assert np.array_equal(ok, np.diag([1.0, 2.0**445]))
        rho = np.diag([1.0, 2.0**-950])
        assert np.all(np.isfinite(upper_cholesky(rho)))
        with pytest.raises(np.linalg.LinAlgError):
            ts.scaling._step_matrix(rho, np.ones(2), {})

    def test_rho_not_positive_definite_is_a_breakdown_naming_its_step(self, rng):
        x = random_integer_tensor((1, 3, 3, 3), rng)
        it = ts.scaling._Iterate(x, ts.TargetSpectrum.uniform((3, 3, 3)),
                                 x.norm())
        for _ in range(2):
            it.step(*it.rule())
        g, t = it.slots[it.dists.index(max(it.dists))]
        it.stacks[g][t][...] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(ts.NumericBreakdownError,
                           match=r"factorization failed at step 3$") as info:
            it.rule()
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_qubit_pivot_not_positive_is_a_breakdown_naming_its_step(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        it = ts.scaling._Iterate(x, ts.TargetSpectrum.uniform((2, 2, 2)), x.norm())
        for _ in range(2):
            it.step(*it.rule())
        g, t = it.slots[it.dists.index(max(it.dists))]
        it.stacks[g][t][...] = np.diag([1.0, -1.0])
        with pytest.raises(ts.NumericBreakdownError,
                           match=r"factorization failed at step 3$") as info:
            it.rule()
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_iterates_stepped_in_alternation_match_lone_runs(self, rng):
        # three iterates of one format, two real and one complex: their
        # buffers are their own, so interleaving their steps changes nothing
        shape = (1, 3, 3, 3)
        starts = [random_integer_tensor(shape, rng).data.real,
                  random_integer_tensor(shape, rng).data.real,
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
        p = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),) * 3)

        def fresh():
            return [ts.scaling._Iterate(ts.Tensor(x), p, float(np.linalg.norm(x)))
                    for x in starts]

        def state(it):
            return it.y, it.group, it.dists, it.capacity

        alone = []
        for it in fresh():
            for _ in range(12):
                it.step(*it.rule())
            alone.append(state(it))
        its = fresh()
        for _ in range(12):
            for it in its:
                it.step(*it.rule())
        for it, want in zip(its, alone):
            got = state(it)
            assert np.array_equal(got[0], want[0])
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
            assert got[2:] == want[2:]
        buffers = [b for it in its for b in it.blocks.values()]
        assert len(buffers) == 3
        assert not any(np.shares_memory(a, b) for k, a in enumerate(buffers)
                       for b in buffers[k + 1:])


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
        # a tolerance just above the overflow keeps the float formula
        assert ts.iteration_budget((1, 2, 2, 2), 1, 1e-150, 16.0) \
            == self.direct((1, 2, 2, 2), 1, 1e-150, 16.0)

    def test_floor_of_one(self):
        assert ts.iteration_budget((1, 2, 2), 1, 1e9, 1.0) == 1

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -0.0, -1e-3])
    def test_rejects_tolerances_that_are_not_positive(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ts.iteration_budget((1, 2, 2), 1, eps, 16.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            ts.general_iteration_budget((1, 2, 2), 1, eps, 1, 8, 16.0)

    def test_linear_in_bits(self):
        eps = 0.5
        t1 = ts.iteration_budget((1, 2, 2), 8, eps, 4.0)
        t2 = ts.iteration_budget((1, 2, 2), 16, eps, 4.0)
        expected = 32 * math.log(2) * 8 / eps**2
        assert abs((t2 - t1) - expected) <= 1

    @pytest.mark.parametrize("eps", [1e-157, 1e-170])
    def test_tiny_epsilon_takes_the_exact_ceiling(self, eps):
        # below eps near 1e-153 the float quotient overflows, and below about
        # 2e-162 eps**2 is 0; both budgets are then the exact ceiling
        exact = F(32 * math.log(2)) / F(eps) ** 2
        budget = ts.iteration_budget((1, 2, 2, 2), 1, eps, 16.0)
        assert type(budget) is int
        assert budget == math.ceil(exact * F(3 * 3.0 + 1 + 3 * 16.0))
        general = ts.general_iteration_budget((1, 2, 2, 2), 1, eps, 1, 8, 16.0)
        assert type(general) is int
        assert general == math.ceil(exact * F(3.0 + 0.5 * (3.0 + 1 + 3.0 + 16.0)))


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
                                 np.diag(ascending(p, i))) <= 1e-8
        assert abs(y.norm() - 1.0) <= 1e-8

    def test_rejects_mismatched_target(self, rng):
        # a one-entry target diagonal would broadcast against a 3x3 marginal
        x = normalized(random_integer_tensor((1, 3, 3), rng))
        p = ts.TargetSpectrum(((F(1),), (F(1, 2), F(1, 3), F(1, 6))))
        with pytest.raises(ValueError):
            ts.scaling_step(ts.identity_group((3, 3)), x, p)

    def test_same_step_rule_as_the_loop(self, rng):
        # factor 2 is the worst; its repeated 1/4 leaves the step of either
        # mode value upper triangular, the Borel step.  At a tolerance just
        # above every Frobenius distance, the loop ranks by trace distance,
        # as scaling_step does at any tolerance
        x = normalized(random_integer_tensor((1, 3, 3), rng))
        p = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),
                               (F(1, 2), F(1, 4), F(1, 4))))
        g, i, dists = ts.scaling_step(ts.identity_group((3, 3)), x, p,
                                      ts.PARABOLIC)
        assert i == 2 and not np.tril(g[1], -1).any()
        frob = [np.linalg.norm(ts.marginal(x, k) - np.diag(ascending(p, k)))
                for k in (1, 2)]
        rep = ts.run_scaling(x, p, ts.ScalingConfig(
            epsilon=max(frob) * (1 + 1e-9), mode=ts.PARABOLIC,
            randomize=False, max_iters=1))
        (record,) = rep.trace
        assert record.index == i
        assert np.allclose(record.frobenius, frob, rtol=1e-12, atol=0)
        y = ts.apply_group(g, x)
        assert np.allclose(ts.apply_group(rep.group, x).data,
                           y.data / y.norm(), rtol=0, atol=1e-10)

    def test_measure_solves_once_per_dimension(self, rng, monkeypatch):
        # (1;2,3,2,3) has two distinct factor dimensions: a measurement takes
        # no eigen-solve, and its first trace-distance read one stacked
        # solve each, not one per factor
        x = normalized(random_integer_tensor((1, 2, 3, 2, 3), rng))
        p = ts.TargetSpectrum(((F(3, 5), F(2, 5)), (F(1, 2), F(1, 3), F(1, 6)),
                               (F(1, 2), F(1, 2)), (F(1, 3),) * 3))
        it = ts.scaling._Iterate(x, p)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        it.measure()
        assert calls == []
        dists = it.dists
        assert calls == ["eigvalsh"] * 2
        assert it.dists is dists and calls == ["eigvalsh"] * 2
        monkeypatch.undo()
        for i in range(1, 5):
            rho, diag = ts.marginal(x, i), np.diag(ascending(p, i))
            g, t = it.slots[i - 1]
            assert np.array_equal(it.stacks[g][t], rho)
            assert it.dists[i - 1] == ts.trace_distance(rho, diag)
            assert it.frob[i - 1] == pytest.approx(np.linalg.norm(rho - diag),
                                                   rel=1e-14)

    def test_borel_run_solves_once_per_measurement(self, monkeypatch):
        # a (1;2,2,2) latin member with uniform target: the start's three
        # marginals take the exact singularity check, no step does, and the
        # Borel capacity reads every determinant off the diagonal
        latin = np.zeros((1, 2, 2, 2), dtype=complex)
        for a, b in np.ndindex(2, 2):
            latin[0, a, b, (a + b) % 2] = 1
        h = [np.array([[2, 1], [1, 1]]), np.array([[1, -1], [1, 2]]),
             np.array([[3, 1], [-1, 1]])]
        x = ts.apply_group(h, ts.Tensor(latin))
        calls = {"eigvalsh": 0, "det": 0, "measure": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
        near, measure = [], ts.scaling._Iterate.measure

        def measured(it, *args):
            calls["measure"] += 1
            measure(it, *args)
            near.append(max(it.frob) <= it.epsilon)

        monkeypatch.setattr(ts.scaling._Iterate, "measure", measured)
        rep = ts.run_scaling(x, ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-9, seed=0,
                                              max_iters=40))
        assert rep.verdict == ts.SCALED and calls["measure"] > rep.iterations
        # one dimension group: one solve for each measurement with every
        # Frobenius distance within its tolerance (the witness's is inf), none
        # for the others, and one stacked solve for the start's marginals
        assert 0 < sum(near) < len(near)
        assert calls["eigvalsh"] == sum(near) + 1
        assert calls["det"] == 0

    @pytest.mark.parametrize("top,iterations", [(F(1, 2), 0), (F(999, 1000), 1)])
    def test_start_check_runs_once_per_start_marginal(self, monkeypatch, top,
                                                      iterations):
        # the exact check runs once per marginal of the start, whatever the
        # target, and never on a stepped marginal: GHZ's marginals are I/2,
        # so the run halts at once toward (1/2, 1/2) and takes its one
        # allowed step toward (999/1000, 1/1000)
        calls = []
        check, rule = ts.scaling._assert_nonsingular, ts.scaling._Iterate.rule

        def counted(rho, **kwargs):
            calls.append(rho.shape)
            return check(rho, **kwargs)

        def marked(it):
            calls.append("step")
            return rule(it)

        monkeypatch.setattr(ts.scaling, "_assert_nonsingular", counted)
        monkeypatch.setattr(ts.scaling._Iterate, "rule", marked)
        p = ts.TargetSpectrum(((top, 1 - top),) + ((F(1, 2), F(1, 2)),) * 2)
        rep = ts.run_scaling(ghz_tensor(), p,
                             ts.ScalingConfig(epsilon=1e-9, randomize=False,
                                              max_iters=1))
        assert calls == [(2, 2)] * 3 + ["step"] * iterations
        assert rep.verdict != ts.NOT_IN_POLYTOPE
        assert rep.iterations == iterations


class TestStepRule:
    """The loop steps the factor with the largest Frobenius distance while
    one exceeds epsilon, and solves trace distances only when none does:
    ||A||_F <= ||A||_tr, so every stepped factor is epsilon-far in trace
    distance, the per-step condition behind the budget T."""

    @pytest.mark.parametrize("shape, target, eps, seed", [
        ((1, 2, 2, 2), "uniform", 1e-3, 0),
        ((1, 4, 4, 4), "uniform", 1e-3, 1),
        ((2, 3, 3, 3), "nonuniform", 1e-3, 2),
        ((2, 3, 3, 3), "zero", 1e-3, 3),
        ((1, 3, 2, 3), "mixed", 1e-3, 6),
        ((1, 2, 3, 2), "uniform", 1e-3, 7),
    ])
    def test_stepped_factor_is_epsilon_far_in_trace_distance(
            self, rng, monkeypatch, shape, target, eps, seed):
        x = random_integer_tensor(shape, rng)
        p = {"uniform": ts.TargetSpectrum.uniform(x.dims), "zero": ZERO,
             "nonuniform": NONUNIFORM, "mixed": MIXED}[target]
        active = ts.restrict_positive(x, p)[1]  # p itself unless it has zeros
        stepped, step = [], ts.scaling._Iterate.step

        def checked(it, j, a):
            diag, (g, t) = np.diag(ascending(active, j + 1)), it.slots[j]
            stepped.append((ts.trace_distance(it.stacks[g][t], diag), it.epsilon))
            step(it, j, a)

        monkeypatch.setattr(ts.scaling._Iterate, "step", checked)
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=eps, seed=seed,
                                                    max_iters=3000))
        assert rep.verdict == ts.SCALED and len(stepped) == rep.iterations > 0
        loop_eps = eps / 2 if p.has_zeros() else eps
        assert all(e == loop_eps and dist > e for dist, e in stepped)

    def test_far_step_makes_no_eigensolve(self, rng, monkeypatch):
        x = normalized(random_integer_tensor((1, 2, 3, 2, 3), rng))
        p = ts.TargetSpectrum(((F(3, 5), F(2, 5)), (F(1, 2), F(1, 3), F(1, 6)),
                               (F(1, 2), F(1, 2)), (F(1, 3),) * 3))
        it = ts.scaling._Iterate(x, p, epsilon=1e-3)
        assert max(it.frob) > it.epsilon
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert not it.halts()
        j, a = it.rule()
        assert j == it.frob.index(max(it.frob))
        it.step(j, a)
        assert calls == []

    def test_scaling_step_keeps_the_trace_argmax(self):
        # a start whose largest Frobenius distance (factor 3) is not its
        # largest trace distance (factor 2): scaling_step runs at an
        # infinite tolerance, so it ranks by trace distance
        x = normalized(random_integer_tensor((1, 3, 3, 3),
                                             np.random.default_rng(0)))
        p = ts.TargetSpectrum.uniform((3, 3, 3))
        rhos = [ts.marginal(x, i) for i in (1, 2, 3)]
        dists = [ts.trace_distance(rho, np.eye(3) / 3) for rho in rhos]
        frob = [np.linalg.norm(rho - np.eye(3) / 3) for rho in rhos]
        assert np.argmax(frob) == 2 and np.argmax(dists) == 1
        _, i, got = ts.scaling_step(ts.identity_group((3, 3, 3)), x, p)
        assert i == 2 and got == tuple(dists)

    def test_qubit_frobenius_is_the_trace_distance_over_root_two(
            self, rng, monkeypatch):
        # a 2x2 trace-zero Hermitian matrix has ||A||_tr = sqrt(2) ||A||_F,
        # so on qubits both rankings pick the same factor
        seen, rule = [], ts.scaling._Iterate.rule

        def compared(it):
            frob, dists = it.frob, it.dists
            assert frob.index(max(frob)) == dists.index(max(dists))
            # the stepped factor's distance is rounding-sized; elsewhere the
            # difference's trace, about 1e-16, moves the ratio to second order
            seen.extend((f, d) for f, d in zip(frob, dists) if d > 1e-8)
            return rule(it)

        monkeypatch.setattr(ts.scaling._Iterate, "rule", compared)
        uniform = ts.TargetSpectrum.uniform((2, 2, 2))
        for seed in range(3):
            ts.run_scaling(random_integer_tensor((1, 2, 2, 2), rng), uniform,
                           ts.ScalingConfig(epsilon=1e-6, seed=seed,
                                            max_iters=3000))
            ts.run_scaling(w_tensor(), uniform,
                           ts.ScalingConfig(epsilon=1e-3, seed=seed,
                                            max_iters=500))
        assert len(seen) > 1000
        assert all(math.sqrt(2) * f == pytest.approx(d, rel=1e-15)
                   for f, d in seen)


def flattening_shapes():
    """Formats on both sides of the gather cutoff: n0 > 1, mixed
    dimensions, and (1;2,3,3) as restrict_positive leaves (1;3,3,3)."""
    restricted = ts.restrict_positive(
        ts.Tensor(np.ones((1, 3, 3, 3))),
        ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)),) + ((F(1, 3),) * 3,) * 2))[0]
    return [(1, 2, 2, 2), (1, 3, 3, 3, 3, 3), (2, 3, 3, 3), (3, 2, 4),
            restricted.shape, (1, 2, 3, 2, 3), (1, 12, 12), (2, 12, 12, 12),
            (1, 8, 8, 8, 8)]


def iterates(shape, rng):
    """Unit-norm raw tensors of the format, complex and real: each, its
    Fortran-order copy (which the gather's ravel copies) and the iterates the
    loop's contract leaves behind on each factor."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for y in (x / np.linalg.norm(x), x.real / np.linalg.norm(x.real)):
        yield y
        yield np.asfortranarray(y)
        for i in range(1, len(shape)):
            a = rng.standard_normal((shape[i],) * 2)
            yield ts.contract(a + 1j * rng.standard_normal(a.shape)
                              if np.iscomplexobj(y) else a, y, i)


class TestGatheredMarginals:
    @pytest.mark.parametrize("shape", flattening_shapes())
    def test_gather_equals_the_per_factor_path(self, rng, monkeypatch, shape):
        it = ts.scaling._Iterate(ts.Tensor(np.ones(shape)),
                                 ts.TargetSpectrum.uniform(shape[1:]))
        gathered = (len(shape) - 1) * math.prod(shape)
        assert (it.index is None) == (gathered > ts.scaling.GATHER_MAX_ENTRIES)
        assert it.index is ts.scaling._loop_constants(shape, it.y.dtype)[2]
        # the positions of every format, past the cutoff too, built unmemoized
        monkeypatch.setattr(ts.scaling, "GATHER_MAX_ENTRIES", gathered)
        index = ts.scaling._loop_constants.__wrapped__(shape, np.dtype(complex))[2]
        assert not any(a.flags.writeable for a in index)
        for y in iterates(shape, rng):
            it.y, it.index = y, index
            it.measure()
            stacks, it.index = it.stacks, None
            it.measure()
            for factors, stack, alone in zip(it.groups, stacks, it.stacks):
                assert np.array_equal(stack, alone)
                for j, gram in zip(factors, stack):
                    assert np.array_equal(gram, ts.marginal(ts.Tensor(y), j + 1))

    @pytest.mark.parametrize("shape", flattening_shapes())
    def test_measured_distances_are_trace_distances(self, rng, shape):
        dims = shape[1:]
        p = ts.TargetSpectrum(tuple(
            tuple(F(2 * (n - r), n * (n + 1)) for r in range(n)) for n in dims))
        it = ts.scaling._Iterate(ts.Tensor(np.ones(shape)), p)
        for y in iterates(shape, rng):
            it.y = y
            it.measure()
            dists = it.dists
            for i in range(1, len(shape)):
                rho, (g, t) = ts.marginal(ts.Tensor(y), i), it.slots[i - 1]
                assert np.array_equal(it.stacks[g][t], rho)
                assert dists[i - 1] == ts.trace_distance(rho, np.diag(ascending(p, i)))


def paired_target(dims):
    """Per factor, entries proportional to (2, ..., 2, 1, ..., 1): repeated
    entries, on which a parabolic step would have blocks larger than 1x1."""
    parts = []
    for n in dims:
        weights = [2] * (n - n // 2) + [1] * (n // 2)
        parts.append(tuple(F(w, sum(weights)) for w in weights))
    return ts.TargetSpectrum(tuple(parts))


def track_step_drift(monkeypatch) -> list[float]:
    """The list that |norm(y) - 1| of the iterate after each step is
    appended to, once _Iterate.step is patched to record it."""
    drift, step = [], ts.scaling._Iterate.step

    def tracked(it, j, a):
        step(it, j, a)
        drift.append(abs(float(np.linalg.norm(it.y)) - 1.0))

    monkeypatch.setattr(ts.scaling._Iterate, "step", tracked)
    return drift


class TestOnePassStep:
    """A step contracts once with the Borel step a, which leaves the iterate
    at unit norm.  The gather takes the stepped factor's marginal from its
    one stacked Gram product; the per-factor path from the congruence
    a rho a^dagger."""

    @pytest.mark.parametrize("shape", flattening_shapes())
    def test_congruence_marginal_matches_the_measured_one(self, rng, shape):
        # a Gaussian start is well conditioned: step each factor once and
        # compare every marginal with a fresh tensors.marginal, bit for bit
        # where the engine gathers
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        p = paired_target(shape[1:])
        it = ts.scaling._Iterate(ts.Tensor(x), p)
        assert (it.index is None) == \
            ((len(shape) - 1) * math.prod(shape) > ts.scaling.GATHER_MAX_ENTRIES)
        # scaling_step takes the loop's Borel step in either mode
        y0 = ts.Tensor(x / np.linalg.norm(x))
        group, i, _ = ts.scaling_step(ts.identity_group(y0.dims), y0, p)
        first = ts.scaling._Iterate(y0, p)
        g, t = first.slots[i - 1]
        assert np.array_equal(group[i - 1], ts.scaling._step_matrix(
            first.stacks[g][t], first.roots[i - 1], {}) @ np.eye(shape[i]))
        for j in range(len(shape) - 1):
            g, t = it.slots[j]
            it.step(j, ts.scaling._step_matrix(it.stacks[g][t], it.roots[j],
                                               it.blocks))
            y = ts.Tensor(it.y)
            assert abs(y.norm() - 1.0) <= 1e-12
            for i in range(1, len(shape)):
                (g, t), measured = it.slots[i - 1], ts.marginal(y, i)
                rho = it.stacks[g][t]
                if i == j + 1 and it.index is None:
                    err = np.linalg.norm(rho - measured)
                    assert err <= 1e-12 * np.linalg.norm(measured)
                    assert np.array_equal(rho, rho.conj().T)
                else:  # measured, bit for bit as tensors.marginal
                    assert np.array_equal(rho, measured)

    @pytest.mark.parametrize("shape", [(2, 12, 12, 12), (1, 8, 8, 8, 8),
                                       (1, 2, 3, 2, 3)])
    def test_step_forms_no_norm_and_one_gram_per_other_factor(
            self, rng, monkeypatch, shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        it = ts.scaling._Iterate(ts.Tensor(x), paired_target(shape[1:]))
        grams = []

        def counted_matmul(m, other, *args, **kwargs):
            # a Gram product takes a flattening and its conjugate transpose,
            # unlike the contraction's batched product with a
            if other.shape == m.shape[:-2] + m.shape[:-3:-1]:
                grams.append(m.shape)
            return matmul(m, other, *args, **kwargs)

        def no_norm(*args, **kwargs):
            raise AssertionError("a step took a norm")

        matmul = np.matmul
        g, t = it.slots[1]
        a = ts.scaling._step_matrix(it.stacks[g][t], it.roots[1], it.blocks)
        monkeypatch.setattr(np, "matmul", counted_matmul)
        monkeypatch.setattr(np.linalg, "norm", no_norm)
        it.step(1, a)
        monkeypatch.undo()
        assert np.linalg.norm(it.y) == pytest.approx(1.0, abs=1e-12)
        d = len(shape) - 1
        if it.index is None:  # one Gram matrix per factor but the stepped one
            assert len(grams) == d - 1
            assert all(g[0] == shape[i + 1] for g, i in
                       zip(grams, [i for i in range(d) if i != 1]))
        else:  # one gathered stack per dimension group
            assert len(grams) == len(it.groups)

    @pytest.mark.parametrize("shape", flattening_shapes())
    def test_iterate_stays_row_major(self, rng, shape):
        # each step's contraction leaves y C-contiguous, so the next one and
        # each flattening read it without a transpose copy
        for x in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            it = ts.scaling._Iterate(ts.Tensor(x), paired_target(shape[1:]),
                                     float(np.linalg.norm(x)))
            for _ in range(2 * (len(shape) - 1)):
                it.step(*it.rule())
                assert it.y.flags.c_contiguous

    def test_iterate_norm_stays_one_over_a_long_far_run(self, monkeypatch):
        # W -> uniform is not scalable: 3,000 steps of ill-conditioned step
        # matrices, and no norm is taken between halts
        drift = track_step_drift(monkeypatch)
        rep = ts.run_scaling(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-3, seed=1,
                                              max_iters=3000))
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 3000)
        assert len(drift) == 3000 and max(drift) <= 1e-8


def report_bits(rep) -> tuple:
    """Everything a report carries, the group as dtypes and bytes."""
    return (rep.verdict, rep.iterations, rep.budget, rep.note,
            [(r.index, r.frobenius, r.capacity) for r in rep.trace],
            [(m.dtype, m.tobytes()) for m in rep.group])


class TestSharedLoopConstants:
    """_loop_constants builds an iterate's format constants once per format
    and dtype, a TargetSpectrum its target constants once, all read-only;
    each iterate owns only its state and its _step_matrix buffers."""

    FAR = ts.TargetSpectrum(((F(9, 10), F(1, 10)),) * 3)

    def test_gather_step_dispatch(self, monkeypatch):
        # far from its target, a gather-path step on (1;n,n,n) ranks by
        # Frobenius distance: no kron and no eigensolve, one Cholesky call
        # for n = 3 and none for a qubit factor's written-out step
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((np.linalg, "cholesky"), (np.linalg, "eigvalsh"),
                             (np, "kron")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        far3 = ts.TargetSpectrum(((F(8, 10), F(1, 10), F(1, 10)),) * 3)
        cases = ((np.arange(1.0, 9.0), self.FAR, []),
                 (np.arange(1.0, 28.0) % 5, far3, ["cholesky"]))
        for data, p, want in cases:
            n = p.dims[0]
            x = ts.Tensor(data.reshape(1, n, n, n))
            it = ts.scaling._Iterate(x, p, x.norm(), epsilon=1e-3)
            assert it.index is not None
            for _ in range(2):  # the first step also builds any block buffer
                assert max(it.frob) > it.epsilon
                calls.clear()
                it.step(*it.rule())
                assert calls == want
            assert len(it.blocks) == len(want)

    def test_built_once_per_value_and_read_only(self, rng, monkeypatch):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum(((F(3, 4), F(1, 4)),) * 3)
        built = []

        class Recorded(ts.scaling._Iterate):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(ts.scaling, "_Iterate", Recorded)
        ts.scaling._loop_constants.cache_clear()
        for _ in range(2):
            rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3, seed=1))
            assert rep.verdict == ts.SCALED and rep.iterations > 0
        info = ts.scaling._loop_constants.cache_info()
        # each run's loop and witness iterates, one build for both runs
        assert len(built) == 4 and (info.misses, info.hits) == (1, 3)
        constants = ts.scaling._loop_constants(x.shape, x.data.dtype)
        targets = p._loop_targets
        assert all(isinstance(c, tuple) for c in constants + targets)
        groups, _, index, eyes, _ = constants
        diags, roots, _ = targets
        shared = [*diags, *roots, *eyes, *index]
        assert shared and not any(a.flags.writeable for a in shared)
        for it in built:  # the same objects in both runs, nothing rebuilt
            assert it.groups is groups and it.index is index
            assert it.diags is diags and it.roots is roots and it.exponents is targets[2]
            assert it.blocks == {}  # qubit steps take no block buffer
        # an equal target holds its own constants, of the same bits
        q = ts.TargetSpectrum(p.parts)
        assert q == p and q._loop_targets[0] is not diags
        assert all(np.array_equal(a, b) for a, b in zip(q._loop_targets[0], diags))
        # each iterate owns its block buffers, taken on n >= 3 factors
        x3 = random_integer_tensor((1, 3, 3, 3), rng)
        p3 = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),) * 3)
        its = [ts.scaling._Iterate(x3, t, x3.norm())
               for t in (p3, ts.TargetSpectrum(p3.parts))]
        for it in its:
            it.step(*it.rule())
        blocks = [b for it in its for b in it.blocks.values()]
        assert len(blocks) == 2 and all(b.flags.writeable for b in blocks)
        assert not np.shares_memory(*blocks)

    def test_one_build_per_format_for_any_number_of_targets(self, rng):
        # more distinct targets than the memo has entries, one format
        x = random_integer_tensor((1, 2, 2, 2), rng)
        targets = [ts.TargetSpectrum(((F(100 + k, 200), F(100 - k, 200)),) * 3)
                   for k in range(65)]
        assert len(set(targets)) == 65 > ts.scaling._loop_constants.cache_info().maxsize
        ts.scaling._loop_constants.cache_clear()
        for p in targets:
            ts.scaling._Iterate(x, p, x.norm())
        info = ts.scaling._loop_constants.cache_info()
        assert (info.misses, info.hits) == (1, 64)

    def test_runs_in_threads_match_serial_runs(self, rng):
        # two formats and targets, one with zero entries, run at once in two
        # threads, many times over and switching every microsecond: each report
        # equals its serial run's bits
        # both complex, and both factor 2 x 2 marginals: equal buffer keys
        cases = [(ts.Tensor(random_integer_tensor((1, 2, 2, 2), rng).data
                            + 1j * random_integer_tensor((1, 2, 2, 2), rng).data),
                  self.FAR, 1e-2),
                 (ts.Tensor(rng.standard_normal((2, 3, 3, 3))
                            + 1j * rng.standard_normal((2, 3, 3, 3))),
                  ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)),
                                     (F(1, 2), F(1, 3), F(1, 6)),
                                     (F(1, 3),) * 3)), 1e-3)]
        configs = [ts.ScalingConfig(epsilon=eps, seed=5, max_iters=400)
                   for _, _, eps in cases]
        serial = [report_bits(ts.run_scaling(x, p, cfg))
                  for (x, p, _), cfg in zip(cases, configs)]
        assert serial[0][4] and serial[1][4]  # both take steps
        barrier = threading.Barrier(2)
        got = [[], []]

        def work(k):
            x, p, _ = cases[k]
            barrier.wait()
            for _ in range(100):
                got[k].append(report_bits(ts.run_scaling(x, p, configs[k])))

        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[serial[0]] * 100, [serial[1]] * 100]


class TestCapacity:
    TARGET = ts.TargetSpectrum((
        (F(1, 4), F(1, 4), F(1, 4), F(1, 8), F(1, 8)),   # blocks 2, 3
        (F(1, 2), F(1, 4), F(1, 4)),                     # blocks 2, 1
        (F(1, 3),) * 3,                                  # block 3
        (F(1, 2), F(1, 2))))                             # block 2

    def test_running_capacity_matches_the_diagonal_reference(self, rng):
        # the capacity the iterate carries, updated from each step's
        # diagonal, stays within rounding of the diagonal reference read off
        # the whole group, whatever the target's blocks of equal entries
        x = random_integer_tensor((1,) + self.TARGET.dims, rng)
        it = ts.scaling._Iterate(x, self.TARGET, x.norm())
        assert it.capacity == x.norm()
        for _ in range(8):
            it.step(*it.rule())
            # the step leaves the iterate normalized: norm(R . x) reads 1
            assert it.capacity == pytest.approx(
                ref_capacity(it.group, self.TARGET, 1.0), rel=1e-12)


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

    def test_uniform_target_needs_no_randomness(self):
        rep = ts.run_scaling(
            ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
            ts.ScalingConfig(epsilon=1e-3, randomize=False))
        assert rep.verdict == ts.SCALED and rep.iterations == 0

    def test_unrandomized_run_starts_from_the_input(self, monkeypatch):
        # no identity basis change is applied: apply_group runs only at the
        # halt, whose accepted witness is its one pass
        callers = []

        def tracked_apply(g, x):
            callers.append(inspect.currentframe().f_back.f_code.co_name)
            return ts.tensors.apply_group(g, x)

        monkeypatch.setattr(ts.scaling, "apply_group", tracked_apply)
        x = ghz_tensor()
        before = x.data.copy()
        rep = ts.run_scaling(
            x, ts.TargetSpectrum.uniform((2, 2, 2)),
            ts.ScalingConfig(epsilon=1e-3, randomize=False))
        assert rep.verdict == ts.SCALED
        assert callers == ["verified_halt"]
        assert np.array_equal(x.data, before)

    def test_parabolic_equals_borel_for_distinct_targets(self, rng):
        x = random_integer_tensor((1, 2, 2), rng, low=1, high=6)
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(3, 4), F(1, 4))))
        cfg = ts.ScalingConfig(epsilon=1e-4, seed=2, max_iters=300)
        a = ts.run_scaling(x, p, cfg)
        b = ts.run_scaling(x, p, replace(cfg, mode=ts.PARABOLIC))
        # both values run the one Borel loop, bit for bit
        assert a.verdict == b.verdict and a.iterations == b.iterations
        assert a.trace == b.trace
        for ma, mb in zip(a.group, b.group):
            assert np.array_equal(ma, mb)

    def test_norm_kept_unit_along_run(self, rng, monkeypatch):
        drift = track_step_drift(monkeypatch)
        x = random_integer_tensor((1, 3, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((3, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3, seed=8))
        assert rep.verdict == ts.SCALED
        assert len(drift) == rep.iterations > 0 and max(drift) <= 1e-8

    def test_bit_reproducible_runs(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        cfg = ts.ScalingConfig(epsilon=1e-3, seed=12)
        a, b = ts.run_scaling(x, p, cfg), ts.run_scaling(x, p, cfg)
        assert a.verdict == b.verdict and a.iterations == b.iterations
        for ra, rb in zip(a.trace, b.trace):
            assert ra.frobenius == rb.frobenius
            assert ra.capacity == rb.capacity
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
                                     np.diag(ascending(p, i))) <= 1e-2

    def test_theoretical_range_is_the_documented_m(self):
        # M = 2 d K, d the number of factors: the run's budget is the one
        # log2 M gives, not log2 of 2K
        x, p = ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(
            epsilon=1e-2, rand_range=ts.THEORETICAL, max_iters=1))
        _, m = ts.randomization_bounds(2, 3, (2, 2, 2))
        assert m == 53_496_602_689_536
        assert rep.budget == ts.iteration_budget(
            (1, 2, 2, 2), x.entry_bitsize(), 1e-2, math.log2(m)) == 32_564_285

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

    @pytest.mark.parametrize("n", [4, 5])
    def test_overflowing_theoretical_start_is_a_breakdown(self, n):
        # the theoretical range puts group entries near M ~ 1e81 (n = 4) or
        # 1e141 (n = 5): on the (1;n,n,n) diagonal tensor with entries 2**300
        # the start's entries overflow, a numeric failure and not a rank
        # obstruction
        data = np.zeros((1, n, n, n), dtype=complex)
        data[0, range(n), range(n), range(n)] = 2.0 ** 300
        cfg = ts.ScalingConfig(epsilon=1e-2, rand_range=ts.THEORETICAL,
                               max_iters=50)
        with np.errstate(all="ignore"), \
                pytest.raises(ts.NumericBreakdownError, match="floating-point range"):
            ts.run_scaling(ts.Tensor(data), ts.TargetSpectrum.uniform((n,) * 3),
                           cfg)

    def test_theoretical_start_past_the_root_of_the_float_range_runs(self):
        # the (4,4,4) unit tensor's start has entries near 1e243, so its sum
        # of squares overflows though its norm is a finite float
        data = np.zeros((1, 4, 4, 4), dtype=complex)
        data[0, range(4), range(4), range(4)] = 1
        cfg = ts.ScalingConfig(epsilon=1e-2, rand_range=ts.THEORETICAL,
                               max_iters=50)
        rep = ts.run_scaling(ts.Tensor(data), ts.TargetSpectrum.uniform((4,) * 3),
                             cfg)
        assert rep.verdict == ts.SCALED

    @pytest.mark.parametrize("randomize", [True, False])
    @pytest.mark.parametrize("s", [1e200, 1e-200, 1e-160])
    def test_inputs_over_the_whole_float_range_scale(self, s, randomize):
        x = ts.Tensor(np.eye(2).reshape(1, 2, 2) * s)
        cfg = ts.ScalingConfig(epsilon=1e-3, randomize=randomize)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ts.run_scaling(x, ts.TargetSpectrum.uniform((2, 2)), cfg)
        assert rep.verdict == ts.SCALED
        y = ts.apply_group(rep.group, x)
        for i in (1, 2):
            rho = ts.marginal(ts.Tensor(y.data / y.norm()), i)
            assert ts.trace_distance(rho, np.eye(2) / 2) <= 1e-3

    def test_randomized_start_past_the_float_range_breaks_down(self):
        # apply_group decides that the randomized start overflowed
        x = ts.Tensor(np.eye(2).reshape(1, 2, 2) * 1e300)
        p = ts.TargetSpectrum.uniform((2, 2))
        with pytest.raises(ts.NumericBreakdownError,
                           match="group's image left the floating-point range"):
            ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-3,
                                                    randomize=False))
        assert rep.verdict == ts.SCALED

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

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", 3.0),
        ("rand_range", 2.7), ("rand_range", True), ("rand_range", "16"),
        ("seed", 1.5), ("seed", False), ("seed", "0"),
        ("max_iters", np.float64(4.0)), ("seed", np.bool_(True))])
    def test_config_rejects_non_integers(self, field, value):
        # unchecked, these fail or drift later: 2.5 steps raise TypeError
        # inside the loop, True runs one step, and ranges of 2.7 and True
        # become 2 and 1
        with pytest.raises(ValueError, match=field):
            ts.ScalingConfig(epsilon=0.1, **{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = ts.ScalingConfig(epsilon=0.1, seed=np.int64(3),
                               rand_range=np.int32(16), max_iters=np.uint8(5))
        assert (cfg.seed, cfg.rand_range, cfg.max_iters) == (3, 16, 5)
        assert all(type(v) is int
                   for v in (cfg.seed, cfg.rand_range, cfg.max_iters))
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep = ts.run_scaling(ghz_tensor(), p, cfg)
        want = ts.run_scaling(ghz_tensor(), p, ts.ScalingConfig(
            epsilon=0.1, seed=3, rand_range=16, max_iters=5))
        assert (rep.verdict, rep.iterations) == (want.verdict, want.iterations)
        assert all(np.array_equal(a, b) for a, b in zip(rep.group, want.group))

    def test_numeric_breakdown_is_an_arithmetic_error(self):
        # unrandomized, this start drives a factor of the accumulated group
        # past the float range within 1,500 steps while the normalized
        # iterate stays finite
        x = ts.Tensor(np.array([[[[1, 2], [2, 2]], [[2, 2], [3, 2]]]],
                               dtype=complex))
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)),) * 3)
        cfg = ts.ScalingConfig(epsilon=0.05, seed=0, randomize=False,
                               max_iters=1500)
        with np.errstate(all="ignore"), \
                pytest.raises(ts.NumericBreakdownError) as info:
            ts.run_scaling(x, p, cfg)
        assert isinstance(info.value, ArithmeticError)
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("norm", [0.0, math.inf, math.nan, 1e-320])
    def test_iterate_norm_outside_the_float_range_breaks_down(self, norm):
        # the iterate's one norm rule, at the start: a norm that is 0,
        # overflows, is NaN or has a reciprocal past the float range raises
        # before it divides anything
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError, match="at step 0"):
                ts.scaling._Iterate(ghz_tensor(), p, scale=norm)

    def test_non_finite_step_breaks_down_through_the_group_rule(self):
        # a step has no norm rule of its own: a NaN step matrix raises where
        # it enters the group
        it = ts.scaling._Iterate(normalized(ghz_tensor()),
                                 ts.TargetSpectrum.uniform((2, 2, 2)))
        with np.errstate(all="ignore"), pytest.raises(
                ts.NumericBreakdownError,
                match="group left the floating-point range at step 1"):
            it.step(0, np.full((2, 2), math.nan, dtype=complex))

    def test_start_norm_below_the_reciprocal_float_range_breaks_down(self):
        # GHZ at 1e-320 has norm 1.4e-320, whose reciprocal overflows: a
        # numeric breakdown at step 0, not a division warned about
        x = ts.Tensor(ghz_tensor().data * 1e-320)
        cfg = ts.ScalingConfig(epsilon=1e-3, randomize=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError, match="at step 0"):
                ts.run_scaling(x, ts.TargetSpectrum.uniform((2, 2, 2)), cfg)

    def test_failed_step_factorization_is_a_numeric_breakdown(self, monkeypatch):
        # no step changes a marginal's rank, so a Cholesky failure after the
        # start is rounding: a numeric breakdown naming its step, never a
        # singular marginal or a NOT_IN_POLYTOPE answer.  On n >= 3 factors
        # the step matrix's block factorization is the loop's only Cholesky
        # call (qubit factors write it out)
        factor, calls = np.linalg.cholesky, []

        def failing_third(block):
            calls.append(block)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return factor(block)

        monkeypatch.setattr(np.linalg, "cholesky", failing_third)
        x = ts.Tensor((np.arange(1, 28) % 5).reshape(1, 3, 3, 3).astype(complex))
        cfg = ts.ScalingConfig(epsilon=1e-6, seed=0, max_iters=50)
        with pytest.raises(ts.NumericBreakdownError,
                           match=r"factorization failed at step 3$") as info:
            ts.run_scaling(x, ts.TargetSpectrum.uniform((3, 3, 3)), cfg)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert len(calls) == 3

    def test_core_loop_keeps_its_halt_check_frame(self):
        # the benchmark counts halt checks (and so rejected halts) by the
        # frame of the loop's nested verified_halt, whose resync calls
        # apply_group through the module namespace
        halts = [c for c in ts.scaling._core_loop.__code__.co_consts
                 if inspect.iscode(c) and c.co_name == "verified_halt"]
        assert len(halts) == 1
        assert "apply_group" in halts[0].co_names

    def test_halt_frees_its_resync_before_the_witness_check(self, monkeypatch, rng):
        # once a witness has failed, a halt resyncs first; the iterate copies
        # the resynced tensor, so the halt holds one full copy fewer if that
        # tensor is gone before the witness check composes and applies the
        # group.  The first witness is rejected by hand: a natural run whose
        # resync passes after a rejection is rare
        x = random_integer_tensor((1, 3, 3, 3), rng)
        applied, alive = [], []

        def tracked_apply(g, y):
            out = ts.tensors.apply_group(g, y)
            caller = inspect.currentframe().f_back.f_code.co_name
            if not applied:  # the first halt's witness: rejected
                out = ts.Tensor(np.ones(x.shape))
            applied.append(((caller, y is x), weakref.ref(out)))
            return out

        def tracked_compose(*args):
            if len(applied) == 3:  # after the resync-first halt's resync
                alive.append(applied[-1][1]() is not None)
            return compose(*args)

        compose = ts.scaling.compose_group
        monkeypatch.setattr(ts.scaling, "apply_group", tracked_apply)
        monkeypatch.setattr(ts.scaling, "compose_group", tracked_compose)
        rep = ts.run_scaling(x, ts.TargetSpectrum.uniform((3, 3, 3)),
                             ts.ScalingConfig(epsilon=1e-2, seed=5,
                                              randomize=False))
        assert rep.verdict == ts.SCALED
        # x0 is x here: the witness (rejected), its resync, then a halt that
        # resyncs first and passes, and its witness
        assert [call for call, _ in applied] == [
            ("verified_halt", True), ("_core_loop", True),
            ("verified_halt", True), ("_core_loop", True)]
        assert alive and not any(alive)

    def test_capped_far_run_measures_the_witness_only_at_its_first_halt(
            self, monkeypatch):
        # the first halt measures its witness before any resync; drift keeps
        # failing the six later halts, which resync first and stop there
        # (test_benchmark_counts_every_rejected_halt counts all seven)
        x = w_tensor()
        calls = []

        def tracked_apply(g, y):
            calls.append((inspect.currentframe().f_back.f_code.co_name,
                          y is x))
            return ts.tensors.apply_group(g, y)

        monkeypatch.setattr(ts.scaling, "apply_group", tracked_apply)
        rep = ts.run_scaling(x, ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=1e-3, seed=0,
                                              max_iters=120))
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 120)
        assert calls == [("run_scaling", True), ("verified_halt", True),
                         ("_core_loop", False)] + [("verified_halt", False)] * 6

    def test_witness_without_resync_holds_on_recomputation(self):
        # the shipped group never carries a resync's renormalization; its
        # marginals on x, by direct summation and eigvalsh, are within a
        # small epsilon of the target
        p = ts.TargetSpectrum(((F(23, 30), F(7, 30)),) * 3)
        rep = ts.run_scaling(w_tensor(), p,
                             ts.ScalingConfig(epsilon=1e-6, seed=1))
        assert rep.verdict == ts.SCALED and 40 <= rep.iterations <= 100
        y = ts.apply_group(rep.group, w_tensor())
        for i in (1, 2, 3):
            gap = marginal_bruteforce(y, i) - np.diag(ascending(p, i))
            assert np.sum(np.abs(np.linalg.eigvalsh(gap))) <= 1e-6

    def test_witness_overflow_is_a_breakdown(self, monkeypatch):
        # a finite witness group whose image of x overflows in apply_group
        # itself: a numeric failure, not the ValueError of a bad input, and
        # no NumPy warning
        def huge(g, h):
            return tuple(1e200 * m for m in ts.compose_group(g, h))

        monkeypatch.setattr(ts.scaling, "compose_group", huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError,
                               match="group's image left") as info:
                ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                               ts.ScalingConfig(epsilon=1e-2, seed=1))
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("rand_range, seed, factor",
                             [(1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2)])
    def test_singular_basis_change_is_no_rank_obstruction(self, rand_range,
                                                          seed, factor):
        # GHZ is a member; a draw with an exactly singular factor fails the
        # start gate, which then proves nothing about the orbit
        assert ts.scaling._singular(
            ts.random_group((2, 2, 2), rand_range, seed)[factor - 1])
        rep = ts.run_scaling(ghz_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                             ts.ScalingConfig(epsilon=0.05, seed=seed,
                                              rand_range=rand_range))
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 0)
        assert rep.note == f"basis change factor {factor} is singular"

    def test_singular_is_exact(self):
        singular = ts.scaling._singular
        assert not singular(np.eye(3, dtype=complex))
        assert singular(np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]], dtype=complex))
        # a zero leading entry needs a row swap; det = -1
        assert not singular(np.array([[0, 1], [1, 1]], dtype=complex))
        # entries near 2**60: np.linalg.det reads 0 on both, whose exact
        # determinants are 0 and -2**16
        b = 2 ** 60
        assert singular(np.array([[b, b + 256], [2 * b, 2 * b + 512]],
                                 dtype=complex))
        assert not singular(np.array([[b, b + 256], [b + 256, b + 512]],
                                     dtype=complex))

    def test_benchmark_counts_every_rejected_halt(self):
        # W -> uniform is not scalable: every halt the loop attempts in 120
        # steps is a resync that the benchmark's counter must see and reject
        counters = tracer.Counters()
        counters.install()
        try:
            rep = ts.run_scaling(w_tensor(), ts.TargetSpectrum.uniform((2, 2, 2)),
                                 ts.ScalingConfig(epsilon=1e-3, seed=0,
                                                  max_iters=120))
        finally:
            counters.restore()
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 120)
        assert counters.halt_checks == counters.rejected_halts() == 7


class TestRealArithmetic:
    """The loop follows the start's dtype: a real input runs in float64 from
    its randomized start to its shipped group, a complex one in complex128
    (the complex128 draw of random_group acts as the real matrix it is)."""

    @pytest.mark.parametrize("phase, dtype", [(1, np.float64), (1 + 2j, np.complex128)])
    @pytest.mark.parametrize("target", [
        ((F(2, 3), F(1, 3)),) * 3,  # a member of W's polytope: SCALED
        ((F(1), F(0)), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),  # restricted, padded
    ])
    def test_iterate_group_and_marginals_keep_the_data_dtype(
            self, monkeypatch, phase, dtype, target):
        seen, measure = [], ts.scaling._Iterate.measure

        def tracked(it, *args):
            measure(it, *args)
            seen.append({it.y.dtype, *(m.dtype for m in it.group),
                         *(stack.dtype for stack in it.stacks)})

        monkeypatch.setattr(ts.scaling._Iterate, "measure", tracked)
        x = ts.Tensor(phase * w_tensor().data)
        assert x.data.dtype == dtype
        rep = ts.run_scaling(x, ts.TargetSpectrum(target),
                             ts.ScalingConfig(epsilon=1e-3, seed=2, max_iters=300))
        assert rep.iterations > 0 and len(seen) > rep.iterations
        assert all(kinds == {np.dtype(dtype)} for kinds in seen)
        # compose_group ships each factor by the rule: real unless it has a
        # nonzero imaginary part, as a complex run's first factor may not
        assert all(m.dtype == (np.complex128 if np.imag(m).any() else np.float64)
                   for m in rep.group)


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

    def test_vanished_restriction_is_rejected_before_the_loop(self):
        # both are members.  e0 (x) e0 puts its one entry outside the last
        # coordinates the target keeps, so the unrandomized restriction
        # vanishes; the second tensor restricts to a singular slice.  An
        # unrandomized slice is not generic, so neither is an obstruction,
        # and the random basis change scales both
        e00 = np.zeros((1, 2, 2), dtype=complex)
        e00[0, 0, 0] = 1
        slice_ = np.array([[[[8, 4], [4, 0]], [[4, 0], [0, 0]]]], dtype=complex)
        half = (F(1, 2), F(1, 2))
        for data, parts in [(e00, ((F(1), F(0)),) * 2),
                            (slice_, ((F(1), F(0)), half, half))]:
            x, p = ts.Tensor(data), ts.TargetSpectrum(parts)
            rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2,
                                                        randomize=False))
            assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 0)
            assert rep.note == ("an unrandomized start is not generic; "
                                "randomize it")
            rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2))
            assert rep.verdict == ts.SCALED

    @pytest.mark.parametrize("rand_range, verdict, note", [
        (1, ts.BUDGET_EXHAUSTED, "basis change factor 1 is singular"),
        (65_536, ts.SCALED, "")], ids=["singular_draw", "regular_draw"])
    def test_vanished_restriction_from_a_singular_draw(self, rand_range,
                                                       verdict, note):
        # x = (e0 - e1) (x) (e00 + e11) is a member; the all-ones draw of
        # range 1 sends factor 1's e0 - e1 to 0, so the restriction to the
        # target's nonzero coordinate vanishes, which proves nothing
        data = np.zeros((1, 2, 2, 2), dtype=complex)
        data[0, 0, 0, 0] = data[0, 0, 1, 1] = 1
        data[0, 1, 0, 0] = data[0, 1, 1, 1] = -1
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2)),
                               (F(1, 2), F(1, 2))))
        rep = ts.run_scaling(ts.Tensor(data), p, ts.ScalingConfig(
            epsilon=0.05, rand_range=rand_range))
        assert (rep.verdict, rep.note) == (verdict, note)
        assert rep.iterations == (0 if verdict == ts.BUDGET_EXHAUSTED else 1)

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
        # the identity 1x1 tuple has no growth: delta = eps / (8 * norm_x)
        p = ts.TargetSpectrum(((F(1), F(0)),))
        eps, norm_x = 1e-4, 1.0
        padded = ts.pad_scaling((np.eye(1, dtype=complex),), p, eps, norm_x)
        assert padded[0][0, 0] == pytest.approx(eps / 8)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_norm=st.floats(-6, 28),
           log_growth=st.floats(0, 6), log_kept=st.floats(-6, 0),
           eps=st.sampled_from([1e-1, 1e-3, 1e-6]))
    def test_padded_witness_within_a_quarter_epsilon(self, seed, log_norm,
                                                     log_growth, log_kept, eps):
        # a random restricted tuple with factor norms up to 1e6, normalized
        # so its image of the restricted start is a unit tensor, padded back
        # onto a start of norm 1e-6 .. 1e28 whose kept block may hold as
        # little as 1e-6 of it
        rng = np.random.default_rng(seed)
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)),
                               (F(2, 3), F(1, 3), F(0)),
                               (F(1, 2), F(1, 2))))
        data = rng.standard_normal((1, 3, 3, 2)) \
            + 1j * rng.standard_normal((1, 3, 3, 2))
        data[:, 1:, 1:, :] *= 10.0 ** log_kept
        start = ts.Tensor(data * 10.0 ** log_norm / np.linalg.norm(data))
        x0, p_plus, ranks = ts.restrict_positive(start, p)
        b = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
             for r in ranks]
        b[1] *= 10.0 ** log_growth / np.linalg.norm(b[1])
        b[2] *= 10.0 ** (log_growth * rng.random()) / np.linalg.norm(b[2])
        b[0] /= ts.apply_group(b, x0).norm()
        y_plus = ts.apply_group(b, x0)
        restricted = max(ts.trace_distance(ts.marginal(y_plus, i),
                                           np.diag(ascending(p_plus, i)))
                         for i in (1, 2, 3))
        padded = ts.pad_scaling(tuple(b), p, eps, start.norm())
        y = ts.apply_group(padded, start)
        witness = max(ts.trace_distance(ts.marginal(y, i),
                                        np.diag(ascending(p, i)))
                      for i in (1, 2, 3))
        assert witness <= restricted + eps / 4

    @pytest.mark.parametrize("growth, norm_x", [(1e200, 1.0), (1e160, 1e160)])
    def test_pad_underflow_raises(self, growth, norm_x):
        # prod max(1, ||b_i||) or its product with norm_x overflows, so
        # delta = eps / inf is 0 and the padded tuple would be singular
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2)),
                              (F(1, 2), F(1, 2))))
        b = (np.eye(1, dtype=complex), growth * np.eye(2, dtype=complex),
             growth * np.eye(2, dtype=complex))
        with np.errstate(over="ignore"), \
                pytest.raises(ts.NumericBreakdownError, match="underflowed"):
            ts.pad_scaling(b, p, 1e-3, norm_x)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_pad_of_a_non_finite_group_is_no_underflow(self, bad):
        # its infinite norm would make delta 0, yet delta did not underflow
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2))))
        b = (np.eye(1, dtype=complex), np.array([[1, bad], [0, 1]], dtype=complex))
        with pytest.raises(ts.NumericBreakdownError,
                           match="scaling group left the floating-point range"):
            ts.pad_scaling(b, p, 1e-3, 1.0)

    @pytest.mark.parametrize("b", [
        # a 1x1 factor for a rank-2 factor used to broadcast into a
        # singular 2x2 block of 2s
        (np.eye(2, dtype=complex), 2 * np.eye(1, dtype=complex)),
        # a tuple one factor short used to return a shorter tuple
        (np.eye(2, dtype=complex),),
    ])
    def test_pad_checks_the_tuple_against_the_ranks(self, b):
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)), (F(1, 2), F(1, 2))))
        with pytest.raises(ValueError, match="do not fit the ranks"):
            ts.pad_scaling(b, p, 0.1, 1.0)

    @pytest.mark.parametrize("eps, norm_x", [(0.1, 0.0), (0.1, -1.0),
                                             (0.1, math.nan), (0.0, 1.0),
                                             (math.nan, 1.0)])
    def test_pad_needs_positive_epsilon_and_norm(self, eps, norm_x):
        # no delta in (0, 1] follows: norm_x = 0 divides by zero, a negative
        # norm flips the pad's sign, epsilon = 0 reads as an underflow and a
        # NaN makes delta = min(1, nan) = 1
        p = ts.TargetSpectrum(((F(1), F(0)), (F(1, 2), F(1, 2))))
        b = (np.eye(1, dtype=complex), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="need epsilon, norm_x > 0"):
            ts.pad_scaling(b, p, eps, norm_x)

    def test_zero_target_halt_pads_and_measures_once(self, rng, monkeypatch):
        x = random_integer_tensor((2, 3, 3, 3), rng, low=1, high=5)
        p = ts.TargetSpectrum(((F(1, 2), F(1, 2), F(0)),
                              (F(2, 3), F(1, 3), F(0)),
                              (F(1, 3), F(1, 3), F(1, 3))))
        pads, full_measures = [], []
        pad, measure = ts.scaling.pad_scaling, ts.scaling._Iterate.measure

        def counted_pad(*args):
            pads.append(1)
            return pad(*args)

        def counted_measure(it, *args):
            if it.y.shape == x.shape:  # the loop measures the restricted format
                full_measures.append(1)
            return measure(it, *args)

        monkeypatch.setattr(ts.scaling, "pad_scaling", counted_pad)
        monkeypatch.setattr(ts.scaling._Iterate, "measure", counted_measure)
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-5, seed=11,
                                                    max_iters=300))
        assert rep.verdict == ts.SCALED and rep.iterations > 50
        assert len(pads) == 1 and len(full_measures) == 1

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
                                     np.diag(ascending(p, i))) <= 0.02

    def test_all_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            ts.TargetSpectrum(((F(0), F(0)),))


class TestParametrizations:
    def test_identity_homogeneous(self):
        phi = ts.identity_parametrization((2, 2, 2))
        assert phi.degree == 1 and phi.param_dim == 8
        assert homogeneous(phi, seed=3)

    def test_mps_homogeneous(self):
        phi = ts.mps_parametrization(2, 2, 3)
        assert phi.degree == 3 and phi.param_dim == 8
        assert homogeneous(phi, seed=5)


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

    def test_given_and_computed_overflow_differ(self):
        # a non-finite given matrix is a usage error; finite matrices whose
        # trace products pass the float range are a numeric breakdown
        with pytest.raises(ts.NonFiniteEntriesError, match="finite"):
            ts.mps_tensor([np.diag([np.inf, 1.0]), np.eye(2)], d=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError,
                               match="trace products left"):
                ts.mps_tensor([np.diag([1e200, 1.0]), np.eye(2)], d=3)


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

    def test_orbit_map_reproduces_direct_runs(self):
        # the orbit map of a given tensor is run_scaling's randomized start,
        # so a given tensor is scaled by run_scaling itself
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        for seed in range(10):
            cfg = ts.ScalingConfig(epsilon=0.02, seed=seed, max_iters=2000)
            assert ts.run_scaling(ghz_tensor(), p, cfg).verdict == ts.SCALED
        for seed in range(10):
            cfg = ts.ScalingConfig(epsilon=0.02, seed=seed, max_iters=500)
            assert ts.run_scaling(product_tensor(), p, cfg).verdict \
                == ts.NOT_IN_POLYTOPE

    def test_overflowing_parametrized_sample_is_a_breakdown(self):
        # the theoretical range is about 1e75 and the MPS entries are degree
        # 5 in it: mps_tensor's trace products overflow, a numeric failure,
        # not a ValueError
        phi = ts.mps_parametrization(3, 2, 5)
        cfg = ts.ScalingConfig(epsilon=0.1, rand_range=ts.THEORETICAL)
        with pytest.raises(ts.NumericBreakdownError,
                           match="trace products left") as info:
            ts.run_general_scaling(phi, ts.TargetSpectrum.uniform((3,) * 5), cfg)
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, ts.NonFiniteEntriesError)

    def test_mps_run_produces_report(self):
        phi = ts.mps_parametrization(2, 2, 3)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep, x = ts.run_general_scaling(
            phi, p, ts.ScalingConfig(epsilon=0.05, seed=1, max_iters=2000))
        assert x.shape == (1, 2, 2, 2)
        assert rep.verdict in (ts.SCALED, ts.NOT_IN_POLYTOPE,
                               ts.BUDGET_EXHAUSTED)
        assert homogeneous(phi, seed=7)

    def test_vanishing_sample_ends_at_step_0(self):
        # a zero sample is an unlucky draw, no rank obstruction: the run
        # ends at step 0 on its one sample, and another seed may answer
        samples = []

        def evaluate(z):
            samples.append(z)
            return ts.Tensor(np.zeros((1, 2, 2)))

        dead = ts.Parametrization(param_dim=2, degree=1, evaluate=evaluate)
        p = ts.TargetSpectrum.uniform((2, 2))
        rep, x = ts.run_general_scaling(dead, p,
                                        ts.ScalingConfig(epsilon=0.1, seed=0))
        assert (rep.verdict, rep.iterations) == (ts.BUDGET_EXHAUSTED, 0)
        assert "vanished" in rep.note
        assert x.norm() == 0 and len(samples) == 1

    def test_sample_format_is_checked_before_its_norm(self):
        # a zero sample of the wrong format is a usage error, not a verdict
        wrong = ts.Parametrization(
            param_dim=2, degree=1,
            evaluate=lambda z: ts.Tensor(np.zeros((1, 3, 3))))
        with pytest.raises(ValueError, match="parametrization produced format"):
            ts.run_general_scaling(wrong, ts.TargetSpectrum.uniform((2, 2)),
                                   ts.ScalingConfig(epsilon=0.1))

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
