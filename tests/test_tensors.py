"""Tensor substrate: flattenings, marginals, spectra, group actions."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscale as ts
from conftest import (
    ghz_tensor,
    marginal_bruteforce,
    random_hermitian,
    random_integer_tensor,
    w_tensor,
)


def basis_tensor(shape, idx):
    data = np.zeros(shape, dtype=complex)
    data[idx] = 1
    return ts.Tensor(data)


class TestTensor:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.Tensor(np.zeros(4))
        with pytest.raises(ValueError):
            ts.Tensor(np.zeros((1, 0, 2)))
        with pytest.raises(ValueError):
            ts.Tensor(np.array([[np.inf, 0], [0, 0]]))

    @pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0, -np.inf)])
    def test_non_finite_entries_have_their_own_error(self, entry):
        # a ValueError for given data; the engine maps it to a numeric
        # breakdown where it computed the data
        with pytest.raises(ts.NonFiniteEntriesError, match="finite"):
            ts.Tensor(np.array([[entry, 0], [0, 0]]))
        with pytest.raises(ValueError) as info:
            ts.Tensor(np.zeros((1, 0, 2)))
        assert not isinstance(info.value, ts.NonFiniteEntriesError)

    def test_immutable(self):
        x = ghz_tensor()
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 5

    def test_bitsize(self):
        x = ts.Tensor(np.array([[[1, 0], [0, -9]]], dtype=complex))
        assert x.entry_bitsize() == 4
        assert ghz_tensor().entry_bitsize() == 1
        assert x.is_gaussian_integer()

    @pytest.mark.parametrize("s", [1e200, 1e-200, 1e-160, 1e300, 5e-324])
    def test_norm_holds_the_whole_float_range(self, s):
        # the diagonal s * I of format (1;2,2): a plain sum of squares
        # overflows to inf, underflows to 0, or keeps a 6e-6 relative error
        x = ts.Tensor(np.eye(2).reshape(1, 2, 2) * s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = x.norm()
        assert norm == pytest.approx(np.sqrt(2) * s, rel=1e-15, abs=0)
        mixed = ts.Tensor(np.array([[[3 * s, 4j * s]]]))
        assert mixed.norm() == pytest.approx(5 * s, rel=1e-15, abs=0)

    def test_norm_range_ends(self):
        assert ts.Tensor(np.zeros((1, 2, 2))).norm() == 0.0
        # past the largest float, the norm itself overflows
        big = ts.Tensor(np.full((1, 2, 2), 1e308 + 1e308j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big.norm() == np.inf
        # a strided layout takes the same route as a row-major one
        data = np.arange(1.0, 25.0).reshape(2, 3, 4) * 1e-200
        x = ts.Tensor(data.transpose(0, 2, 1))
        assert x.norm() == pytest.approx(np.linalg.norm(np.arange(1.0, 25.0))
                                         * 1e-200, rel=1e-15, abs=0)

    def test_gaussian_integer_check(self):
        x = ts.Tensor(np.array([[[1, 0], [0, -9]]]) * (1 - 2j))
        assert x.is_gaussian_integer()
        assert not ts.Tensor(x.data / 4).is_gaussian_integer()


class TestFlatten:
    def test_basis_tensor(self):
        x = basis_tensor((1, 2, 2), (0, 0, 0))
        m = ts.flatten(x, [1])
        expected = np.zeros((2, 2))
        expected[0, 0] = 1
        assert np.array_equal(m, expected)

    def test_round_trip(self, rng):
        x = random_integer_tensor((2, 2, 3, 2), rng)
        labels = [1, 2, 3]
        m = ts.flatten(x, labels)
        # invert: reshape to the permuted tensor, undo the transpose
        permuted = m.reshape(2, 3, 2, 2)
        back = np.transpose(permuted, np.argsort([1, 2, 3, 0]))
        assert np.array_equal(back, x.data)
        assert np.array_equal(ts.flatten(ts.Tensor(back), labels), m)

    def test_gram_is_marginal(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        m = ts.flatten(x, [1])
        assert np.allclose(m @ m.conj().T, marginal_bruteforce(x, 1))

    def test_invalid_subsets(self):
        x = ghz_tensor()
        with pytest.raises(ValueError):
            ts.flatten(x, [])
        with pytest.raises(ValueError):
            ts.flatten(x, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            ts.flatten(x, [7])


class TestMarginal:
    def test_product_basis(self):
        x = basis_tensor((1, 2, 2, 2), (0, 0, 0, 0))
        assert np.allclose(ts.marginal(x, 1), np.diag([1, 0]))

    def test_ghz_uniform(self):
        x = ts.Tensor(ghz_tensor().data / np.sqrt(2))
        for i in (1, 2, 3):
            assert np.allclose(ts.marginal(x, i), np.eye(2) / 2)

    def test_w_first_marginal(self):
        x = ts.Tensor(w_tensor().data / np.sqrt(3))
        rho = ts.marginal(x, 1)
        assert np.allclose(rho, marginal_bruteforce(x, 1))
        assert np.allclose(rho, np.diag([2 / 3, 1 / 3]))

    def test_trace_is_norm_squared(self, rng):
        for shape in [(1, 2, 2), (2, 3, 2), (1, 2, 2, 2)]:
            x = random_integer_tensor(shape, rng)
            for i in range(1, len(shape)):
                rho = ts.marginal(x, i)
                assert abs(np.trace(rho).real - x.norm() ** 2) \
                    <= 1e-10 * x.norm() ** 2
                assert np.linalg.eigvalsh(rho)[0] >= -1e-10 * x.norm() ** 2

    def test_all_small_formats_against_bruteforce(self, rng):
        formats = [(1, 2, 2), (2, 2, 3), (1, 2, 2, 2), (2, 2, 2, 2),
                   (1, 4, 4, 4), (3, 2, 2, 2, 2), (1, 2, 3, 4), (2, 4, 8)]
        for shape in formats:
            assert np.prod(shape) <= 256
            x = random_integer_tensor(shape, rng)
            for i in range(1, len(shape)):
                assert np.allclose(ts.marginal(x, i), marginal_bruteforce(x, i))

    def test_range_check(self):
        with pytest.raises(ValueError):
            ts.marginal(ghz_tensor(), 0)
        with pytest.raises(ValueError):
            ts.marginal(ghz_tensor(), 4)


class TestCheckHermitian:
    def test_checks_against_its_own_norm_and_rejects_stacks(self, rng):
        big = 1e8 * random_hermitian(3, rng)
        small = 1e-8 * random_hermitian(3, rng)
        # a defect far above rtol of its own norm, far below the stack's
        small[0, 1] += 1e-14
        ts.check_hermitian(big)
        with pytest.raises(ValueError):
            ts.check_hermitian(small)
        with pytest.raises(ValueError, match="square matrix"):
            ts.check_hermitian(np.stack([big, small]))

    def test_rejects_non_square(self):
        for shape in [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2)]:
            with pytest.raises(ValueError):
                ts.check_hermitian(np.zeros(shape))

    def test_single_matrix_functions_reject_stacks(self):
        stack = np.stack([np.eye(2) / 2] * 3)
        with pytest.raises(ValueError):
            ts.spectrum(stack)
        with pytest.raises(ValueError):
            ts.trace_distance(stack, stack)
        with pytest.raises(ValueError):
            ts.trace_distance(np.eye(2) / 2, stack)
        with pytest.raises(ValueError):
            ts.upper_cholesky(stack)


class TestSpectrum:
    def test_diagonal(self):
        assert np.allclose(ts.spectrum(np.diag([0.3, 0.7])), [0.7, 0.3])

    def test_identity(self):
        assert np.allclose(ts.spectrum(np.eye(4) / 4), [0.25] * 4)

    def test_hand_solved(self):
        # characteristic polynomial x^2 - 3x + 1
        expected = [(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2]
        assert np.allclose(ts.spectrum(np.array([[2, 1], [1, 1]])), expected)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ts.spectrum(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_sum_matches_trace(self, rng):
        for n in range(2, 6):
            a = random_hermitian(n, rng)
            assert abs(ts.spectrum(a).sum() - np.trace(a).real) <= 1e-10


class TestTraceDistance:
    def test_equal(self, rng):
        a = random_hermitian(3, rng)
        assert ts.trace_distance(a, a) == 0

    def test_disjoint_support(self):
        assert ts.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])) \
            == pytest.approx(2)

    def test_hand_solved(self):
        a = np.diag([0.5, 0.5])
        b = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert ts.trace_distance(a, b) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ts.trace_distance(np.eye(2), np.eye(3))

    def test_dominates_spectral_l1(self, rng):
        for n in range(2, 6):
            for _ in range(50):
                a, b = random_hermitian(n, rng), random_hermitian(n, rng)
                lhs = ts.trace_distance(a, b)
                rhs = np.abs(ts.spectrum(a) - ts.spectrum(b)).sum()
                assert lhs >= rhs - 1e-12


class TestApplyGroup:
    def test_identity(self, rng):
        x = random_integer_tensor((1, 2, 3, 2), rng)
        y = ts.apply_group(ts.identity_group(x.dims), x)
        assert np.array_equal(y.data, x.data)

    def test_single_factor_is_right_multiplication(self, rng):
        # d=1: acting on factor 1 multiplies the (factor-0)-rows matrix X
        # by the transpose of g on the right
        x = random_integer_tensor((3, 2), rng)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = ts.apply_group((g,), x)
        assert np.allclose(y.data, x.data @ g.T)

    def test_marginal_conjugation(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        g = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(3))
        for i in (1, 2, 3):
            partial = list(g)
            partial[i - 1] = np.eye(2)
            mid = ts.apply_group(partial, x)
            a = marginal_bruteforce(mid, i)
            expected = g[i - 1] @ a @ g[i - 1].conj().T
            assert np.allclose(ts.marginal(ts.apply_group(g, x), i), expected)

    def test_composition(self, rng):
        x = random_integer_tensor((1, 2, 3), rng)
        g = tuple(rng.standard_normal((n, n)) for n in (2, 3))
        h = tuple(rng.standard_normal((n, n)) for n in (2, 3))
        lhs = ts.apply_group(g, ts.apply_group(h, x)).data
        rhs = ts.apply_group(ts.compose_group(g, h), x).data
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ts.apply_group((np.eye(3), np.eye(2), np.eye(2)), ghz_tensor())

    def test_overflowing_image_is_a_breakdown(self):
        # a finite group and a finite tensor whose image passes the float
        # range: apply_group decides it, with no NumPy warning
        g = (1e200 * np.eye(2),) * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError,
                               match="image left the floating-point range") as info:
                ts.apply_group(g, ghz_tensor())
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, ts.NonFiniteEntriesError)

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_non_finite_composition_is_a_breakdown(self, entry):
        # 1e200 * 1e200 overflows; a non-finite factor stays non-finite;
        # either raises with no NumPy warning first
        g = (np.diag([entry, 1.0]), np.eye(3))
        h = (1e200 * np.eye(2), np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.NumericBreakdownError,
                               match="composed group left the floating-point range"):
                ts.compose_group(g, h)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_rank_invariance_under_invertible_action(n, seed):
    rng = np.random.default_rng(seed)
    x = random_integer_tensor((1, n, 2, 2), rng)
    g = (np.eye(n) + 0.3 * rng.standard_normal((n, n)),
         np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
         np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
    if any(abs(np.linalg.det(m)) < 1e-3 for m in g):
        return
    y = ts.apply_group(g, x)
    for i in (1, 2, 3):
        assert np.linalg.matrix_rank(ts.flatten(y, [i]), tol=1e-8) \
            == np.linalg.matrix_rank(ts.flatten(x, [i]), tol=1e-8)


def ref_contract(m, data, i):
    """The contraction apply_factor, apply_group and reduce_tensor used to
    compute, kept as the reference for tensors.contract."""
    return np.moveaxis(np.tensordot(m, data, axes=([1], [i])), 0, i)


def ref_reduce_tensor(y, lams):
    """reduce_tensor as it was, one np.tensordot per factor."""
    rds = [ts.ReductionData(tuple(lam)) for lam in lams]
    ell = rds[0].ell
    data = y.data
    for i, rd in enumerate(rds):
        data = ref_contract(ts.reduction_matrix(rd), data, i + 1)
    d = y.num_factors
    split = (y.n0,) + tuple(v for rd in rds for v in (rd.width, ell))
    perm = [0] + [1 + 2 * i for i in range(d)] + [2 + 2 * i for i in range(d)]
    data = np.transpose(data.reshape(split), perm)
    front = y.n0 * int(np.prod([rd.width for rd in rds]))
    return ts.Tensor(data.reshape((front,) + (ell,) * d))


def same_array(a, b):
    """Equal values and equal memory layout."""
    return np.array_equal(a, b) and a.strides == b.strides


def complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestContract:
    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 2, 4), (3, 4),
                                       (1, 2, 2, 2, 2)])
    def test_matches_tensordot_on_every_axis(self, rng, shape):
        data = random_integer_tensor(shape, rng).data
        for i in range(len(shape)):
            for rows in (1, shape[i], shape[i] + 2):  # square and not
                m = complex_matrix(rng, rows, shape[i])
                assert same_array(ts.contract(m, data, i),
                                  ref_contract(m, data, i))

    def test_matches_tensordot_on_a_transposed_iterate(self, rng):
        # the layout the scaling loop's updates leave behind
        data = random_integer_tensor((2, 3, 4, 3), rng).data
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                m = complex_matrix(rng, data.shape[i], data.shape[i])
                a = complex_matrix(rng, data.shape[j], data.shape[j])
                moved = ts.contract(m, data, i)
                assert same_array(ts.contract(a, moved, j),
                                  ref_contract(a, moved, j))

    def test_rejects_a_mismatched_axis(self, rng):
        data = random_integer_tensor((1, 2, 4), rng).data
        with pytest.raises(ValueError):
            ts.contract(complex_matrix(rng, 2, 2), data, 2)

    def test_apply_factor_and_apply_group_match_tensordot(self, rng):
        x = random_integer_tensor((2, 3, 2, 4), rng)
        g = tuple(complex_matrix(rng, n, n) for n in x.dims)
        data = x.data
        for i, m in enumerate(g, start=1):
            ref = ts.Tensor(ref_contract(m, x.data, i))
            assert same_array(ts.apply_factor(m, i, x).data, ref.data)
            data = ref_contract(m, data, i)
            # a rectangular factor maps into a different format
            wide = complex_matrix(rng, x.shape[i] + 1, x.shape[i])
            assert same_array(ts.apply_factor(wide, i, x).data,
                              ts.Tensor(ref_contract(wide, x.data, i)).data)
        assert same_array(ts.apply_group(g, x).data, ts.Tensor(data).data)

    @pytest.mark.parametrize("shape,lams", [
        ((1, 2, 2), [(2, 1), (2, 1)]),
        ((2, 3, 3), [(3, 2, 1), (4, 1, 1)]),
        ((1, 2, 2, 2), [(3, 3), (5, 1), (4, 2)]),
    ])
    def test_reduce_tensor_matches_tensordot(self, rng, shape, lams):
        # reduce_tensor contracts with the non-square reduction matrices
        y = random_integer_tensor(shape, rng)
        assert same_array(ts.reduce_tensor(y, lams).data,
                          ref_reduce_tensor(y, lams).data)
