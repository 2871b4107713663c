"""Tensor substrate: flattenings, marginals, spectra, group actions."""
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscale as ts
from conftest import (
    apply_factor,
    ghz_tensor,
    marginal_bruteforce,
    random_hermitian,
    random_integer_tensor,
    reduce_reference,
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

    @pytest.mark.parametrize("data", [
        [[[1.0, -9.0], [2.0, 0.5]]],                  # real, not integer
        [[[1.0, -9.0], [2.0, 3.0]]],                  # real integer
        [[[1 - 2j, 0], [0, -9 + 16j]]],               # Gaussian integer
        [[[1 - 2.5j, 0], [0.25, -9]]],                # complex
        [[[2.0 ** 60 + 2048, -3.0], [1.0, 0.0]]],     # past 2**53
        [[[1j * 2.0 ** 70, 0.5], [1.0, -(2.0 ** 54)]]],
        np.arange(12.0).reshape(2, 3, 2).transpose(0, 2, 1) * (1 + 1j)])
    def test_one_pass_checks_read_both_parts(self, data):
        # the float view of the entries, read once, gives the answers of
        # separate passes over the real and imaginary parts
        x = ts.Tensor(data)
        real, imag = np.real(x.data), np.imag(x.data)
        top = max(float(np.max(np.abs(real))), float(np.max(np.abs(imag))))
        assert x.entry_bitsize() == max(1, int(np.ceil(top)).bit_length())
        assert x.is_gaussian_integer() == bool(
            np.all(real == np.round(real)) and np.all(imag == np.round(imag)))


class TestDtypeRule:
    """Real entries are stored as float64, whatever the input's dtype; only
    a nonzero imaginary part keeps complex128."""

    @pytest.mark.parametrize("data", [
        [[1, -2]], [[True, False]], np.array([[0.5, 2.0]], dtype=np.float32),
        np.array([[1, 2]], dtype=complex), np.array([[1, 2]], dtype=np.complex64)])
    def test_real_entries_are_stored_as_float64(self, data):
        x = ts.Tensor(data)
        assert x.data.dtype == np.float64 and x.data.flags.c_contiguous
        assert np.array_equal(x.data, np.real(np.asarray(data)))

    def test_fortran_order_input_runs_as_its_c_order_copy(self):
        # a Tensor stores a row-major copy, so norm sums in one order and a
        # run's rounding does not depend on the caller's layout; the first
        # of these random tensors whose raw norms differ by layout is used
        rng = np.random.default_rng(5)
        data = next(a for a in (rng.standard_normal((8, 3, 3, 3))
                                for _ in range(100))
                    if np.linalg.norm(np.asfortranarray(a)) != np.linalg.norm(a))
        x, y = ts.Tensor(np.ascontiguousarray(data)), ts.Tensor(np.asfortranarray(data))
        assert y.data.flags.c_contiguous and np.array_equal(x.data, y.data)
        assert x.norm().hex() == y.norm().hex()
        p = ts.TargetSpectrum(((F(1, 2), F(1, 3), F(1, 6)),) * 3)
        cfg = ts.ScalingConfig(epsilon=1e-6, seed=0, max_iters=2000)
        got, want = ts.run_scaling(y, p, cfg), ts.run_scaling(x, p, cfg)
        assert (got.verdict, got.iterations, got.trace) == \
            (want.verdict, want.iterations, want.trace)
        assert all(np.array_equal(a, b) for a, b in zip(got.group, want.group))

    def test_zero_imaginary_part_drops_to_its_real_part(self):
        data = np.array([[[1, -2], [3, 0]]], dtype=complex)
        data.imag[0, 0, 0] = -0.0
        x = ts.Tensor(data)
        assert x.data.dtype == np.float64 and not x.data.flags.writeable
        assert np.array_equal(x.data, data.real)
        assert data.flags.writeable  # the caller's array is not frozen

    def test_nonzero_imaginary_part_stays_complex(self):
        data = np.array([[[1, -2], [3, 1e-300j]]])
        x = ts.Tensor(data)
        assert x.data.dtype == np.complex128 and np.array_equal(x.data, data)

    def test_zero_imaginary_group_acts_in_real_arithmetic(self, rng):
        # integer entries: the real and the complex products are both exact
        x = random_integer_tensor((2, 3, 2), rng)
        g = tuple(rng.integers(1, 9, size=(n, n)).astype(complex) for n in x.dims)
        want = x.data.astype(complex)
        for i, m in enumerate(g, start=1):
            want = np.moveaxis(np.tensordot(m, want, axes=([1], [i])), 0, i)
        for y in (ts.apply_group(g, x),
                  apply_factor(g[1], 2, apply_factor(g[0], 1, x)),
                  ts.apply_group(ts.compose_group(g, ts.identity_group(x.dims)), x)):
            assert y.data.dtype == np.float64 and np.array_equal(y.data, want)
        assert all(m.dtype == np.float64 for m in ts.compose_group(g, g))

    def test_complex_group_or_tensor_keeps_complex(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        g = (np.array([[1, 1j], [0, 1]]), np.eye(2))
        assert ts.apply_group(g, x).data.dtype == np.complex128
        assert ts.apply_group(ts.identity_group(x.dims),
                              ts.Tensor(1j * x.data)).data.dtype == np.complex128
        assert ts.compose_group(g, g)[0].dtype == np.complex128


class TestFlatten:
    """tensors.flattening, the package's one flattening: axis i as rows, the
    other axes in order as columns."""

    def test_basis_tensor(self):
        x = basis_tensor((1, 2, 2), (0, 0, 0))
        m = ts.tensors.flattening(x.data, 1)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1
        assert np.array_equal(m, expected)

    def test_round_trip(self, rng):
        x = random_integer_tensor((2, 2, 3, 2), rng)
        m = ts.tensors.flattening(x.data, 2)
        assert m.shape == (3, 8)
        # invert: reshape to the permuted tensor, undo the transpose
        permuted = m.reshape(3, 2, 2, 2)
        back = np.transpose(permuted, np.argsort([2, 0, 1, 3]))
        assert np.array_equal(back, x.data)
        assert np.array_equal(ts.tensors.flattening(back, 2), m)

    def test_gram_is_marginal(self, rng):
        x = random_integer_tensor((1, 2, 2, 2), rng)
        for i in (1, 2, 3):
            m = ts.tensors.flattening(x.data, i)
            assert np.allclose(m @ m.conj().T, marginal_bruteforce(x, i))
            assert same_array(m @ m.conj().T, ts.marginal(x, i))


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
        assert np.linalg.matrix_rank(ts.tensors.flattening(y.data, i), tol=1e-8) \
            == np.linalg.matrix_rank(ts.tensors.flattening(x.data, i), tol=1e-8)


def ref_contract(m, data, i):
    """The contraction apply_group used to compute, kept as the reference
    for tensors.contract."""
    return np.moveaxis(np.tensordot(m, data, axes=([1], [i])), 0, i)


def same_array(a, b):
    """Equal values and equal memory layout."""
    return np.array_equal(a, b) and a.strides == b.strides


def row_major_equal(a, ref):
    """Equal values, with a C-contiguous whatever the strides of ref."""
    return np.array_equal(a, ref) and a.flags.c_contiguous


def complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestContract:
    """contract's bits are np.tensordot's, its layout row-major: the next
    contraction or flattening reads the image without a transpose copy."""

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 3, 2, 4), (3, 4),
                                       (1, 2, 2, 2, 2)])
    def test_matches_tensordot_on_every_axis(self, rng, shape):
        data = random_integer_tensor(shape, rng).data
        for i in range(len(shape)):
            for rows in (1, shape[i], shape[i] + 2):  # square and not
                m = complex_matrix(rng, rows, shape[i])
                assert row_major_equal(ts.contract(m, data, i),
                                       ref_contract(m, data, i))

    def test_matches_tensordot_on_a_transposed_iterate(self, rng):
        # contract is public: a strided input, here tensordot's own real
        # image, is made contiguous first
        data = random_integer_tensor((2, 3, 4, 3), rng).data
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                m = rng.standard_normal((data.shape[i], data.shape[i]))
                a = complex_matrix(rng, data.shape[j], data.shape[j])
                moved = ref_contract(m, data, i)
                if i < 3:
                    assert not moved.flags.c_contiguous
                assert row_major_equal(ts.contract(a, moved, j),
                                       ref_contract(a, moved, j))

    @pytest.mark.parametrize("q", [1, 6])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_leading_axis_product_is_the_plain_product(self, rng, kind, q):
        # at P = 1 the batched product makes the 2-D product's BLAS call, so
        # contract_folded needs no branch of its own for it: the same bits
        # for a C-ordered m and for the loop's F-ordered step matrix
        def draw(*shape):
            a = rng.standard_normal(shape)
            return a if kind == "real" else a + 1j * rng.standard_normal(shape)

        for n in (1, 2, 3, 4, 7, 16, 48):
            data, x = draw(n * q), draw(n, n)
            step = (x.conj() * np.sqrt(rng.random(n))).T
            assert step.flags.f_contiguous and x.flags.c_contiguous
            for m in (x, step):
                out = ts.tensors.contract_folded(m, data, (1, n, q))
                plain = m @ data.reshape(n, q)
                assert out.shape == (1, n, q) and out.flags.c_contiguous
                assert out.reshape(n, q).tobytes() == plain.tobytes()

    def test_rejects_a_mismatched_axis(self, rng):
        data = random_integer_tensor((1, 2, 4), rng).data
        with pytest.raises(ValueError):
            ts.contract(complex_matrix(rng, 2, 2), data, 2)

    def test_apply_factor_and_apply_group_match_tensordot(self, rng):
        x = random_integer_tensor((2, 3, 2, 4), rng)
        g = tuple(complex_matrix(rng, n, n) for n in x.dims)
        data = x.data
        for i, m in enumerate(g, start=1):
            assert row_major_equal(apply_factor(m, i, x).data,
                                   ref_contract(m, x.data, i))
            data = ref_contract(m, data, i)
            # a rectangular factor maps into a different format
            wide = complex_matrix(rng, x.shape[i] + 1, x.shape[i])
            assert row_major_equal(apply_factor(wide, i, x).data,
                                   ref_contract(wide, x.data, i))
        assert row_major_equal(ts.apply_group(g, x).data, data)

    @pytest.mark.parametrize("shape,lams", [
        ((1, 2, 2), [(2, 1), (2, 1)]),
        ((2, 3, 3), [(3, 2, 1), (4, 1, 1)]),
        ((1, 2, 2, 2), [(3, 3), (5, 1), (4, 2)]),
    ])
    def test_reduce_tensor_matches_tensordot(self, rng, shape, lams):
        # the reference contracts with the non-square reduction matrices
        y = random_integer_tensor(shape, rng)
        assert same_array(ts.reduce_tensor(y, lams).data,
                          reduce_reference(y, lams).data)
