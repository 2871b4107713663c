"""Reduction maps: Kraus structure, homomorphism, intertwining, expansion."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscale as ts
from tenscale import reduction
from tenscale.partitions import conjugate_partition
from conftest import (
    borel_homomorphism,
    kraus_operator,
    random_integer_tensor,
    random_upper_triangular,
    reduce_reference,
    reduction_matrix,
)


def lam_sqrt_inv(rd):
    return np.diag(1.0 / np.sqrt(rd.lam_ascending())).astype(complex)


class TestConjugatePartition:
    def test_self_conjugate(self):
        assert ts.conjugate_partition((2, 1)) == (2, 1)

    def test_diagram_columns(self):
        assert ts.conjugate_partition((3, 1)) == (2, 1, 1)

    def test_single_row(self):
        assert ts.conjugate_partition((4,)) == (1, 1, 1, 1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    def test_involution(self, parts):
        lam = tuple(sorted(parts, reverse=True))
        assert ts.conjugate_partition(ts.conjugate_partition(lam)) == lam


class TestReductionData:
    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            ts.ReductionData((2, 1, 0))
        with pytest.raises(ValueError):
            ts.ReductionData((1, 2))

    def test_fields(self):
        rd = ts.ReductionData((3, 2, 1))
        assert rd.n == 3 and rd.ell == 6 and rd.mu == (3, 2, 1)

    def test_mu_is_computed_once(self, monkeypatch, rng):
        calls = []

        def counting(parts):
            calls.append(parts)
            return conjugate_partition(parts)

        monkeypatch.setattr(reduction, "conjugate_partition", counting)
        rd = ts.ReductionData((2, 1))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        first = ts.expand_matrix(rd, x), ts.expand_adjoint(rd, np.eye(3))
        for _ in range(100):
            assert np.array_equal(ts.expand_matrix(rd, x), first[0])
            assert np.array_equal(ts.expand_adjoint(rd, np.eye(3)), first[1])
        assert calls == [(2, 1)]
        # reduce_tensor memoizes one ReductionData per distinct partition:
        # (2, 1) is conjugated once over 101 calls, and a later format
        # conjugates only its new partition
        reduction._placement.cache_clear()
        for shape, lams, new in [((1, 2, 2, 2), [(2, 1)] * 3, [(2, 1)]),
                                 ((1, 2, 2, 3), [(2, 1), (2, 1), (1, 1, 1)],
                                  [(1, 1, 1)])]:
            y = random_integer_tensor(shape, rng)
            calls.clear()
            want = ts.reduce_tensor(y, lams).data
            for _ in range(100):
                assert np.array_equal(ts.reduce_tensor(y, lams).data, want)
            assert calls == new
            assert np.array_equal(want, reduce_reference(y, lams).data)


    def test_memo_keeps_the_integer_rule(self, rng):
        # 2.0 and True hash like 2 and 1, so a memoized (2, 1) must not
        # admit them
        y = random_integer_tensor((1, 2, 2), rng)
        ts.reduce_tensor(y, [(2, 1)] * 2)
        for lam in [(2.0, 1), (2, True)]:
            with pytest.raises(ValueError, match=r"^lam\[\d\] must be"):
                ts.reduce_tensor(y, [lam] * 2)


class TestKrausOperators:
    def test_trivial_partition(self):
        rd = ts.ReductionData((1,))
        assert np.array_equal(kraus_operator(rd, 1), [[1]])

    def test_two_one_blocks(self):
        rd = ts.ReductionData((2, 1))
        assert np.array_equal(kraus_operator(rd, 1).real,
                              [[1, 0], [0, 1], [0, 0]])
        assert np.array_equal(kraus_operator(rd, 2).real,
                              [[0, 0], [0, 0], [0, 1]])

    def test_orthogonality(self):
        rd = ts.ReductionData((3, 2, 1))
        for i in range(1, rd.width + 1):
            for j in range(1, rd.width + 1):
                ti, tj = kraus_operator(rd, i), kraus_operator(rd, j)
                prod = tj.conj().T @ ti
                if i != j:
                    assert np.allclose(prod, 0)
                else:
                    nu = ti[np.any(ti != 0, axis=1)]
                    assert np.allclose(prod, nu.conj().T @ nu)


class TestKrausSums:
    # every term of a Kraus sum is a product with entries 0 and 1, so the
    # block placement must reproduce the sums exactly
    LAMS = [(1,), (3,), (1, 1), (2, 1), (4, 1), (2, 2), (3, 2, 1),
            (2, 2, 2), (4, 2, 2, 1), (5, 3, 3, 1, 1)]

    @pytest.mark.parametrize("lam", LAMS)
    def test_maps_equal_their_kraus_sums(self, lam, rng):
        rd = ts.ReductionData(lam)
        taus = [kraus_operator(rd, j) for j in range(1, rd.width + 1)]
        for _ in range(5):
            x = rng.standard_normal((rd.n, rd.n)) \
                + 1j * rng.standard_normal((rd.n, rd.n))
            y = rng.standard_normal((rd.ell, rd.ell)) \
                + 1j * rng.standard_normal((rd.ell, rd.ell))
            assert np.array_equal(ts.expand_matrix(rd, x),
                                  sum(t @ x @ t.conj().T for t in taus))
            assert np.array_equal(ts.expand_adjoint(rd, y),
                                  sum(t.conj().T @ y @ t for t in taus))


class TestExpansionIdentities:
    @pytest.mark.parametrize("lam", [(2, 1), (3, 2, 1), (2, 2), (4, 1)])
    def test_unital_relations(self, lam):
        rd = ts.ReductionData(lam)
        assert np.allclose(ts.expand_matrix(rd, np.eye(rd.n)), np.eye(rd.ell),
                           atol=1e-12)
        assert np.allclose(ts.expand_adjoint(rd, np.eye(rd.ell)),
                           np.diag(rd.lam_ascending()), atol=1e-12)
        lam_diag = np.diag(rd.lam_ascending())
        assert np.allclose(ts.normalized_expand(rd, lam_diag), np.eye(rd.ell),
                           atol=1e-12)
        assert np.allclose(ts.normalized_expand_adjoint(rd, np.eye(rd.ell)),
                           np.eye(rd.n), atol=1e-12)

    def test_injectivity_via_first_kraus(self, rng):
        rd = ts.ReductionData((2, 2, 1))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        tau1 = kraus_operator(rd, 1)
        assert np.allclose(tau1.conj().T @ ts.expand_matrix(rd, x) @ tau1, x)

    def test_adjoint_pairing(self, rng):
        rd = ts.ReductionData((3, 1))
        x = rng.standard_normal((2, 2))
        y = rng.standard_normal((4, 4))
        lhs = np.trace(ts.expand_matrix(rd, x) @ y)
        rhs = np.trace(x @ ts.expand_adjoint(rd, y))
        assert lhs == pytest.approx(rhs)


class TestHomomorphism:
    def test_identity(self):
        rd = ts.ReductionData((2, 1))
        assert np.allclose(borel_homomorphism(rd, np.eye(2)), np.eye(3))

    def test_multiplicative_and_triangular(self, rng):
        for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
            rd = ts.ReductionData(lam)
            for _ in range(500):
                b1 = random_upper_triangular(rd.n, rng)
                b2 = random_upper_triangular(rd.n, rng)
                h1, h2 = (borel_homomorphism(rd, b) for b in (b1, b2))
                h12 = borel_homomorphism(rd, b1 @ b2)
                assert np.allclose(h12, h1 @ h2, atol=1e-10 * np.abs(h12).max())
                assert np.allclose(np.tril(h1, -1), 0, atol=1e-12)

    def test_intertwines_normalized_expansion(self, rng):
        rd = ts.ReductionData((3, 2))
        b = random_upper_triangular(2, rng)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = ts.normalized_expand(rd, b @ x)
        rhs = borel_homomorphism(rd, b) @ ts.normalized_expand(rd, x)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    def test_det_identity(self, rng):
        for lam in [(2, 1), (3, 2, 1)]:
            rd = ts.ReductionData(lam)
            b = random_upper_triangular(rd.n, rng)
            lhs = np.linalg.det(ts.expand_matrix(rd, np.linalg.inv(b)))
            weight = tuple(-v for v in reversed(rd.lam))
            rhs = ts.character((weight,), (b,))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestReduceTensor:
    def test_all_ones_partition_preserves_marginals(self, rng):
        y = random_integer_tensor((2, 3, 3), rng)
        reduced = ts.reduce_tensor(y, [(1, 1, 1), (1, 1, 1)])
        assert reduced.shape == (2, 3, 3)
        for i in (1, 2):
            assert np.allclose(ts.marginal(reduced, i), ts.marginal(y, i))

    def test_output_format(self, rng):
        y = random_integer_tensor((1, 2, 2), rng)
        reduced = ts.reduce_tensor(y, [(2, 1), (2, 1)])
        assert reduced.shape == (4, 3, 3)

    def test_embedding_norm_identity(self, rng):
        rd = ts.ReductionData((3, 2, 1))
        mat = reduction_matrix(rd)
        for _ in range(10):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = np.linalg.norm(mat @ v) ** 2
            rhs = sum(np.linalg.norm(v[3 - m:]) ** 2 for m in rd.mu)
            assert lhs == pytest.approx(rhs)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_the_kraus_sum_and_keeps_real_data_real(self, rng, d):
        # every tuple of d partitions of one ell <= 6 (<= 5 for d = 3, where
        # ell = 6 alone has 1,331 tuples): block placement gives the values
        # of the Kraus sum exactly, and the input's dtype
        for ell in range(1, 7 if d < 3 else 6):
            for lams in itertools.product(ts.partitions_of(ell, ell), repeat=d):
                shape = (2,) + tuple(len(lam) for lam in lams)
                real = rng.standard_normal(shape)
                for data in (real, real + 1j * rng.standard_normal(shape)):
                    y = ts.Tensor(data)
                    got = ts.reduce_tensor(y, lams).data
                    assert got.dtype == data.dtype
                    assert np.array_equal(got, reduce_reference(y, lams).data)

    def test_partition_size_mismatch(self, rng):
        y = random_integer_tensor((1, 2, 2), rng)
        with pytest.raises(ValueError):
            ts.reduce_tensor(y, [(2, 1), (1, 1)])
        with pytest.raises(ValueError):
            ts.reduce_tensor(y, [(2, 1, 1), (3, 1)])


class TestMarginalTransport:
    def test_expansion_commutes_with_marginals(self, rng):
        # applying the factorwise expansion to a two-party density matrix
        # and tracing out the second factor equals expanding the first
        # marginal directly
        rd1, rd2 = ts.ReductionData((2, 1)), ts.ReductionData((1, 1, 1))
        n1, n2, ell = 2, 3, 3
        a = rng.standard_normal((n1 * n2, n1 * n2)) \
            + 1j * rng.standard_normal((n1 * n2, n1 * n2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real

        scale1 = np.diag(1 / np.sqrt(rd1.lam_ascending()))
        scale2 = np.diag(1 / np.sqrt(rd2.lam_ascending()))
        kraus1 = [kraus_operator(rd1, j) @ scale1
                  for j in range(1, rd1.width + 1)]
        kraus2 = [kraus_operator(rd2, j) @ scale2
                  for j in range(1, rd2.width + 1)]
        big = np.zeros((ell * ell, ell * ell), dtype=complex)
        for k1, k2 in itertools.product(kraus1, kraus2):
            op = np.kron(k1, k2)
            big += op @ rho @ op.conj().T

        # partial trace over the second factor
        lhs = np.trace(big.reshape(ell, ell, ell, ell), axis1=1, axis2=3)
        rho1 = np.trace(rho.reshape(n1, n2, n1, n2), axis1=1, axis2=3)
        rhs = ts.normalized_expand(rd1, rho1)
        assert np.allclose(lhs, rhs, atol=1e-12)
