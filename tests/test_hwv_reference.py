"""Memoized weight-vector evaluation against the per-call evaluation it
replaced.

The reference below is the earlier evaluator: it rebuilds every determinant
table with the loop over all n**k slot assignments and lets
``np.einsum(..., optimize=True)`` search the greedy contraction order on
each call.  The engine memoizes both per format; the order depends only on
the subscripts and shapes, so every value must match bit for bit.
Gaussian-integer tensors within the 2**53 bound skip einsum and sum the
tables' nonzero terms; every partial result there is an exact integer, so
those values must match bit for bit too.
"""
import itertools
import string

import numpy as np
import pytest

import tenscale as ts
from tenscale import hwv
from tenscale.partitions import conjugate_partition, partitions_of

FORMATS = ((1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 2, 2))


def ref_perm_sign(positions):
    sign = 1
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                sign = -sign
    return sign


def ref_det_block_array(lam, perm, n, k):
    heights = conjugate_partition(tuple(v for v in lam if v > 0))
    offsets = np.concatenate(([0], np.cumsum(heights))).astype(int)
    arr = np.zeros((n,) * k)
    for assign in itertools.product(range(n), repeat=k):
        total = 1
        for c, h in enumerate(heights):
            cols = [n - 1 - assign[perm[offsets[c] + a]] for a in range(h)]
            if sorted(cols) != list(range(h)):
                total = 0
                break
            total *= ref_perm_sign(cols)
        if total:
            arr[assign] = total
    return arr


def ref_evaluate(spec, x):
    k, d = spec.degree, x.num_factors
    labels = [[string.ascii_letters[a * d + i] for i in range(d)]
              for a in range(k)]
    operands, subscripts = [], []
    for a in range(k):
        operands.append(np.asarray(x.data[spec.index_seq[a]]))
        subscripts.append("".join(labels[a]))
    for i in range(d):
        operands.append(ref_det_block_array(spec.weight[i], spec.perms[i],
                                            x.dims[i], k))
        subscripts.append("".join(labels[a][i] for a in range(k)))
    return complex(np.einsum(",".join(subscripts) + "->", *operands,
                             optimize=True))


def bits(value):
    return np.asarray(value, dtype=complex).tobytes()


def sample_tensors(shape, rng):
    gaussian = rng.integers(-4, 5, size=shape) + 1j * rng.integers(-4, 5, size=shape)
    complex_ = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ts.Tensor(gaussian.astype(complex)), ts.Tensor(complex_)


def real_integer_tensor(shape, rng):
    return ts.Tensor(rng.integers(-4, 5, size=shape).astype(complex))


@pytest.mark.parametrize("shape", FORMATS)
def test_evaluation_matches_reference_bitwise(shape, rng):
    tensors = sample_tensors(shape, rng) + (real_integer_tensor(shape, rng),)
    count = 0
    for k in (1, 2, 3, 4):
        for spec in ts.enumerate_specs(shape[1:], shape[0], k):
            for x in tensors:
                assert bits(ts.evaluate_hwv(spec, x)) == bits(ref_evaluate(spec, x)), \
                    (spec, x.shape)
            count += 1
    assert count > 0


def test_det_tables_match_reference():
    count = 0
    for n in range(1, 5):
        for k in range(1, 6):
            for lam in partitions_of(k, n):
                for perm in itertools.permutations(range(k)):
                    got = hwv._det_block_array(lam, perm, n, k)
                    want = ref_det_block_array(lam, perm, n, k)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (lam, perm, n, k)
                    count += 1
    assert count == 2184


class TestMemos:
    def test_det_table_is_read_only(self):
        table = hwv._det_block_array((2, 1), (0, 1, 2), 2, 3)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 5.0
        assert hwv._det_block_array((2, 1), (0, 1, 2), 2, 3) is table

    def test_memos_are_bounded(self):
        for memo in (hwv._det_block_array, hwv._det_terms, hwv._contraction):
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize < 10_000

    def test_repeat_after_other_formats(self, rng):
        x, y = sample_tensors((2, 2, 2), rng)
        spec = ts.HWVSpec(weight=((2, 1), (2, 1)), index_seq=(0, 1, 1),
                          perms=((0, 1, 2), (1, 2, 0)))
        first = bits(ts.evaluate_hwv(spec, x))
        for shape in FORMATS:
            for z in sample_tensors(shape, rng):
                for k in (1, 2, 3):
                    for other in ts.enumerate_specs(shape[1:], shape[0], k):
                        ts.evaluate_hwv(other, z)
        assert bits(ts.evaluate_hwv(spec, x)) == first
        hwv._det_block_array.cache_clear()
        hwv._contraction.cache_clear()
        assert bits(ts.evaluate_hwv(spec, x)) == first
        assert first == bits(ref_evaluate(spec, x))
        assert bits(ts.evaluate_hwv(spec, y)) == bits(ref_evaluate(spec, y))


class TestExactDispatch:
    """Gaussian-integer tensors within the 2**53 bound sum the tables'
    nonzero terms and never reach einsum; every other input still does."""

    @pytest.fixture
    def einsum_calls(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        return calls

    SPECS = (
        ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                   perms=((0, 1), (1, 0))),
        ts.HWVSpec(weight=((2, 1), (2, 1)), index_seq=(0, 1, 1),
                   perms=((0, 1, 2), (1, 2, 0))),
        ts.HWVSpec(weight=((2, 2), (3, 1)), index_seq=(1, 0, 1, 1),
                   perms=((0, 2, 1, 3), (3, 0, 1, 2))),
    )

    def check(self, x, einsum_calls, expect_einsum):
        for spec in self.SPECS:
            want = bits(ref_evaluate(spec, x))
            einsum_calls.clear()
            assert bits(ts.evaluate_hwv(spec, x)) == want, spec
            assert bool(einsum_calls) == expect_einsum, spec

    def test_in_range_gaussian_integers_skip_einsum(self, einsum_calls, rng):
        x = ts.Tensor(rng.integers(-9, 10, size=(2, 2, 2))
                      + 1j * rng.integers(-9, 10, size=(2, 2, 2)))
        self.check(x, einsum_calls, expect_einsum=False)
        # entries laid out in another memory order, as apply_group leaves them
        y = ts.Tensor(np.asfortranarray(x.data))
        assert not y.data.flags.c_contiguous
        self.check(y, einsum_calls, expect_einsum=False)

    def test_non_integer_tensor_uses_einsum(self, einsum_calls, rng):
        x = ts.Tensor(rng.integers(-9, 10, size=(2, 2, 2)) + 0.5)
        self.check(x, einsum_calls, expect_einsum=True)

    def test_integers_past_the_bound_use_einsum(self, einsum_calls):
        # at degree 2, (sqrt(2) * 2**40 * 4)**2 = 2**85 is past 2**53
        x = ts.Tensor(np.full((2, 2, 2), 2.0**40))
        self.check(x, einsum_calls, expect_einsum=True)
        einsum_calls.clear()
        # degree 1 stays in range: sqrt(2) * 2**40 * 4 < 2**53
        assert ts.evaluate_hwv(ts.HWVSpec(((1,), (1,)), (0,), ((0,), (0,))),
                               x) == 2.0**40
        assert not einsum_calls
