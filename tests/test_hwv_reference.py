"""Weight-vector evaluation against the evaluation it replaced.

The reference below is the earlier evaluator: it builds every determinant
table with the loop over all n**k slot assignments and contracts the tables
with the entries by ``np.einsum(..., optimize=True)``.  The engine generates
the tables' nonzero terms directly and sums them, never calling einsum.  On
integer tensors every partial result of both is an exact integer, so those
values must match bit for bit; on other tensors the summation orders differ,
so values must agree within 1e-12 of the largest value of their format and
degree.
"""
import functools
import importlib
import itertools
import operator
import pkgutil
import string
import tracemalloc

import numpy as np
import pytest

import tenscale as ts
from tenscale import hwv
from tenscale.partitions import conjugate_partition, partitions_of
from conftest import random_upper_triangular

FORMATS = ((1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 2, 2))


def ref_perm_sign(positions):
    sign = 1
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                sign = -sign
    return sign


# the reference tests read 2,184 tables of at most 4**5 floats (8 KiB) each
@functools.lru_cache(maxsize=4096)
def ref_det_block_array(lam, perm, n, k):
    """Dense n**k table of the determinant functional, read-only since the
    memo shares it."""
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
    arr.flags.writeable = False
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


def close_to(got, want, scale):
    return abs(got - want) <= 1e-12 * scale


def scalar_products_value(spec, x):
    """The description's value with each term's product taken slot by slot in
    Python scalars, then the one signed sum of the evaluator."""
    _, positions, signs = hwv._resolve_plan(spec, x.shape)
    entries = x.data.ravel().tolist()
    products = [functools.reduce(operator.mul, (entries[p] for p in term))
                for term in positions.tolist()]
    return complex(np.array(products) @ signs)


@pytest.mark.parametrize("shape", FORMATS)
def test_evaluation_matches_reference_bitwise(shape, rng):
    # every certify description, enumerated afresh for each tensor, so that
    # each kind of tensor meets both a first evaluation and a repeat; the
    # non-integer values are also pinned, bit for bit, to products taken
    # slot by slot in Python scalars
    gaussian, complex_ = sample_tensors(shape, rng)
    real = ts.Tensor(rng.standard_normal(shape))
    tensors = (gaussian, real_integer_tensor(shape, rng), complex_, real)
    count = 0
    for k in (1, 2, 3, 4):
        want = [[ref_evaluate(spec, x) for spec in
                 ts.enumerate_specs(shape[1:], shape[0], k)] for x in tensors]
        for x, x_want in zip(tensors, want):
            specs = list(ts.enumerate_specs(shape[1:], shape[0], k))
            scale = max(map(abs, x_want))
            for _ in range(2):
                for spec, spec_want in zip(specs, x_want):
                    got = ts.evaluate_hwv(spec, x)
                    if x is complex_ or x is real:
                        assert close_to(got, spec_want, scale), (k, got, spec_want)
                        assert bits(got) == bits(scalar_products_value(spec, x))
                    else:
                        assert bits(got) == bits(spec_want), (spec, x.shape)
            count += len(specs)
    assert count > 0


def test_plans_past_the_memo_bound_match_scalar_products(rng):
    # (1;4,4,4) degree-4 descriptions of 576 and 13,824 terms: 23 KiB and
    # 553 KiB plans, resolved on every call and never held
    shape = (1, 4, 4, 4)
    tensors = (*sample_tensors(shape, rng), real_integer_tensor(shape, rng),
               ts.Tensor(rng.standard_normal(shape)))
    antisym, sym = (1, 1, 1, 1), (4,)
    specs = [ts.HWVSpec((antisym, antisym, sym), (0,) * 4,
                        ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 2, 3))),
             ts.HWVSpec((antisym,) * 3, (0,) * 4, ((3, 1, 0, 2),) * 3)]
    assert [hwv._plan_terms(s.weight, shape[1:]) for s in specs] == [576, 13_824]
    for spec in specs:
        assert hwv._plan_terms(spec.weight, shape[1:]) * 5 * 8 > hwv._PLAN_MEMO_BYTES
        for x in tensors:
            assert bits(ts.evaluate_hwv(spec, x)) == bits(scalar_products_value(spec, x))
            assert spec._plan is None
        assert bits(ts.evaluate_hwv(spec, tensors[2])) \
            == bits(ref_evaluate(spec, tensors[2]))


def test_det_tables_match_reference():
    count = 0
    for n in range(1, 5):
        for k in range(1, 6):
            for lam in partitions_of(k, n):
                for perm in itertools.permutations(range(k)):
                    slots, signs = hwv._det_terms(lam, perm, n, k)
                    table = ref_det_block_array(lam, perm, n, k)
                    want_slots = np.argwhere(table)
                    assert slots.shape == want_slots.shape, (lam, perm, n, k)
                    assert slots.tobytes() == want_slots.tobytes(), (lam, perm, n, k)
                    assert signs.tobytes() == table[table != 0].tobytes(), \
                        (lam, perm, n, k)
                    count += 1
    assert count == 2184


class TestMemos:
    def test_det_table_is_read_only(self):
        slots, signs = hwv._det_terms((2, 1), (0, 1, 2), 2, 3)
        with pytest.raises(ValueError):
            slots[0, 0] = 5
        with pytest.raises(ValueError):
            signs[0] = 5.0
        assert hwv._det_terms((2, 1), (0, 1, 2), 2, 3)[0] is slots

    def test_memos_are_bounded(self):
        # every memo a tenscale module holds, found by its cache_info
        memos = {}
        for info in pkgutil.iter_modules(ts.__path__, "tenscale."):
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if hasattr(value, "cache_info") \
                        and getattr(value, "__module__", None) == info.name:
                    memos[f"{info.name}.{name}"] = value.cache_info().maxsize
        assert "tenscale.hwv._memoized_plan" in memos
        for name, maxsize in memos.items():
            assert maxsize is not None and 0 < maxsize < 10_000, name

    def test_index_sequences_share_one_plan(self, rng):
        # the 16 degree-4 index sequences of one (2;2,2) weight and
        # permutation pair resolve from one memoized plan
        x = real_integer_tensor((2, 2, 2), rng)
        weight, perms = ((2, 2), (3, 1)), ((0, 2, 1, 3), (3, 0, 1, 2))
        hwv._memoized_plan.cache_clear()
        for index_seq in itertools.product(range(2), repeat=4):
            spec = ts.HWVSpec(weight, index_seq, perms)
            assert bits(ts.evaluate_hwv(spec, x)) == bits(ref_evaluate(spec, x))
        info = hwv._memoized_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 15, 1)

    def test_plan_is_read_only(self):
        key = (((2, 1), (2, 1)), ((0, 1, 2), (1, 2, 0)), (2, 2), 3)
        positions, signs = hwv._memoized_plan(*key)
        with pytest.raises(ValueError):
            positions[0, 0] = 5
        with pytest.raises(ValueError):
            signs[0] = 5
        assert hwv._memoized_plan(*key)[0] is positions
        # the plan a description holds shares the memo's signs
        spec = ts.HWVSpec(key[0], (0, 1, 1), key[1])
        x = sample_tensors((2, 2, 2), np.random.default_rng(0))[0]
        ts.evaluate_hwv(spec, x)
        shape, held, held_signs = spec._plan
        assert shape == x.shape and held_signs is signs
        with pytest.raises(ValueError):
            held[0, 0] = 5
        with pytest.raises(ValueError):
            held_signs[0] = 5

    def test_reference_tables_are_read_only(self):
        table = ref_det_block_array((2, 1), (0, 1, 2), 2, 3)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 5.0
        assert ref_det_block_array((2, 1), (0, 1, 2), 2, 3) is table

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
        hwv._det_terms.cache_clear()
        hwv._memoized_plan.cache_clear()
        assert bits(ts.evaluate_hwv(spec, x)) == first
        # an equal description holds no plan, so it resolves one afresh
        fresh = ts.HWVSpec(spec.weight, spec.index_seq, spec.perms)
        assert fresh == spec and fresh._plan is None
        assert bits(ts.evaluate_hwv(fresh, x)) == first
        assert first == bits(ref_evaluate(spec, x))
        want = ref_evaluate(spec, y)
        assert close_to(ts.evaluate_hwv(spec, y), want, abs(want))


    def test_alternating_formats(self, rng):
        # the held plan follows the shape: each format gets its own value,
        # and an index sequence past factor 0 is refused on every call
        # while the other format's plan stays held
        x, y = (real_integer_tensor(shape, rng) for shape in ((2, 2, 2), (1, 2, 2)))
        fields = ((2, 1), (2, 1)), ((0, 1, 2), (1, 2, 0))
        inside = ts.HWVSpec(fields[0], (0, 0, 0), fields[1])
        leaves = ts.HWVSpec(fields[0], (0, 1, 1), fields[1])
        for _ in range(3):
            for z in (x, y):
                assert bits(ts.evaluate_hwv(inside, z)) == bits(ref_evaluate(inside, z))
                assert inside._plan[0] == z.shape
            assert bits(ts.evaluate_hwv(leaves, x)) == bits(ref_evaluate(leaves, x))
            with pytest.raises(ValueError, match="^index sequence leaves factor 0"):
                ts.evaluate_hwv(leaves, y)
            assert leaves._plan[0] == x.shape

    def test_repeat_is_one_take(self, rng):
        # a repeat reads the held plan: one take from the tensor's entries,
        # no gather of factor 0's rows and no memo lookup
        calls = []

        class Counting(np.ndarray):
            def take(self, *args, **kwargs):
                calls.append(("take", args[1:], kwargs))
                return np.asarray(self).take(*args, **kwargs)

            def __getitem__(self, key):
                calls.append(("getitem", key))
                return np.asarray(self)[key]

        x = real_integer_tensor((2, 2, 2), rng)
        spec = ts.HWVSpec(((2, 2), (3, 1)), (1, 0, 1, 1),
                          ((0, 2, 1, 3), (3, 0, 1, 2)))
        want = bits(ref_evaluate(spec, x))
        object.__setattr__(x, "data", x.data.view(Counting))
        assert bits(ts.evaluate_hwv(spec, x)) == want
        assert calls == [("take", (), {})]
        calls.clear()
        memo = hwv._memoized_plan.cache_info()
        assert bits(ts.evaluate_hwv(spec, x)) == want
        assert calls == [("take", (), {})]
        assert hwv._memoized_plan.cache_info() == memo

    def test_held_plans_memory(self, rng):
        # the memos and the plans held by the 3,105 certify descriptions,
        # each evaluated once: about 2.1 MiB, of which the held plans take
        # 1.2 MiB
        cases = [(real_integer_tensor(shape, rng),
                  list(ts.enumerate_specs(shape[1:], shape[0], k)))
                 for shape in FORMATS for k in (1, 2, 3, 4)]
        assert sum(len(specs) for _, specs in cases) == 3105
        for memo in (hwv._det_terms, hwv._memoized_plan):
            memo.cache_clear()
        tracemalloc.start()
        try:
            for x, specs in cases:
                for spec in specs:
                    ts.evaluate_hwv(spec, x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(spec._plan is not None for _, specs in cases for spec in specs)
        assert held <= 2.5 * 2**20


class TestExactDispatch:
    """Every input takes the one evaluator, which never calls einsum: each
    input is checked for zero einsum calls and agreement with the reference,
    bit for bit on in-range Gaussian integers, within 1e-12 of the largest
    value otherwise."""

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

    def check(self, x, einsum_calls, exact):
        for spec in self.SPECS:
            want = ref_evaluate(spec, x)
            einsum_calls.clear()
            got = ts.evaluate_hwv(spec, x)
            assert not einsum_calls, spec
            if exact:
                assert bits(got) == bits(want), spec
            else:
                assert close_to(got, want, abs(want)), (spec, got, want)

    def test_in_range_gaussian_integers_skip_einsum(self, einsum_calls, rng):
        x = ts.Tensor(rng.integers(-9, 10, size=(2, 2, 2))
                      + 1j * rng.integers(-9, 10, size=(2, 2, 2)))
        self.check(x, einsum_calls, exact=True)
        # entries given in another memory order: the Tensor stores them
        # row-major, so the evaluator reads the same layout
        y = ts.Tensor(np.asfortranarray(x.data))
        assert y.data.flags.c_contiguous and np.array_equal(y.data, x.data)
        self.check(y, einsum_calls, exact=True)

    def test_non_integer_tensor_skips_einsum(self, einsum_calls, rng):
        x = ts.Tensor(rng.integers(-9, 10, size=(2, 2, 2)) + 0.5)
        self.check(x, einsum_calls, exact=False)

    def test_integers_past_the_bound_skip_einsum(self, einsum_calls):
        # at degree 2, (sqrt(2) * 2**40 * 4)**2 = 2**85 is past 2**53
        x = ts.Tensor(np.full((2, 2, 2), 2.0**40))
        self.check(x, einsum_calls, exact=False)
        einsum_calls.clear()
        # degree 1 stays in range: sqrt(2) * 2**40 * 4 < 2**53
        assert ts.evaluate_hwv(ts.HWVSpec(((1,), (1,)), (0,), ((0,), (0,))),
                               x) == 2.0**40
        assert not einsum_calls


# the weight vectors whose transformation law the certify workload checks
TRANSFORM_SPECS = (
    ((1, 2, 2), (((1,), (1,)), (0,), ((0,), (0,)))),
    ((1, 2, 2), (((1, 1), (1, 1)), (0, 0), ((0, 1), (0, 1)))),
    ((2, 2, 2), (((2, 1), (3,)), (0, 1, 0), ((1, 2, 0), (0, 1, 2)))),
    ((1, 2, 2, 2), (((1, 1), (1, 1), (2,)), (0, 0), ((0, 1), (1, 0), (0, 1)))),
    ((1, 3, 2), (((2, 1, 1), (2, 2)), (0,) * 4, ((0, 1, 2, 3), (2, 3, 0, 1)))),
)


class TestChecksOverTheReference:
    """check_hwv_transformation and verify_progress give the answers they
    give when every evaluation is the reference's."""

    @staticmethod
    def answers(monkeypatch, check):
        got = check()
        with monkeypatch.context() as m:
            m.setattr(hwv, "evaluate_hwv", ref_evaluate)
            want = check()
        return got, want

    @pytest.mark.parametrize("shape, fields", TRANSFORM_SPECS)
    def test_transformation_law(self, monkeypatch, rng, shape, fields):
        spec = ts.HWVSpec(*fields)
        for _ in range(3):
            x = ts.Tensor(rng.integers(-3, 4, size=shape).astype(float))
            group = tuple(random_upper_triangular(n, rng, unit_scale=True)
                          for n in shape[1:])
            got, want = self.answers(
                monkeypatch,
                lambda: ts.check_hwv_transformation(spec, x, group, rtol=1e-8))
            assert got is want is True
            assert bits(ts.evaluate_hwv(spec, x)) == bits(ref_evaluate(spec, x))

    @pytest.mark.parametrize("mode", [ts.BOREL, ts.PARABOLIC])
    def test_progress_of_scaling_steps(self, monkeypatch, rng, mode):
        x = ts.Tensor(rng.integers(1, 4, size=(1, 2, 2, 2)).astype(float))
        target = ts.TargetSpectrum.uniform(x.dims)
        x0 = ts.apply_group(ts.random_group(x.dims, 16, 7), x)
        g = (np.eye(2) / x0.norm(), np.eye(2), np.eye(2))
        spec = ts.find_nonvanishing_spec(ts.apply_group(g, x0), target,
                                         max_degree=4)
        assert spec is not None
        checked = 0
        for _ in range(10):
            y = ts.apply_group(g, x0)
            g_next, i, dists = ts.scaling_step(g, x0, target, mode=mode)
            if max(dists) <= 1e-2:
                break
            y_next = ts.apply_group(g_next, x0)
            got, want = self.answers(
                monkeypatch,
                lambda: ts.verify_progress(spec, y, y_next, eps_i=dists[i - 1]))
            assert got is want is True
            want = ref_evaluate(spec, y_next)
            assert close_to(ts.evaluate_hwv(spec, y_next), want, abs(want))
            checked += 1
            g = (g_next[0] / y_next.norm(),) + tuple(g_next[1:])
        assert checked > 0
