"""Weight-vector lab: determinant functionals, characters, divergences."""
import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
from tenscale import hwv
from conftest import (
    ghz_tensor,
    hwv_bruteforce,
    kl_divergence,
    pinsker_gap,
    random_integer_tensor,
    random_upper_triangular,
    ref_capacity,
    upper_cholesky,
    w_tensor,
)


def ref_canonical_slot_permutations(lam, k):
    """Reference: every ordered choice of blocks, deduplicated by the sorted
    (height, block) signature, the first of each signature kept."""
    heights = list(ts.conjugate_partition(tuple(v for v in lam if v > 0)))
    reps, seen = [], set()

    def rec(remaining, blocks):
        if len(blocks) == len(heights):
            signature = tuple(sorted(zip(heights, blocks)))
            if signature not in seen:
                seen.add(signature)
                reps.append(tuple(itertools.chain.from_iterable(blocks)))
            return
        for combo in itertools.combinations(sorted(remaining),
                                            heights[len(blocks)]):
            rec(remaining - set(combo), blocks + [combo])

    rec(frozenset(range(k)), [])
    return reps


def ref_enumerate_specs(dims, n0, k):
    """enumerate_specs as it was, every spec built through HWVSpec's checks."""
    for weight in itertools.product(*[ts.partitions_of(k, n) for n in dims]):
        perm_choices = [ts.canonical_slot_permutations(lam, k) for lam in weight]
        for index_seq in itertools.product(range(n0), repeat=k):
            for perms in itertools.product(*perm_choices):
                yield ts.HWVSpec(weight, index_seq, perms)


def det_spec_2x2(perm1=(0, 1), perm2=(0, 1)):
    """Degree-2 functional on (1; 2, 2) whose value is +/- 2 det."""
    return ts.HWVSpec(weight=((1, 1), (1, 1)), index_seq=(0, 0),
                      perms=(perm1, perm2))


class TestEvaluateHwv:
    def test_zero_tensor(self):
        x = ts.Tensor(np.zeros((1, 2, 2)))
        assert ts.evaluate_hwv(det_spec_2x2(), x) == 0

    def test_determinant_functional(self, rng):
        for _ in range(5):
            x = random_integer_tensor((1, 2, 2), rng)
            value = ts.evaluate_hwv(det_spec_2x2(), x)
            det = np.linalg.det(x.data[0])
            assert value == pytest.approx(2 * det)

    def test_identity_matrix_value_two(self):
        x = ts.Tensor(np.eye(2, dtype=complex).reshape(1, 2, 2))
        assert abs(ts.evaluate_hwv(det_spec_2x2(), x)) == pytest.approx(2)

    def test_matches_bruteforce_oracle(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        for perm1 in ((0, 1), (1, 0)):
            spec = det_spec_2x2(perm1=perm1)
            assert ts.evaluate_hwv(spec, x) \
                == pytest.approx(hwv_bruteforce(spec, x))
        y = random_integer_tensor((2, 2, 2), rng)
        spec = ts.HWVSpec(weight=((2, 1), (3,)), index_seq=(0, 1, 0),
                          perms=((2, 0, 1), (0, 1, 2)))
        assert ts.evaluate_hwv(spec, y) == pytest.approx(hwv_bruteforce(spec, y))

    def test_evaluation_bound(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        spec = det_spec_2x2()
        assert abs(ts.evaluate_hwv(spec, x)) <= ts.evaluation_bound(spec, x)

    def test_budget_refusal(self, rng):
        # the budget counts k times the plan's terms, not the dense
        # 5 * 64**5: the one-term (1;4,4,4) degree-5 description with weight
        # (5,)**3 evaluates, to that term x[0,3,3,3]**5
        spec = ts.HWVSpec(weight=((5,),) * 3, index_seq=(0,) * 5,
                          perms=(tuple(range(5)),) * 3)
        x = ts.Tensor(rng.integers(-3, 4, size=(1, 4, 4, 4))
                      + 1j * rng.integers(-3, 4, size=(1, 4, 4, 4)))
        assert hwv._plan_terms(spec.weight, x.dims) == 1
        for _ in range(2):
            assert ts.evaluate_hwv(spec, x) == complex(x.data[0, 3, 3, 3]) ** 5
        # (1;8,8) at degree 8 with weight (1**8)**2 has 40,320**2 terms: it
        # is refused on every call, before its 2.9 MB term tables are built
        big = ts.HWVSpec(weight=((1,) * 8,) * 2, index_seq=(0,) * 8,
                         perms=(tuple(range(8)),) * 2)
        y = ts.Tensor(np.eye(8).reshape(1, 8, 8))
        tracemalloc.start()
        try:
            for _ in range(2):
                with pytest.raises(ts.EvalBudgetError,
                                   match=f"^evaluation needs {8 * 40_320**2} terms, "
                                         f"budget is {ts.DEFAULT_EVAL_BUDGET}$"):
                    ts.evaluate_hwv(big, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_label_refusal_names_labels(self):
        # 27 factors of dimension 1, 54 slot indices in all, cost 2 terms;
        # each factor contributes the square of the one entry
        spec = ts.HWVSpec(weight=((2,),) * 27, index_seq=(0, 0),
                          perms=((0, 1),) * 27)
        x = ts.Tensor(np.ones((1,) * 28))
        assert ts.evaluate_hwv(spec, x) == 1

    def test_degree_eight_memory(self):
        # (1;8) at degree 8 is within the budget (8 * 8**8 terms) and has
        # 8! nonzero terms; an n**k table of them alone would take 128 MiB
        spec = ts.HWVSpec(weight=((1,) * 8,), index_seq=tuple(range(8)),
                          perms=(tuple(range(8)),))
        x = ts.Tensor(np.eye(8))
        hwv._det_terms.cache_clear()
        tracemalloc.start()
        try:
            value = ts.evaluate_hwv(spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value) == 1
        assert peak < 64 * 2**20

    def test_large_term_tables_are_not_memoized(self):
        # each (1;8), k = 8 description's terms take 2.9 MB: memoized, these
        # 20 would hold 58 MB after their evaluations return
        assert hwv._term_count((1,) * 8, 8) * 9 * 8 == 2_903_040
        x = ts.Tensor(np.eye(8))
        tracemalloc.start()
        try:
            for perm in itertools.islice(itertools.permutations(range(8)), 20):
                spec = ts.HWVSpec(weight=((1,) * 8,), index_seq=tuple(range(8)),
                                  perms=(perm,))
                assert abs(ts.evaluate_hwv(spec, x)) == 1
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 8 * 2**20
        # a full memo of pairs at the size bound holds at most 8 MiB
        assert hwv._det_terms.cache_info().maxsize * hwv._DET_TERMS_MEMO_BYTES \
            <= 8 * 2**20

    def test_large_plans_are_not_memoized(self, rng):
        # each factor's pair of a (1;4,4,4), k = 4 description with weight
        # (1,1,1,1)**3 is memoized (960 bytes), but its plan has 24**3 terms
        # and takes 69 kB: memoized, these 40 would hold 2.8 MB
        weight = ((1,) * 4,) * 3
        assert 24**3 * 5 * 8 > hwv._PLAN_MEMO_BYTES
        x = random_integer_tensor((1, 4, 4, 4), rng)
        pairs = itertools.product(itertools.permutations(range(4)), repeat=2)
        specs = [ts.HWVSpec(weight, (0,) * 4, (p, q, tuple(range(4))))
                 for p, q in itertools.islice(pairs, 40)]
        tracemalloc.start()
        try:
            values = [ts.evaluate_hwv(spec, x) for spec in specs]
            assert [ts.evaluate_hwv(spec, x) for spec in specs] == values
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 512 * 2**10
        # neither the memo nor the descriptions hold their plans
        assert all(hwv._memoized_plan(spec.weight, spec.perms, x.dims, 4) is None
                   and spec._plan is None for spec in specs)
        # a full memo of plans at the size bound holds at most 8 MiB
        assert hwv._memoized_plan.cache_info().maxsize * hwv._PLAN_MEMO_BYTES \
            <= 8 * 2**20

    def test_certify_sized_plans_are_memoized(self):
        # the largest degree-4 plan on (2,2,2) and a (2;2,2) plan: the same
        # pair comes back
        for weight, perms, dims in [
                (((2, 2),) * 3, ((0, 2, 1, 3),) * 3, (2, 2, 2)),
                (((2, 2), (3, 1)), ((0, 2, 1, 3), (3, 0, 1, 2)), (2, 2))]:
            first = hwv._memoized_plan(weight, perms, dims, 4)
            again = hwv._memoized_plan(weight, perms, dims, 4)
            assert first[0] is again[0] and first[1] is again[1]

    def test_certify_sized_term_tables_are_memoized(self):
        # the degree-3 (1;2,2) and degree-4 (1;2,2,2) descriptions certify
        # runs evaluate: building a plan memoizes the pair, and the same
        # pair comes back
        for lam, perm, n, k in [((2, 1), (1, 2, 0), 2, 3),
                                ((2, 2), (0, 2, 1, 3), 2, 4)]:
            hwv._det_terms.cache_clear()
            hwv._term_plan((lam,), (perm,), (n,), k)
            assert hwv._det_terms.cache_info().currsize == 1
            first = hwv._det_terms(lam, perm, n, k)
            again = hwv._det_terms(lam, perm, n, k)
            assert first[0] is again[0] and first[1] is again[1]
            assert hwv._det_terms.cache_info().misses == 1

    def test_antisymmetry_on_product_tensors(self, rng):
        # any column of height >= 2 contracts equal slot vectors on a
        # rank-one tensor, so the value vanishes
        u = rng.integers(1, 5, size=2).astype(complex)
        v = rng.integers(1, 5, size=2).astype(complex)
        x = ts.Tensor(np.einsum("i,j->ij", u, v).reshape(1, 2, 2))
        assert abs(ts.evaluate_hwv(det_spec_2x2(), x)) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ts.HWVSpec(weight=((1, 1), (2,)), index_seq=(0,), perms=((0,), (0,)))
        with pytest.raises(ValueError):
            ts.HWVSpec(weight=((1, 2),), index_seq=(0, 0), perms=((0, 1),))
        with pytest.raises(ValueError):
            ts.HWVSpec(weight=((2,),), index_seq=(0, 0), perms=((0, 0),))
        # entries must be integers, never truncated floats or bools
        for fields in [
            (((1.7, 1.2), (1, 1)), (0.9, 0), ((0, True), (1, 0))),
            (((1, 1), (1, 1)), (0.9, 0), ((0, 1), (1, 0))),
            (((1, 1), (1, 1)), (0, 0), ((0, True), (1, 0))),
            (((2.0,),), (0, 0), ((0, 1),)),
            (((1,),), (-0.5,), ((0,),)),
            (((1,),), (np.float64(0),), ((0,),)),
            (((1,),), (np.bool_(False),), ((0,),)),
            (((True,),), (0,), ((0,),)),
        ]:
            with pytest.raises(ValueError):
                ts.HWVSpec(*fields)

    def test_spec_accepts_numpy_integers(self):
        spec = ts.HWVSpec(weight=(np.array([2, 1]),), index_seq=np.arange(3),
                          perms=((np.int8(2), 0, 1),))
        assert spec == ts.HWVSpec(((2, 1),), (0, 1, 2), ((2, 0, 1),))
        assert all(type(v) is int for v in spec.index_seq + spec.perms[0])


class TestCharacter:
    def test_identity(self):
        assert ts.character(((2, 1),), (np.eye(2),)) == pytest.approx(1)

    def test_diagonal_example(self):
        assert ts.character(((2, 1),), (np.diag([2.0, 3.0]),)) \
            == pytest.approx(12)

    def test_multiplicative_on_triangular_pairs(self, rng):
        weight = ((3, 1, 0), (2, 2))
        for _ in range(20):
            r = tuple(random_upper_triangular(n, rng) for n in (3, 2))
            s = tuple(random_upper_triangular(n, rng) for n in (3, 2))
            lhs = ts.character(weight, tuple(a @ b for a, b in zip(r, s)))
            rhs = ts.character(weight, r) * ts.character(weight, s)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_block_determinants(self):
        # the target (1/2, 1/4, 1/4) ascends as (1/4, 1/4 | 1/2), a (2, 1)
        # block pattern; on a triangular step the leading block's
        # determinant 2*3 is its diagonal's product, so a step by r
        # multiplies the iterate's capacity by r's diagonal with the
        # ascending entries as exponents
        p = ts.TargetSpectrum(((F(1, 2), F(1, 4), F(1, 4)),))
        r = np.array([[2, 1, 3], [0, 3, 0.5], [0, 0, 4]], dtype=complex)
        it = ts.scaling._Iterate(ts.Tensor(np.eye(3, dtype=complex)), p, 3.0)
        it.step(0, r)
        expected = 3.0 * 6.0 ** -0.25 * 4.0 ** -0.5
        assert it.capacity == pytest.approx(expected, rel=1e-12)


class TestTransformationLaw:
    def test_identity_group(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        assert ts.check_hwv_transformation(det_spec_2x2(), x,
                                           ts.identity_group((2, 2)))

    def test_diagonal_matches_det_scaling(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        g = (np.diag([2.0, 3.0]).astype(complex),
             np.diag([1.0, 4.0]).astype(complex))
        assert ts.check_hwv_transformation(det_spec_2x2(), x, g)
        # cross-check the multiplier against plain determinant homogeneity
        y = ts.apply_group(g, x)
        assert np.linalg.det(y.data[0]) == pytest.approx(
            np.linalg.det(x.data[0]) * 2 * 3 * 1 * 4)

    def test_random_triangular(self, rng):
        x = random_integer_tensor((1, 2, 2), rng)
        for _ in range(25):
            g = tuple(random_upper_triangular(2, rng, unit_scale=True)
                      for _ in range(2))
            assert ts.check_hwv_transformation(det_spec_2x2(), x, g)


def capacity_value(x, p, group):
    """Capacity objective norm(R . x) * |chi(R)| at a triangular tuple R."""
    return ref_capacity(group, p, ts.apply_group(group, x).norm())


class TestCapacityValue:
    def test_identity_unit_tensor(self):
        # the iterate starts at the start's norm, the objective at the
        # identity: 1 on a unit tensor
        x = ts.Tensor(ghz_tensor().data / np.sqrt(2))
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        it = ts.scaling._Iterate(x, p, x.norm())
        assert it.capacity == x.norm() == pytest.approx(1.0)
        assert capacity_value(x, p, ts.identity_group((2, 2, 2))) \
            == pytest.approx(1.0)

    def test_scale_invariance_per_factor(self, rng):
        # p sums to 1 per factor, so rescaling one factor cancels exactly in
        # the objective
        x = random_integer_tensor((1, 2, 2), rng)
        p = ts.TargetSpectrum(((F(2, 3), F(1, 3)), (F(1, 2), F(1, 2))))
        g = tuple(random_upper_triangular(2, rng) for _ in range(2))
        base = capacity_value(x, p, g)
        for t in (0.5, 2.0, 7.5):
            scaled = (t * g[0], g[1])
            assert capacity_value(x, p, scaled) == pytest.approx(base)


class TestCapacityLogging:
    def test_trace_capacity_matches_standalone_value(self, rng):
        # rebuild the accumulated triangular tuple from the reported group
        # and recompute the objective independently
        x = random_integer_tensor((1, 2, 2, 2), rng, low=1, high=5)
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-2, seed=3,
                                                    rand_range=64))
        assert rep.verdict == ts.SCALED and rep.trace
        g0 = ts.random_group(x.dims, 64, 3)
        post = ts.compose_group(rep.group,
                                tuple(np.linalg.inv(m) for m in g0))
        x0 = ts.apply_group(g0, x)
        value = capacity_value(x0, p, post)
        assert value == pytest.approx(rep.trace[-1].capacity, rel=1e-6)


class TestDivergences:
    def test_kl_zero_on_equal(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0

    def test_kl_point_mass(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_kl_subnormalized(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.25]) == pytest.approx(0.5)

    def test_kl_support_violation(self):
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_pinsker_tight_at_diagonal(self):
        p = [0.25, 0.75]
        r = np.diag(np.sqrt(p)).astype(complex)
        lhs, rhs = pinsker_gap(p, r)
        assert lhs == pytest.approx(0, abs=1e-12)
        assert rhs == pytest.approx(0, abs=1e-12)

    def test_pinsker_worked_example(self):
        rho = np.array([[2.0, 1], [1, 1]]) / 3
        r = upper_cholesky(rho)
        lhs, rhs = pinsker_gap([0.5, 0.5], r)
        assert lhs >= rhs > 0


class TestProgress:
    def test_trivial_at_zero_distance(self):
        x = ts.Tensor(ghz_tensor().data / np.sqrt(2))
        spec = ts.find_nonvanishing_spec(
            x, ts.TargetSpectrum.uniform((2, 2, 2)), max_degree=4)
        assert spec is not None
        assert ts.verify_progress(spec, x, x, eps_i=0.0)


class TestSpecSearch:
    def test_canonical_matches_exhaustive_reference(self):
        for k in range(1, 8):
            for lam in ts.partitions_of(k, k):
                assert ts.canonical_slot_permutations(lam, k) \
                    == ref_canonical_slot_permutations(lam, k), lam

    def test_one_row_has_one_representative(self):
        # the exhaustive walk took seconds from k = 9 on
        assert ts.canonical_slot_permutations((10,), 10) == [tuple(range(10))]

    def test_one_row_walk_is_linear(self, monkeypatch):
        # every block of the last run of equal heights starts at the
        # smallest free slot, so a one-row partition never backtracks; the
        # walk without that rule made about 2**k combinations calls
        calls = []
        combinations = itertools.combinations

        def counting(*args):
            calls.append(args)
            assert len(calls) <= 1000, "the walk backtracks"
            return combinations(*args)

        monkeypatch.setattr(itertools, "combinations", counting)
        for k in (10, 20):
            calls.clear()
            assert ts.canonical_slot_permutations((k,), k) == [tuple(range(k))]
            assert len(calls) == k

    @pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 2), (1, 3, 2),
                                       (1, 2, 2, 2)])
    def test_enumerated_specs_equal_checked_ones(self, shape):
        # the enumeration skips HWVSpec's checks on parts that are valid by
        # construction; rebuilding each spec through them changes nothing
        n0, dims = shape[0], shape[1:]
        for k in range(1, 5):
            specs = list(ts.enumerate_specs(dims, n0, k))
            checked = list(ref_enumerate_specs(dims, n0, k))
            assert specs == checked and len(specs) == len(set(specs)) > 0
            assert [hash(s) for s in specs] == [hash(s) for s in checked]
            assert all(type(v) is int for s in specs for part in
                       (s.index_seq, *s.weight, *s.perms) for v in part)

    def test_enumeration_still_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="degree"):
            next(ts.enumerate_specs((2, 2), 1, 0))

    def test_canonical_representative_counts(self):
        assert len(ts.canonical_slot_permutations((1, 1), 2)) == 1
        assert len(ts.canonical_slot_permutations((2, 2), 4)) == 3
        assert len(ts.canonical_slot_permutations((2, 1, 1), 4)) == 4
        assert len(ts.canonical_slot_permutations((4,), 4)) == 1

    def test_ghz_needs_degree_four(self):
        ghz = ghz_tensor()
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        spec = ts.find_nonvanishing_spec(ghz, p, max_degree=4)
        assert spec is not None and spec.degree == 4
        assert abs(ts.evaluate_hwv(spec, ghz)) >= 1 - 1e-9

    def test_null_cone_member_has_no_spec(self):
        # the three-term one-excitation tensor admits no nonvanishing
        # uniform-weight functional up to degree 4
        p = ts.TargetSpectrum.uniform((2, 2, 2))
        assert ts.find_nonvanishing_spec(w_tensor(), p, max_degree=4) is None
