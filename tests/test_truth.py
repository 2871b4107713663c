"""Engine answers checked by the benchmark's ground truth, which never runs
the engine (bench/truth.py)."""
from fractions import Fraction as F

import numpy as np
import pytest

import tenscale as ts
import truth
import workloads


def test_zero_target_member_scales_with_a_true_witness():
    # the (1;3^5) latin member whose factor 1 targets (9/17, 8/17, 0): its
    # start norm is about 1e28 and the restricted group grows entries up to
    # about 30, which a pad sized without the group's norms did not absorb
    x, parts = workloads.latin_member(np.random.default_rng(100), 1, 3, 5,
                                      "zero")
    p = ts.TargetSpectrum(parts)
    assert p.has_zeros()
    rep = ts.run_scaling(x, p, ts.ScalingConfig(epsilon=1e-4, seed=0,
                                                max_iters=200))
    assert rep.verdict == ts.SCALED
    assert truth.witness_holds(x.data, rep.group, parts, 1e-4)


@pytest.mark.parametrize("seed", range(5))
def test_zero_set_member_is_in_from_a_randomized_start(seed):
    # the cross-oracle probe's triple, a member on the hyperdeterminant's
    # zero set: its own start stalls in floats, a random point of its orbit
    # scales in a few dozen steps
    x = ts.Tensor(np.array(workloads.CROSS_PROBE_TENSOR, dtype=complex))
    assert truth.hyperdeterminant(x.data) == 0
    parts = ((F(2, 3), F(1, 3)),) * 3
    verdict = ts.membership(x, ts.TargetSpectrum(parts), 0.05,
                            cfg=ts.ScalingConfig(epsilon=0.05, seed=seed))
    assert verdict.answer == ts.IN
    assert truth.witness_holds(x.data, verdict.witness, parts, 0.05)


# Probes the engine answers wrongly today, each built by name from the
# benchmark's probe lists and judged as the benchmark judges it, with the
# answer and reason it gives.  A fix that makes one pass turns its strict
# xfail into a failure: remove the entry then.  A miss for another reason
# fails outright.
KNOWN_MISSES = {
    "W->(2/3,1/3)^3 eps=1e-6 cap=500":
        "BUDGET_EXHAUSTED: negative on a member",
    "ill-conditioned (1;4,4,4) member eps=1e-3":
        "NOT_IN_POLYTOPE: negative on a member",
    "progress run (1;2,2,2) parabolic raw spec, rng 57":
        "FAIL: step did not fix its marginal",
    "reduction cross-oracle triple on the hyperdeterminant's zero set":
        "FAIL: direct and reduced runs disagree",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                               reason=reason))
    for name, reason in KNOWN_MISSES.items()])
def test_known_miss(name):
    probes = {q.name: q for q in workloads.far_probes(False)
              + workloads.certify_probes()}
    q = probes[name]
    judgement = q.judge(q.call(True))
    found = f"{judgement.answer}: {judgement.reason}"
    if not judgement.ok and not found.startswith(KNOWN_MISSES[name]):
        pytest.fail(f"missed for another reason: {found}")
    assert judgement.ok, found
