"""Engine answers checked by the benchmark's ground truth, which never runs
the engine (bench/truth.py)."""
import numpy as np

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
