"""One rule for counts and partitions: every public entry that takes one
rejects bools, floats (even integral ones) and strings with a ValueError
naming the argument, and reads NumPy integers as Python ints."""
import dataclasses

import numpy as np
import pytest

import tenscale as ts
from tenscale import cli
from conftest import save_tensor

REJECTED = [2.7, 2.0, True, np.bool_(True), "2"]


def _group_bytes(group) -> tuple[bytes, ...]:
    return tuple(m.tobytes() for m in group)


def _kronecker(*args) -> tuple:
    return dataclasses.astuple(ts.KroneckerQuery(*args))


def _membership(repeats) -> str:
    # exactly uniform marginals: the first repetition answers IN
    x = ts.Tensor(np.eye(2).reshape(1, 2, 2))
    return ts.membership(x, ts.TargetSpectrum.uniform((2, 2)), 0.1,
                         repeats=repeats).answer


def _spec(max_degree):
    # (1;2,2) holds the 2x2 identity, whose degree-2 weight vector is nonzero
    x = ts.Tensor(np.eye(2).reshape(1, 2, 2))
    return ts.find_nonvanishing_spec(x, ts.TargetSpectrum.uniform((2, 2)),
                                     max_degree)


def _phi(**counts) -> ts.Parametrization:
    return ts.Parametrization(**{"param_dim": 2, "degree": 1, **counts},
                              evaluate=lambda z: ts.Tensor(np.reshape(z, (1, 2))))


# entry -> (argument its messages name, call putting a value where 2 is valid)
ENTRIES = {
    "random_group.dims": ("dims",
                          lambda v: _group_bytes(ts.random_group((v, 1), 4, 0))),
    "random_group.rand_range": ("rand_range",
                                lambda v: _group_bytes(ts.random_group((2,), v, 0))),
    "random_group.seed": ("seed", lambda v: _group_bytes(ts.random_group((2,), 4, v))),
    "HWVSpec.weight": ("weight", lambda v: ts.HWVSpec(((v,),), (0, 0), ((0, 1),))),
    "HWVSpec.index_seq": ("index_seq",
                          lambda v: ts.HWVSpec(((2,),), (v, 0), ((0, 1),))),
    "HWVSpec.perms": ("perms", lambda v: ts.HWVSpec(((3,),), (0, 0, 0), ((v, 0, 1),))),
    "ReductionData.lam": ("lam", lambda v: ts.ReductionData((v, 1)).lam),
    "KroneckerQuery.lam": ("lam", lambda v: _kronecker((v, 1), (2, 1), (3,))),
    "KroneckerQuery.mu": ("mu", lambda v: _kronecker((2, 1), (v, 1), (3,))),
    "KroneckerQuery.nu": ("nu", lambda v: _kronecker((2, 1), (3,), (v, 1))),
    "KroneckerQuery.n": ("n", lambda v: _kronecker((1,), (1,), (1,), v)),
    "partitions_of.k": ("k", lambda v: list(ts.partitions_of(v, 2))),
    "partitions_of.max_parts": ("max_parts", lambda v: list(ts.partitions_of(2, v))),
    "conjugate_partition": ("parts", lambda v: ts.conjugate_partition((v, 1))),
    "membership.repeats": ("repeats", _membership),
    "mps_parametrization.n": ("n", lambda v: ts.mps_parametrization(v, 2, 2).param_dim),
    "mps_parametrization.bond_dim": (
        "bond_dim", lambda v: ts.mps_parametrization(2, v, 2).param_dim),
    "mps_parametrization.d": ("d", lambda v: ts.mps_parametrization(2, 2, v).degree),
    "mps_tensor.d": ("d", lambda v: ts.mps_tensor([np.eye(2)], v).data.tobytes()),
    "identity_parametrization.dims": (
        "dims", lambda v: ts.identity_parametrization((v, 2)).param_dim),
    "identity_parametrization.n0": (
        "n0", lambda v: ts.identity_parametrization((2, 2), n0=v).param_dim),
    "find_nonvanishing_spec.max_degree": ("max_degree", _spec),
    "Parametrization.param_dim": (
        "param_dim", lambda v: _phi(param_dim=v).param_dim),
    "Parametrization.degree": ("degree", lambda v: _phi(degree=v).degree),
    "Parametrization.coeff_bits": (
        "coeff_bits", lambda v: _phi(coeff_bits=v).coeff_bits),
    "randomization_bounds.ell": ("ell", lambda v: ts.randomization_bounds(v, 1, (2,))),
    "randomization_bounds.d": ("d", lambda v: ts.randomization_bounds(1, v, (2,))),
    "randomization_bounds.dims": (
        "dims", lambda v: ts.randomization_bounds(1, 1, (v,))),
    # never within 1e-9 in two sweeps, so iterations reports max_iters back
    "sinkhorn.max_iters": ("max_iters", lambda v: ts.sinkhorn(
        np.array([[1.0, 1.0], [0.0, 1.0]]), [1, 1], [1, 1], 1e-9,
        max_iters=v).iterations),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_reads_counts_by_the_one_rule(entry):
    name, call = ENTRIES[entry]
    for value in REJECTED:
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            call(value)
    # repr tells a leftover NumPy integer, np.int64(2), from the int 2
    assert repr(call(np.int64(2))) == repr(call(2))


def test_is_partition_is_strict():
    assert ts.is_partition((2, 1, 0)) and ts.is_partition(np.array([2, 1]))
    assert ts.is_partition(())
    for parts in [(2.0, 1), (True, 1), (np.bool_(True),), ("2", "1"), "21",
                  (1, 2), (1, -1), 3]:
        assert not ts.is_partition(parts), parts


@pytest.mark.parametrize("lambdas", ["[[2.7,1],[2,1]]", "[[true,true],[1,1]]"])
def test_reduce_rejects_parts_that_are_not_integers(tmp_path, capsys, lambdas):
    # before the one rule these ran as (2, 1) and (1, 1) and exited 0
    path = tmp_path / "x.json"
    save_tensor(ts.Tensor(np.ones((1, 2, 2))), str(path))
    assert cli.main(["reduce", "--tensor", str(path), "--lambdas", lambdas]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: lam[0] ")
