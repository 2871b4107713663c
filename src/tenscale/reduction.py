"""Reduction from nonuniform triangular scaling to uniform scaling.

For a partition lam of ell with exactly n nonzero parts, the expansion map
sends an n x n matrix to an ell x ell block-diagonal matrix: its Kraus
operators tau_j project to the last mu_j coordinates (mu the conjugate
partition), so block j is the trailing mu_j x mu_j corner of the input.
It is completely positive, injective, intertwines the triangular actions
through a group homomorphism, and the induced map on tensors turns the
nonuniform scaling problem into a uniform one on a larger format.  The
exact algebraic identities satisfied by these maps serve as an independent
test oracle for the scaling engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .partitions import as_partition, conjugate_partition
from .tensors import Tensor, contract

@dataclass(frozen=True)
class ReductionData:
    """Partition data for one factor of the reduction.

    ``lam`` must have exactly n nonzero parts, where n is the factor
    dimension; targets with zero entries must be restricted away first.
    """

    lam: tuple[int, ...]

    def __post_init__(self):
        lam = as_partition(self.lam, "lam")
        if not lam or lam[-1] == 0:
            raise ValueError(f"need a partition with all parts positive, got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def ell(self) -> int:
        return sum(self.lam)

    @property
    def mu(self) -> tuple[int, ...]:
        return conjugate_partition(self.lam)

    @property
    def width(self) -> int:
        return self.lam[0]

    def lam_ascending(self) -> np.ndarray:
        return np.array(self.lam[::-1], dtype=float)

    def _blocks(self) -> list[tuple[int, int]]:
        """(row offset, mu_j) of Kraus operator j's row block, j = 1..width."""
        offsets = np.cumsum((0,) + self.mu).tolist()
        return list(zip(offsets, self.mu))


def _square(m: np.ndarray, k: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (k, k):
        raise ValueError(f"expected a {k}x{k} matrix, got {m.shape}")
    return m


def kraus_operator(rd: ReductionData, j: int) -> np.ndarray:
    """The j-th Kraus operator (1-based) of the expansion: an ell x n matrix
    whose j-th row block is the projection to the last mu_j coordinates."""
    if not 1 <= j <= rd.width:
        raise ValueError(f"j must be in 1..{rd.width}, got {j}")
    off, mu = rd._blocks()[j - 1]
    out = np.zeros((rd.ell, rd.n), dtype=complex)
    out[off: off + mu, rd.n - mu:] = np.eye(mu)
    return out


def expand_matrix(rd: ReductionData, x: np.ndarray) -> np.ndarray:
    """Completely positive expansion, the Kraus sum over tau_j x tau_j^dagger:
    block j of the diagonal is x's trailing mu_j x mu_j corner.  Injective
    because the first block holds x whole."""
    x = _square(x, rd.n)
    out = np.zeros((rd.ell, rd.ell), dtype=complex)
    for off, mu in rd._blocks():
        out[off: off + mu, off: off + mu] = x[rd.n - mu:, rd.n - mu:]
    return out


def expand_adjoint(rd: ReductionData, y: np.ndarray) -> np.ndarray:
    """Adjoint of the expansion, the Kraus sum over tau_j^dagger y tau_j:
    diagonal block j of y is added into the trailing mu_j x mu_j corner."""
    y = _square(y, rd.ell)
    out = np.zeros((rd.n, rd.n), dtype=complex)
    for off, mu in rd._blocks():
        out[rd.n - mu:, rd.n - mu:] += y[off: off + mu, off: off + mu]
    return out


def normalized_expand(rd: ReductionData, x: np.ndarray) -> np.ndarray:
    """Expansion normalized so the ascending diagonal of ``lam`` maps to the
    identity and the adjoint is unital."""
    scale = 1.0 / np.sqrt(rd.lam_ascending())
    return expand_matrix(rd, (scale[:, None] * np.asarray(x)) * scale[None, :])


def normalized_expand_adjoint(rd: ReductionData, y: np.ndarray) -> np.ndarray:
    scale = 1.0 / np.sqrt(rd.lam_ascending())
    inner = expand_adjoint(rd, y)
    return (scale[:, None] * inner) * scale[None, :]


def borel_homomorphism(rd: ReductionData, b: np.ndarray) -> np.ndarray:
    """Group homomorphism from n x n upper-triangular matrices to ell x ell
    upper-triangular matrices compatible with the normalized expansion:
    it maps b to the expansion of Lambda^{-1/2} b Lambda^{1/2}."""
    b = _square(b, rd.n)
    scale = np.sqrt(rd.lam_ascending())
    return expand_matrix(rd, (b / scale[:, None]) * scale[None, :])


def reduction_matrix(rd: ReductionData) -> np.ndarray:
    """Matrix of the isometric-style embedding C^n -> C^width (x) C^ell that
    stacks e_j (x) tau_j v; reshaping its output to (width, ell) recovers
    the block picture."""
    blocks = [kraus_operator(rd, j) for j in range(1, rd.width + 1)]
    return np.concatenate(blocks, axis=0)


def reduce_tensor(y: Tensor, lams: Sequence[Sequence[int]]) -> Tensor:
    """Expanded tensor of format (n0 * width_1 * ... * width_d; ell, ..., ell).

    Applies the per-factor embedding on every scaled factor and regroups the
    width indices into factor 0 in row-major order (index0, a1, ..., ad).
    """
    try:
        rds = [ReductionData(lam) for lam in lams]
    except TypeError as exc:  # lams is not iterable
        raise ValueError(f"need a sequence of partitions, got {lams!r}") from exc
    if len(rds) != y.num_factors:
        raise ValueError(f"need one partition per factor, got {len(rds)}")
    ells = {rd.ell for rd in rds}
    if len(ells) != 1:
        raise ValueError("all partitions must have the same size")
    ell = ells.pop()
    for rd, n in zip(rds, y.dims):
        if rd.n != n:
            raise ValueError(
                f"partition {rd.lam} has {rd.n} parts, factor has dimension {n}")

    data = y.data
    for i, rd in enumerate(rds):
        mat = reduction_matrix(rd)  # (width * ell, n)
        data = contract(mat, data, i + 1)
    d = y.num_factors
    split = (y.n0,) + tuple(chain.from_iterable((rd.width, ell) for rd in rds))
    data = data.reshape(split)
    # bring all width axes forward: (n0, a1..ad, ell_1..ell_d)
    perm = [0] + [1 + 2 * i for i in range(d)] + [2 + 2 * i for i in range(d)]
    data = np.transpose(data, perm)
    front = y.n0 * int(np.prod([rd.width for rd in rds]))
    return Tensor(data.reshape((front,) + (ell,) * d))
