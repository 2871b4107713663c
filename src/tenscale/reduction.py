"""Reduction from nonuniform triangular scaling to uniform scaling.

For a partition lam of ell with exactly n nonzero parts, the expansion map
sends an n x n matrix to an ell x ell matrix as a sum of Kraus terms built
from projections to the last coordinates.  It is completely positive,
injective, intertwines the triangular actions through a group homomorphism,
and the induced map on tensors turns the nonuniform scaling problem into a
uniform one on a larger format.  The exact algebraic identities satisfied by
these maps serve as an independent test oracle for the scaling engine.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .partitions import as_partition, conjugate_partition
from .tensors import Tensor, contract

__all__ = [
    "ReductionData",
    "conjugate_partition",
    "kraus_operator",
    "expand_matrix",
    "expand_adjoint",
    "normalized_expand",
    "normalized_expand_adjoint",
    "borel_homomorphism",
    "reduction_matrix",
    "reduce_tensor",
]


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


def _last_coords_projection(n: int, j: int) -> np.ndarray:
    """j x n projection to the last j coordinates."""
    out = np.zeros((j, n))
    out[:, n - j:] = np.eye(j)
    return out


def kraus_operator(rd: ReductionData, j: int) -> np.ndarray:
    """The j-th Kraus operator (1-based) of the expansion: an ell x n matrix
    whose j-th row block is the projection to the last mu_j coordinates."""
    if not 1 <= j <= rd.width:
        raise ValueError(f"j must be in 1..{rd.width}, got {j}")
    mu = rd.mu
    offsets = np.concatenate(([0], np.cumsum(mu))).astype(int)
    out = np.zeros((rd.ell, rd.n), dtype=complex)
    out[offsets[j - 1]: offsets[j], :] = _last_coords_projection(rd.n, mu[j - 1])
    return out


def expand_matrix(rd: ReductionData, x: np.ndarray) -> np.ndarray:
    """Completely positive expansion: the Kraus sum over tau_j x tau_j^dagger.
    Injective because the first Kraus operator embeds x whole."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (rd.n, rd.n):
        raise ValueError(f"expected a {rd.n}x{rd.n} matrix, got {x.shape}")
    out = np.zeros((rd.ell, rd.ell), dtype=complex)
    for j in range(1, rd.width + 1):
        tau = kraus_operator(rd, j)
        out += tau @ x @ tau.conj().T
    return out


def expand_adjoint(rd: ReductionData, y: np.ndarray) -> np.ndarray:
    """Adjoint of the expansion, the Kraus sum over tau_j^dagger y tau_j."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (rd.ell, rd.ell):
        raise ValueError(f"expected a {rd.ell}x{rd.ell} matrix, got {y.shape}")
    out = np.zeros((rd.n, rd.n), dtype=complex)
    for j in range(1, rd.width + 1):
        tau = kraus_operator(rd, j)
        out += tau.conj().T @ y @ tau
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
    b = np.asarray(b, dtype=complex)
    if b.shape != (rd.n, rd.n):
        raise ValueError(f"expected a {rd.n}x{rd.n} matrix, got {b.shape}")
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
