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

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import as_partition, conjugate_partition
from .tensors import Tensor

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

    @functools.cached_property
    def mu(self) -> tuple[int, ...]:
        """Conjugate partition of lam, computed on first read."""
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


# (width, ell) source tables of at most a few hundred bytes on desk-scale
# partitions, so the 256 entries hold a few hundred KiB.  reduce_tensor on
# (1;2,2,2) with (2,1)^3 takes 26-31 us on a hit and 80-87 us rebuilt, in
# certify's 0.85-1.23 ms cross-oracle queries at its p95 tail (2-core x86-64)
@functools.lru_cache(maxsize=256)
def _placement(lam: tuple[int, ...]) -> tuple[ReductionData, np.ndarray]:
    """A partition's ReductionData and its read-only placement table: row j
    of the (width, ell) table reads coordinate n - mu_j + (r - offset_j) at
    column r of Kraus block j, and the zero pad n elsewhere.  Memoized by
    the partition as a tuple of Python ints, so reduce_tensor checks and
    conjugates each partition once."""
    rd = ReductionData(lam)
    src = np.full((rd.width, rd.ell), rd.n)
    for j, (off, mu) in enumerate(rd._blocks()):
        src[j, off: off + mu] = np.arange(rd.n - mu, rd.n)
    src.setflags(write=False)
    return rd, src


def reduce_tensor(y: Tensor, lams: Sequence[Sequence[int]]) -> Tensor:
    """Expanded tensor of format (n0 * width_1 * ... * width_d; ell, ..., ell).

    Applies the per-factor embedding v -> sum_j e_j (x) tau_j v on every
    scaled factor, by placing blocks with no matrix product, so a real
    tensor stays real, and regroups the width indices into factor 0 in
    row-major order (index0, a1, ..., ad).
    """
    try:
        # each entry is read by the integer rule first: 2.0 hashes like 2
        placements = [_placement(as_partition(lam, "lam")) for lam in lams]
    except TypeError as exc:  # lams is not iterable
        raise ValueError(f"need a sequence of partitions, got {lams!r}") from exc
    rds = [rd for rd, _ in placements]
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

    # the embedding as block placement: coordinate n of each factor is a
    # zero pad, which _placement's tables read outside the Kraus blocks.
    # One gather, with factor i's index spread over axes i (width) and
    # d + i (ell) of the index shape, puts the width axes before the ell
    # axes: (n0, a1..ad, ell_1..ell_d)
    d = y.num_factors
    padded = np.zeros((y.n0,) + tuple(n + 1 for n in y.dims), y.data.dtype)
    padded[tuple(map(slice, y.shape))] = y.data
    index = [slice(None)]
    for i, (rd, src) in enumerate(placements):
        axes = [1] * (2 * d)
        axes[i], axes[d + i] = rd.width, ell
        index.append(src.reshape(axes))
    data = padded[tuple(index)]
    front = y.n0 * int(np.prod([rd.width for rd in rds]))
    return Tensor(data.reshape((front,) + (ell,) * d))
