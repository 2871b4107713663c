"""Dense complex tensors of format (n0; n1, ..., nd).

A tensor of this format is stored as a complex ndarray of shape
(n0, n1, ..., nd), laid out row-major over (index0, index1, ..., indexd).
Factor 0 is distinguished: group tuples act on factors 1..d only and leave
factor 0 untouched.  All flattening orders derive from the row-major layout.

Factors are labeled 0..d throughout; the scaled factors carry the 1-based
labels 1..d used in the rest of the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12

GroupTuple = tuple  # tuple of d square complex matrices acting on factors 1..d


class SingularMarginalError(ArithmeticError):
    """A marginal required to be nonsingular is numerically singular."""


class NumericBreakdownError(ArithmeticError):
    """A scaling run's iterate or accumulated group left the finite
    floating-point range."""


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense complex tensor with a distinguished 0th factor.

    Entries are immutable after construction; all operations in this module
    are pure functions, so values are freely shareable across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=complex)
        if data.ndim < 2:
            raise ValueError("a tensor needs factor 0 plus at least one scaled factor")
        if any(n < 1 for n in data.shape):
            raise ValueError(f"all dimensions must be >= 1, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("tensor entries must be finite")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n0(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        """Dimensions (n1, ..., nd) of the scaled factors."""
        return self.data.shape[1:]

    @property
    def num_factors(self) -> int:
        """Number d of scaled factors."""
        return self.data.ndim - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def norm(self) -> float:
        """l2 norm of the entry sequence."""
        return float(np.linalg.norm(self.data))

    def is_gaussian_integer(self) -> bool:
        """True when every entry has integer real and imaginary parts."""
        return bool(
            np.all(self.data.real == np.round(self.data.real))
            and np.all(self.data.imag == np.round(self.data.imag))
        )

    def entry_bitsize(self) -> int:
        """Bit size of the largest entry component, at least 1.

        For Gaussian-integer tensors this is the exact bit length; for other
        inputs the magnitude is rounded up first.
        """
        top = max(
            float(np.max(np.abs(self.data.real))),
            float(np.max(np.abs(self.data.imag))),
        )
        return max(1, int(np.ceil(top)).bit_length())


def check_hermitian(a: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate conjugate symmetry relative to the Frobenius norm."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > rtol * max(scale, np.finfo(float).tiny):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def flatten(x: Tensor, subset: Sequence[int]) -> np.ndarray:
    """Flattening of ``x`` with factor labels in ``subset`` as rows.

    Rows enumerate the subset's multi-indices in row-major order (ascending
    factor label); columns enumerate the complement likewise.
    """
    labels = sorted(set(subset))
    all_labels = range(x.num_factors + 1)
    if not labels or any(i not in all_labels for i in labels):
        raise ValueError(f"subset must be a nonempty subset of 0..{x.num_factors}")
    complement = [i for i in all_labels if i not in labels]
    if not complement:
        raise ValueError("subset must be a proper subset of the factor labels")
    rows = int(np.prod([x.shape[i] for i in labels]))
    return np.transpose(x.data, labels + complement).reshape(rows, -1)


def marginal(x: Tensor, i: int) -> np.ndarray:
    """One-body marginal of factor i (1-based), the Gram matrix of the
    i-th flattening.  PSD with trace equal to norm(x)**2."""
    if not 1 <= i <= x.num_factors:
        raise ValueError(f"factor index must be in 1..{x.num_factors}, got {i}")
    m = flatten(x, [i])
    return m @ m.conj().T


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted nonincreasingly."""
    a = check_hermitian(a)
    return np.linalg.eigvalsh(a)[::-1]


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm of a - b for Hermitian a, b (sum of absolute eigenvalues)."""
    a = check_hermitian(a)
    b = check_hermitian(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def apply_factor(m: np.ndarray, i: int, x: Tensor) -> Tensor:
    """Contract matrix ``m`` with factor i (1-based) of ``x``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[1] != x.shape[i]:
        raise ValueError(f"matrix shape {m.shape} does not fit factor {i} of {x.shape}")
    return Tensor(np.moveaxis(np.tensordot(m, x.data, axes=([1], [i])), 0, i))


def apply_group(g: Sequence[np.ndarray], x: Tensor) -> Tensor:
    """Act with the group tuple g on factors 1..d; factor 0 is untouched."""
    if len(g) != x.num_factors:
        raise ValueError(f"expected {x.num_factors} factors, got {len(g)}")
    data = x.data
    for i, m in enumerate(g):
        m = np.asarray(m, dtype=complex)
        if m.shape != (x.dims[i], x.dims[i]):
            raise ValueError(f"factor {i + 1} matrix has shape {m.shape}, "
                             f"expected {(x.dims[i], x.dims[i])}")
        data = np.moveaxis(np.tensordot(m, data, axes=([1], [i + 1])), 0, i + 1)
    return Tensor(data)


def identity_group(dims: Sequence[int]) -> GroupTuple:
    return tuple(np.eye(n, dtype=complex) for n in dims)


def compose_group(g: Sequence[np.ndarray], h: Sequence[np.ndarray]) -> GroupTuple:
    """Factorwise product g @ h, so apply_group(compose_group(g, h), x)
    equals apply_group(g, apply_group(h, x))."""
    if len(g) != len(h):
        raise ValueError("group tuples must have the same number of factors")
    return tuple(np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)
                 for a, b in zip(g, h))
