"""Dense tensors of format (n0; n1, ..., nd), real or complex.

A tensor of this format is stored as an ndarray of shape (n0, n1, ..., nd),
laid out row-major over (index0, index1, ..., indexd): float64 when no entry
has a nonzero imaginary part, else complex128 (see _real_if_real).  Every
matrix that acts on a tensor follows the same rule, so real data is scaled
in real arithmetic, and a complex result comes only from complex data.
Factor 0 is distinguished: group tuples act on factors 1..d only and leave
factor 0 untouched.  Every flattening reads the one axis order that
flattening builds.
Layout rule: a Tensor stores a row-major copy, and contract reads a
row-major array as (P, n_i, Q) and returns a row-major image without moving
an axis, so the scaling iterate stays C-contiguous, and the next contraction
or flattening reads it without a transposed copy.

Factors are labeled 0..d throughout; the scaled factors carry the 1-based
labels 1..d used in the rest of the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)

GroupTuple = tuple  # d square real or complex matrices acting on factors 1..d


class SingularMarginalError(ArithmeticError):
    """A marginal required to be nonsingular is numerically singular."""


class NumericBreakdownError(ArithmeticError):
    """A scaling run's iterate or accumulated group left the finite
    floating-point range."""


class NonFiniteEntriesError(ValueError):
    """A tensor was given entries that are not all finite: a usage error for
    given data only; computed data past the float range is a breakdown."""


def _real_if_real(a) -> np.ndarray:
    """The package's one dtype rule: integer, bool and float arrays as
    float64; a complex array with no nonzero imaginary part as its contiguous
    float64 real part; any other array as complex128."""
    a = np.asarray(a)
    if a.dtype.kind in "biuf":
        return a.astype(float, copy=False)
    a = a.astype(complex, copy=False)
    return a if np.count_nonzero(a.imag) else np.ascontiguousarray(a.real)


@dataclass(frozen=True, eq=False)
class Tensor:
    """Dense tensor with a distinguished 0th factor, stored by the rule of
    _real_if_real: float64 for real entries, else complex128.

    Entries are immutable after construction; all operations in this module
    are pure functions, so values are freely shareable across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        # a row-major copy: the caller's stays writable, and sums read one order
        data = np.array(_real_if_real(self.data), order="C")
        if data.ndim < 2:
            raise ValueError("a tensor needs factor 0 plus at least one scaled factor")
        if min(data.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise NonFiniteEntriesError("tensor entries must be finite")
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

    @np.errstate(over="ignore")  # an overflowing sum of squares is redone
    def norm(self) -> float:
        """l2 norm of the entry sequence, to rounding whenever it is a finite
        float: a sum of squares that overflows, or that falls below tiny and
        loses bits to underflow, is redone as m * ||x / m|| over the real and
        imaginary parts, m the largest of their moduli.  A norm past the
        largest float is inf."""
        norm = float(np.linalg.norm(self.data))
        if _SQRT_TINY <= norm < math.inf:
            return norm
        parts = self.data.ravel().view(float)
        top = float(np.max(np.abs(parts)))
        if top == 0.0:
            return 0.0
        return top * float(np.linalg.norm(parts / top))

    def is_gaussian_integer(self) -> bool:
        """True when every entry has integer real and imaginary parts, read
        in one pass over their float view (a real tensor's own entries)."""
        parts = self.data.ravel().view(float)
        return bool(np.all(parts == np.round(parts)))

    def entry_bitsize(self) -> int:
        """Bit size of the largest entry component, at least 1.

        For Gaussian-integer tensors this is the exact bit length; for other
        inputs the magnitude is rounded up first.
        """
        top = float(np.abs(self.data.ravel().view(float)).max())
        return max(1, math.ceil(top).bit_length())


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate conjugate symmetry relative to the Frobenius norm; return a
    by the dtype rule of _real_if_real, so a real matrix is solved real."""
    a = _real_if_real(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.linalg.norm(a), np.finfo(float).tiny)
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def marginal(x: Tensor, i: int) -> np.ndarray:
    """One-body marginal of factor i (1-based), the Gram matrix of the
    i-th flattening.  PSD with trace equal to norm(x)**2."""
    if not 1 <= i <= x.num_factors:
        raise ValueError(f"factor index must be in 1..{x.num_factors}, got {i}")
    m = flattening(x.data, i)
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


def flattening(data: np.ndarray, i: int) -> np.ndarray:
    """The i-th flattening of the raw array data: axis i as rows, the other
    axes in order (0, 1, ...) as columns."""
    order = (i,) + tuple(j for j in range(data.ndim) if j != i)
    return data.transpose(order).reshape(data.shape[i], -1)


def contract(m: np.ndarray, data: np.ndarray, i: int) -> np.ndarray:
    """The matrix m acting on axis i of the raw array data, as a C-contiguous
    array: the values of np.moveaxis(np.tensordot(m, data, axes=([1], [i])),
    0, i), without its transpose copies.  Strided data is made contiguous
    first and handed to contract_folded.  No copy moves an axis, and the
    result needs none: the bench's large workload ran about a fifth more
    queries per second for it (2-core x86-64, one BLAS thread).  m may be
    non-square; a mismatched axis raises ValueError.
    """
    data = np.ascontiguousarray(data)
    before, n, after = data.shape[:i], data.shape[i], data.shape[i + 1:]
    out = contract_folded(m, data, (math.prod(before), n, math.prod(after)))
    return out.reshape(before + m.shape[:1] + after)


def contract_folded(m: np.ndarray, data: np.ndarray,
                    axes: tuple[int, int, int]) -> np.ndarray:
    """m acting on the C-contiguous data read as axes = (P, n, Q), P and Q
    the products of the axes before and after the one m acts on: data @ m^T
    when Q = 1 < P, else one batched np.matmul (at P = 1, m @ data's BLAS call),
    in the shape that product leaves.  contract and the scaling loop, which
    passes each factor's axes, make every product by this one call."""
    p, n, q = axes
    if q == 1 < p:
        return data.reshape(p, n) @ m.T
    return np.matmul(m, data.reshape(p, n, q))


def apply_group(g: Sequence[np.ndarray], x: Tensor) -> Tensor:
    """Act with the group tuple g on factors 1..d; factor 0 is untouched.
    An image past the float range raises NumericBreakdownError, unwarned."""
    if len(g) != x.num_factors:
        raise ValueError(f"expected {x.num_factors} factors, got {len(g)}")
    data = x.data
    with np.errstate(over="ignore", invalid="ignore"):
        for i, m in enumerate(g):
            m = _real_if_real(m)
            if m.shape != (x.dims[i], x.dims[i]):
                raise ValueError(f"factor {i + 1} matrix has shape {m.shape}, "
                                 f"expected {(x.dims[i], x.dims[i])}")
            data = contract(m, data, i + 1)
    try:
        return Tensor(data)
    except NonFiniteEntriesError as exc:
        raise NumericBreakdownError(
            "a group's image left the floating-point range") from exc


def identity_group(dims: Sequence[int]) -> GroupTuple:
    return tuple(np.eye(n, dtype=complex) for n in dims)


def compose_group(g: Sequence[np.ndarray], h: Sequence[np.ndarray]) -> GroupTuple:
    """Factorwise product g @ h, so apply_group(compose_group(g, h), x)
    equals apply_group(g, apply_group(h, x)).  A product with a non-finite
    entry raises NumericBreakdownError, unwarned."""
    if len(g) != len(h):
        raise ValueError("group tuples must have the same number of factors")
    with np.errstate(over="ignore", invalid="ignore"):
        out = tuple(_real_if_real(a) @ _real_if_real(b) for a, b in zip(g, h))
    if not all(np.isfinite(m).all() for m in out):
        raise NumericBreakdownError(
            "a composed group left the floating-point range")
    return out
