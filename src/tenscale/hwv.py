"""Classical highest weight vectors as certification oracles.

A weight vector here is described combinatorially: a tuple of partitions
(one per scaled factor, all of the same size k), a length-k index sequence
into factor 0, and one permutation of the k tensor slots per factor.  Its
value on a tensor is a sum over all index maps of a product of entry factors
and small antisymmetrized determinants, evaluated by the naive expansion.
These polynomials are triangular eigenvectors of the group action, which is
what makes them usable as progress potentials for the scaling loop.

Evaluation cost is k * (n1 * ... * nd)**k, so everything in this module is
meant for desk-scale certification, not production-sized tensors.
"""
from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import conjugate_partition, is_partition
from .scaling import TargetSpectrum, capacity
from .tensors import Tensor

DEFAULT_EVAL_BUDGET = 200_000_000

PROGRESS_CONST = 1.0 / (32.0 * math.log(2))


class EvalBudgetError(RuntimeError):
    """Raised instead of silently truncating an oversized evaluation."""


@dataclass(frozen=True)
class HWVSpec:
    """Combinatorial description of one highest weight vector.

    weight: one partition per scaled factor, all summing to the degree k.
    index_seq: k indices into factor 0 (0-based).
    perms: one permutation of range(k) per factor, in one-line notation.
    """

    weight: tuple[tuple[int, ...], ...]
    index_seq: tuple[int, ...]
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        weight = tuple(tuple(int(v) for v in lam) for lam in self.weight)
        if not weight:
            raise ValueError("weight needs at least one factor")
        sums = {sum(lam) for lam in weight}
        if len(sums) != 1:
            raise ValueError(f"factor weights must have equal sums, got {sums}")
        k = sums.pop()
        if k < 1:
            raise ValueError("degree must be positive")
        for lam in weight:
            if not is_partition(lam):
                raise ValueError(f"weight row is not a partition: {lam}")
        index_seq = tuple(int(v) for v in self.index_seq)
        if len(index_seq) != k or any(v < 0 for v in index_seq):
            raise ValueError("index sequence must hold k nonnegative entries")
        perms = tuple(tuple(int(v) for v in pi) for pi in self.perms)
        if len(perms) != len(weight):
            raise ValueError("need one slot permutation per factor")
        for pi in perms:
            if sorted(pi) != list(range(k)):
                raise ValueError(f"not a permutation of range({k}): {pi}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "index_seq", index_seq)
        object.__setattr__(self, "perms", perms)

    @property
    def degree(self) -> int:
        return sum(self.weight[0])

    @property
    def num_factors(self) -> int:
        return len(self.weight)


def det_bottom(vectors: Sequence[np.ndarray]) -> complex:
    """Determinant of the bottom block of the column-stacked vectors:
    entry (i, j) is component n-j of vector i (1-based)."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    ell = len(vecs)
    if ell == 0:
        return 1.0 + 0.0j
    n = vecs[0].shape[0]
    if any(v.shape != (n,) for v in vecs):
        raise ValueError("all vectors must share one dimension")
    if ell > n:
        raise ValueError(f"cannot take a {ell}x{ell} bottom block of C^{n}")
    mat = np.array([[v[n - 1 - j] for j in range(ell)] for v in vecs])
    return complex(np.linalg.det(mat))


def _perm_sign(positions: Sequence[int]) -> int:
    sign = 1
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                sign = -sign
    return sign


def _det_block_array(lam: Sequence[int], perm: Sequence[int], n: int,
                     k: int) -> np.ndarray:
    """Values of the antisymmetrized determinant functional on all standard
    basis slot assignments, as an array of shape (n,) * k.

    For each column block of height h the assigned basis indices must be
    exactly the top h coordinates; the value is the sign of their
    arrangement, else zero.
    """
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
            total *= _perm_sign(cols)
        if total:
            arr[assign] = total
    return arr


def eval_cost(dims: Sequence[int], k: int) -> int:
    return k * int(np.prod([int(n) for n in dims])) ** k


def evaluate_hwv(spec: HWVSpec, x: Tensor,
                 max_terms: int = DEFAULT_EVAL_BUDGET) -> complex:
    """Value of the weight vector on ``x`` by the naive sum over index maps.

    Exact for integer tensors up to floating error.  Refuses evaluations
    whose term count k * (n1...nd)**k exceeds ``max_terms``.
    """
    k = spec.degree
    d = x.num_factors
    if spec.num_factors != d:
        raise ValueError(f"spec has {spec.num_factors} factors, tensor has {d}")
    for lam, n in zip(spec.weight, x.dims):
        if sum(1 for v in lam if v > 0) > n:
            raise ValueError(f"weight {lam} has more than {n} parts")
    if any(v >= x.n0 for v in spec.index_seq):
        raise ValueError("index sequence leaves factor 0's range")
    cost = eval_cost(x.dims, k)
    if cost > max_terms or k * d > len(string.ascii_letters):
        raise EvalBudgetError(
            f"evaluation needs {cost} terms, budget is {max_terms}")

    labels = [[string.ascii_letters[a * d + i] for i in range(d)]
              for a in range(k)]
    operands: list[np.ndarray] = []
    subscripts: list[str] = []
    for a in range(k):
        operands.append(np.asarray(x.data[spec.index_seq[a]]))
        subscripts.append("".join(labels[a]))
    for i in range(d):
        operands.append(_det_block_array(spec.weight[i], spec.perms[i],
                                         x.dims[i], k))
        subscripts.append("".join(labels[a][i] for a in range(k)))
    value = np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return complex(value)


def evaluation_bound(spec: HWVSpec, x: Tensor) -> float:
    """Upper bound (n1 ... nd)**k * norm(x)**k on |value|."""
    k = spec.degree
    return float(np.prod([float(n) for n in x.dims]) ** k * x.norm() ** k)


# --------------------------------------------------------------------------
# Characters
# --------------------------------------------------------------------------


def character(weight: Sequence[Sequence[int]], group: Sequence[np.ndarray],
              blocks: Sequence[Sequence[int]] | None = None) -> complex:
    """Character value on a tuple of (block-)triangular matrices.

    Without blocks: the product of each factor's diagonal entries raised to
    the weight entries.  With blocks, the weight must be constant on each
    block and block determinants replace the diagonal entries.
    """
    value = 1.0 + 0.0j
    for f, (lam, mat) in enumerate(zip(weight, group)):
        mat = np.asarray(mat, dtype=complex)
        if blocks is None:
            if len(lam) != mat.shape[0]:
                raise ValueError("weight length must match matrix size")
            for exp, diag in zip(lam, np.diag(mat)):
                if diag == 0 and exp < 0:
                    raise ZeroDivisionError("zero diagonal with negative exponent")
                value *= diag ** exp
        else:
            lo = 0
            for size in blocks[f]:
                exps = set(lam[lo: lo + size])
                if len(exps) != 1:
                    raise ValueError("weight must be constant on each block")
                det = np.linalg.det(mat[lo: lo + size, lo: lo + size])
                exp = exps.pop()
                if det == 0 and exp < 0:
                    raise ZeroDivisionError("zero block with negative exponent")
                value *= det ** exp
                lo += size
            if lo != mat.shape[0]:
                raise ValueError("blocks do not tile the matrix")
    return complex(value)


def _transform_factor(spec: HWVSpec, group: Sequence[np.ndarray]) -> complex:
    """Multiplier picked up by the weight vector under a triangular action:
    the product over factors and positions j of R_jj ** lam[n - 1 - j]."""
    value = 1.0 + 0.0j
    for lam, mat in zip(spec.weight, group):
        n = np.asarray(mat).shape[0]
        padded = tuple(lam) + (0,) * (n - len(lam))
        for j in range(n):
            value *= complex(mat[j, j]) ** padded[n - 1 - j]
    return value


def check_hwv_transformation(spec: HWVSpec, x: Tensor,
                             group: Sequence[np.ndarray],
                             rtol: float = 1e-8,
                             max_terms: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Verify the triangular eigenvector law: the value on the transformed
    tensor equals the character multiplier times the value on ``x``.

    The comparison carries an absolute floor proportional to the evaluation
    bound, since a functional may vanish identically on ``x`` and leave
    only floating noise on both sides.
    """
    from .tensors import apply_group

    transformed = apply_group(group, x)
    lhs = evaluate_hwv(spec, transformed, max_terms=max_terms)
    rhs = _transform_factor(spec, group) * evaluate_hwv(spec, x,
                                                        max_terms=max_terms)
    tol = rtol * max(abs(lhs), abs(rhs)) \
        + 1e-12 * evaluation_bound(spec, transformed)
    return abs(lhs - rhs) <= tol


# --------------------------------------------------------------------------
# Capacity, divergence, progress
# --------------------------------------------------------------------------


def capacity_value(x: Tensor, p: TargetSpectrum,
                   group: Sequence[np.ndarray]) -> float:
    """Capacity objective norm(R . x) * |chi(R)| at a triangular tuple R.

    The character modulus uses block determinants on the target's
    multiplicity pattern, which agrees with the plain diagonal product
    whenever R is fully triangular.
    """
    from .tensors import apply_group

    y = apply_group(group, x)
    return capacity(group, p.capacity_blocks(), y.norm())


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Relative entropy sum p_j log2(p_j / q_j) of a probability vector
    against a subnormalized nonnegative vector; +inf on support violation."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("vectors must have equal length")
    if np.any(q < 0):
        raise ValueError("second argument must be entrywise nonnegative")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise ValueError("first argument must be a probability vector")
    total = 0.0
    for pj, qj in zip(p, q):
        if pj == 0.0:
            continue
        if qj == 0.0:
            return math.inf
        total += pj * math.log2(pj / qj)
    return total


def pinsker_gap(p: Sequence[float], r: np.ndarray) -> tuple[float, float]:
    """Both sides of the divergence bound for a unit-trace factorization.

    For rho = R R^dagger of unit trace, the squared moduli of R's diagonal
    form a subnormalized vector q, and the divergence of p against q
    dominates the squared trace distance between diag(p) and rho over
    16 ln 2.  Returns (divergence, dominated quantity).
    """
    r = np.asarray(r, dtype=complex)
    rho = r @ r.conj().T
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"factorization must have unit trace, got {tr}")
    q = np.abs(np.diag(r)) ** 2
    lhs = kl_divergence(p, q)
    from .tensors import trace_distance

    rhs = trace_distance(np.diag(np.asarray(p, dtype=float)), rho) ** 2 \
        / (16.0 * math.log(2))
    return lhs, rhs


def verify_progress(spec: HWVSpec, y: Tensor, y_next: Tensor, eps_i: float,
                    slack: float = 1e-6,
                    max_terms: int = DEFAULT_EVAL_BUDGET) -> bool:
    """Check the per-step growth of the potential:
    |P(next)| >= 2**(k * eps_i**2 / (32 ln 2)) * |P(current)|."""
    k = spec.degree
    before = abs(evaluate_hwv(spec, y, max_terms=max_terms))
    after = abs(evaluate_hwv(spec, y_next, max_terms=max_terms))
    needed = 2.0 ** (k * PROGRESS_CONST * eps_i**2) * before
    return after >= (1.0 - slack) * needed


# --------------------------------------------------------------------------
# Exhaustive spec search
# --------------------------------------------------------------------------


def canonical_slot_permutations(lam: Sequence[int], k: int
                                ) -> list[tuple[int, ...]]:
    """One representative permutation per distinct determinant functional.

    Permutations that only reorder slots within a column block, or swap
    whole blocks of equal height, change the functional by at most a sign,
    so a single representative per block-content signature suffices.
    """
    heights = list(conjugate_partition(tuple(v for v in lam if v > 0)))
    if sum(heights) != k:
        raise ValueError("partition size must equal the degree")
    reps: list[tuple[int, ...]] = []
    seen: set[tuple] = set()

    def rec(remaining: frozenset[int], blocks: list[tuple[int, ...]]):
        if len(blocks) == len(heights):
            signature = tuple(sorted(
                (h, blk) for h, blk in zip(heights, blocks)))
            if signature not in seen:
                seen.add(signature)
                reps.append(tuple(itertools.chain.from_iterable(blocks)))
            return
        h = heights[len(blocks)]
        for combo in itertools.combinations(sorted(remaining), h):
            rec(remaining - set(combo), blocks + [combo])

    rec(frozenset(range(k)), [])
    return reps


def enumerate_specs(dims: Sequence[int], n0: int, k: int):
    """All weight-vector descriptions of degree k on the given format, one
    representative per distinct functional."""
    from .partitions import partitions_of

    weight_choices = [list(partitions_of(k, n)) for n in dims]
    for weight in itertools.product(*weight_choices):
        perm_choices = [canonical_slot_permutations(lam, k) for lam in weight]
        for index_seq in itertools.product(range(n0), repeat=k):
            for perms in itertools.product(*perm_choices):
                yield HWVSpec(weight=tuple(weight), index_seq=index_seq,
                              perms=perms)


def find_nonvanishing_spec(x: Tensor, p: TargetSpectrum, max_degree: int = 4,
                           tol: float = 1e-8,
                           max_terms: int = DEFAULT_EVAL_BUDGET
                           ) -> HWVSpec | None:
    """Earliest weight-vector description (in enumeration order) that does
    not vanish on ``x``, among degrees k that make k * p integral."""
    ell = p.denominator_lcm
    for k in range(ell, max_degree + 1, ell):
        weight = tuple(tuple(int(k * v) for v in vec) for vec in p.parts)
        perm_choices = [canonical_slot_permutations(lam, k) for lam in weight]
        for index_seq in itertools.product(range(x.n0), repeat=k):
            for perms in itertools.product(*perm_choices):
                spec = HWVSpec(weight=weight, index_seq=index_seq, perms=perms)
                if abs(evaluate_hwv(spec, x, max_terms=max_terms)) > tol:
                    return spec
    return None
