"""Classical highest weight vectors as certification oracles.

A weight vector here is described combinatorially: a tuple of partitions
(one per scaled factor, all of the same size k), a length-k index sequence
into factor 0, and one permutation of the k tensor slots per factor.  Its
value on a tensor is a sum over all index maps of a product of entry factors
and small antisymmetrized determinants, evaluated by the naive expansion.
These polynomials are triangular eigenvectors of the group action, which is
what makes them usable as progress potentials for the scaling loop: the
module checks that law (check_hwv_transformation) and each step's growth of
the potential (verify_progress), and searches for a description that does
not vanish on a tensor.  The capacity objective is the one scaling logs.

Evaluation cost is k times the number of index maps on which every
determinant functional is nonzero, at most k * (n1 * ... * nd)**k, so
everything in this module is meant for desk-scale certification, not
production-sized tensors.  One evaluator serves every input: it sums the
expansion over those index maps, gathering the entry products in one pass.
The maps depend only on the format, the weight and the slot permutations,
not on the tensor's entries or on the rows of factor 0 that the index
sequence selects, so each such triple has one compact plan (never a dense
n**k table): every term's k positions within one row of factor 0, and its
sign.  Building a plan first checks its cost against the evaluation budget.
A compact plan of at most 4 KiB, counting 8 bytes per position and sign, is
memoized, in a memo of 2,048 plans that therefore holds at most 8 MiB; a
larger plan is built per call.

A description resolves its compact plan on its first evaluation on a tensor
shape: it checks itself against the format, in O(d + k), and adds to each
slot's positions the offset of the row it reads, so that they index x.data
directly.  When the compact plan is memoized, the description holds the
resolved plan, read-only and in the smallest unsigned type that holds every
position of x.data, until it resolves one for another shape or is itself
freed.  Every later evaluation on a tensor of that shape is one gather of
entry products from x.data, one product over the k slots and one signed
sum.  A held plan shares the memo's signs and costs about 400 bytes on small
formats: under tracemalloc, the 3,105 descriptions of degree at most 4 on
(1;2,2), (2;2,2), (1;3,2) and (1;2,2,2) hold 1.2 MiB besides the memos'
0.9 MiB.

On a Gaussian-integer tensor whose entry components are at most B in
modulus (B >= 1), every partial product and partial sum of the expansion is
an integer below 2**53 when k * log2(sqrt(2) * B * n1 * ... * nd) < 53, and
the value is exact.  Every other input is exact up to floating error.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import as_int, as_partition, conjugate_partition, partitions_of
from .scaling import TargetSpectrum
from .tensors import Tensor, apply_group

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

    # (shape, positions, signs) of the last memoizable plan that
    # _resolve_plan built, kept out of the fields, so out of eq and hash
    _plan = None

    def __post_init__(self):
        weight = tuple(as_partition(lam, "weight") for lam in self.weight)
        if not weight:
            raise ValueError("weight needs at least one factor")
        sums = {sum(lam) for lam in weight}
        if len(sums) != 1:
            raise ValueError(f"factor weights must have equal sums, got {sums}")
        k = sums.pop()
        if k < 1:
            raise ValueError("degree must be positive")
        index_seq = tuple(as_int(v, "index_seq", low=0) for v in self.index_seq)
        if len(index_seq) != k:
            raise ValueError(f"index_seq must hold k = {k} entries")
        perms = tuple(tuple(as_int(v, "perms") for v in pi) for pi in self.perms)
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


# With this memo, on a 2-core x86-64 host with one BLAS thread, a fresh
# process evaluates the 3,105 k <= 4 descriptions of (1;2,2), (2;2,2), (1;3,2)
# and (1;2,2,2) in 82-91 ms (264-272 without), and a 13,824-term (1;4,4,4)
# degree-4 plan, rebuilt per call, in 0.83-0.92 ms (0.98-1.42 without)
@functools.lru_cache(maxsize=128)
def _det_terms(lam: tuple[int, ...], perm: tuple[int, ...], n: int,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard basis slot assignments on which the antisymmetrized
    determinant functional is nonzero, as a read-only (terms, k) index array
    in row-major order, and the functional's value (a sign) on each.

    For each column block of height h the assigned basis indices must be
    exactly the top h coordinates, with the sign of their arrangement.  The
    blocks take disjoint slots (block c the slots perm[o : o + h], o being
    the heights of the blocks before it), so the terms are the products of
    one arrangement per block.  Memoized, so every caller shares one pair;
    _term_plan calls __wrapped__ for a pair past _DET_TERMS_MEMO_BYTES.
    """
    heights = conjugate_partition(lam)
    # cols[t] lists the columns n-1-cols[t] of a block's arrangement t
    blocks = [np.fromiter(itertools.chain.from_iterable(
        itertools.permutations(range(h)) if h <= n else ()),
        dtype=np.intp).reshape(-1, h) for h in heights]
    # one axis per block, indexing its arrangement, then the k slots
    slots = np.empty([len(cols) for cols in blocks] + [k], dtype=np.intp)
    signs = np.ones(())
    start = 0
    for c, (h, cols) in enumerate(zip(heights, blocks)):
        shape = [1] * len(blocks) + [h]
        shape[c] = len(cols)
        slots[..., perm[start:start + h]] = (n - 1 - cols).reshape(shape)
        inversions = sum((cols[:, a] > cols[:, b] for a, b
                          in itertools.combinations(range(h), 2)),
                         np.zeros(len(cols), dtype=int))
        signs = np.multiply.outer(signs, 1.0 - 2.0 * (inversions % 2))
        start += h
    slots = slots.reshape(-1, k)
    order = np.lexsort(slots.T[::-1])
    slots, signs = slots[order], signs.ravel()[order]
    slots.flags.writeable = False
    signs.flags.writeable = False
    return slots, signs


# _term_plan memoizes a pair of at most this many bytes, so the 128 entries
# of _det_terms hold at most 8 MiB; a (1;8), k = 8 pair holds 2.9 MB
_DET_TERMS_MEMO_BYTES = 1 << 16


def _term_count(lam: tuple[int, ...], n: int) -> int:
    """Number of terms of _det_terms's pair for lam on dimension n."""
    heights = conjugate_partition(lam)
    return math.prod(math.factorial(h) if h <= n else 0 for h in heights)


def _plan_terms(weight: tuple[tuple[int, ...], ...],
                dims: tuple[int, ...]) -> int:
    """Number of terms of a plan: one per index map on which every
    determinant functional is nonzero, at most (n1 * ... * nd)**k."""
    return math.prod(_term_count(lam, n) for lam, n in zip(weight, dims))


def _term_plan(weight: tuple[tuple[int, ...], ...],
               perms: tuple[tuple[int, ...], ...], dims: tuple[int, ...],
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """A description's compact plan on scaled dimensions ``dims``, for any
    index sequence: read-only (terms, k) positions within one row of factor
    0 (slot a reads row index_seq[a]), in the smallest unsigned type that
    holds them, and read-only float64 signs.  The terms run in row-major
    order over the factors' arrangements, as a gather over x.data reads
    them.  Refuses, before building anything, a plan whose k * terms exceeds
    DEFAULT_EVAL_BUDGET, so a memoized plan has passed that check.
    """
    counts = [_term_count(lam, n) for lam, n in zip(weight, dims)]
    cost = k * math.prod(counts)
    if cost > DEFAULT_EVAL_BUDGET:
        raise EvalBudgetError(
            f"evaluation needs {cost} terms, budget is {DEFAULT_EVAL_BUDGET}")
    offsets = np.zeros(k, dtype=np.intp)
    signs = np.ones(())
    for lam, perm, n, terms in zip(weight, perms, dims, counts):
        memoized = terms * (k + 1) * 8 <= _DET_TERMS_MEMO_BYTES
        slots, det_signs = (_det_terms if memoized
                            else _det_terms.__wrapped__)(lam, perm, n, k)
        offsets = offsets[..., None, :] * n + slots
        signs = np.multiply.outer(signs, det_signs)
    positions = offsets.reshape(-1, k).astype(
        np.min_scalar_type(math.prod(dims) - 1))
    signs = signs.flatten()  # a copy, so no view keeps the outer product
    positions.flags.writeable = False
    signs.flags.writeable = False
    return positions, signs


# _memoized_plan keeps a plan of at most this many bytes, counting 8 per
# position and sign, so its 2,048 entries hold at most 8 MiB; the formats
# (2,2), (3,2) and (2,2,2) have 1,359 plans at k <= 4, of at most 2,560 bytes
_PLAN_MEMO_BYTES = 1 << 12


@functools.lru_cache(maxsize=2048)
def _memoized_plan(weight: tuple[tuple[int, ...], ...],
                   perms: tuple[tuple[int, ...], ...], dims: tuple[int, ...],
                   k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """_term_plan's pair if it fits _PLAN_MEMO_BYTES, else None: a larger
    plan is built per call.  First checks the weight against the scaled
    dimensions; a refusal is raised on every call, never memoized."""
    if len(weight) != len(dims):
        raise ValueError(f"spec has {len(weight)} factors, tensor has {len(dims)}")
    for lam, n in zip(weight, dims):
        # lam is nonincreasing, so it has more than n parts iff lam[n] > 0
        if len(lam) > n and lam[n] > 0:
            raise ValueError(f"weight {lam} has more than {n} parts")
    if _plan_terms(weight, dims) * (k + 1) * 8 > _PLAN_MEMO_BYTES:
        return None
    return _term_plan(weight, perms, dims, k)


def _resolve_plan(spec: HWVSpec, shape: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(shape, positions, signs): the description's compact plan on a tensor
    of this shape, slot a's positions shifted by index_seq[a] rows to index
    x.data directly, in the smallest unsigned type that holds every position
    of x.data.  Checks the description against the format first, and
    refuses an index sequence that leaves factor 0's range.  Held on
    ``spec`` when the compact plan is memoized, so its size is bounded by
    _PLAN_MEMO_BYTES."""
    dims, k = shape[1:], len(spec.index_seq)
    compact = _memoized_plan(spec.weight, spec.perms, dims, k)
    if max(spec.index_seq) >= shape[0]:
        raise ValueError("index sequence leaves factor 0's range")
    size = math.prod(dims)
    shifts = np.array([i * size for i in spec.index_seq],
                      np.min_scalar_type(shape[0] * size - 1))
    positions, signs = compact or _term_plan(spec.weight, spec.perms, dims, k)
    plan = shape, positions + shifts, signs
    if compact is not None:
        plan[1].setflags(write=False)
        object.__setattr__(spec, "_plan", plan)
    return plan


def evaluate_hwv(spec: HWVSpec, x: Tensor) -> complex:
    """Value of the weight vector on ``x`` by the naive sum over index maps,
    restricted to the maps on which every determinant functional is nonzero:
    one gather of the k-fold entry products from x.data and one signed sum.

    The first evaluation on a tensor shape checks the description against
    the format and factor 0's range, and resolves its plan.  When that plan
    is memoized, the description holds it until it resolves one for another
    shape, so a repeat evaluation on its shape reads it and gathers at once;
    a description whose plan exceeds 4 KiB resolves it on every call.

    Exact on Gaussian-integer tensors within the 2**53 bound of the module
    docstring, otherwise exact up to floating error.  Refuses evaluations
    whose k * (number of terms) exceeds DEFAULT_EVAL_BUDGET, before
    building any table.
    """
    data = x.data
    plan = spec._plan
    if plan is None or plan[0] != data.shape:
        plan = _resolve_plan(spec, data.shape)
    products = np.multiply.reduce(data.take(plan[1]), axis=1)
    return complex(products @ plan[2])


def evaluation_bound(spec: HWVSpec, x: Tensor) -> float:
    """Upper bound (n1 ... nd)**k * norm(x)**k on |value|."""
    k = spec.degree
    return float(np.prod([float(n) for n in x.dims]) ** k * x.norm() ** k)


# --------------------------------------------------------------------------
# Characters
# --------------------------------------------------------------------------


def character(weight: Sequence[Sequence[int]],
              group: Sequence[np.ndarray]) -> complex:
    """Character value on a tuple of triangular matrices: the product of
    each factor's diagonal entries raised to the weight entries, as the
    scaling loop's running capacity reads the diagonal of each step."""
    value = 1.0 + 0.0j
    for lam, mat in zip(weight, group):
        mat = np.asarray(mat, dtype=complex)
        if len(lam) != mat.shape[0]:
            raise ValueError("weight length must match matrix size")
        for exp, diag in zip(lam, np.diag(mat)):
            if diag == 0 and exp < 0:
                raise ZeroDivisionError("zero diagonal with negative exponent")
            value *= diag ** exp
    return complex(value)


def check_hwv_transformation(spec: HWVSpec, x: Tensor,
                             group: Sequence[np.ndarray],
                             rtol: float = 1e-8) -> bool:
    """Verify the triangular eigenvector law: the value on the transformed
    tensor equals the value on ``x`` times the character of the weight read
    bottom-up, with zeros past each partition's length.

    The comparison carries an absolute floor proportional to the evaluation
    bound, since a functional may vanish identically on ``x`` and leave
    only floating noise on both sides.
    """
    transformed = apply_group(group, x)
    lhs = evaluate_hwv(spec, transformed)
    bottom_up = [tuple(reversed((tuple(lam) + (0,) * n)[:n]))
                 for lam, n in zip(spec.weight, x.dims)]
    rhs = character(bottom_up, group) * evaluate_hwv(spec, x)
    tol = rtol * max(abs(lhs), abs(rhs)) \
        + 1e-12 * evaluation_bound(spec, transformed)
    return abs(lhs - rhs) <= tol


# --------------------------------------------------------------------------
# Progress of the potential
# --------------------------------------------------------------------------


def verify_progress(spec: HWVSpec, y: Tensor, y_next: Tensor,
                    eps_i: float) -> bool:
    """Check the per-step growth of the potential, up to a relative 1e-6:
    |P(next)| >= 2**(k * eps_i**2 / (32 ln 2)) * |P(current)|."""
    k = spec.degree
    before = abs(evaluate_hwv(spec, y))
    after = abs(evaluate_hwv(spec, y_next))
    needed = 2.0 ** (k * PROGRESS_CONST * eps_i**2) * before
    return after >= (1.0 - 1e-6) * needed


# --------------------------------------------------------------------------
# Exhaustive spec search
# --------------------------------------------------------------------------


def canonical_slot_permutations(lam: Sequence[int], k: int
                                ) -> list[tuple[int, ...]]:
    """One representative permutation per distinct determinant functional.

    Permutations that only reorder slots within a column block, or swap
    whole blocks of equal height, change the functional by at most a sign,
    so a single representative per block-content signature suffices: the
    one whose equal-height blocks come in increasing order of first slot.
    """
    heights = list(conjugate_partition(lam))
    if sum(heights) != k:
        raise ValueError("partition size must equal the degree")
    # blocks from last_run on all have the last height and fill the slots
    # left by the earlier blocks; in increasing order of first slot, each
    # of them starts at the smallest slot still free
    last_run = len(heights)
    while last_run > 0 and heights[last_run - 1] == heights[-1]:
        last_run -= 1
    reps: list[tuple[int, ...]] = []

    def rec(remaining: frozenset[int], blocks: list[tuple[int, ...]]):
        b = len(blocks)
        if b == len(heights):
            reps.append(tuple(itertools.chain.from_iterable(blocks)))
            return
        after = blocks[-1][0] if b and heights[b - 1] == heights[b] else -1
        slots = sorted(remaining)
        for combo in itertools.combinations(slots, heights[b]):
            if b >= last_run and combo[0] > slots[0]:
                break
            if combo[0] > after:
                rec(remaining - set(combo), blocks + [combo])

    rec(frozenset(range(k)), [])
    return reps


def _specs_of_weight(weight: tuple[tuple[int, ...], ...], n0: int, k: int):
    """Every description of degree k >= 1 with the given weight, a tuple of
    partitions of k in Python ints: index sequences outermost, one
    representative permutation tuple per functional.

    Those parts make every description valid by construction, so each is
    built without HWVSpec's checks, equal to the checked one.
    """
    if k < 1:
        raise ValueError("degree must be positive")
    perm_choices = [canonical_slot_permutations(lam, k) for lam in weight]
    for index_seq in itertools.product(range(n0), repeat=k):
        for perms in itertools.product(*perm_choices):
            spec = object.__new__(HWVSpec)
            object.__setattr__(spec, "weight", weight)
            object.__setattr__(spec, "index_seq", index_seq)
            object.__setattr__(spec, "perms", perms)
            yield spec


def enumerate_specs(dims: Sequence[int], n0: int, k: int):
    """All weight-vector descriptions of degree k on the given format, one
    representative per distinct functional."""
    weight_choices = [list(partitions_of(k, n)) for n in dims]
    for weight in itertools.product(*weight_choices):
        yield from _specs_of_weight(tuple(weight), n0, k)


def find_nonvanishing_spec(x: Tensor, p: TargetSpectrum, max_degree: int = 4
                           ) -> HWVSpec | None:
    """Earliest weight-vector description (in enumeration order) whose value
    on ``x`` exceeds 1e-8 in modulus, among degrees k that make k * p
    integral."""
    ell = p.denominator_lcm
    for k in range(ell, as_int(max_degree, "max_degree") + 1, ell):
        weight = tuple(tuple(int(k * v) for v in vec) for vec in p.parts)
        for spec in _specs_of_weight(weight, x.n0, k):
            if abs(evaluate_hwv(spec, x)) > 1e-8:
                return spec
    return None
