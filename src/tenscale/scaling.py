"""Alternating scaling of tensors to prescribed one-body marginal spectra.

The engine drives an upper-triangular (Borel) or block-upper-triangular
(parabolic) update loop: after an initial random integer basis change, the
factor whose marginal is farthest from its target is fixed exactly by a
triangular factorization, until every marginal is within the requested trace
distance or the iteration budget runs out.  Rank obstructions detected after
the randomization yield a not-in-polytope verdict.  Each failure has one
rule: _gate decides singularity, at the start and for each stepped factor
(by interlacing, the Schur blocks a factorization meets after it need no
check), and _Iterate breakdown, a norm outside (0, inf): ||y|| of the start
and of each resync, nu of each step.
One run function, _core_loop, takes a start from restriction to report.  Its
_Iterate holds the normalized iterate, the group carrying the start to it,
its block tables and its last measurement.  Steps update them; only a halt
resyncs from scratch, before its witness is measured on the input.  A step
costs one contraction and d - 1 Gram matrices: nu**2 = tr(a rho_j a^dagger)
of the gated marginal is the stepped iterate's norm, the contraction with
a / nu leaves it normalized, and a rho_j a^dagger / nu**2 is factor j's new
marginal (see _Iterate).

Targets with zero entries are handled by restricting each factor to its last
r_i coordinates, scaling the restricted tensor to half the tolerance, and
padding the resulting group b back with a diagonal block delta * I, where
delta = min(1, eps / (8 ||start|| prod_i max(1, ||b_i||_F))) keeps every
marginal within eps / 4 of the restricted one: a halt makes one witness
measurement.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .partitions import as_int
from .tensors import (
    GroupTuple,
    NonFiniteEntriesError,
    NumericBreakdownError,
    SingularMarginalError,
    Tensor,
    apply_group,
    compose_group,
    check_hermitian,
    contract,
    identity_group,
)

BOREL = "borel"
PARABOLIC = "parabolic"
THEORETICAL = "theoretical"

SCALED = "SCALED"
NOT_IN_POLYTOPE = "NOT_IN_POLYTOPE"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"

DEFAULT_RAND_RANGE = 1 << 16
SINGULARITY_RTOL = 1e-12
_GATE_MARGIN = 1e3 * SINGULARITY_RTOL  # see _gate
# A format whose d flattenings hold at most this many entries in all (d times
# its entry count) takes every marginal of a dimension group from one gather
# of the raw iterate.  Past it the gathered stacks outgrow 128 KiB, and the
# factor-by-factor copies cost less than the gather's scattered reads.
GATHER_MAX_ENTRIES = 8192


# --------------------------------------------------------------------------
# Targets and configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSpectrum:
    """Tuple of nonincreasing rational probability vectors, one per scaled
    factor.  Entries are exact fractions; sums are exactly 1."""

    parts: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        parts = tuple(tuple(v if type(v) is Fraction else Fraction(v)
                            for v in vec) for vec in self.parts)
        if not parts:
            raise ValueError("a target needs at least one factor")
        for vec in parts:
            if not vec:
                raise ValueError("empty spectrum vector")
            # the entries as integers over their common denominator
            den = math.lcm(*(v.denominator for v in vec))
            ints = [v.numerator * (den // v.denominator) for v in vec]
            if any(v < 0 or v > den for v in ints):
                raise ValueError(f"entries must lie in [0, 1]: {vec}")
            if any(ints[j] < ints[j + 1] for j in range(len(vec) - 1)):
                raise ValueError(f"spectrum must be nonincreasing: {vec}")
            if sum(ints) != den:
                raise ValueError(f"spectrum must sum to exactly 1: {vec}")
        object.__setattr__(self, "parts", parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(vec) for vec in self.parts)

    @property
    def num_factors(self) -> int:
        return len(self.parts)

    @property
    def denominator_lcm(self) -> int:
        """Least positive integer l making every l * p_j integral."""
        return math.lcm(*(v.denominator for vec in self.parts for v in vec))

    def has_zeros(self) -> bool:
        return any(vec[-1] == 0 for vec in self.parts)

    def ranks(self) -> tuple[int, ...]:
        """Number of nonzero entries per factor."""
        return tuple(sum(1 for v in vec if v > 0) for vec in self.parts)

    @functools.cached_property
    def _ascending(self) -> tuple[np.ndarray, ...]:
        """Read-only float entries of every factor in ascending order,
        converted from the fractions once."""
        out = tuple(np.array([float(v) for v in reversed(vec)])
                    for vec in self.parts)
        for asc in out:
            asc.flags.writeable = False
        return out

    def ascending(self, i: int) -> np.ndarray:
        """Float entries of factor i (1-based) in ascending order, the
        diagonal the scaling loop drives marginal i toward; a fresh
        writable array on every call."""
        return self._ascending[i - 1].copy()

    def block_sizes(self, i: int) -> tuple[int, ...]:
        """Multiplicities of the distinct values of factor i's ascending
        arrangement, decided by exact rational equality."""
        vec = tuple(reversed(self.parts[i - 1]))
        sizes = []
        for j, v in enumerate(vec):
            if j > 0 and v == vec[j - 1]:
                sizes[-1] += 1
            else:
                sizes.append(1)
        return tuple(sizes)

    def capacity_blocks(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """Per factor, (start, stop, exponent) of each block of equal
        ascending entries; the exponent is the block's common entry."""
        return tuple(_block_table(asc, self.block_sizes(i))
                     for i, asc in enumerate(self._ascending, start=1))

    @classmethod
    def uniform(cls, dims: Sequence[int]) -> "TargetSpectrum":
        return cls(tuple(tuple(Fraction(1, n) for _ in range(n)) for n in dims))

    @classmethod
    def from_floats(cls, parts: Sequence[Sequence[float]]) -> "TargetSpectrum":
        """Rationalize floating targets by continued fractions with
        denominators up to 10**6, then repair the largest entry so the sum
        is exact."""
        out = []
        for vec in parts:
            approx = [Fraction(float(v)).limit_denominator(10**6) for v in vec]
            approx[0] += 1 - sum(approx)
            out.append(tuple(approx))
        return cls(tuple(out))


def _block_table(asc: np.ndarray, sizes: Sequence[int]
                 ) -> tuple[tuple[int, int, float], ...]:
    """(start, stop, asc[start]) of each block of the given sizes."""
    return tuple((lo, lo + b, float(asc[lo]))
                 for lo, b in zip(itertools.accumulate(sizes, initial=0), sizes))


@dataclass(frozen=True)
class ScalingConfig:
    """Knobs for a single scaling run.

    rand_range is the sampling range {1, ..., M} for the initial basis
    change; the "theoretical" sentinel computes the worst-case range in
    exact integer arithmetic.  randomize=False starts run_scaling from the
    input itself, which suffices for uniform targets in parabolic mode and
    is what the Borel-orbit cross-checks need; run_general_scaling always
    samples its start and ignores it.
    """

    epsilon: float
    seed: int = 0
    rand_range: int | str = DEFAULT_RAND_RANGE
    mode: str = BOREL
    max_iters: int | None = None
    randomize: bool = True
    log_capacity: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.mode not in (BOREL, PARABOLIC):
            raise ValueError(f"mode must be {BOREL!r} or {PARABOLIC!r}")
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if self.rand_range != THEORETICAL:
            object.__setattr__(self, "rand_range",
                               as_int(self.rand_range, "rand_range", low=1))
        if self.max_iters is not None:
            object.__setattr__(self, "max_iters",
                               as_int(self.max_iters, "max_iters", low=1))


@dataclass
class IterationRecord:
    """One scaling step: chosen factor (1-based), trace distances of all
    marginals before the step, the norm nu of the updated tensor before
    renormalization, read off the stepped marginal as sqrt(tr(a rho a^dagger)),
    and the logged capacity objective."""

    index: int
    distances: tuple[float, ...]
    norm: float
    capacity: float


@dataclass
class ScalingReport:
    verdict: str
    group: GroupTuple
    iterations: int
    trace: list[IterationRecord]
    budget: int
    epsilon: float
    note: str = ""


# --------------------------------------------------------------------------
# Randomization
# --------------------------------------------------------------------------


def randomization_bounds(ell: int, d: int, dims: Sequence[int]) -> tuple[int, int]:
    """Exact worst-case degree bound K and sampling range M = 2*d*K for a
    run with common denominator ell on factors of the given dimensions."""
    if ell < 1 or d < 1:
        raise ValueError("ell and d must be positive")
    n_max = max(dims)
    k = (ell * d * n_max) ** (d * n_max * n_max)
    return k, 2 * d * k


def _to_float(v: int) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _uniform_draws(seed: int, count: int, rand_range: int) -> np.ndarray:
    """The floats [rng.randint(1, rand_range) for _ in range(count)] of
    rng = random.Random(seed), drawn in bulk.

    Below 2**32, randint tries the top rand_range.bit_length() bits of one
    32-bit Mersenne Twister output and rejects values >= rand_range; one
    getrandbits(32 * m) returns the next m outputs, the first in the lowest
    word.  Larger ranges take several outputs per try and draw one by one;
    a draw past the float range is inf, which the caller's start or sample
    then reports as a numeric breakdown.
    """
    rng = random.Random(seed)
    if rand_range >= 1 << 32:
        return np.array([_to_float(rng.randint(1, rand_range)) for _ in range(count)])
    bits = rand_range.bit_length()
    kept = [np.empty(0, dtype=np.uint32)]
    need = count
    while need > 0:
        # the expected number of tries plus about three standard deviations,
        # so one round almost always suffices; surplus outputs go unused
        tries = (need << bits) // rand_range + 4 * math.isqrt(need) + 4
        words = np.frombuffer(rng.getrandbits(32 * tries).to_bytes(4 * tries, "little"),
                              dtype="<u4") >> (32 - bits)
        kept.append(words[words < rand_range][:need])
        need -= len(kept[-1])
    return np.concatenate(kept) + 1.0


def random_group(dims: Sequence[int], rand_range: int, seed: int) -> GroupTuple:
    """Tuple of matrices with entries drawn independently and uniformly from
    {1, ..., rand_range}.  Deterministic for a fixed seed; entries are drawn
    factor by factor in row-major order, exactly as random.Random(seed)'s
    randint(1, rand_range) would draw them."""
    dims = [as_int(n, "dims", low=1) for n in dims]
    entries = _uniform_draws(as_int(seed, "seed"), sum(n * n for n in dims),
                             as_int(rand_range, "rand_range", low=1))
    factors, lo = [], 0
    for n in dims:
        factors.append(entries[lo:lo + n * n].astype(complex).reshape(n, n))
        lo += n * n
    return tuple(factors)


# --------------------------------------------------------------------------
# Triangular factorizations
# --------------------------------------------------------------------------


def _assert_nonsingular(rho: np.ndarray) -> None:
    """Raise SingularMarginalError unless the smallest eigenvalue of rho lies
    above SINGULARITY_RTOL times its trace."""
    low = np.linalg.eigvalsh(rho)[0]
    ref = SINGULARITY_RTOL * np.trace(rho).real
    if low <= ref:
        raise SingularMarginalError(
            f"smallest eigenvalue {low:.3e} below threshold {ref:.3e}")


def _gate(rho: np.ndarray, bound: float) -> None:
    """The singularity rule of the scaling loop: raise SingularMarginalError
    unless rho's smallest eigenvalue lies above SINGULARITY_RTOL times its
    trace.

    ``bound`` is the Weyl bound lambda_min(rho - D) + min(D) <= lambda_min(rho)
    for the target diagonal D, its first term from _Iterate.measure.  One
    above _GATE_MARGIN * max(tr rho, 1) skips the exact check's eigvalsh.
    eigvalsh errs by a small multiple of n * 2.2e-16 times the norm, and
    ||rho - D|| and ||rho|| are at most max(tr rho, 1), so even for n in the
    thousands a bound clearing 1e-9 of it leaves the exact check's eigenvalue
    far above its 1e-12 threshold: the bound passes only what the check does.
    Each Schur complement _block_cholesky then forms has a principal block of
    inv(rho) as inverse, so by interlacing it and its diagonal blocks keep
    least eigenvalue at least lambda_min(rho).
    """
    trace = math.fsum(rho.diagonal().real.tolist())  # as _Iterate.step reads it
    if bound <= _GATE_MARGIN * max(trace, 1.0):
        _assert_nonsingular(rho)


def upper_cholesky(rho: np.ndarray) -> np.ndarray:
    """Upper-triangular R with positive diagonal and R @ R^dagger = rho."""
    return block_cholesky(rho, (1,) * len(rho))


def block_cholesky(rho: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Block-upper-triangular R with Hermitian PSD diagonal blocks and
    R @ R^dagger = rho.

    A single block gives the Hermitian square root; all blocks of size 1
    give the upper-triangular Cholesky factor.  In between, blocks are
    eliminated bottom-up through Schur complements.
    """
    rho = check_hermitian(rho)
    n = rho.shape[0]
    sizes = tuple(as_int(b, "block_sizes", low=1) for b in block_sizes)
    if sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} do not tile dimension {n}")
    _assert_nonsingular(rho)
    return _block_cholesky(rho, sizes)


def _block_cholesky(rho: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """block_cholesky on a Hermitian rho with valid sizes that passed the
    singularity rule unless it is one block.  By interlacing (see _gate) no
    Schur complement block needs a check, so a LinAlgError is numeric."""
    if len(sizes) == 1:
        eigs, vecs = np.linalg.eigh(rho)
        return (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    if all(b == 1 for b in sizes):
        # the lower Cholesky factor of the coordinate-reversed matrix
        return np.linalg.cholesky(rho[::-1, ::-1])[::-1, ::-1]

    bounds = np.concatenate(([0], np.cumsum(sizes)))
    out = np.zeros_like(rho, dtype=complex)
    work = np.array(rho, dtype=complex)
    for j in range(len(sizes) - 1, -1, -1):
        lo, hi = bounds[j], bounds[j + 1]
        diag = work[lo:hi, lo:hi]
        r_jj = _block_cholesky(diag, (hi - lo,))
        out[lo:hi, lo:hi] = r_jj
        if lo > 0:
            coupling = work[:lo, lo:hi] @ np.linalg.inv(r_jj)
            out[:lo, lo:hi] = coupling
            work[:lo, :lo] -= coupling @ coupling.conj().T
    return out


# --------------------------------------------------------------------------
# Iteration budgets
# --------------------------------------------------------------------------

_BUDGET_CONST = 32 * math.log(2)


def _budget(epsilon: float, weight: float) -> int:
    """max(1, ceil(_BUDGET_CONST / epsilon**2 * weight)), in floats where
    that is finite, else exactly from Fraction(epsilon): below epsilon near
    1e-153 the float quotient overflows, and epsilon**2 underflows to 0."""
    raw = _BUDGET_CONST / epsilon**2 * weight if epsilon**2 > 0 else math.inf
    if not math.isfinite(raw):
        raw = Fraction(_BUDGET_CONST) / Fraction(epsilon)**2 * Fraction(weight)
    return max(1, math.ceil(raw))


def iteration_budget(shape: Sequence[int], bits: int, epsilon: float,
                     log2_range: float) -> int:
    """Step budget of the orbit scaling loop.

    ``shape`` is the full format (n0, n1, ..., nd), ``bits`` the input entry
    bit size, ``log2_range`` the log2 of the randomization range in use.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = len(shape) - 1
    logs = sum(math.log2(n) for n in shape)
    return _budget(epsilon, 3 * logs + bits + d * log2_range)


def general_iteration_budget(shape: Sequence[int], coeff_bits: int,
                             epsilon: float, degree: int, param_dim: int,
                             log2_range: float) -> int:
    """Step budget when the start point is sampled through a homogeneous
    parametrization of the variety instead of a random basis change."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    logs_all = sum(math.log2(n) for n in shape)
    logs_scaled = sum(math.log2(n) for n in shape[1:])
    return _budget(epsilon, logs_scaled
                   + 0.5 * (logs_all + coeff_bits
                            + degree * (math.log2(max(param_dim, 1))
                                        + log2_range)))


# --------------------------------------------------------------------------
# Singular targets: restriction and padding
# --------------------------------------------------------------------------


def restrict_positive(x: Tensor, p: TargetSpectrum
                      ) -> tuple[Tensor, TargetSpectrum, tuple[int, ...]]:
    """Drop the zero part of the target: keep the last r_i coordinates of
    factor i, where r_i counts the nonzero entries of p's factor i."""
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")
    ranks = p.ranks()
    slices = (slice(None),) + tuple(slice(n - r, n) for n, r in zip(x.dims, ranks))
    p_plus = TargetSpectrum(tuple(vec[:r] for vec, r in zip(p.parts, ranks)))
    return Tensor(x.data[slices]), p_plus, ranks


def pad_scaling(b_plus: Sequence[np.ndarray], p: TargetSpectrum,
                epsilon: float, norm_x: float) -> GroupTuple:
    """Extend a group tuple for the restricted problem back to the full
    dimensions with a leading block delta * I, where delta = min(1, epsilon
    / (8 norm_x prod_i max(1, ||b_i||_F))) and norm_x is the start's norm.

    The tuple is block diagonal, so each entry of (padded . start) outside
    the restricted block is delta**m, m >= 1, times its entry under the
    identity-padded tuple.  That remainder R has norm at most delta * norm_x
    * prod_i max(1, ||b_i||_2) <= epsilon / 8 and no entry in common with
    the unit restricted image, so each marginal moves by at most 2 ||R|| +
    ||R||**2 <= epsilon / 4 + epsilon**2 / 64 in trace norm.  The loop halts
    at epsilon / 2, so for epsilon <= 16 the witness passes whenever the
    resynced restricted iterate did.  A factor with a non-finite entry, or
    a delta that underflows to 0, raises NumericBreakdownError.
    """
    if not all(np.all(np.isfinite(b)) for b in b_plus):
        raise NumericBreakdownError(
            "the scaling group left the floating-point range")
    growth = math.prod(max(1.0, float(np.linalg.norm(b))) for b in b_plus)
    delta = min(1.0, epsilon / (8.0 * norm_x * growth))
    if delta == 0.0 and p.has_zeros():
        raise NumericBreakdownError(
            f"the zero-target pad underflowed: start norm {norm_x:.3e}, "
            f"group growth {growth:.3e}")
    out = []
    for vec_len, r, b in zip(p.dims, p.ranks(), b_plus):
        full = np.zeros((vec_len, vec_len), dtype=complex)
        full[: vec_len - r, : vec_len - r] = delta * np.eye(vec_len - r)
        full[vec_len - r:, vec_len - r:] = b
        out.append(full)
    return tuple(out)


# --------------------------------------------------------------------------
# Scaling steps
# --------------------------------------------------------------------------


def _dimension_groups(shape: tuple[int, ...]) -> list[list[int]]:
    """The 0-based scaled factors of the format grouped by dimension, in
    order of first appearance."""
    by_dim: dict[int, list[int]] = {}
    for j, n in enumerate(shape[1:]):
        by_dim.setdefault(n, []).append(j)
    return list(by_dim.values())


def _front(ndim: int, i: int) -> tuple[int, ...]:
    """The axis order (i, 0, 1, ...) of tensors.marginal's flattening."""
    return (i,) + tuple(j for j in range(ndim) if j != i)


@functools.lru_cache(maxsize=64)
def _flattening_index(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per dimension group of the format, a read-only (k, n, N) array of
    row-major positions: gathered from a raw tensor's ravel, its t-th
    matrix is the flattening of the group's t-th factor."""
    pos = np.arange(math.prod(shape)).reshape(shape)
    out = []
    for factors in _dimension_groups(shape):
        n = shape[factors[0] + 1]
        index = np.stack([pos.transpose(_front(len(shape), j + 1)).reshape(n, -1)
                          for j in factors])
        index.flags.writeable = False
        out.append(index)
    return tuple(out)


class _Iterate:
    """A scaling loop's state: the raw iterate y = group . x0, normalizations
    folded into group[0], and y's last measurement: marginals rhos, distances
    dists to the target diagonals and least eigenvalues lows of rho - D.

    A step makes one pass over y, the contraction with a / nu: nu**2 =
    tr(a rho_j a^dagger), read off the gated marginal, is the norm of a
    applied to y, so no norm or divide pass follows.  The congruence
    a rho_j a^dagger / nu**2 is factor j's new marginal, so only the other
    d - 1 are measured, one Gram matrix each (a gather still forms its whole
    dimension group in one call).  The start and a resync measure all d.

    groups pairs the 0-based factors of each distinct dimension with their
    stacked target diagonals; index holds their flattening positions from
    _flattening_index when the d flattenings hold at most GATHER_MAX_ENTRIES
    entries, else None.  roots[j], floors[j] and blocks[j] are factor j + 1's
    target root vector, smallest target entry and step block sizes.  The group
    stays block upper triangular on them (inv's LU never pivots on a triangular
    factor), so cap_blocks[j], the (start, stop, exponent) of each step block
    with its common target entry, is the table capacity reads.
    """

    def __init__(self, x0: Tensor, p: TargetSpectrum, mode: str = BOREL,
                 scale: float = 1.0):
        shape = x0.shape
        asc = [p.ascending(i) for i in range(1, len(shape))]
        self.groups, self.slots = [], {}
        for g, factors in enumerate(_dimension_groups(shape)):
            n = shape[factors[0] + 1]
            diags = np.zeros((len(factors), n, n), dtype=complex)
            diags[:, range(n), range(n)] = [asc[j] for j in factors]
            self.groups.append((factors, diags))
            self.slots.update({j: (g, t) for t, j in enumerate(factors)})
        gathered = (len(shape) - 1) * math.prod(shape)
        self.index = (_flattening_index(shape)
                      if gathered <= GATHER_MAX_ENTRIES else None)
        self.roots = [np.sqrt(a) for a in asc]
        self.floors = [float(a[0]) for a in asc]
        self.blocks = [p.block_sizes(i) if mode == PARABOLIC else (1,) * n
                       for i, n in enumerate(shape[1:], start=1)]
        self.cap_blocks = [_block_table(a, b) for a, b in zip(asc, self.blocks)]
        self.group = [np.eye(n, dtype=complex) for n in x0.dims]
        self.steps = 0
        self.renormalize(x0.data, scale)

    def _breakdown(self, norm: float) -> None:
        """The breakdown rule: a norm outside (0, inf) raises."""
        if not 0.0 < norm < math.inf:
            raise NumericBreakdownError(
                f"iterate left the floating-point range at step {self.steps}")

    def renormalize(self, y: np.ndarray, norm: float) -> None:
        """Take y / norm as the iterate, fold 1 / norm into group[0] and
        measure every factor: the start and each resync, whose norm ||y||
        passes the breakdown rule first."""
        self._breakdown(norm)
        self.y = y / norm
        self.group[0] = self.group[0] / norm
        self.measure()

    def step(self, j: int, a: np.ndarray) -> float:
        """Apply a / nu to factor j + 1 of the iterate and a to the group,
        fold 1 / nu into group[0] and return nu.  Factor j + 1's marginal
        becomes a rho_j a^dagger / nu**2, by its Hermitian part (the product
        is Hermitian only up to rounding); the others are measured."""
        self.steps += 1
        # ndarray.dot: the BLAS product of @, with less overhead on small n
        rho = a.dot(self.rhos[j]).dot(a.conj().T)
        # the trace, correctly rounded, without a NumPy reduction's overhead
        nu2 = math.fsum(rho.diagonal().real.tolist())
        self._breakdown(nu2)  # nu**2 in (0, inf), so nu too
        nu = math.sqrt(nu2)
        self.y = contract(a / nu, self.y, j + 1)
        self.group[j] = a.dot(self.group[j])
        self.group[0] = self.group[0] / nu
        rho += rho.conj().T
        rho *= 0.5 / nu2
        self.measure(j, rho)
        return nu

    def rule(self) -> tuple[int, np.ndarray]:
        """The step rule: the 0-based factor j farthest from its target (the
        lowest on ties), gated, and the _step_matrix that fixes its marginal."""
        j = self.dists.index(max(self.dists))
        _gate(self.rhos[j], self.lows[j] + self.floors[j])
        return j, _step_matrix(self.rhos[j], self.roots[j], self.blocks[j])

    def grams(self, skip: int | None = None) -> list[np.ndarray]:
        """One-body marginals of the raw iterate, one (k, n, n) stack per
        group, each the Gram matrix m @ m^dagger of a flattening m, exactly
        as tensors.marginal computes it: a stacked np.matmul calls the same
        BLAS product for each matrix as a single one does.  The per-factor
        path leaves factor ``skip``'s place unset, the gather path fills it."""
        stacks = []
        if self.index is not None:
            flat = self.y.ravel()
            for index in self.index:
                ms = flat[index]
                stacks.append(np.matmul(ms, ms.conj().swapaxes(1, 2)))
            return stacks
        for factors, diags in self.groups:
            n = diags.shape[-1]
            stack = np.empty((len(factors), n, n), dtype=complex)
            for j, gram in zip(factors, stack):
                if j != skip:
                    m = self.y.transpose(_front(self.y.ndim, j + 1)).reshape(n, -1)
                    np.matmul(m, m.conj().T, out=gram)
            stacks.append(stack)
        return stacks

    def measure(self, j: int | None = None, rho: np.ndarray | None = None
                ) -> None:
        """Set rhos, dists and lows from the raw iterate.  A step passes its
        factor j and the marginal rho it computed, which both paths report in
        place of j's Gram matrix.  Each rho_j is a Gram matrix, Hermitian by
        construction, or the Hermitian part of a step's congruence, so none
        is checked.

        Each dimension group takes one stacked eigvalsh.  LAPACK solves each
        matrix of a stack on its own, exactly as it solves that matrix alone,
        and each row's sum of absolute eigenvalues is the same reduction as
        np.sum over one spectrum, so the distances agree bit for bit with
        trace_distance on the same marginals.
        """
        stacks = self.grams(j)
        if j is not None:
            g, t = self.slots[j]
            stacks[g][t] = rho
        d = len(self.roots)
        rhos, dists, lows = [None] * d, [0.0] * d, [0.0] * d
        for (factors, diags), stack in zip(self.groups, stacks):
            eigs = np.linalg.eigvalsh(stack - diags)
            spread = np.add.reduce(np.abs(eigs), axis=1)
            for k, rho_k, dist, low in zip(factors, stack, spread.tolist(),
                                           eigs[:, 0].tolist()):
                rhos[k], dists[k], lows[k] = rho_k, dist, low
        self.rhos, self.dists, self.lows = rhos, dists, lows


def _step_matrix(rho: np.ndarray, root: np.ndarray,
                 blocks: tuple[int, ...]) -> np.ndarray:
    """Factor A with (A rho A^dagger) = diag(root)**2 for the root vector of
    the target and the Hermitian rho, which _gate passed; unit blocks are
    the Borel step."""
    # scaling the rows of inv(R) is the diagonal product, entry by entry
    return np.linalg.inv(_block_cholesky(rho, blocks)) * root[:, None]


def scaling_step(g: Sequence[np.ndarray], x: Tensor, p: TargetSpectrum,
                 mode: str = BOREL) -> tuple[GroupTuple, int, tuple[float, ...]]:
    """One alternating-minimization step on the unit-norm tensor g . x.

    Measures every marginal's trace distance to its target diagonal, picks
    the worst factor (smallest label wins ties) and updates that factor of g
    so the chosen marginal becomes exactly the target diagonal.  Returns the
    updated tuple, the 1-based chosen factor, and the measured distances.
    """
    if mode not in (BOREL, PARABOLIC):
        raise ValueError(f"unknown mode {mode!r}")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")
    y = apply_group(g, x)
    if abs(y.norm() - 1.0) > 1e-6:
        raise ValueError(f"g . x must have unit norm, got {y.norm():.6g}")
    it = _Iterate(y, p, mode)
    j, a = it.rule()
    g_new = [np.asarray(m, dtype=complex) for m in g]
    g_new[j] = a @ g_new[j]
    return tuple(g_new), j + 1, tuple(it.dists)


def _block_dets(group: Sequence[np.ndarray],
                blocks: Sequence[Sequence[tuple[int, int, float]]]
                ) -> dict[int, Iterator[complex]]:
    """Per block size above 1, the determinants of the blocks of that size
    in block order, from one stacked np.linalg.det, which factors each
    matrix on its own exactly as it factors that matrix alone."""
    stacks: dict[int, list[np.ndarray]] = {}
    for r, factor_blocks in zip(group, blocks):
        for lo, hi, _ in factor_blocks:
            if hi - lo > 1:
                stacks.setdefault(hi - lo, []).append(r[lo:hi, lo:hi])
    return {size: iter(np.linalg.det(np.array(mats)))
            for size, mats in stacks.items()}


def capacity(group: Sequence[np.ndarray],
             blocks: Sequence[Sequence[tuple[int, int, float]]],
             norm_y: float) -> float:
    """Capacity objective norm(R . X) * |chi(R)| for a triangular tuple R.

    ``norm_y`` is norm(R . X) and ``blocks`` is TargetSpectrum.capacity_blocks()
    or a refinement that R is block triangular on: the character modulus is
    a product of block determinants, read off the diagonal for 1x1 blocks.
    """
    value = norm_y
    dets = None
    for r, factor_blocks in zip(group, blocks):
        for lo, hi, exponent in factor_blocks:
            if hi - lo == 1:
                det = abs(r[lo, lo])
            else:
                if dets is None:  # every larger block at once, on first need
                    dets = _block_dets(group, blocks)
                det = abs(next(dets[hi - lo]))
            if det == 0.0:
                return math.inf
            value *= det ** -exponent
    return value


# --------------------------------------------------------------------------
# Full runs
# --------------------------------------------------------------------------


def _resolve_range(cfg: ScalingConfig, ell: int, d: int, dims: Sequence[int],
                   degree: int) -> int:
    if cfg.rand_range == THEORETICAL:
        k, _ = randomization_bounds(ell, d, dims)
        return 2 * degree * k
    return cfg.rand_range


def _core_loop(x: Tensor, start: Tensor, pre: GroupTuple, p: TargetSpectrum,
               cfg: ScalingConfig,
               budget_for: Callable[[tuple[int, ...], float], int],
               note: str = "") -> ScalingReport:
    """Scale ``start`` = pre . x toward p and report a group acting on x.

    Zero targets restrict the start to their positive part and run the loop
    at half the tolerance; a restriction that vanishes is rejected.  The
    step budget is budget_for(restricted format, loop tolerance).  The loop
    steps the restricted start x0 from the identity.  A candidate halt
    resyncs the iterate, which drifts at the boundary of scalability, by
    applying the loop's group to x0; if that passes, it composes and pads
    the group once and measures it once on x, and SCALED ships it.  The
    resync does not reuse that application of the composed group to x: it
    differs from the loop's iterate by rounding (and by the pad), and
    resyncing from it turns capped W -> uniform runs (eps = 1e-3) into a
    NOT_IN_POLYTOPE on a float-singular marginal.  Other verdicts compose
    and pad the loop's group without a measurement; a group with non-finite
    entries raises NumericBreakdownError.
    """
    if p.has_zeros():
        x0, p_active, _ = restrict_positive(start, p)
        epsilon = cfg.epsilon / 2.0
    else:
        x0, p_active, epsilon = start, p, cfg.epsilon
    norm_x0 = x0.norm()
    norm_start = norm_x0 if x0 is start else start.norm()
    if norm_x0 == 0.0:
        return ScalingReport(NOT_IN_POLYTOPE, pre, 0, [], 0, cfg.epsilon,
                             note="restricted tensor vanished")
    budget = budget_for((x0.n0,) + x0.dims, epsilon)
    trace: list[IterationRecord] = []

    def full(borel: Sequence[np.ndarray]) -> GroupTuple:
        # the loop's tuple composed with pre, zero-target factors padded back
        if p.has_zeros():
            borel = pad_scaling(borel, p, cfg.epsilon, norm_start)
        group = compose_group(borel, pre)
        if not all(np.all(np.isfinite(m)) for m in group):
            raise NumericBreakdownError(
                "the scaling group left the floating-point range")
        return group

    def report(verdict: str, group: GroupTuple) -> ScalingReport:
        return ScalingReport(verdict, group, len(trace), trace, budget,
                             cfg.epsilon, note=note)

    it = _Iterate(x0, p_active, cfg.mode, norm_x0)
    # the singularity rule compares each marginal with its own trace, so
    # the normalized start's marginals serve for x0's
    try:
        for rho, low, floor in zip(it.rhos, it.lows, it.floors):
            _gate(rho, low + floor)
    except SingularMarginalError:
        return report(NOT_IN_POLYTOPE, full(identity_group(x0.dims)))

    limit = cfg.max_iters if cfg.max_iters is not None else budget

    def verified_halt() -> bool:
        # resync by the loop's group; y_check is freed before the witness
        try:
            y_check = apply_group(tuple(it.group), x0)
        except NonFiniteEntriesError as exc:
            raise NumericBreakdownError(
                f"accumulated group left the floating-point range after "
                f"{len(trace)} steps") from exc
        it.renormalize(y_check.data, y_check.norm())
        return max(it.dists) <= epsilon

    while True:
        if max(it.dists) <= epsilon and verified_halt():
            group = full(it.group)
            if max(_Iterate(apply_group(group, x), p).dists) <= cfg.epsilon:
                return report(SCALED, group)
        if it.steps == limit:
            return report(BUDGET_EXHAUSTED, full(it.group))
        try:
            j, a = it.rule()
        except SingularMarginalError:
            return report(NOT_IN_POLYTOPE, full(it.group))
        dists = tuple(it.dists)
        nu = it.step(j, a)
        # it.y came out of the step normalized: norm(R . X) is 1 up to rounding
        cap = capacity(it.group, it.cap_blocks, 1.0) if cfg.log_capacity else math.nan
        trace.append(IterationRecord(j + 1, dists, nu, cap))


def run_scaling(x: Tensor, p: TargetSpectrum, cfg: ScalingConfig) -> ScalingReport:
    """Scale ``x`` toward the target spectra ``p``.

    Randomizes the basis (unless disabled), rejects the instance when a
    marginal of the randomized tensor is singular, then runs the alternating
    loop.  A SCALED verdict ships a group verified from scratch on x.
    """
    if x.norm() == 0.0:
        raise ValueError("input tensor must be nonzero")
    if p.dims != x.dims:
        raise ValueError(f"target dims {p.dims} do not match tensor dims {x.dims}")

    rng_range = _resolve_range(cfg, p.denominator_lcm, x.num_factors, x.dims,
                               degree=x.num_factors)
    if cfg.randomize:
        g0 = random_group(x.dims, rng_range, cfg.seed)
        log2_range = math.log2(rng_range)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                start = apply_group(g0, x)
        except NonFiniteEntriesError as exc:
            raise NumericBreakdownError(
                "the randomized start left the floating-point range") from exc
    else:
        g0, start, log2_range = identity_group(x.dims), x, 0.0
    bits = x.entry_bitsize()
    return _core_loop(x, start, g0, p, cfg,
                      lambda shape, eps: iteration_budget(shape, bits, eps,
                                                          log2_range))


# --------------------------------------------------------------------------
# Parametrized varieties
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Parametrization:
    """Homogeneous polynomial map from a parameter vector to a tensor.

    ``evaluate`` must satisfy evaluate(t * z) == t**degree * evaluate(z);
    ``coeff_bits`` bounds the bit size of the map's coefficients and feeds
    the iteration budget.
    """

    param_dim: int
    degree: int
    evaluate: Callable[[np.ndarray], Tensor]
    coeff_bits: int = 1

    def __post_init__(self):
        if self.param_dim < 1 or self.degree < 1:
            raise ValueError("param_dim and degree must be positive")


def identity_parametrization(dims: Sequence[int], n0: int = 1) -> Parametrization:
    """Parameters are the tensor entries themselves."""
    shape = (as_int(n0, "n0", low=1),) + tuple(as_int(n, "dims", low=1)
                                               for n in dims)
    size = int(np.prod(shape))
    return Parametrization(
        param_dim=size,
        degree=1,
        evaluate=lambda z: Tensor(np.asarray(z, dtype=complex).reshape(shape)),
    )


def mps_tensor(matrices: Sequence[np.ndarray], d: int) -> Tensor:
    """Tensor with entries tr[M_{j1} ... M_{jd}] in format (1; n, ..., n) from
    a nonempty list of n equal square matrices, else raises ValueError."""
    d = as_int(d, "d", low=2)
    try:
        stack = np.array(matrices, dtype=complex)  # (n, N, N)
    except TypeError as exc:
        raise ValueError(f"site matrices must hold numbers: {exc}") from exc
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("need a nonempty list of equal square site matrices")
    result = stack
    for _ in range(d - 1):
        result = np.einsum("...ab,jbc->...jac", result, stack)
    data = np.trace(result, axis1=-2, axis2=-1)
    return Tensor(data.reshape((1,) + (len(stack),) * d))


def mps_parametrization(n: int, bond_dim: int, d: int) -> Parametrization:
    """Parameters are the entries of n site matrices of size bond_dim."""
    n, bond_dim = as_int(n, "n", low=1), as_int(bond_dim, "bond_dim", low=1)
    d = as_int(d, "d", low=2)

    def evaluate(z: np.ndarray) -> Tensor:
        z = np.asarray(z, dtype=complex).reshape(n, bond_dim, bond_dim)
        return mps_tensor(list(z), d)

    return Parametrization(
        param_dim=n * bond_dim * bond_dim,
        degree=d,
        evaluate=evaluate,
    )


def run_general_scaling(phi: Parametrization, p: TargetSpectrum,
                        cfg: ScalingConfig) -> tuple[ScalingReport, Tensor]:
    """Sample a start tensor through ``phi`` and scale it toward ``p``.

    The sampled parameter vector has integer entries uniform in the
    resolved range; the loop then runs exactly as in run_scaling with no
    further basis change.  A zero sample is redrawn once.
    """
    dims = p.dims
    rng_range = _resolve_range(cfg, p.denominator_lcm, len(dims), dims,
                               degree=phi.degree)

    def draw(seed: int) -> tuple[Tensor, float]:
        # a sample or norm past the float range is a breakdown, not a warning
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = phi.evaluate(_uniform_draws(seed, phi.param_dim, rng_range))
                return x, x.norm()
        except NonFiniteEntriesError as exc:
            raise NumericBreakdownError(
                "the sampled start left the floating-point range") from exc

    note = ""
    x, norm = draw(cfg.seed)
    if norm == 0.0:
        x, norm = draw(cfg.seed + 0x9E3779B9)
        note = "parametrization vanished on the first sample; redrew once"
        if norm == 0.0:
            return (ScalingReport(NOT_IN_POLYTOPE, identity_group(dims), 0, [],
                                  0, cfg.epsilon,
                                  note="parametrization vanished twice"), x)
    if x.dims != dims:
        raise ValueError(f"parametrization produced format {x.shape}, "
                         f"target wants dims {dims}")

    def budget_for(shape: tuple[int, ...], eps: float) -> int:
        return general_iteration_budget(shape, phi.coeff_bits, eps, phi.degree,
                                        phi.param_dim, math.log2(rng_range))

    return _core_loop(x, x, identity_group(dims), p, cfg, budget_for,
                      note=note), x
